#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "obs/obs.h"
#include "parallel/pool.h"
#include "util/check.h"

namespace alem {
namespace {

// Rows per ParallelFor chunk when scoring the unlabeled pool. Small enough
// to load-balance across workers, large enough to amortize dispatch.
constexpr size_t kScoringGrain = 256;

// Scored candidate with a random key for tie-breaking; ranking is by
// (score, tie) so equal scores resolve uniformly at random.
struct ScoredRow {
  size_t row;
  double score;
  uint64_t tie;
};

// Picks the k candidates with the *largest* score. Strategies that want the
// smallest rank by the negated score, which yields the same comparator
// outcomes.
std::vector<size_t> TopK(std::vector<ScoredRow>& scored, size_t k) {
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), [](const ScoredRow& a, const ScoredRow& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.tie < b.tie;
                    });
  std::vector<size_t> rows(k);
  for (size_t i = 0; i < k; ++i) rows[i] = scored[i].row;
  return rows;
}

// Vote-variance ranking shared by both QBC flavors: rows[i] scores
// p(1 - p) for its committee's positive fraction p = fractions[i]. Tie keys
// are hashed from (tie_seed, row) — the seed is the RNG's next draw — so
// they do not depend on scoring order.
std::vector<size_t> TopVoteVariance(Rng& rng, const std::vector<size_t>& rows,
                                    const std::vector<double>& fractions,
                                    size_t k) {
  const uint64_t tie_seed = rng.Next();
  std::vector<ScoredRow> scored(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double p = fractions[i];
    scored[i] = ScoredRow{rows[i], p * (1.0 - p),
                          parallel::TaskSeed(tie_seed, rows[i])};
  }
  return TopK(scored, k);
}

template <typename RequiredLearner>
bool IsA(const Learner& model) {
  return dynamic_cast<const RequiredLearner*>(&model) != nullptr;
}

// Metrics shared by all selectors: #examples fully scored and #examples
// skipped by selection-time blocking (paper Section 5.1). The Select
// skeleton is the only caller.
void CountScored(size_t scored) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("selector.scored_examples");
  counter.Add(scored);
}

void CountPruned(size_t pruned) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("blocking.pruned");
  counter.Add(pruned);
}

// Bootstrap-fits a committee of `committee_size` clones of `model`, one
// member per pool task. Member seeds come from MemberSeeds(round_seed, m),
// so the result is identical at every thread count.
std::vector<std::unique_ptr<Learner>> FitBootstrapCommittee(
    const Learner& model, const ActivePool& pool, int committee_size,
    uint64_t round_seed) {
  const std::vector<size_t> labeled_rows = pool.ActiveLabeledRows();
  const std::vector<int> labeled_labels = pool.ActiveLabeledLabels();
  ALEM_CHECK(!labeled_rows.empty());

  std::vector<std::unique_ptr<Learner>> committee(
      static_cast<size_t>(committee_size));
  parallel::ParallelFor(
      0, static_cast<size_t>(committee_size), 1,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        for (size_t member = begin; member < end; ++member) {
          const CommitteeMemberSeeds seeds =
              MemberSeeds(round_seed, static_cast<int>(member));
          Rng member_rng(seeds.resample_seed);
          const std::vector<size_t> sample = member_rng.SampleWithReplacement(
              labeled_rows.size(), labeled_rows.size());
          std::vector<size_t> rows(sample.size());
          std::vector<int> labels(sample.size());
          for (size_t i = 0; i < sample.size(); ++i) {
            rows[i] = labeled_rows[sample[i]];
            labels[i] = labeled_labels[sample[i]];
          }
          std::unique_ptr<Learner> clone = model.CloneUntrained();
          clone->set_seed(seeds.learner_seed);
          clone->Fit(pool.features().Gather(rows), labels);
          committee[member] = std::move(clone);
        }
      },
      "selector.committee");
  return committee;
}

}  // namespace

CommitteeMemberSeeds MemberSeeds(uint64_t round_seed, int member) {
  std::seed_seq sequence{static_cast<uint32_t>(round_seed),
                         static_cast<uint32_t>(round_seed >> 32),
                         static_cast<uint32_t>(member)};
  uint32_t words[4];
  sequence.generate(words, words + 4);
  CommitteeMemberSeeds seeds;
  seeds.resample_seed = words[0] | (uint64_t{words[1]} << 32);
  seeds.learner_seed = words[2] | (uint64_t{words[3]} << 32);
  return seeds;
}

// ---- The skeleton ----

ExampleSelector::ExampleSelector(Traits traits)
    : detail_(std::move(traits.detail)),
      accepts_(traits.accepts),
      committee_size_(traits.committee_size) {
  if (traits.seed) rng_.emplace(*traits.seed);
}

std::vector<size_t> ExampleSelector::Select(const Learner& model,
                                            const ActivePool& pool, size_t k,
                                            SelectionTiming* timing) {
  ALEM_CHECK(CompatibleWith(model));
  if (pool.unlabeled_rows().empty()) return {};

  // Committee creation: bootstrap-resample the labeled data and train one
  // clone per member (one pool task each). This is the dominant cost of
  // learner-agnostic QBC (dashed lines in Fig. 10a-b).
  Committee committee;
  double committee_seconds = 0.0;
  if (committee_size_ > 0) {
    obs::ObsSpan committee_span("selector.committee", "selector", detail_);
    committee =
        FitBootstrapCommittee(model, pool, committee_size_, rng_->Next());
    committee_seconds = committee_span.Close();
  }

  obs::ObsSpan scoring_span("selector.scoring", "selector", detail_);
  Picks picks = Pick(model, pool, committee, k);
  const double scoring_seconds = scoring_span.Close();
  if (picks.scored) CountScored(*picks.scored);
  if (picks.pruned) CountPruned(*picks.pruned);
  if (timing != nullptr) {
    timing->committee_seconds = committee_seconds;
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = picks.scored.value_or(0);
    timing->pruned_examples = picks.pruned.value_or(0);
  }
  return std::move(picks.rows);
}

// ---- RandomSelector ----

RandomSelector::RandomSelector(uint64_t seed)
    : ExampleSelector({.detail = "Random", .seed = seed}) {}

ExampleSelector::Picks RandomSelector::Pick(const Learner& model,
                                            const ActivePool& pool,
                                            const Committee& committee,
                                            size_t k) {
  (void)model;
  (void)committee;
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  std::vector<size_t> rows = rng().SampleWithoutReplacement(
      unlabeled.size(), std::min(k, unlabeled.size()));
  for (size_t& row : rows) row = unlabeled[row];
  return {std::move(rows)};  // Nothing is scored.
}

// ---- QbcSelector ----

QbcSelector::QbcSelector(int committee_size, uint64_t seed)
    : ExampleSelector(
          {.detail = "QBC(" + std::to_string(committee_size) + ")",
           .committee_size = committee_size,
           .seed = seed}) {
  ALEM_CHECK_GE(committee_size, 2);
}

ExampleSelector::Picks QbcSelector::Pick(const Learner& model,
                                         const ActivePool& pool,
                                         const Committee& committee,
                                         size_t k) {
  (void)model;
  // Each member sweeps the whole pool through its batch kernel (the
  // PredictBatch fan-out runs under "ml.batch" inside the scoring span);
  // integer votes accumulate member-by-member, so the variance is exactly
  // the scalar per-example committee vote.
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  std::vector<int> votes(unlabeled.size(), 0);
  std::vector<int> member_votes(unlabeled.size());
  for (const auto& member : committee) {
    member->PredictBatch(pool.features(), unlabeled, member_votes.data());
    for (size_t i = 0; i < unlabeled.size(); ++i) votes[i] += member_votes[i];
  }
  std::vector<double> fractions(unlabeled.size());
  for (size_t i = 0; i < unlabeled.size(); ++i) {
    fractions[i] =
        static_cast<double>(votes[i]) / static_cast<double>(committee.size());
  }
  return {TopVoteVariance(rng(), unlabeled, fractions, k), unlabeled.size()};
}

// ---- ForestQbcSelector ----

ForestQbcSelector::ForestQbcSelector(uint64_t seed)
    : ExampleSelector({.detail = "ForestQBC",
                       .accepts = &IsA<ForestLearner>,
                       .seed = seed}) {}

ExampleSelector::Picks ForestQbcSelector::Pick(const Learner& model,
                                               const ActivePool& pool,
                                               const Committee& committee,
                                               size_t k) {
  (void)committee;
  // The committee already exists (it was trained as part of the forest):
  // one ProbaBatch sweep yields every example's positive tree fraction
  // through the flattened-forest kernel (all trees in one contiguous node
  // array), fanned out under "ml.batch".
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  std::vector<double> fractions(unlabeled.size());
  model.ProbaBatch(pool.features(), unlabeled, fractions.data());
  return {TopVoteVariance(rng(), unlabeled, fractions, k), unlabeled.size()};
}

// ---- MarginSelector ----

MarginSelector::MarginSelector(size_t blocking_dims)
    : ExampleSelector({.detail = "Margin", .accepts = &IsA<MarginLearner>}),
      blocking_dims_(blocking_dims) {}

ExampleSelector::Picks MarginSelector::Pick(const Learner& model,
                                            const ActivePool& pool,
                                            const Committee& committee,
                                            size_t k) {
  (void)committee;
  const auto& margin_learner = static_cast<const MarginLearner&>(model);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();

  // Blocking dimensions: the learner's top-K most discriminative features
  // (top |weight| for linear models, back-propagated weight products for
  // neural networks). When all blocking dimensions of an example are zero,
  // its margin reduces to a constant whose sign is an unambiguous
  // prediction — skip it.
  std::vector<size_t> blocking;
  if (blocking_dims_ > 0) {
    blocking = margin_learner.BlockingDimensions(blocking_dims_);
  }

  // Two passes. First a cheap blocking scan — the scalar early-exit path —
  // gathers survivors; blocking makes the per-chunk output variable-length,
  // so chunks fill private slots that are concatenated in chunk index order
  // afterwards (the merged order equals the serial scan order at any thread
  // count). Survivors then get their margins in one MarginBatch sweep
  // through the learner's vector kernel (fanned out under "ml.batch").
  const size_t num_chunks =
      parallel::NumChunks(0, unlabeled.size(), kScoringGrain);
  std::vector<std::vector<size_t>> chunk_survivors(num_chunks);
  std::vector<size_t> chunk_pruned(num_chunks, 0);
  parallel::ParallelFor(
      0, unlabeled.size(), kScoringGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        std::vector<size_t>& local = chunk_survivors[chunk];
        local.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          const size_t row = unlabeled[i];
          const float* x = pool.features().Row(row);
          if (!blocking.empty()) {
            bool all_zero = true;
            for (const size_t dim : blocking) {
              if (x[dim] != 0.0f) {
                all_zero = false;
                break;
              }
            }
            if (all_zero) {
              ++chunk_pruned[chunk];
              continue;
            }
          }
          local.push_back(row);
        }
      },
      "selector.scoring");
  std::vector<size_t> survivors;
  survivors.reserve(unlabeled.size());
  size_t pruned = 0;
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    survivors.insert(survivors.end(), chunk_survivors[chunk].begin(),
                     chunk_survivors[chunk].end());
    pruned += chunk_pruned[chunk];
  }
  std::vector<double> margins(survivors.size());
  margin_learner.MarginBatch(pool.features(), survivors, margins.data());
  std::vector<ScoredRow> scored(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    scored[i] = ScoredRow{survivors[i], -std::abs(margins[i]), 0};
  }
  return {TopK(scored, k), survivors.size(), pruned};
}

// ---- IwalSelector ----

IwalSelector::IwalSelector(int committee_size, double min_probability,
                           uint64_t seed)
    : ExampleSelector(
          {.detail = "IWAL(" + std::to_string(committee_size) + ")",
           .committee_size = committee_size,
           .seed = seed}),
      min_probability_(min_probability) {
  ALEM_CHECK_GE(committee_size, 2);
  ALEM_CHECK_GE(min_probability, 0.0);
  ALEM_CHECK_LE(min_probability, 1.0);
}

ExampleSelector::Picks IwalSelector::Pick(const Learner& model,
                                          const ActivePool& pool,
                                          const Committee& committee,
                                          size_t k) {
  (void)model;
  // Rejection sampling stays serial: each keep/skip decision consumes the
  // shared Bernoulli stream in visit order, so it is order-dependent by
  // construction. Visit unlabeled examples in random order and keep
  // each with probability p_min + (1 - p_min) * 4 * variance.
  std::vector<size_t> visit(pool.unlabeled_rows());
  rng().Shuffle(visit);
  std::vector<size_t> rows;
  rows.reserve(k);
  size_t scored = 0;
  for (const size_t row : visit) {
    if (rows.size() >= k) break;
    const float* x = pool.features().Row(row);
    int positive_votes = 0;
    for (const auto& member : committee) positive_votes += member->Predict(x);
    ++scored;
    const double p = static_cast<double>(positive_votes) /
                     static_cast<double>(committee.size());
    const double variance = p * (1.0 - p);
    const double keep =
        min_probability_ + (1.0 - min_probability_) * 4.0 * variance;
    if (rng().NextBernoulli(keep)) rows.push_back(row);
  }
  // If rejection sampling under-fills the batch, top up with the
  // earliest-visited rows not yet picked (rare once the pool has
  // ambiguity).
  for (size_t i = 0; rows.size() < k && i < visit.size(); ++i) {
    bool already = false;
    for (const size_t row : rows) already |= row == visit[i];
    if (!already) rows.push_back(visit[i]);
  }
  return {std::move(rows), scored};
}

// ---- DensityWeightedSelector ----

DensityWeightedSelector::DensityWeightedSelector(double beta, uint64_t seed)
    : ExampleSelector({.detail = "DensityMargin",
                       .accepts = &IsA<MarginLearner>,
                       .seed = seed}),
      beta_(beta) {}

ExampleSelector::Picks DensityWeightedSelector::Pick(
    const Learner& model, const ActivePool& pool, const Committee& committee,
    size_t k) {
  (void)committee;
  const auto& margin_learner = static_cast<const MarginLearner&>(model);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  const size_t dims = pool.features().dims();

  // Density reference: a fixed random sample of the unlabeled pool.
  constexpr size_t kDensitySample = 64;
  const size_t sample_size = std::min(kDensitySample, unlabeled.size());
  const std::vector<size_t> picks =
      rng().SampleWithoutReplacement(unlabeled.size(), sample_size);
  std::vector<const float*> reference(sample_size);
  std::vector<double> reference_norms(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    reference[i] = pool.features().Row(unlabeled[picks[i]]);
    double norm = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      norm += static_cast<double>(reference[i][d]) * reference[i][d];
    }
    reference_norms[i] = std::sqrt(norm);
  }

  // Margins for the whole pool come from one MarginBatch sweep up front
  // (bitwise-identical to per-row Margin); the density pass below then only
  // computes cosine similarities against the reference sample.
  std::vector<double> margins(unlabeled.size());
  margin_learner.MarginBatch(pool.features(), unlabeled, margins.data());

  std::vector<ScoredRow> scored(unlabeled.size());
  parallel::ParallelFor(
      0, unlabeled.size(), kScoringGrain,
      [&](size_t chunk_begin, size_t chunk_end, size_t chunk) {
        (void)chunk;
        for (size_t index = chunk_begin; index < chunk_end; ++index) {
          const size_t row = unlabeled[index];
          const float* x = pool.features().Row(row);
          double x_norm = 0.0;
          for (size_t d = 0; d < dims; ++d) {
            x_norm += static_cast<double>(x[d]) * x[d];
          }
          x_norm = std::sqrt(x_norm);

          double density = 0.0;
          for (size_t i = 0; i < sample_size; ++i) {
            double dot = 0.0;
            for (size_t d = 0; d < dims; ++d) {
              dot += static_cast<double>(x[d]) * reference[i][d];
            }
            const double denom = x_norm * reference_norms[i];
            density += denom > 0.0 ? dot / denom : 0.0;
          }
          density /= static_cast<double>(sample_size);

          const double uncertainty = 1.0 / (std::abs(margins[index]) + 1e-6);
          scored[index] =
              ScoredRow{row, uncertainty * std::pow(density, beta_), 0};
        }
      },
      "selector.scoring");
  return {TopK(scored, k), unlabeled.size()};
}

// ---- LfpLfnSelector ----

LfpLfnSelector::LfpLfnSelector()
    : ExampleSelector({.detail = "LFP/LFN", .accepts = &IsA<RuleLearner>}) {}

ExampleSelector::Picks LfpLfnSelector::Pick(const Learner& model,
                                            const ActivePool& pool,
                                            const Committee& committee,
                                            size_t k) {
  (void)committee;
  const Dnf& dnf = static_cast<const RuleLearner&>(model).dnf();
  const std::vector<Conjunction> relaxed = dnf.RuleMinusVariants();
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  const size_t num_atoms = pool.features().dims();

  // Proxy similarity: fraction of satisfied atoms. Low values among
  // predicted matches flag likely false positives; high values among
  // predicted non-matches flag likely false negatives.
  auto proxy = [&](const float* x) {
    double satisfied = 0.0;
    for (size_t a = 0; a < num_atoms; ++a) satisfied += x[a];
    return satisfied / static_cast<double>(num_atoms);
  };

  std::vector<ScoredRow> lfp;  // Predicted positive, by -proxy.
  std::vector<ScoredRow> lfn;  // Rule-minus positive, by proxy.
  for (const size_t row : unlabeled) {
    const float* x = pool.features().Row(row);
    if (!dnf.conjunctions.empty() && dnf.Matches(x)) {
      lfp.push_back(ScoredRow{row, -proxy(x), 0});
      continue;
    }
    if (dnf.conjunctions.empty()) {
      // Bootstrap mode: before any rule exists there are no LFPs/LFNs in the
      // strict sense; treat the most similar-looking unlabeled examples as
      // likely (false) negatives so rule learning can get off the ground.
      lfn.push_back(ScoredRow{row, proxy(x), 0});
      continue;
    }
    for (const Conjunction& variant : relaxed) {
      if (variant.Matches(x)) {
        lfn.push_back(ScoredRow{row, proxy(x), 0});
        break;
      }
    }
  }

  const std::vector<size_t> lfp_rows = TopK(lfp, k);
  const std::vector<size_t> lfn_rows = TopK(lfn, k);

  // Interleave LFPs and LFNs up to the batch size.
  std::vector<size_t> rows;
  rows.reserve(k);
  size_t i = 0, j = 0;
  while (rows.size() < k && (i < lfp_rows.size() || j < lfn_rows.size())) {
    if (i < lfp_rows.size()) rows.push_back(lfp_rows[i++]);
    if (rows.size() < k && j < lfn_rows.size()) rows.push_back(lfn_rows[j++]);
  }
  return {std::move(rows), unlabeled.size()};
}

}  // namespace alem
