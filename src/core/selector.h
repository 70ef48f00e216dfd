// Example selectors (Section 4 of the paper).
//
// ExampleSelector::Select is one skeleton shared by every strategy. It
// checks learner compatibility (Fig. 2), returns nothing for an empty
// pool, fits the optional bootstrap committee ("selector.committee"),
// runs the strategy's pick policy inside "selector.scoring", counts the
// scored and pruned examples, and reports the committee-creation vs
// example-scoring latency split plotted in Fig. 10. A strategy supplies
// only its pick policy, Pick():
//
//   score, then top-k                     own ranking
//   QbcSelector       (Sec 4.1)           RandomSelector (supervised arm)
//   ForestQbcSelector (Sec 4.1.1)         IwalSelector   (Sec 2 baseline)
//   MarginSelector    (Sec 4.2, 5.1)      LfpLfnSelector (rules, Sec 4.3)
//   DensityWeightedSelector (extension)

#ifndef ALEM_CORE_SELECTOR_H_
#define ALEM_CORE_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/learner.h"
#include "core/pool.h"
#include "util/rng.h"

namespace alem {

// Seeds for one bootstrap-committee member, derived from the selection
// round's base seed through a per-member std::seed_seq. A member's streams
// depend only on (round_seed, member) — not on committee size or on the
// order members are fitted — which makes committee construction safe to
// parallelize and keeps member m's resample stable when the committee
// grows. (The pre-parallel code drew both seeds from one shared engine
// consumed in fit order, a latent seed-stability bug even in serial mode.)
struct CommitteeMemberSeeds {
  uint64_t resample_seed = 0;  // Drives the member's bootstrap resample.
  uint64_t learner_seed = 0;   // Reseeds the member learner's randomness.
};

CommitteeMemberSeeds MemberSeeds(uint64_t round_seed, int member);

struct SelectionTiming {
  double committee_seconds = 0.0;
  double scoring_seconds = 0.0;
  // #unlabeled examples fully scored and #skipped by selection-time blocking.
  size_t scored_examples = 0;
  size_t pruned_examples = 0;
};

class ExampleSelector {
 public:
  virtual ~ExampleSelector() = default;
  ExampleSelector(const ExampleSelector&) = delete;
  ExampleSelector& operator=(const ExampleSelector&) = delete;

  // Picks up to `k` unlabeled rows for the Oracle. `model` is the learner
  // trained in the current iteration and must be CompatibleWith this
  // selector. An empty result signals that the selector found nothing worth
  // labeling (the rule learner's termination criterion). `timing` may be
  // null.
  std::vector<size_t> Select(const Learner& model, const ActivePool& pool,
                             size_t k, SelectionTiming* timing);

  // Whether this selector can drive the given learner (Fig. 2 class
  // compatibility).
  bool CompatibleWith(const Learner& model) const {
    return accepts_ == nullptr || accepts_(model);
  }

  // Serializes the selector's mutable state — for the stochastic selectors
  // that is exactly the RNG stream position — so a restored labeling
  // session proposes the same example sequence the uninterrupted run would
  // have (docs/sessions.md). Selectors without an RNG save an empty blob;
  // RestoreState returns false on malformed input.
  std::string SaveState() const { return rng_ ? rng_->SaveState() : ""; }
  bool RestoreState(const std::string& state) {
    return rng_ ? rng_->RestoreState(state) : state.empty();
  }

 protected:
  using Committee = std::vector<std::unique_ptr<Learner>>;

  // What a strategy fixes at construction.
  struct Traits {
    std::string detail;  // Span detail, e.g. "QBC(4)".
    // Required learner type (Fig. 2); null accepts every learner.
    bool (*accepts)(const Learner&) = nullptr;
    int committee_size = 0;  // Bootstrap committee per round; 0 = none.
    std::optional<uint64_t> seed{};  // Seeds the selector's RNG, if any.
  };

  // A pick policy's result. `scored` stays unset for a policy that scores
  // nothing (no selector.scored_examples count); `pruned` is set only by
  // policies that block (blocking.pruned).
  struct Picks {
    std::vector<size_t> rows;
    std::optional<size_t> scored{};
    std::optional<size_t> pruned{};
  };

  explicit ExampleSelector(Traits traits);

  // The strategy: picks up to `k` of the (non-empty) pool.unlabeled_rows().
  // Runs inside the selector.scoring span; `committee` is the round's
  // bootstrap committee (empty when Traits::committee_size is 0).
  virtual Picks Pick(const Learner& model, const ActivePool& pool,
                     const Committee& committee, size_t k) = 0;

  Rng& rng() { return *rng_; }

 private:
  std::string detail_;
  bool (*accepts_)(const Learner&);
  int committee_size_;
  std::optional<Rng> rng_;
};

// Uniform random selection — the "supervised learning" arm of Figs. 16/17,
// where each iteration labels a random batch instead of an informative one.
class RandomSelector final : public ExampleSelector {
 public:
  explicit RandomSelector(uint64_t seed);

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;
};

// Learner-agnostic QBC: draws `committee_size` bootstrap samples from the
// labeled data, trains a committee of clones, and scores each unlabeled
// example by the vote variance Pi/C * (1 - Pi/C) (Mozafari et al.).
class QbcSelector final : public ExampleSelector {
 public:
  QbcSelector(int committee_size, uint64_t seed);

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;
};

// Learner-aware QBC for tree ensembles: the trees of the trained forest are
// the committee, so committee-creation time is zero by construction.
class ForestQbcSelector final : public ExampleSelector {
 public:
  explicit ForestQbcSelector(uint64_t seed);

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;
};

// Margin-based selection: picks the unlabeled examples with the smallest
// |margin|. With blocking_dims > 0 and a linear learner, examples whose
// top-K |weight| feature dimensions are all zero are pruned without
// computing the full dot product (Section 5.1); blocking_dims == 0 disables
// the optimization (equivalent to using all dimensions for blocking).
class MarginSelector final : public ExampleSelector {
 public:
  explicit MarginSelector(size_t blocking_dims = 0);

  size_t blocking_dims() const { return blocking_dims_; }

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;

  size_t blocking_dims_;
};

// Importance-weighted active learning (IWAL, Beygelzimer et al.), the
// related-work baseline of Section 2. Instead of deterministically taking
// the top-variance examples, each unlabeled example is *sampled* with a
// probability that grows with the committee disagreement on it
// (p = p_min + (1 - p_min) * 4 * variance), which preserves a non-zero
// selection probability everywhere. This implementation omits the
// importance-weighted training correction (our learners are unweighted);
// the paper's observation that IWAL "incurs excessive labels" for EM stems
// from exactly this exploration-heavy sampling.
class IwalSelector final : public ExampleSelector {
 public:
  IwalSelector(int committee_size, double min_probability, uint64_t seed);

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;

  double min_probability_;
};

// Density-weighted uncertainty sampling (Settles' information-density
// framework; an extension beyond the paper's three selector families).
// Plain margin selection can burn labels on outliers that are ambiguous but
// unrepresentative; this selector scores
//   uncertainty(x) * (average cosine similarity of x to a pool sample)^beta
// so ambiguous examples in dense regions win.
class DensityWeightedSelector final : public ExampleSelector {
 public:
  DensityWeightedSelector(double beta, uint64_t seed);

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;

  double beta_;
};

// LFP/LFN heuristic for rule learners: likely false positives are unlabeled
// examples the DNF matches but that look dissimilar (low fraction of
// satisfied atoms); likely false negatives are examples some Rule-Minus
// relaxation matches but the full DNF rejects, that look similar. Returns an
// empty batch when neither kind exists — the paper's early-termination
// criterion for rule learning.
class LfpLfnSelector final : public ExampleSelector {
 public:
  LfpLfnSelector();

 private:
  Picks Pick(const Learner& model, const ActivePool& pool,
             const Committee& committee, size_t k) override;
};

}  // namespace alem

#endif  // ALEM_CORE_SELECTOR_H_
