// alem_perfbench: the repository benchmark (perfbench/README.md).
//
//   alem_perfbench --workload cold_prepare|label_loop|resume_cycle
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// One process runs one workload through the library's public entry points,
// as a closed loop with one client and an Oracle that answers at once. The
// seed makes the workload's inputs: the datasets of cold_prepare, the run
// seeds of the labeling workloads. Thread counts are fixed per workload.
// Set-up is repeated kSetupRepeats times and its median reported, so work
// moved into set-up shows in setup_s.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// one fixed unit of the workload untraced, then the same unit with tracing
// and metrics on, and reports per-layer metrics: timings taken in this file
// around each public call, plus the counters, span self-times and pool
// profile the library already records. Spans stay in memory and are written
// to DIR/<workload>.trace.json when the run ends.
//
// Every run checks the program's outputs and counts each checked operation
// as attempted, and as failed when its check fails. The last line of
// standard output is the JSON result; the lines before it restate each
// metric with the metric it maps to or should move.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/jaccard_blocking.h"
#include "core/approaches.h"
#include "core/harness.h"
#include "core/session.h"
#include "features/boolean_features.h"
#include "features/feature_cache.h"
#include "features/feature_extractor.h"
#include "features/feature_schema.h"
#include "kernels/backend.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "parallel/pool.h"
#include "sim/similarity.h"
#include "synth/generator.h"
#include "synth/profiles.h"
#include "text/profile.h"

namespace alem {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;
// Every dataset is generated at the profiles' default size.
constexpr double kScale = 1.0;
// The labeling workloads run on one fixed dataset instance so that the seed,
// which drives the run (seed sample, committee bootstraps, forest and
// network randomness), is the only input that varies; cold_prepare
// generates its datasets from the seed instead.
constexpr uint64_t kLabelingDataSeed = 7;
// cold_prepare's set-up prepares Cora at this scale to page in the
// featurization path before the timed prepares.
constexpr double kWarmupScale = 0.25;
// Label budget and batch size of every labeling run (the paper's Fig. 13
// setting: ~30 seed labels, batches of 10).
constexpr size_t kMaxLabels = 300;
constexpr size_t kBatchSize = 10;
// Feature rows per prepare that the output check recomputes.
constexpr size_t kCheckRows = 16;
// Candidate pairs per dataset in the traced per-function similarity sweep.
constexpr size_t kSimSweepPairs = 2048;

// The Fig. 13 / Fig. 10 approach mix driven by label_loop. The ensemble
// cannot be a labeling session, so it runs through RunActiveLearning.
constexpr const char* kSessionApproaches[] = {"trees20", "rules", "nn-qbc2",
                                              "linear-qbc4"};
constexpr const char* kEnsembleApproach = "linear-margin-ensemble";
constexpr const char* kResumeApproach = "trees20";
// Library counters and spans the traced run reads back as per-layer metrics
// (spans as "<name>.self_ms").
constexpr const char* kLayerCounters[] = {"sim.calls", "ml.fit_calls",
                                          "ml.predict_calls",
                                          "selector.scored_examples"};
constexpr const char* kLayerSpans[] = {
    "loop.train", "loop.select",        "loop.evaluate",
    "ml.fit",     "selector.committee", "selector.scoring"};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

// Quantile of several sample groups pooled so that every nonempty group
// weighs the same in total, however many samples it holds: the smallest
// sample whose cumulative weight reaches q. One group gives the plain
// sample quantile.
double PooledQuantile(const std::vector<std::vector<double>>& groups,
                      double q) {
  const double nonempty = static_cast<double>(std::count_if(
      groups.begin(), groups.end(),
      [](const std::vector<double>& g) { return !g.empty(); }));
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  for (const std::vector<double>& group : groups) {
    for (double v : group) {
      weighted.emplace_back(v, 1.0 / (nonempty * group.size()));
    }
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  double cumulative = 0.0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= q) return value;
  }
  return weighted.back().first;
}

// Median with the two middle samples averaged; 0 for an empty sample.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

// ---- Result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // End-to-end: the workload-specific metric this generic one stands for
  // (e.g. labels_per_s). Per-layer: the end-to-end metric and workload it
  // should move.
  std::string note;
};

class Result {
 public:
  // Counts one checked operation; `problem` empty means it passed.
  void Check(const std::string& problem) {
    ++attempted_;
    if (problem.empty()) return;
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }

  void Add(std::string name, double value, std::string unit,
           std::string note) {
    if (!std::isfinite(value)) {
      Check("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%-40s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    const double failed_ratio =
        attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
    std::printf("output check: %s (attempted %llu, failed %llu, "
                "failed_ops_ratio %.6f)\n",
                Correct() ? "pass" : "FAIL",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), failed_ratio);
    std::string json = "{\"correct\": ";
    json += Correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char value[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  bool Correct() const { return attempted_ > 0 && failed_ == 0; }

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// The end-to-end metrics, in BENCHMARK.json order. A metric's meaning on a
// workload is given by the note passed with it.
// Latency percentiles pool the sample groups with equal weight per group.
void AddEndToEnd(Result* result, double setup_s, double throughput,
                 const std::string& throughput_note,
                 const std::vector<std::vector<double>>& latency_ms,
                 const std::string& latency_note) {
  size_t samples = 0;
  for (const std::vector<double>& group : latency_ms) samples += group.size();
  const std::string n = " (n=" + std::to_string(samples) + ")";
  result->Add("setup_s", setup_s, "s",
              "median of " + std::to_string(kSetupRepeats) + " set-ups");
  result->Add("throughput_per_s", throughput, "1/s", throughput_note);
  result->Add("latency_p50_ms", PooledQuantile(latency_ms, 0.5), "ms",
              latency_note + " p50" + n);
  result->Add("latency_p90_ms", PooledQuantile(latency_ms, 0.9), "ms",
              latency_note + " p90" + n);
  result->Add("peak_rss_mb", static_cast<double>(obs::PeakRssBytes()) / 1e6,
              "MB", "process peak resident set");
}

// ---- Per-layer metrics ---------------------------------------------------

// Every per-layer metric, with its unit and the end-to-end metric it should
// move. A traced run reports all of them; layers a workload does not
// exercise read 0.
struct LayerMetricSpec {
  std::string name;
  std::string unit;
  std::string moves;
};

std::string SimMetricName(const SimilarityFunction& function) {
  return "sim." + std::string(function.name()) + ".ns_per_pair";
}

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const auto& specs = *[] {
    auto* s = new std::vector<LayerMetricSpec>;
    const std::string prepare = "throughput_per_s on cold_prepare";
    const std::string both =
        "throughput_per_s on cold_prepare, latency_p50_ms on resume_cycle";
    const std::string wait = "latency_p50_ms/latency_p90_ms on label_loop";
    const std::string resume = "latency_p50_ms/latency_p90_ms on resume_cycle";
    s->push_back({"synth.generate_ms", "ms", both});
    s->push_back({"blocking.jaccard_ms", "ms", both});
    s->push_back({"blocking.candidate_pairs", "count", both});
    for (const SimilarityFunction* f : AllSimilarityFunctions()) {
      s->push_back({SimMetricName(*f), "ns",
                    prepare + "; no change on label_loop"});
    }
    s->push_back({"sim.calls", "count", prepare + "; 0 on label_loop"});
    s->push_back({"features.extract_ms", "ms", prepare});
    s->push_back({"features.boolean_ms", "ms", both});
    s->push_back({"features.cache_store_ms", "ms", prepare});
    s->push_back({"features.cache_load_ms", "ms", resume});
    for (const char* a : kSessionApproaches) {
      s->push_back({std::string("core.step_ms.") + a, "ms", wait});
      s->push_back({std::string("core.next_batch_ms.") + a, "ms", wait});
      s->push_back({std::string("core.submit_ms.") + a, "ms",
                    "throughput_per_s on label_loop"});
    }
    s->push_back({"core.ensemble_run_ms", "ms", wait});
    s->push_back({"core.save_ms", "ms", resume});
    s->push_back({"core.restore_ms", "ms", resume});
    s->push_back({"core.snapshot_bytes", "bytes", resume});
    for (const char* counter : kLayerCounters) {
      if (std::string_view(counter) == "sim.calls") continue;
      s->push_back({counter, "count", wait});
    }
    for (const char* span : kLayerSpans) {
      s->push_back({std::string(span) + ".self_ms", "ms", wait});
    }
    const std::string pool = "throughput_per_s on cold_prepare, " + wait;
    s->push_back({"parallel.utilization", "ratio", pool});
    s->push_back({"parallel.idle_s", "s", pool});
    s->push_back({"parallel.queue_wait_s", "s", pool});
    s->push_back({"parallel.sim.batch.utilization", "ratio", prepare});
    s->push_back(
        {"obs.tracing_overhead_pct", "%", "none (traced vs untraced)"});
    return s;
  }();
  return specs;
}

// Per-layer values by name; names never set are reported as 0.
using LayerValues = std::map<std::string, double>;

void AddLayers(const LayerValues& values, Result* result) {
  for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
    const auto it = values.find(spec.name);
    result->Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit,
                "moves " + spec.moves);
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        LayerMetricSpecs().begin(), LayerMetricSpecs().end(),
        [&name](const LayerMetricSpec& s) { return s.name == name; });
    if (!known) result->Check("unlisted per-layer metric " + name);
  }
}

// Starts a traced pass: clears what earlier passes recorded and turns
// tracing and metrics on. The pool profile restarts too, so it covers only
// the traced pass (the pool is rebuilt here, outside the timed unit).
void BeginTracedPass() {
  obs::TraceRecorder::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  parallel::ResetPoolProfile();
  parallel::ParallelFor(0, 64, 1, [](size_t, size_t, size_t) {});
  obs::SetTracingEnabled(true);
  obs::SetMetricsEnabled(true);
}

// Ends the traced pass and folds what the library recorded during it —
// counters, span self-times, pool profile — into `layers`.
void EndTracedPass(double untraced_s, double traced_s, LayerValues* layers) {
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : metrics.counters) {
    for (const char* wanted : kLayerCounters) {
      if (name == wanted) (*layers)[name] = static_cast<double>(value);
    }
  }
  for (const obs::SpanRollupEntry& span :
       obs::SelfTimeRollup(obs::TraceRecorder::Global().Snapshot())) {
    for (const char* wanted : kLayerSpans) {
      if (span.name == wanted) {
        (*layers)[span.name + ".self_ms"] = span.self_seconds * 1e3;
      }
    }
  }
  const parallel::PoolProfile pool = parallel::SnapshotPoolProfile();
  (*layers)["parallel.utilization"] = pool.utilization;
  (*layers)["parallel.idle_s"] = pool.idle_seconds;
  (*layers)["parallel.queue_wait_s"] = pool.queue_wait_seconds;
  for (const parallel::PoolRegionProfile& region : pool.regions) {
    if (region.name == "sim.batch") {
      (*layers)["parallel.sim.batch.utilization"] = region.utilization;
    }
  }
  (*layers)["obs.tracing_overhead_pct"] =
      (traced_s - untraced_s) / untraced_s * 100.0;
}

// Mean milliseconds per call of a library span recorded in the traced pass
// (self time when `self`), or 0 when the span never ran.
double SpanMeanMs(const std::vector<obs::SpanRollupEntry>& rollup,
                  std::string_view name, bool self) {
  for (const obs::SpanRollupEntry& span : rollup) {
    if (span.name == name && span.count > 0) {
      return (self ? span.self_seconds : span.total_seconds) * 1e3 /
             static_cast<double>(span.count);
    }
  }
  return 0.0;
}

// ---- Shared set-up and checks --------------------------------------------

// Resolves the lazily initialized process-wide state every workload touches
// — the kernel dispatch table, the similarity registry and the thread pool
// (rebuilt, then started with an empty region) — so those costs land in
// set-up rather than in the first timed operation.
void WarmUp(int threads) {
  kernels::Active();
  SimRegistryFingerprint();
  parallel::SetNumThreads(threads);
  parallel::ParallelFor(0, 64, 1, [](size_t, size_t, size_t) {});
}

// Runs `setup` kSetupRepeats times; returns the median wall seconds.
template <typename Fn>
double TimedSetup(Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

// PrepareDataset options for one dataset; an empty cache_dir prepares cold,
// without consulting any feature cache.
PrepareOptions PrepareFor(const SynthProfile& profile, uint64_t seed,
                          double scale, const std::string& cache_dir) {
  PrepareOptions options;
  options.profile = profile;
  options.data_seed = seed;
  options.scale = scale;
  options.use_cache = !cache_dir.empty();
  options.cache_dir = cache_dir;
  return options;
}

RunConfig LabelingConfig(const char* approach, uint64_t seed) {
  RunConfig config;
  if (!ApproachFromName(approach, &config.approach)) {
    std::fprintf(stderr, "perfbench: unknown approach %s\n", approach);
    std::exit(2);
  }
  config.max_labels = kMaxLabels;
  config.batch_size = kBatchSize;
  config.run_seed = seed;
  return config;
}

// Invariants every finished learning curve satisfies; empty when it does.
std::string CurveProblem(const std::vector<IterationStats>& curve) {
  if (curve.empty()) return "empty learning curve";
  size_t previous = 0;
  for (const IterationStats& s : curve) {
    if (s.labels_used < previous) return "labels decreased along the curve";
    if (s.labels_used > kMaxLabels) return "labels exceed the budget";
    if (!(s.metrics.f1 >= 0.0 && s.metrics.f1 <= 1.0)) {
      return "F1 outside [0, 1]";
    }
    previous = s.labels_used;
  }
  return "";
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// True when two curves agree bit for bit on every field that is not a time.
bool SameCurve(const std::vector<IterationStats>& a,
               const std::vector<IterationStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const IterationStats& x = a[i];
    const IterationStats& y = b[i];
    if (x.iteration != y.iteration || x.labels_used != y.labels_used ||
        !SameBits(x.metrics.precision, y.metrics.precision) ||
        !SameBits(x.metrics.recall, y.metrics.recall) ||
        !SameBits(x.metrics.f1, y.metrics.f1) ||
        x.metrics.true_positives != y.metrics.true_positives ||
        x.metrics.false_positives != y.metrics.false_positives ||
        x.metrics.false_negatives != y.metrics.false_negatives ||
        x.metrics.true_negatives != y.metrics.true_negatives ||
        x.dnf_atoms != y.dnf_atoms || x.tree_depth != y.tree_depth ||
        x.scored_examples != y.scored_examples ||
        x.pruned_examples != y.pruned_examples ||
        x.ensemble_size != y.ensemble_size) {
      return false;
    }
  }
  return true;
}

// Call latencies of the step-wise session API, in ms.
struct SessionTimings {
  std::vector<double> step;
  std::vector<double> next_batch;
  std::vector<double> submit;
};

enum class Iteration { kLabeled, kFinished, kRejected };

// One labeling iteration: Step, NextBatch and, unless the batch came back
// empty (the session finished), SubmitLabels from the Oracle. *wait_ms gets
// the user wait, Step + NextBatch (the paper's Fig. 13 metric).
Iteration DriveIteration(LabelingSession& session, SessionTimings* timings,
                         double* wait_ms) {
  const auto step_start = Clock::now();
  if (!session.Step()) return Iteration::kRejected;
  timings->step.push_back(MsSince(step_start));
  const auto batch_start = Clock::now();
  session.NextBatch();
  timings->next_batch.push_back(MsSince(batch_start));
  *wait_ms = MsSince(step_start);
  if (session.finished()) return Iteration::kFinished;
  const auto submit_start = Clock::now();
  if (!session.SubmitLabels()) return Iteration::kRejected;
  timings->submit.push_back(MsSince(submit_start));
  return Iteration::kLabeled;
}

// Empty when a session that stopped driving ended as a finished run.
std::string FinishProblem(const LabelingSession& session) {
  if (session.state() != SessionState::kFinished) {
    return "session ended in state " +
           std::string(SessionStateName(session.state())) + ": " +
           session.error();
  }
  if (session.stop_reason() == StopReason::kRunning) {
    return "finished session has no stop reason";
  }
  return "";
}

std::vector<SynthProfile> Table2Profiles() {
  return {AbtBuyProfile(), AmazonGoogleProfile(), DblpAcmProfile(),
          DblpScholarProfile(), CoraProfile()};
}

// ---- cold_prepare --------------------------------------------------------

// Row indices the output check recomputes: kCheckRows rows spread evenly.
std::vector<size_t> CheckRows(size_t rows) {
  std::vector<size_t> picked;
  for (size_t i = 0; i < kCheckRows && i < rows; ++i) {
    picked.push_back(i * rows / std::min(kCheckRows, rows));
  }
  return picked;
}

// The checked sample of one timed prepare's output.
struct PreparedSample {
  const SynthProfile* profile = nullptr;
  uint64_t data_seed = 0;
  std::vector<RecordPair> pairs;  // At CheckRows(#candidate pairs).
  std::vector<float> rows;        // Their feature rows, concatenated.
};

PreparedSample SamplePrepared(const SynthProfile& profile, uint64_t data_seed,
                              const PreparedDataset& data) {
  PreparedSample sample;
  sample.profile = &profile;
  sample.data_seed = data_seed;
  for (size_t row : CheckRows(data.pairs.size())) {
    sample.pairs.push_back(data.pairs[row]);
    const float* values = data.float_features.Row(row);
    sample.rows.insert(sample.rows.end(), values,
                       values + data.float_features.dims());
  }
  return sample;
}

// Recomputes every sampled row pair by pair — fresh attribute profiles and
// SimilarityFunction::Similarity in feature-dimension order — on the scalar
// kernel backend with one thread, and requires bitwise equality (the kernels
// and threads contract, docs/kernels.md and docs/parallelism.md). One check
// per timed prepare.
void CheckPreparedSamples(const std::vector<PreparedSample>& samples,
                          int threads, Result* result) {
  std::string error;
  if (!kernels::SetBackend("scalar", &error)) {
    result->Check("cannot select the scalar backend: " + error);
    return;
  }
  parallel::SetNumThreads(1);
  const auto& functions = AllSimilarityFunctions();
  for (const PreparedSample& sample : samples) {
    const EmDataset dataset =
        GenerateDataset(*sample.profile, sample.data_seed, kScale);
    std::vector<float> expected;
    bool in_range = true;
    for (const RecordPair& pair : sample.pairs) {
      in_range = in_range && pair.left < dataset.left.num_rows() &&
                 pair.right < dataset.right.num_rows();
      if (!in_range) break;
      for (const MatchedColumns& column : dataset.matched_columns) {
        const AttributeProfile left =
            AttributeProfile::Build(dataset.left.Value(
                pair.left, static_cast<size_t>(column.left_column)));
        const AttributeProfile right =
            AttributeProfile::Build(dataset.right.Value(
                pair.right, static_cast<size_t>(column.right_column)));
        for (const SimilarityFunction* function : functions) {
          expected.push_back(
              static_cast<float>(function->Similarity(left, right)));
        }
      }
    }
    const bool same = in_range && expected.size() == sample.rows.size() &&
                      std::memcmp(expected.data(), sample.rows.data(),
                                  expected.size() * sizeof(float)) == 0;
    result->Check(same ? "" : sample.profile->name +
                                  ": prepared rows differ from the scalar "
                                  "single-thread recomputation");
  }
  kernels::SetBackend("auto", nullptr);
  parallel::SetNumThreads(threads);
}

// The prepare pipeline split into its public calls, each timed here: one
// pass over every profile. Keeps the generated datasets and pairs for the
// similarity sweep.
struct PipelinePass {
  double seconds = 0.0;
  std::vector<double> generate_ms, jaccard_ms, extract_ms, boolean_ms,
      store_ms, load_ms;
  double pairs = 0.0;
  std::vector<EmDataset> datasets;
  std::vector<std::vector<RecordPair>> pairs_of;
};

PipelinePass RunPipeline(const std::vector<SynthProfile>& profiles,
                         uint64_t seed, const std::string& cache_dir,
                         Result* result) {
  PipelinePass pass;
  const auto pass_start = Clock::now();
  const FeatureCache cache(cache_dir);
  for (const SynthProfile& profile : profiles) {
    auto start = Clock::now();
    EmDataset dataset = GenerateDataset(profile, seed, kScale);
    pass.generate_ms.push_back(MsSince(start));

    start = Clock::now();
    BlockingConfig blocking;
    blocking.jaccard_threshold = profile.blocking_threshold;
    std::vector<RecordPair> pairs = JaccardBlocking(dataset, blocking);
    pass.jaccard_ms.push_back(MsSince(start));
    pass.pairs += static_cast<double>(pairs.size());

    start = Clock::now();
    const FeatureExtractor extractor(dataset);
    const FeatureMatrix features = extractor.ExtractAll(pairs);
    pass.extract_ms.push_back(MsSince(start));

    start = Clock::now();
    const BooleanFeaturizer featurizer(extractor.schema());
    const FeatureMatrix atoms = featurizer.Featurize(features);
    pass.boolean_ms.push_back(MsSince(start));

    FeatureCacheKey key;
    key.dataset_name = profile.name;
    key.profile_fingerprint = ProfileFingerprint(profile);
    key.data_seed = seed;
    key.scale = kScale;
    key.sim_fingerprint = SimRegistryFingerprint();
    key.num_dims = extractor.num_dims();
    start = Clock::now();
    const bool stored = cache.Store(key, features);
    pass.store_ms.push_back(MsSince(start));

    start = Clock::now();
    FeatureMatrix loaded;
    const bool hit = cache.Load(key, &loaded);
    pass.load_ms.push_back(MsSince(start));
    const bool same =
        stored && hit && loaded.rows() == features.rows() &&
        loaded.dims() == features.dims() &&
        std::memcmp(loaded.Row(0), features.Row(0),
                    features.rows() * features.dims() * sizeof(float)) == 0;
    result->Check(same ? "" : profile.name +
                                  ": feature cache did not return the "
                                  "stored matrix");
    pass.datasets.push_back(std::move(dataset));
    pass.pairs_of.push_back(std::move(pairs));
  }
  pass.seconds = SecondsSince(pass_start);
  return pass;
}

// Times EvaluateBatch of every registry function, single-threaded, over a
// fixed sample of each dataset's candidate pairs and every matched column.
void SimilaritySweep(const PipelinePass& pass, LayerValues* layers) {
  const auto& functions = AllSimilarityFunctions();
  std::vector<double> ns(functions.size(), 0.0);
  double evaluations = 0.0;
  for (size_t d = 0; d < pass.datasets.size(); ++d) {
    const EmDataset& dataset = pass.datasets[d];
    const std::vector<RecordPair>& all = pass.pairs_of[d];
    const size_t stride = std::max<size_t>(1, all.size() / kSimSweepPairs);
    std::vector<RecordPair> pairs;
    for (size_t i = 0; i < all.size() && pairs.size() < kSimSweepPairs;
         i += stride) {
      pairs.push_back(all[i]);
    }
    for (const MatchedColumns& column : dataset.matched_columns) {
      std::vector<AttributeProfile> left, right;
      for (const RecordPair& pair : pairs) {
        left.push_back(AttributeProfile::Build(dataset.left.Value(
            pair.left, static_cast<size_t>(column.left_column))));
        right.push_back(AttributeProfile::Build(dataset.right.Value(
            pair.right, static_cast<size_t>(column.right_column))));
      }
      std::vector<const AttributeProfile*> left_ptrs, right_ptrs;
      for (size_t i = 0; i < pairs.size(); ++i) {
        left_ptrs.push_back(&left[i]);
        right_ptrs.push_back(&right[i]);
      }
      std::vector<float> out(pairs.size());
      for (size_t f = 0; f < functions.size(); ++f) {
        const auto start = Clock::now();
        functions[f]->EvaluateBatch(left_ptrs, right_ptrs, out.data());
        ns[f] += SecondsSince(start) * 1e9;
      }
      evaluations += static_cast<double>(pairs.size());
    }
  }
  for (size_t f = 0; f < functions.size(); ++f) {
    (*layers)[SimMetricName(*functions[f])] = ns[f] / evaluations;
  }
}

void RunColdPrepare(const Options& options, int threads, Result* result) {
  const std::vector<SynthProfile> profiles = Table2Profiles();
  const double setup_s = TimedSetup([&] {
    WarmUp(threads);
    PrepareDataset(
        PrepareFor(CoraProfile(), options.seed, kWarmupScale, ""));
  });

  if (options.trace) {
    const std::string cache_dir = options.work_dir + "/cache";
    std::filesystem::remove_all(cache_dir);
    const double untraced_s =
        RunPipeline(profiles, options.seed, cache_dir, result).seconds;
    BeginTracedPass();
    const PipelinePass pass =
        RunPipeline(profiles, options.seed, cache_dir, result);
    LayerValues layers;
    EndTracedPass(untraced_s, pass.seconds, &layers);
    layers["synth.generate_ms"] = Mean(pass.generate_ms);
    layers["blocking.jaccard_ms"] = Mean(pass.jaccard_ms);
    layers["blocking.candidate_pairs"] =
        pass.pairs / static_cast<double>(profiles.size());
    layers["features.extract_ms"] = Mean(pass.extract_ms);
    layers["features.boolean_ms"] = Mean(pass.boolean_ms);
    layers["features.cache_store_ms"] = Mean(pass.store_ms);
    layers["features.cache_load_ms"] = Mean(pass.load_ms);
    parallel::SetNumThreads(1);
    SimilaritySweep(pass, &layers);
    parallel::SetNumThreads(threads);
    AddLayers(layers, result);
    return;
  }

  // Whole rounds over the five datasets until the time is up, each round
  // with its own data seed derived from --seed, so that a run averages over
  // several instances of every dataset. The wait per dataset is normalized
  // by its size so that datasets of different sizes form one distribution.
  std::vector<double> prepare_ms_per_kpair;
  std::vector<double> round_throughput;
  std::vector<PreparedSample> samples;
  const auto start = Clock::now();
  do {
    const uint64_t data_seed =
        parallel::TaskSeed(options.seed, round_throughput.size());
    double pairs = 0.0;
    double busy_s = 0.0;
    for (size_t p = 0; p < profiles.size(); ++p) {
      const auto prepare_start = Clock::now();
      const PreparedDataset prepared =
          PrepareDataset(PrepareFor(profiles[p], data_seed, kScale, ""));
      const double seconds = SecondsSince(prepare_start);
      prepare_ms_per_kpair.push_back(
          seconds * 1e6 / static_cast<double>(prepared.pairs.size()));
      busy_s += seconds;
      pairs += static_cast<double>(prepared.pairs.size());
      samples.push_back(SamplePrepared(profiles[p], data_seed, prepared));
    }
    round_throughput.push_back(pairs / busy_s);
  } while (SecondsSince(start) < options.seconds);
  CheckPreparedSamples(samples, threads, result);
  AddEndToEnd(result, setup_s, Median(round_throughput),
              "prepare_pairs_per_s: candidate pairs featurized per second, "
              "median of " + std::to_string(round_throughput.size()) +
                  " rounds",
              {prepare_ms_per_kpair},
              "prepare wait per dataset per 1000 candidate pairs");
}

// ---- label_loop ----------------------------------------------------------

// One round: every approach of the mix once, on the prepared dataset.
struct LabelRound {
  double seconds = 0.0;
  double labels = 0.0;
  double busy_s = 0.0;  // Summed per-approach run walls.
  std::map<std::string, std::vector<double>> wait_ms;  // By approach.
  std::map<std::string, SessionTimings> timings;
  std::vector<double> ensemble_ms;
  std::map<std::string, std::vector<IterationStats>> curves;
  std::vector<double> best_f1;
};

void RunLabelRound(const PreparedDataset& data, uint64_t seed,
                   LabelRound* round, Result* result) {
  const auto round_start = Clock::now();
  const auto record = [&](const std::string& approach, std::string problem,
                          RunResult run) {
    if (problem.empty()) problem = CurveProblem(run.curve);
    result->Check(problem.empty() ? "" : approach + ": " + problem);
    if (!run.curve.empty()) round->labels += run.curve.back().labels_used;
    round->best_f1.push_back(run.best_f1);
    round->curves[approach] = std::move(run.curve);
  };
  for (const char* approach : kSessionApproaches) {
    const auto start = Clock::now();
    SessionRunner runner(data, LabelingConfig(approach, seed));
    SessionTimings& timings = round->timings[approach];
    Iteration outcome = Iteration::kLabeled;
    while (outcome == Iteration::kLabeled) {
      double wait_ms = 0.0;
      outcome = DriveIteration(runner.session(), &timings, &wait_ms);
      round->wait_ms[approach].push_back(wait_ms);
    }
    const std::string problem =
        outcome == Iteration::kRejected
            ? "rejected call: " + runner.session().error()
            : FinishProblem(runner.session());
    RunResult run = runner.TakeResult();
    round->busy_s += SecondsSince(start);
    record(approach, problem, std::move(run));
  }
  const auto start = Clock::now();
  RunResult run =
      RunActiveLearning(data, LabelingConfig(kEnsembleApproach, seed));
  const double seconds = SecondsSince(start);
  round->busy_s += seconds;
  round->ensemble_ms.push_back(seconds * 1e3);
  for (const IterationStats& s : run.curve) {
    round->wait_ms[kEnsembleApproach].push_back(s.wait_seconds * 1e3);
  }
  record(kEnsembleApproach, "", std::move(run));
  round->seconds = SecondsSince(round_start);
}

void AddSessionTimings(const std::map<std::string, SessionTimings>& timings,
                       LayerValues* layers) {
  for (const auto& [approach, t] : timings) {
    (*layers)["core.step_ms." + approach] = Median(t.step);
    (*layers)["core.next_batch_ms." + approach] = Median(t.next_batch);
    (*layers)["core.submit_ms." + approach] = Median(t.submit);
  }
}

void RunLabelLoop(const Options& options, int threads, Result* result) {
  PreparedDataset data;
  const double setup_s = TimedSetup([&] {
    WarmUp(threads);
    data = PrepareDataset(
        PrepareFor(CoraProfile(), kLabelingDataSeed, kScale, ""));
  });

  if (options.trace) {
    LabelRound untraced, traced;
    RunLabelRound(data, options.seed, &untraced, result);
    BeginTracedPass();
    RunLabelRound(data, options.seed, &traced, result);
    LayerValues layers;
    EndTracedPass(untraced.seconds, traced.seconds, &layers);
    // Tracing must not change what is learned.
    for (const auto& [approach, curve] : traced.curves) {
      result->Check(SameCurve(curve, untraced.curves[approach])
                        ? ""
                        : approach + ": tracing changed the curve");
    }
    AddSessionTimings(traced.timings, &layers);
    layers["core.ensemble_run_ms"] = Median(traced.ensemble_ms);
    AddLayers(layers, result);
    return;
  }

  // Whole rounds until the time is up, each with its own run seed derived
  // from --seed, so that a run averages over several runs' worth of
  // learner randomness. Each approach weighs the same in the wait
  // percentiles: how many iterations the ensemble runs before it stops
  // depends on the run seed.
  std::map<std::string, std::vector<double>> wait_ms;
  double labels = 0.0;
  double busy_s = 0.0;
  size_t rounds = 0;
  std::vector<double> best_f1;
  const auto start = Clock::now();
  do {
    LabelRound round;
    RunLabelRound(data, parallel::TaskSeed(options.seed, rounds++), &round,
                  result);
    best_f1.insert(best_f1.end(), round.best_f1.begin(), round.best_f1.end());
    labels += round.labels;
    busy_s += round.busy_s;
    for (const auto& [approach, waits] : round.wait_ms) {
      wait_ms[approach].insert(wait_ms[approach].end(), waits.begin(),
                               waits.end());
    }
  } while (SecondsSince(start) < options.seconds);
  std::vector<std::vector<double>> wait_groups;
  std::printf("iter_wait median by approach:");
  for (const auto& [approach, waits] : wait_ms) {
    std::printf(" %s=%.3fms(n=%zu)", approach.c_str(), Median(waits),
                waits.size());
    wait_groups.push_back(waits);
  }
  std::printf("\n");
  // Rounds differ in run seed, so their labels and times are pooled rather
  // than taking a median of unlike rounds.
  AddEndToEnd(result, setup_s, labels / busy_s,
              "labels_per_s: Oracle labels per second of loop time over " +
                  std::to_string(rounds) + " rounds",
              wait_groups,
              "iter_wait (Step + NextBatch), approaches weighted equally");
  std::printf("best_f1_mean %.6f over %zu runs (deterministic per seed and "
              "round count)\n",
              Mean(best_f1), best_f1.size());
}

// ---- resume_cycle --------------------------------------------------------

struct ResumeSessionStats {
  double seconds = 0.0;
  double labels = 0.0;
  std::vector<double> resume_ms;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::vector<double> snapshot_bytes;
  SessionTimings timings;
  std::vector<IterationStats> curve;
};

// Runs one labeling session as a stateless service: after every labeled
// batch the session is saved to a file and every in-memory object dropped;
// the next batch starts from the file alone — read the snapshot, read its
// run provenance, re-prepare the dataset (a feature-cache hit), restore.
// Returns the problem that stopped it, or empty.
std::string RunResumeSession(const PreparedDataset& base,
                             const RunConfig& config,
                             const std::string& cache_dir,
                             const std::string& snapshot_path,
                             ResumeSessionStats* stats) {
  const auto session_start = Clock::now();
  std::unique_ptr<PreparedDataset> reprepared;
  auto runner = std::make_unique<SessionRunner>(base, config);
  std::string error;
  while (true) {
    double wait_ms = 0.0;
    const Iteration outcome =
        DriveIteration(runner->session(), &stats->timings, &wait_ms);
    if (outcome == Iteration::kRejected) {
      return "rejected call: " + runner->session().error();
    }
    if (outcome == Iteration::kFinished) break;

    const auto resume_start = Clock::now();
    if (!runner->Save(snapshot_path, &error)) return "save: " + error;
    stats->save_ms.push_back(MsSince(resume_start));
    runner.reset();
    reprepared.reset();
    SessionSnapshot snapshot;
    if (!SessionSnapshot::ReadFile(snapshot_path, &snapshot, &error)) {
      return "read snapshot: " + error;
    }
    SessionRunInfo info;
    if (!ReadSessionRunInfo(snapshot, &info, &error)) {
      return "read run info: " + error;
    }
    reprepared = std::make_unique<PreparedDataset>(
        PrepareDataset(PrepareFor(ProfileByName(info.dataset), info.data_seed,
                                  info.scale, cache_dir)));
    if (reprepared->feature_cache != "hit") {
      return "re-prepare missed the feature cache";
    }
    reprepared->feature_cache = info.feature_cache;
    const auto restore_start = Clock::now();
    runner = SessionRunner::Restore(*reprepared, info.config, snapshot, &error);
    if (runner == nullptr) return "restore: " + error;
    stats->restore_ms.push_back(MsSince(restore_start));
    stats->resume_ms.push_back(MsSince(resume_start));
    stats->snapshot_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(snapshot_path)));
  }
  const std::string problem = FinishProblem(runner->session());
  if (!problem.empty()) return problem;
  stats->curve = runner->TakeResult().curve;
  stats->seconds = SecondsSince(session_start);
  if (!stats->curve.empty()) stats->labels = stats->curve.back().labels_used;
  return CurveProblem(stats->curve);
}

// Checks a resumed session against the uninterrupted reference run.
void CheckResumed(const std::string& problem, const ResumeSessionStats& stats,
                  const std::vector<IterationStats>& reference,
                  Result* result) {
  if (!problem.empty()) {
    result->Check("resumed session: " + problem);
  } else {
    result->Check(SameCurve(stats.curve, reference)
                      ? ""
                      : "resumed curve differs from the uninterrupted run");
  }
}

void RunResumeCycle(const Options& options, int threads, Result* result) {
  const std::string cache_dir = options.work_dir + "/cache";
  const std::string snapshot_path = options.work_dir + "/resume.alss";
  const RunConfig config = LabelingConfig(kResumeApproach, options.seed);
  PreparedDataset base;
  std::vector<IterationStats> reference;
  // Set-up fills the feature cache the re-prepares hit and computes the
  // uninterrupted reference run; the cache starts empty each time so every
  // repetition does the same work.
  const double setup_s = TimedSetup([&] {
    std::filesystem::remove_all(cache_dir);
    WarmUp(threads);
    base = PrepareDataset(
        PrepareFor(AbtBuyProfile(), kLabelingDataSeed, kScale, cache_dir));
    SessionRunner runner(base, config);
    runner.Run();
    reference = runner.TakeResult().curve;
  });

  if (options.trace) {
    ResumeSessionStats untraced, traced;
    CheckResumed(RunResumeSession(base, config, cache_dir, snapshot_path,
                                  &untraced),
                 untraced, reference, result);
    BeginTracedPass();
    CheckResumed(
        RunResumeSession(base, config, cache_dir, snapshot_path, &traced),
        traced, reference, result);
    const std::vector<obs::SpanRollupEntry> rollup =
        obs::SelfTimeRollup(obs::TraceRecorder::Global().Snapshot());
    LayerValues layers;
    EndTracedPass(untraced.seconds, traced.seconds, &layers);
    AddSessionTimings({{kResumeApproach, traced.timings}}, &layers);
    layers["core.save_ms"] = Median(traced.save_ms);
    layers["core.restore_ms"] = Median(traced.restore_ms);
    layers["core.snapshot_bytes"] = Median(traced.snapshot_bytes);
    // The re-prepare's layers, from the library's own harness spans.
    layers["synth.generate_ms"] = SpanMeanMs(rollup, "harness.generate", false);
    layers["blocking.jaccard_ms"] = SpanMeanMs(rollup, "harness.block", false);
    layers["blocking.candidate_pairs"] =
        static_cast<double>(base.pairs.size());
    layers["features.cache_load_ms"] =
        SpanMeanMs(rollup, "harness.featurize.cache", false);
    layers["features.boolean_ms"] =
        SpanMeanMs(rollup, "harness.featurize", true);
    AddLayers(layers, result);
    return;
  }

  std::vector<double> resume_ms;
  std::vector<double> session_throughput;
  const auto start = Clock::now();
  do {
    ResumeSessionStats stats;
    CheckResumed(
        RunResumeSession(base, config, cache_dir, snapshot_path, &stats),
        stats, reference, result);
    if (stats.seconds > 0) {  // Zero when the session stopped early.
      session_throughput.push_back(stats.labels / stats.seconds);
    }
    resume_ms.insert(resume_ms.end(), stats.resume_ms.begin(),
                     stats.resume_ms.end());
  } while (SecondsSince(start) < options.seconds);
  AddEndToEnd(result, setup_s, Median(session_throughput),
              "labels_per_s: Oracle labels per second of session time, "
              "median of " + std::to_string(session_throughput.size()) +
                  " sessions",
              {resume_ms}, "resume round trip (save, re-prepare, restore)");
}

// ---- main ----------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  // Pinned worker-thread count (capped at the machine's hardware threads).
  int threads;
  void (*run)(const Options&, int, Result*);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"cold_prepare", 2, RunColdPrepare},
    {"label_loop", 2, RunLabelLoop},
    {"resume_cycle", 1, RunResumeCycle},
};

int Usage() {
  std::fprintf(stderr,
               "usage: alem_perfbench --workload cold_prepare|label_loop|"
               "resume_cycle --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == options.workload) workload = &spec;
  }
  if (workload == nullptr || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  const int threads = std::min(workload->threads, parallel::HardwareThreads());
  Result result;
  workload->run(options, threads, &result);
  std::printf("# env workload=%s seed=%llu trace=%d git=%s build_type=%s "
              "kernel_backend=%.*s nproc=%d threads=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, obs::BuildStamp(),
              ALEM_PERFBENCH_BUILD_TYPE,
              static_cast<int>(kernels::BackendName().size()),
              kernels::BackendName().data(), parallel::HardwareThreads(),
              threads);
  if (options.trace) {
    const std::string trace_path =
        options.work_dir + "/" + options.workload + ".trace.json";
    if (!obs::TraceRecorder::Global().WriteChromeTrace(trace_path)) {
      result.Check("cannot write " + trace_path);
    }
  }
  result.Print();
  return 0;
}

}  // namespace
}  // namespace alem

int main(int argc, char** argv) { return alem::Main(argc, argv); }
