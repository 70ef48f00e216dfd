// RunReport — the flight recorder for one process / one active-learning
// run. Everything a perf or parity claim needs lands in a single JSON
// artifact: the configuration and git build stamp, the per-iteration
// learning curve (progressive/holdout F1 plus the committee-creation vs.
// example-scoring vs. train latency split the paper plots in Figs. 8-13),
// the key metric counters, a span self-time rollup, and process totals
// (wall clock, peak RSS).
//
// Producers:
//   * alem_cli run --report=PATH          one "run"-kind report per run
//   * bench binaries + ALEM_REPORT_DIR    one "bench"-kind report per
//                                         process (counters + spans +
//                                         process totals; no curve)
// Consumers:
//   * tools/alem_report                   show / compare / diff / check /
//                                         aggregate (BENCH_alembench.json)
//   * tools/trace_summary.py --check      schema validation
//   * CheckReports() below                the regression gate ctest runs
//                                         against the golden baseline
//
// The JSON layout (schema_version 1):
//   { "schema_version": 1, "kind": "run"|"bench", "tool": ..., "build": ...,
//     "config":  { dataset, approach, data_seed, run_seed, scale, threads,
//                  seed_size, batch_size, max_labels, oracle_noise, holdout,
//                  cache, kernel_backend, session, session_resumes,
//                  warm_start },
//     "curve":   [ { iteration, labels_used, precision, recall, f1,
//                    train_seconds, evaluate_seconds, select_seconds,
//                    committee_seconds, scoring_seconds, label_seconds,
//                    wait_seconds, scored_examples, pruned_examples,
//                    dnf_atoms, tree_depth, ensemble_size }, ... ],
//     "summary": { iterations, best_f1, final_f1, labels_to_converge,
//                  total_wait_seconds, ensemble_accepted },
//     "counters": { name: value, ... },
//     "gauges":   { name: value, ... },
//     "latency": [ { name, count, sum_seconds, p50_seconds, p95_seconds,
//                    p99_seconds }, ... ],
//     "spans":   [ { name, count, total_seconds, self_seconds }, ... ],
//     "pool":    { workers, busy_seconds, idle_seconds, queue_wait_seconds,
//                  worker_wall_seconds, utilization,
//                  regions: [ { name, runs, chunks, min_chunk_seconds,
//                               max_chunk_seconds, mean_chunk_seconds,
//                               utilization }, ... ] },
//     "process": { wall_seconds, peak_rss_bytes } }
// "curve"/"summary" are required for kind "run", optional for "bench".
// "latency" (per-region tail percentiles from the lat.* histograms),
// and "pool" (thread-pool utilization; only present when the pool engaged,
// so threads=1 reports are unchanged) are optional on parse like
// config.cache, config.kernel_backend, and config.session/session_resumes,
// keeping schema v1 backward compatible. A "profile" section written by
// older builds is accepted and ignored.
// Doubles are written with %.17g so a parse-back is bit-identical — the
// determinism gate (--exact-curve) depends on this.

#ifndef ALEM_OBS_REPORT_H_
#define ALEM_OBS_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace alem {
namespace obs {

inline constexpr int kReportSchemaVersion = 1;

// One learning-curve point; mirrors IterationStats field for field (core
// translates — obs stays dependency-free below core).
struct ReportIteration {
  uint64_t iteration = 0;
  uint64_t labels_used = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double train_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double select_seconds = 0.0;
  double committee_seconds = 0.0;
  double scoring_seconds = 0.0;
  double label_seconds = 0.0;
  double wait_seconds = 0.0;
  uint64_t scored_examples = 0;
  uint64_t pruned_examples = 0;
  uint64_t dnf_atoms = 0;
  int tree_depth = 0;
  uint64_t ensemble_size = 0;
};

// Per-span-name aggregate: total wall time and self time (total minus the
// time of spans nested inside it on the same thread).
struct SpanRollupEntry {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

// Tail-latency percentiles of one span region, estimated from its
// "lat.<name>" histogram (`name` here is the region without the prefix).
struct LatencyEntry {
  std::string name;
  uint64_t count = 0;
  double sum_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

// Chunk-imbalance stats for one ParallelFor region (parallel/pool.h).
struct PoolRegionStats {
  std::string name;
  uint64_t runs = 0;
  uint64_t chunks = 0;
  double min_chunk_seconds = 0.0;
  double max_chunk_seconds = 0.0;
  double mean_chunk_seconds = 0.0;
  double utilization = 0.0;  // busy / (workers × region wall)
};

// Thread-pool utilization totals; busy + idle + queue_wait ≈ worker_wall.
struct PoolStats {
  int workers = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  double worker_wall_seconds = 0.0;
  double utilization = 0.0;  // busy / worker_wall
  std::vector<PoolRegionStats> regions;
};

struct RunReport {
  int schema_version = kReportSchemaVersion;
  std::string kind = "run";  // "run" or "bench"
  std::string tool;          // "alem_cli" or the bench artifact name
  std::string build;         // git describe, baked in at configure time

  // config
  std::string dataset;
  std::string approach;
  uint64_t data_seed = 0;
  uint64_t run_seed = 0;
  double scale = 1.0;
  int threads = 1;
  uint64_t seed_size = 0;
  uint64_t batch_size = 0;
  uint64_t max_labels = 0;
  double oracle_noise = 0.0;
  bool holdout = false;
  // Feature-cache provenance: "off" (caching disabled), "miss" (computed
  // and stored), or "hit" (loaded from ALEM_CACHE_DIR). Optional on parse
  // so pre-cache reports stay loadable; defaults to "off".
  std::string cache = "off";
  // SIMD kernel backend the run executed with ("scalar", "avx2"; see
  // src/kernels/backend.h). Optional on parse so pre-kernel reports stay
  // loadable; defaults to "scalar".
  std::string kernel_backend = "scalar";
  // Labeling-session provenance: "fresh" (uninterrupted run) or "resumed"
  // (continued from an ALSS snapshot; session_resumes counts the restores).
  // Optional on parse so pre-session reports stay loadable
  // (docs/sessions.md).
  std::string session = "fresh";
  uint64_t session_resumes = 0;
  // Warm-start training mode the run executed with ("off" or "on";
  // docs/training.md). Optional on parse so pre-warm-start reports stay
  // loadable; defaults to "off".
  std::string warm_start = "off";

  // curve + summary (required for kind "run")
  std::vector<ReportIteration> curve;
  double best_f1 = 0.0;
  double final_f1 = 0.0;
  uint64_t labels_to_converge = 0;
  double total_wait_seconds = 0.0;
  uint64_t ensemble_accepted = 0;

  // observability rollups
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<SpanRollupEntry> spans;
  // Per-region tail latency, sorted by name (empty = section absent).
  std::vector<LatencyEntry> latency;
  // Thread-pool utilization; only serialized when has_pool (pool engaged).
  bool has_pool = false;
  PoolStats pool;

  // process totals
  double wall_seconds = 0.0;
  uint64_t peak_rss_bytes = 0;

  // Counter lookup; returns `missing` when absent.
  uint64_t CounterOr(std::string_view name, uint64_t missing = 0) const;
};

// The compile-time git identity ("unknown" without git metadata).
const char* BuildStamp();

// Aggregates span records into per-name (count, total, self) rows, sorted
// by self time descending. Self time subtracts the duration of spans
// nested inside a span on the same thread (containment by [start, end]).
std::vector<SpanRollupEntry> SelfTimeRollup(
    const std::vector<SpanRecord>& records);

// Fills the observability sections of a report from the global registries:
// counter/gauge snapshot, span self-time rollup, per-region latency
// percentiles (from the lat.* histograms), and peak RSS (also published as
// the `process.peak_rss_bytes` gauge). Call parallel::StampPoolProfile
// first so its parallel.* gauges land in the same snapshot.
void StampObservability(RunReport* report);

std::string ReportToJson(const RunReport& report);

// Parses and schema-validates a report. Missing required fields, a wrong
// schema version, or malformed JSON fail with a message in *error.
bool ParseReportJson(std::string_view text, RunReport* report,
                     std::string* error);

bool WriteReportJson(const std::string& path, const RunReport& report);
bool LoadReportFile(const std::string& path, RunReport* report,
                    std::string* error);

// ---- Regression gate --------------------------------------------------

struct ReportCheckOptions {
  // Candidate F1 (final and best) may trail the baseline by at most this
  // much; improvements always pass.
  double f1_tol = 0.02;
  // When >= 0, candidate total_wait_seconds and wall_seconds must stay
  // within baseline * (1 + latency_tol) + 10ms grace. Off by default:
  // wall-clock gates need a quiet, comparable machine.
  double latency_tol = -1.0;
  // When >= 0, every baseline counter must exist in the candidate with a
  // relative difference of at most counter_tol.
  double counter_tol = -1.0;
  // When >= 0, every latency region present in BOTH reports must keep its
  // candidate p95 within baseline * (1 + latency_p95_tol) + 10ms grace.
  // Regions on only one side are skipped: thread-count changes add or
  // remove parallel regions structurally. Off by default (wall-clock gate).
  double latency_p95_tol = -1.0;
  // Require the curves to be bit-identical (lengths, labels_used, f1) —
  // the determinism contract across thread counts.
  bool exact_curve = false;
};

// Compares a candidate report against a baseline; returns human-readable
// failure strings (empty = gate passes). Both "run"-kind reports must
// carry nonzero oracle.queries / selector.scored_examples counters.
std::vector<std::string> CheckReports(const RunReport& baseline,
                                      const RunReport& candidate,
                                      const ReportCheckOptions& options);

}  // namespace obs
}  // namespace alem

#endif  // ALEM_OBS_REPORT_H_
