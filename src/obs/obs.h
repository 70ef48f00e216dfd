// Zero-dependency observability layer: trace spans + metrics.
//
// The paper's contribution is *measurement* — per-iteration F1, the
// committee-creation vs. example-scoring latency split, user wait time
// (Figs. 8-13). This library makes every pipeline stage independently
// observable instead of relying on scattered StopWatch fields:
//
//   * ObsSpan        RAII span forming a per-thread hierarchical stack.
//                    Always measures wall-clock time (callers derive their
//                    latency stats from it); records into the global
//                    TraceRecorder only while tracing is enabled.
//   * TraceRecorder  lock-protected global span sink, exportable as Chrome
//                    trace-event JSON (chrome://tracing / Perfetto) or flat
//                    JSONL.
//   * MetricsRegistry named Counters / Gauges / Histograms with a
//                    Snapshot() API and text/CSV dumps.
//
// Both subsystems are off by default. A disabled Counter::Add is one
// relaxed atomic load and a predicted branch; a disabled span is two
// steady_clock reads (the same cost as the StopWatch it replaces), so
// instrumented hot paths run at their uninstrumented speed.
//
// Canonical metric names used across the pipeline:
//   oracle.queries             #labels handed out by the Oracle
//   selector.scored_examples   #unlabeled examples fully scored
//   blocking.pruned            #examples skipped by selection-time blocking
//   blocking.candidate_pairs   #pairs surviving offline blocking
//   sim.calls                  #similarity-function evaluations
//   ml.fit_calls / ml.predict_calls
//   loop.iterations / loop.labels_used / ensemble.accepted

#ifndef ALEM_OBS_OBS_H_
#define ALEM_OBS_OBS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alem {
namespace obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
extern std::atomic<bool> g_metrics_enabled;
// Hot counter for Learner::Predict: a registry lookup (even a cached one)
// is too heavy for a per-example call, so the inline wrapper touches this
// plain atomic directly. Snapshot() reports it as "ml.predict_calls".
extern std::atomic<uint64_t> g_predict_calls;
}  // namespace detail

inline bool TracingEnabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetTracingEnabled(bool enabled);
void SetMetricsEnabled(bool enabled);

// One relaxed load + predicted branch when metrics are off.
inline void CountPredictCall() {
  if (MetricsEnabled()) {
    detail::g_predict_calls.fetch_add(1, std::memory_order_relaxed);
  }
}

// Bulk variant for the batch prediction path: one relaxed add covers a
// whole row range, keeping ml.predict_calls exactly equal to what per-row
// counting would have produced.
inline void CountPredictCalls(uint64_t n) {
  if (MetricsEnabled()) {
    detail::g_predict_calls.fetch_add(n, std::memory_order_relaxed);
  }
}

// Unconditional absolute set of the predict-call count. ml.predict_calls is
// synthesized into Snapshot() from this atomic rather than living in the
// registry, so session restore (which re-establishes every counter from a
// snapshot; docs/sessions.md) needs this dedicated setter.
inline void SetPredictCalls(uint64_t n) {
  detail::g_predict_calls.store(n, std::memory_order_relaxed);
}

// ---- Metrics ----------------------------------------------------------

// Monotonically increasing count. Thread-safe; no-op while metrics are off.
class Counter {
 public:
  void Add(uint64_t n) {
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  // Sets the absolute value unconditionally (like Reset, unlike Add):
  // session restore re-establishes process-cumulative counts from a
  // snapshot so a resumed run's totals stitch up exactly
  // (docs/sessions.md).
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written value. Thread-safe; no-op while metrics are off.
class Gauge {
 public:
  void Set(double v) {
    if (MetricsEnabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  // Upper bounds of the finite buckets; an implicit +Inf bucket follows.
  std::vector<double> bounds;
  // bucket[i] counts observations v with v <= bounds[i] (and > bounds[i-1]);
  // bucket[bounds.size()] is the overflow bucket.
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;

  // Prometheus-style quantile estimate: linear interpolation inside the
  // bucket holding rank q*count (first bucket interpolates from 0).
  // Returns 0 for an empty histogram; observations in the overflow bucket
  // clamp to the last finite bound. q is clamped to [0, 1].
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
};

// Fixed-bucket histogram. Bounds are sorted upper bounds ("le" semantics);
// observations above the last bound land in an overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  // "name value" lines for terminals.
  std::string ToText() const;
  // "kind,name,field,value" rows (histograms expand to one row per bucket).
  std::string ToCsv() const;
};

// Global, mutex-protected registry. Get* registers on first use and returns
// a reference that stays valid for the process lifetime (values live behind
// unique_ptrs), so call sites can cache it in a function-local static.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  // The bounds are fixed by the first registration of `name`.
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  // Zeroes every registered metric (names stay registered).
  void ResetAll();

  bool WriteCsv(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Shared bucket layout for the per-region `lat.<name>` span-latency
// histograms: log-spaced upper bounds from 1µs to 100s, four buckets per
// decade, so p50/p95/p99 estimates stay within ~30% of the true value at
// any magnitude a pipeline stage can plausibly take.
const std::vector<double>& LatencyBounds();

// ---- Tracing ----------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::string category;
  // Free-form annotation (e.g. the learner name for "ml.fit" spans).
  std::string detail;
  // Small sequential per-thread id (not the OS thread id).
  uint32_t thread_id = 0;
  // Nesting depth at the span's start (0 = top level on its thread).
  int depth = 0;
  // Nanoseconds relative to the process-wide trace epoch.
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

// One sampled value of a time-series counter (the telemetry sampler's
// output): exported as a Chrome trace-event counter ("C" phase) so
// Perfetto renders the series as a resource curve over the run.
struct CounterRecord {
  std::string name;
  uint64_t ts_ns = 0;  // Nanoseconds relative to the trace epoch.
  double value = 0.0;
};

// Global lock-protected span sink.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  void Record(SpanRecord record);
  std::vector<SpanRecord> Snapshot() const;
  size_t size() const;  // Span records only (counter samples not included).
  void Clear();         // Drops spans and counter samples.

  // Appends one counter sample; no-op while tracing is disabled.
  void RecordCounter(std::string_view name, double value);
  std::vector<CounterRecord> CounterSnapshot() const;
  size_t counter_size() const;

  // {"traceEvents":[...]} with "X" (complete) span events plus "C"
  // (counter) events for sampled series, ts/dur in microseconds —
  // loadable by chrome://tracing and Perfetto.
  std::string ToChromeTraceJson() const;
  // One JSON object per line: name, cat, detail, tid, depth, start_us,
  // dur_us.
  std::string ToJsonl() const;

  bool WriteChromeTrace(const std::string& path) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  TraceRecorder() = default;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::vector<CounterRecord> counters_;
};

// RAII trace span. Construction starts the clock; Close() (or destruction)
// stops it and, while tracing is enabled, records the span globally.
// Close() returns the elapsed seconds so latency statistics are *derived
// from the span* instead of being measured twice. While metrics are
// enabled, Close() additionally observes the duration into the
// "lat.<name>" histogram (LatencyBounds() buckets), giving every named
// region p50/p95/p99 tail-latency percentiles for free.
class ObsSpan {
 public:
  explicit ObsSpan(std::string_view name, std::string_view category = "",
                   std::string_view detail = "");
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  // Ends the span and returns its duration in seconds. Idempotent: later
  // calls return the recorded duration without re-recording.
  double Close();

  // Elapsed seconds so far without ending the span.
  double ElapsedSeconds() const;

 private:
  std::string name_;
  std::string category_;
  std::string detail_;
  uint64_t start_ns_;
  uint64_t duration_ns_ = 0;
  int depth_;
  bool open_ = true;
};

// Nanoseconds since the process-wide trace epoch (first use).
uint64_t TraceNowNanos();

// Peak resident set size of this process in bytes. Reads Linux
// /proc/self/status VmHWM, falling back to getrusage(ru_maxrss); returns 0
// when neither source is available. Stamped into every RunReport and
// published as the `process.peak_rss_bytes` gauge (obs/report.h).
uint64_t PeakRssBytes();

namespace detail {
// Normalizes a getrusage ru_maxrss value to bytes in one place: the field
// is KiB on Linux (and most Unixes) but *bytes* on macOS. Non-positive
// values (unset / unsupported platforms) normalize to 0.
uint64_t RuMaxRssToBytes(long ru_maxrss);
}  // namespace detail

// Current resident set size in bytes (Linux /proc/self/statm); 0 when
// unavailable. Sampled by the telemetry sampler (obs/telemetry.h) to plot
// the memory curve over a run.
uint64_t CurrentRssBytes();

}  // namespace obs
}  // namespace alem

#endif  // ALEM_OBS_OBS_H_
