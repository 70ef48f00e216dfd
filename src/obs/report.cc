#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/file.h"
#include "util/json.h"

// Injected by src/obs/CMakeLists.txt from `git describe` at configure time.
#ifndef ALEM_GIT_SHA
#define ALEM_GIT_SHA "unknown"
#endif

namespace alem {
namespace obs {

const char* BuildStamp() { return ALEM_GIT_SHA; }

uint64_t RunReport::CounterOr(std::string_view name, uint64_t missing) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return missing;
}

// ---- Span rollup ------------------------------------------------------

std::vector<SpanRollupEntry> SelfTimeRollup(
    const std::vector<SpanRecord>& records) {
  // Index records per thread, sorted so parents precede their children
  // (earlier start; on ties the longer span is the parent).
  struct Indexed {
    const SpanRecord* record;
    uint64_t self_ns;
  };
  std::vector<std::vector<Indexed>> per_thread;
  for (const SpanRecord& record : records) {
    if (record.thread_id >= per_thread.size()) {
      per_thread.resize(record.thread_id + 1);
    }
    per_thread[record.thread_id].push_back({&record, record.duration_ns});
  }

  std::vector<SpanRollupEntry> rollup;
  auto find = [&rollup](const std::string& name) -> SpanRollupEntry& {
    for (SpanRollupEntry& entry : rollup) {
      if (entry.name == name) return entry;
    }
    rollup.push_back(SpanRollupEntry{name, 0, 0.0, 0.0});
    return rollup.back();
  };

  for (std::vector<Indexed>& thread_records : per_thread) {
    std::sort(thread_records.begin(), thread_records.end(),
              [](const Indexed& a, const Indexed& b) {
                if (a.record->start_ns != b.record->start_ns) {
                  return a.record->start_ns < b.record->start_ns;
                }
                return a.record->duration_ns > b.record->duration_ns;
              });
    // Stack of (end_ns, index) open ancestors; each span subtracts its
    // duration from the nearest enclosing span's self time.
    std::vector<std::pair<uint64_t, size_t>> stack;
    for (size_t i = 0; i < thread_records.size(); ++i) {
      const SpanRecord& record = *thread_records[i].record;
      while (!stack.empty() && stack.back().first <= record.start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Indexed& parent = thread_records[stack.back().second];
        parent.self_ns -= std::min(parent.self_ns, record.duration_ns);
      }
      stack.emplace_back(record.start_ns + record.duration_ns, i);
    }
    for (const Indexed& indexed : thread_records) {
      SpanRollupEntry& entry = find(indexed.record->name);
      entry.count += 1;
      entry.total_seconds +=
          static_cast<double>(indexed.record->duration_ns) / 1e9;
      entry.self_seconds += static_cast<double>(indexed.self_ns) / 1e9;
    }
  }
  std::sort(rollup.begin(), rollup.end(),
            [](const SpanRollupEntry& a, const SpanRollupEntry& b) {
              if (a.self_seconds != b.self_seconds) {
                return a.self_seconds > b.self_seconds;
              }
              return a.name < b.name;
            });
  return rollup;
}

void StampObservability(RunReport* report) {
  report->build = BuildStamp();
  const uint64_t rss = PeakRssBytes();
  report->peak_rss_bytes = rss;
  MetricsRegistry::Global()
      .GetGauge("process.peak_rss_bytes")
      .Set(static_cast<double>(rss));
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  report->counters = snapshot.counters;
  report->gauges = snapshot.gauges;
  report->spans = SelfTimeRollup(TraceRecorder::Global().Snapshot());
  // Per-region tail latency from the auto-observed lat.<region> histograms
  // (map iteration keeps the entries sorted by region name).
  report->latency.clear();
  for (const auto& [name, histogram] : snapshot.histograms) {
    constexpr std::string_view kPrefix = "lat.";
    if (name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        histogram.count == 0) {
      continue;
    }
    LatencyEntry entry;
    entry.name = name.substr(kPrefix.size());
    entry.count = histogram.count;
    entry.sum_seconds = histogram.sum;
    entry.p50_seconds = histogram.P50();
    entry.p95_seconds = histogram.P95();
    entry.p99_seconds = histogram.P99();
    report->latency.push_back(std::move(entry));
  }
}

// ---- Serialization ----------------------------------------------------

namespace {

void AppendIteration(std::string* out, const ReportIteration& it) {
  out->append("    {\"iteration\":");
  AppendJsonUint(out, it.iteration);
  out->append(",\"labels_used\":");
  AppendJsonUint(out, it.labels_used);
  out->append(",\"precision\":");
  AppendJsonDouble(out, it.precision);
  out->append(",\"recall\":");
  AppendJsonDouble(out, it.recall);
  out->append(",\"f1\":");
  AppendJsonDouble(out, it.f1);
  out->append(",\"train_seconds\":");
  AppendJsonDouble(out, it.train_seconds);
  out->append(",\"evaluate_seconds\":");
  AppendJsonDouble(out, it.evaluate_seconds);
  out->append(",\"select_seconds\":");
  AppendJsonDouble(out, it.select_seconds);
  out->append(",\"committee_seconds\":");
  AppendJsonDouble(out, it.committee_seconds);
  out->append(",\"scoring_seconds\":");
  AppendJsonDouble(out, it.scoring_seconds);
  out->append(",\"label_seconds\":");
  AppendJsonDouble(out, it.label_seconds);
  out->append(",\"wait_seconds\":");
  AppendJsonDouble(out, it.wait_seconds);
  out->append(",\"scored_examples\":");
  AppendJsonUint(out, it.scored_examples);
  out->append(",\"pruned_examples\":");
  AppendJsonUint(out, it.pruned_examples);
  out->append(",\"dnf_atoms\":");
  AppendJsonUint(out, it.dnf_atoms);
  out->append(",\"tree_depth\":");
  out->append(std::to_string(it.tree_depth));
  out->append(",\"ensemble_size\":");
  AppendJsonUint(out, it.ensemble_size);
  out->append("}");
}

}  // namespace

std::string ReportToJson(const RunReport& report) {
  std::string out;
  out.reserve(4096 + report.curve.size() * 384);
  out.append("{\n  \"schema_version\": ");
  out.append(std::to_string(report.schema_version));
  out.append(",\n  \"kind\": ");
  AppendJsonString(&out, report.kind);
  out.append(",\n  \"tool\": ");
  AppendJsonString(&out, report.tool);
  out.append(",\n  \"build\": ");
  AppendJsonString(&out, report.build);

  out.append(",\n  \"config\": {\"dataset\": ");
  AppendJsonString(&out, report.dataset);
  out.append(", \"approach\": ");
  AppendJsonString(&out, report.approach);
  out.append(", \"data_seed\": ");
  AppendJsonUint(&out, report.data_seed);
  out.append(", \"run_seed\": ");
  AppendJsonUint(&out, report.run_seed);
  out.append(", \"scale\": ");
  AppendJsonDouble(&out, report.scale);
  out.append(", \"threads\": ");
  out.append(std::to_string(report.threads));
  out.append(", \"seed_size\": ");
  AppendJsonUint(&out, report.seed_size);
  out.append(", \"batch_size\": ");
  AppendJsonUint(&out, report.batch_size);
  out.append(", \"max_labels\": ");
  AppendJsonUint(&out, report.max_labels);
  out.append(", \"oracle_noise\": ");
  AppendJsonDouble(&out, report.oracle_noise);
  out.append(", \"holdout\": ");
  out.append(report.holdout ? "true" : "false");
  out.append(", \"cache\": ");
  AppendJsonString(&out, report.cache);
  out.append(", \"kernel_backend\": ");
  AppendJsonString(&out, report.kernel_backend);
  out.append(", \"session\": ");
  AppendJsonString(&out, report.session);
  out.append(", \"session_resumes\": ");
  AppendJsonUint(&out, report.session_resumes);
  out.append(", \"warm_start\": ");
  AppendJsonString(&out, report.warm_start);
  out.append("}");

  if (report.kind == "run" || !report.curve.empty()) {
    out.append(",\n  \"curve\": [\n");
    for (size_t i = 0; i < report.curve.size(); ++i) {
      if (i > 0) out.append(",\n");
      AppendIteration(&out, report.curve[i]);
    }
    out.append("\n  ],\n  \"summary\": {\"iterations\": ");
    AppendJsonUint(&out, report.curve.size());
    out.append(", \"best_f1\": ");
    AppendJsonDouble(&out, report.best_f1);
    out.append(", \"final_f1\": ");
    AppendJsonDouble(&out, report.final_f1);
    out.append(", \"labels_to_converge\": ");
    AppendJsonUint(&out, report.labels_to_converge);
    out.append(", \"total_wait_seconds\": ");
    AppendJsonDouble(&out, report.total_wait_seconds);
    out.append(", \"ensemble_accepted\": ");
    AppendJsonUint(&out, report.ensemble_accepted);
    out.append("}");
  }

  out.append(",\n  \"counters\": {");
  for (size_t i = 0; i < report.counters.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(&out, report.counters[i].first);
    out.append(": ");
    AppendJsonUint(&out, report.counters[i].second);
  }
  out.append("},\n  \"gauges\": {");
  for (size_t i = 0; i < report.gauges.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(&out, report.gauges[i].first);
    out.append(": ");
    AppendJsonDouble(&out, report.gauges[i].second);
  }
  out.append("}");
  if (!report.latency.empty()) {
    out.append(",\n  \"latency\": [\n");
    for (size_t i = 0; i < report.latency.size(); ++i) {
      const LatencyEntry& entry = report.latency[i];
      if (i > 0) out.append(",\n");
      out.append("    {\"name\": ");
      AppendJsonString(&out, entry.name);
      out.append(", \"count\": ");
      AppendJsonUint(&out, entry.count);
      out.append(", \"sum_seconds\": ");
      AppendJsonDouble(&out, entry.sum_seconds);
      out.append(", \"p50_seconds\": ");
      AppendJsonDouble(&out, entry.p50_seconds);
      out.append(", \"p95_seconds\": ");
      AppendJsonDouble(&out, entry.p95_seconds);
      out.append(", \"p99_seconds\": ");
      AppendJsonDouble(&out, entry.p99_seconds);
      out.append("}");
    }
    out.append("\n  ]");
  }
  out.append(",\n  \"spans\": [\n");
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const SpanRollupEntry& entry = report.spans[i];
    if (i > 0) out.append(",\n");
    out.append("    {\"name\": ");
    AppendJsonString(&out, entry.name);
    out.append(", \"count\": ");
    AppendJsonUint(&out, entry.count);
    out.append(", \"total_seconds\": ");
    AppendJsonDouble(&out, entry.total_seconds);
    out.append(", \"self_seconds\": ");
    AppendJsonDouble(&out, entry.self_seconds);
    out.append("}");
  }
  out.append("\n  ]");
  if (report.has_pool) {
    out.append(",\n  \"pool\": {\"workers\": ");
    out.append(std::to_string(report.pool.workers));
    out.append(", \"busy_seconds\": ");
    AppendJsonDouble(&out, report.pool.busy_seconds);
    out.append(", \"idle_seconds\": ");
    AppendJsonDouble(&out, report.pool.idle_seconds);
    out.append(", \"queue_wait_seconds\": ");
    AppendJsonDouble(&out, report.pool.queue_wait_seconds);
    out.append(", \"worker_wall_seconds\": ");
    AppendJsonDouble(&out, report.pool.worker_wall_seconds);
    out.append(", \"utilization\": ");
    AppendJsonDouble(&out, report.pool.utilization);
    out.append(", \"regions\": [");
    for (size_t i = 0; i < report.pool.regions.size(); ++i) {
      const PoolRegionStats& region = report.pool.regions[i];
      if (i > 0) out.append(",");
      out.append("\n    {\"name\": ");
      AppendJsonString(&out, region.name);
      out.append(", \"runs\": ");
      AppendJsonUint(&out, region.runs);
      out.append(", \"chunks\": ");
      AppendJsonUint(&out, region.chunks);
      out.append(", \"min_chunk_seconds\": ");
      AppendJsonDouble(&out, region.min_chunk_seconds);
      out.append(", \"max_chunk_seconds\": ");
      AppendJsonDouble(&out, region.max_chunk_seconds);
      out.append(", \"mean_chunk_seconds\": ");
      AppendJsonDouble(&out, region.mean_chunk_seconds);
      out.append(", \"utilization\": ");
      AppendJsonDouble(&out, region.utilization);
      out.append("}");
    }
    if (!report.pool.regions.empty()) out.append("\n  ");
    out.append("]}");
  }
  out.append(",\n  \"process\": {\"wall_seconds\": ");
  AppendJsonDouble(&out, report.wall_seconds);
  out.append(", \"peak_rss_bytes\": ");
  AppendJsonUint(&out, report.peak_rss_bytes);
  out.append("}\n}\n");
  return out;
}

// ---- Parsing ----------------------------------------------------------

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Exclusive upper bounds of the integer fields: counts and seeds are
// uint64; schema_version, threads, pool.workers and tree_depth are int.
constexpr double kUint64Limit = 18446744073709551616.0;  // 2^64
constexpr double kIntLimit = 2147483648.0;               // 2^31

// Reads an integer field or counter. Anything but a number naming an
// integer in [0, limit) is reported, never cast: the cast of a negative or
// out-of-range double is undefined.
uint64_t ReadUint(const JsonValue& value, const std::string& field,
                  double limit, std::vector<std::string>* invalid) {
  const double v = value.is_number() ? value.number_value() : -1.0;
  if (!(v >= 0.0 && v < limit) || v != std::floor(v)) {
    invalid->push_back(field + " is not an integer in [0, " +
                       (limit == kIntLimit ? "2^31" : "2^64") + ")");
    return 0;
  }
  return static_cast<uint64_t>(v);
}

// Field extraction with failure accounting: an absent required field
// appends to *missing and a present field of the wrong type or range to
// *invalid, so the error message names every failure at once.
struct FieldReader {
  const JsonValue& object;
  std::string* missing;
  std::vector<std::string>* invalid;
  std::string context;

  const JsonValue* Get(const char* key, bool required) const {
    const JsonValue* value = object.Find(key);
    if (value == nullptr && required) {
      if (!missing->empty()) missing->append(", ");
      missing->append(context + key);
    }
    return value;
  }
  // The field when present and of the wanted kind; a mistyped field is
  // reported and read as absent.
  const JsonValue* Typed(const char* key, bool required,
                         bool (JsonValue::*is_kind)() const,
                         const char* kind) const {
    const JsonValue* value = Get(key, required);
    if (value != nullptr && !(value->*is_kind)()) {
      invalid->push_back(context + key + " is not " + kind);
      return nullptr;
    }
    return value;
  }
  const JsonValue* Object(const char* key, bool required = true) const {
    return Typed(key, required, &JsonValue::is_object, "an object");
  }
  std::string String(const char* key) const {
    const JsonValue* v = Typed(key, true, &JsonValue::is_string, "a string");
    return v != nullptr ? v->string_value() : "";
  }
  // Optional string: *out keeps its default unless the field is present.
  void OptionalString(const char* key, std::string* out) const {
    const JsonValue* v = Typed(key, false, &JsonValue::is_string, "a string");
    if (v != nullptr) *out = v->string_value();
  }
  double Number(const char* key) const {
    const JsonValue* v = Typed(key, true, &JsonValue::is_number, "a number");
    return v != nullptr ? v->number_value() : 0.0;
  }
  bool Bool(const char* key) const {
    const JsonValue* v = Typed(key, true, &JsonValue::is_bool, "a boolean");
    return v != nullptr && v->bool_value();
  }
  uint64_t Uint(const char* key, bool required = true,
                double limit = kUint64Limit) const {
    const JsonValue* v = Get(key, required);
    return v != nullptr ? ReadUint(*v, context + key, limit, invalid) : 0;
  }
  int Int(const char* key) const {
    return static_cast<int>(Uint(key, /*required=*/true, kIntLimit));
  }
  // Elements of an array field that must all be objects.
  std::vector<const JsonValue*> Objects(const char* key,
                                        bool required = true) const {
    std::vector<const JsonValue*> elements;
    const JsonValue* array =
        Typed(key, required, &JsonValue::is_array, "an array");
    if (array == nullptr) return elements;
    for (const JsonValue& element : array->array()) {
      if (element.is_object()) {
        elements.push_back(&element);
      } else {
        invalid->push_back(context + key + "[] element is not an object");
      }
    }
    return elements;
  }
};

ReportIteration ParseIteration(const FieldReader& reader) {
  ReportIteration it;
  it.iteration = reader.Uint("iteration");
  it.labels_used = reader.Uint("labels_used");
  it.precision = reader.Number("precision");
  it.recall = reader.Number("recall");
  it.f1 = reader.Number("f1");
  it.train_seconds = reader.Number("train_seconds");
  it.evaluate_seconds = reader.Number("evaluate_seconds");
  it.select_seconds = reader.Number("select_seconds");
  it.committee_seconds = reader.Number("committee_seconds");
  it.scoring_seconds = reader.Number("scoring_seconds");
  it.label_seconds = reader.Number("label_seconds");
  it.wait_seconds = reader.Number("wait_seconds");
  it.scored_examples = reader.Uint("scored_examples");
  it.pruned_examples = reader.Uint("pruned_examples");
  it.dnf_atoms = reader.Uint("dnf_atoms");
  it.tree_depth = reader.Int("tree_depth");
  it.ensemble_size = reader.Uint("ensemble_size");
  return it;
}

// The semantic invariants of a parsed report (docs/observability.md,
// "Report invariants"); every violation appends to *failures.
void CheckInvariants(const RunReport& r, std::vector<std::string>* failures) {
  auto fail = [failures](std::string message) {
    failures->push_back(std::move(message));
  };
  if (r.schema_version != kReportSchemaVersion) {
    fail("unsupported schema_version " + std::to_string(r.schema_version) +
         " (expected " + std::to_string(kReportSchemaVersion) + ")");
  }
  const bool is_run = r.kind == "run";
  if (!is_run && r.kind != "bench") {
    fail("unknown report kind '" + r.kind + "'");
  }

  for (const SpanRollupEntry& span : r.spans) {
    if (span.self_seconds > span.total_seconds + 1e-9) {
      fail("span " + span.name + ": self time " +
           FormatDouble(span.self_seconds) + "s exceeds total " +
           FormatDouble(span.total_seconds) + "s");
    }
  }

  // Feature cache. A resumed session's counters stitch in the saving
  // process's totals while its spans cover only the resuming process, so
  // it may lack the cache span (docs/sessions.md).
  const uint64_t hits = r.CounterOr("featurize.cache.hit");
  const uint64_t misses = r.CounterOr("featurize.cache.miss");
  const uint64_t writes = r.CounterOr("featurize.cache.write");
  if (hits != 0 || misses != 0 || writes != 0) {
    const bool has_span =
        std::any_of(r.spans.begin(), r.spans.end(), [](const auto& span) {
          return span.name == "harness.featurize.cache";
        });
    if (!has_span && r.session != "resumed") {
      fail("featurize.cache.* counters present but no "
           "harness.featurize.cache span recorded");
    }
    if (writes > misses) {
      fail("featurize.cache.write " + std::to_string(writes) +
           " exceeds featurize.cache.miss " + std::to_string(misses) +
           " (every write follows a miss)");
    }
    if (is_run && r.cache == "off") {
      fail("featurize.cache.* counters present but config.cache is 'off'");
    } else if (is_run && r.cache == "hit" && hits == 0) {
      fail("config.cache is 'hit' but featurize.cache.hit is zero");
    } else if (is_run && r.cache == "miss" && misses == 0) {
      fail("config.cache is 'miss' but featurize.cache.miss is zero");
    }
  }

  // Warm starts (docs/training.md): every fit is warm or cold.
  const uint64_t warm = r.CounterOr("ml.warm_fits");
  const uint64_t cold = r.CounterOr("ml.cold_fits");
  const uint64_t fits = r.CounterOr("ml.fit_calls");
  const bool has_split =
      r.CounterOr("ml.warm_fits", UINT64_MAX) != UINT64_MAX ||
      r.CounterOr("ml.cold_fits", UINT64_MAX) != UINT64_MAX;
  if (has_split && warm + cold != fits) {
    fail("ml.warm_fits " + std::to_string(warm) + " + ml.cold_fits " +
         std::to_string(cold) + " != ml.fit_calls " + std::to_string(fits));
  }
  if (r.warm_start != "off" && r.warm_start != "on") {
    fail("config.warm_start is '" + r.warm_start + "' (expected off/on)");
  } else if (r.warm_start == "off" && warm > 0) {
    fail("config.warm_start is 'off' but ml.warm_fits is " +
         std::to_string(warm));
  }

  for (const LatencyEntry& entry : r.latency) {
    if (entry.count == 0) {
      fail("latency " + entry.name +
           ": count must be positive (empty regions are omitted)");
    }
    if (!(0.0 <= entry.p50_seconds && entry.p50_seconds <= entry.p95_seconds &&
          entry.p95_seconds <= entry.p99_seconds)) {
      fail("latency " + entry.name + ": percentiles not ordered (p50=" +
           FormatDouble(entry.p50_seconds) + " p95=" +
           FormatDouble(entry.p95_seconds) + " p99=" +
           FormatDouble(entry.p99_seconds) + ")");
    }
  }

  // Thread pool: per-worker accounting tiles worker wall time.
  auto utilization_ok = [](double u) { return 0.0 <= u && u <= 1.0 + 1e-9; };
  if (r.has_pool) {
    const PoolStats& pool = r.pool;
    if (pool.workers < 1) {
      fail("pool workers " + std::to_string(pool.workers) + " must be >= 1");
    }
    const double wall = pool.worker_wall_seconds;
    const double accounted =
        pool.busy_seconds + pool.idle_seconds + pool.queue_wait_seconds;
    if (std::abs(accounted - wall) > std::max(0.01 * wall, 0.01)) {
      fail("pool accounting gap: busy+idle+queue_wait " +
           FormatDouble(accounted) + "s vs worker_wall " + FormatDouble(wall) +
           "s (must agree within 1% or 10ms)");
    }
    if (!utilization_ok(pool.utilization)) {
      fail("pool utilization " + FormatDouble(pool.utilization) +
           " outside [0, 1]");
    }
    for (const PoolRegionStats& region : pool.regions) {
      if (region.runs == 0 || region.chunks == 0) {
        fail("pool region " + region.name + ": runs/chunks must be positive");
      }
      const double lo = region.min_chunk_seconds;
      const double mean = region.mean_chunk_seconds;
      const double hi = region.max_chunk_seconds;
      if (!(0.0 <= lo && lo <= mean + 1e-12 && mean <= hi + 1e-12)) {
        fail("pool region " + region.name + ": chunk stats not ordered (min=" +
             FormatDouble(lo) + " mean=" + FormatDouble(mean) +
             " max=" + FormatDouble(hi) + ")");
      }
      if (!utilization_ok(region.utilization)) {
        fail("pool region " + region.name + ": utilization " +
             FormatDouble(region.utilization) + " outside [0, 1]");
      }
    }
  }

  if (!is_run) return;
  if (r.curve.empty()) fail("run report has an empty curve");
  for (size_t i = 0; i < r.curve.size(); ++i) {
    const ReportIteration& point = r.curve[i];
    if (i > 0 && point.labels_used < r.curve[i - 1].labels_used) {
      fail("curve[" + std::to_string(i) + "]: labels_used " +
           std::to_string(point.labels_used) + " decreases");
    }
    if (!(0.0 <= point.f1 && point.f1 <= 1.0)) {
      fail("curve[" + std::to_string(i) + "]: F1 " + FormatDouble(point.f1) +
           " outside [0, 1]");
    }
  }
  if (!r.curve.empty() && std::abs(r.final_f1 - r.curve.back().f1) > 1e-12) {
    fail("summary.final_f1 does not match the last curve point");
  }
  // A run that queried no labels measured nothing. Random-batch approaches
  // ("...Random...", and DeepMatcher's random batches) score no examples.
  if (r.CounterOr("oracle.queries") == 0) {
    fail("counter oracle.queries is zero or missing");
  }
  const bool scores = r.approach.find("Random") == std::string::npos &&
                      r.approach != "DeepMatcher";
  if (scores && r.CounterOr("selector.scored_examples") == 0) {
    fail("counter selector.scored_examples is zero or missing");
  }
}

}  // namespace

bool ParseReportJson(std::string_view text, RunReport* report,
                     std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!JsonValue::Parse(text, &root, &parse_error)) {
    if (error != nullptr) *error = "malformed JSON: " + parse_error;
    return false;
  }
  if (!root.is_object()) {
    if (error != nullptr) *error = "report root is not an object";
    return false;
  }

  std::string missing;
  std::vector<std::string> failures;
  FieldReader top{root, &missing, &failures, ""};
  RunReport parsed;
  parsed.schema_version = top.Int("schema_version");
  parsed.kind = top.String("kind");
  parsed.tool = top.String("tool");
  parsed.build = top.String("build");

  if (const JsonValue* config = top.Object("config")) {
    FieldReader cfg{*config, &missing, &failures, "config."};
    parsed.dataset = cfg.String("dataset");
    parsed.approach = cfg.String("approach");
    parsed.data_seed = cfg.Uint("data_seed");
    parsed.run_seed = cfg.Uint("run_seed");
    parsed.scale = cfg.Number("scale");
    parsed.threads = cfg.Int("threads");
    parsed.seed_size = cfg.Uint("seed_size");
    parsed.batch_size = cfg.Uint("batch_size");
    parsed.max_labels = cfg.Uint("max_labels");
    parsed.oracle_noise = cfg.Number("oracle_noise");
    parsed.holdout = cfg.Bool("holdout");
    parsed.cache = cfg.String("cache");
    cfg.OptionalString("kernel_backend", &parsed.kernel_backend);
    cfg.OptionalString("session", &parsed.session);
    parsed.session_resumes = cfg.Uint("session_resumes", /*required=*/false);
    cfg.OptionalString("warm_start", &parsed.warm_start);
  }

  const bool is_run = parsed.kind == "run";
  for (const JsonValue* element : top.Objects("curve", is_run)) {
    parsed.curve.push_back(
        ParseIteration({*element, &missing, &failures, "curve[]."}));
  }
  if (const JsonValue* summary = top.Object("summary", is_run)) {
    FieldReader sum{*summary, &missing, &failures, "summary."};
    sum.Uint("iterations");
    parsed.best_f1 = sum.Number("best_f1");
    parsed.final_f1 = sum.Number("final_f1");
    parsed.labels_to_converge = sum.Uint("labels_to_converge");
    parsed.total_wait_seconds = sum.Number("total_wait_seconds");
    parsed.ensemble_accepted = sum.Uint("ensemble_accepted");
  }

  if (const JsonValue* counters = top.Object("counters")) {
    for (const auto& [name, value] : counters->object()) {
      parsed.counters.emplace_back(
          name, ReadUint(value, "counters." + name, kUint64Limit, &failures));
    }
  }
  if (const JsonValue* gauges = top.Object("gauges")) {
    for (const auto& [name, value] : gauges->object()) {
      if (!value.is_number()) {
        failures.push_back("gauges." + name + " is not a number");
      }
      parsed.gauges.emplace_back(
          name, value.is_number() ? value.number_value() : 0.0);
    }
  }
  for (const JsonValue* element : top.Objects("spans")) {
    FieldReader span{*element, &missing, &failures, "spans[]."};
    SpanRollupEntry entry;
    entry.name = span.String("name");
    entry.count = span.Uint("count");
    entry.total_seconds = span.Number("total_seconds");
    entry.self_seconds = span.Number("self_seconds");
    parsed.spans.push_back(std::move(entry));
  }
  // Optional sections (pre-telemetry reports stay loadable).
  for (const JsonValue* element : top.Objects("latency", /*required=*/false)) {
    FieldReader lat{*element, &missing, &failures, "latency[]."};
    LatencyEntry entry;
    entry.name = lat.String("name");
    entry.count = lat.Uint("count");
    entry.sum_seconds = lat.Number("sum_seconds");
    entry.p50_seconds = lat.Number("p50_seconds");
    entry.p95_seconds = lat.Number("p95_seconds");
    entry.p99_seconds = lat.Number("p99_seconds");
    parsed.latency.push_back(std::move(entry));
  }
  if (const JsonValue* pool = top.Object("pool", /*required=*/false)) {
    parsed.has_pool = true;
    FieldReader p{*pool, &missing, &failures, "pool."};
    parsed.pool.workers = p.Int("workers");
    parsed.pool.busy_seconds = p.Number("busy_seconds");
    parsed.pool.idle_seconds = p.Number("idle_seconds");
    parsed.pool.queue_wait_seconds = p.Number("queue_wait_seconds");
    parsed.pool.worker_wall_seconds = p.Number("worker_wall_seconds");
    parsed.pool.utilization = p.Number("utilization");
    for (const JsonValue* element : p.Objects("regions")) {
      FieldReader reg{*element, &missing, &failures, "pool.regions[]."};
      PoolRegionStats region;
      region.name = reg.String("name");
      region.runs = reg.Uint("runs");
      region.chunks = reg.Uint("chunks");
      region.min_chunk_seconds = reg.Number("min_chunk_seconds");
      region.max_chunk_seconds = reg.Number("max_chunk_seconds");
      region.mean_chunk_seconds = reg.Number("mean_chunk_seconds");
      region.utilization = reg.Number("utilization");
      parsed.pool.regions.push_back(std::move(region));
    }
  }
  if (const JsonValue* process = top.Object("process")) {
    FieldReader proc{*process, &missing, &failures, "process."};
    parsed.wall_seconds = proc.Number("wall_seconds");
    parsed.peak_rss_bytes = proc.Uint("peak_rss_bytes");
  }

  CheckInvariants(parsed, &failures);
  if (!missing.empty()) {
    failures.insert(failures.begin(), "missing required fields: " + missing);
  }
  if (!failures.empty()) {
    if (error != nullptr) {
      *error = failures[0];
      for (size_t i = 1; i < failures.size(); ++i) *error += "; " + failures[i];
    }
    return false;
  }
  *report = std::move(parsed);
  return true;
}

bool WriteReportJson(const std::string& path, const RunReport& report) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) return false;
  const std::string json = ReportToJson(report);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return file.good();
}

bool LoadReportFile(const std::string& path, RunReport* report,
                    std::string* error) {
  std::string content;
  if (!ReadWholeFile(path, &content)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  return ParseReportJson(content, report, error);
}

// ---- Regression gate --------------------------------------------------

namespace {

void CheckLatency(const char* what, double baseline, double candidate,
                  double tolerance, std::vector<std::string>* failures) {
  // Relative tolerance with a 10ms absolute grace so micro-runs do not
  // fail on scheduler jitter.
  const double limit = baseline * (1.0 + tolerance) + 0.010;
  if (candidate > limit) {
    failures->push_back(std::string(what) + " regressed: " +
                        FormatDouble(candidate) + "s vs baseline " +
                        FormatDouble(baseline) + "s (limit " +
                        FormatDouble(limit) + "s)");
  }
}

}  // namespace

std::vector<std::string> CheckReports(const RunReport& baseline,
                                      const RunReport& candidate,
                                      const ReportCheckOptions& options) {
  std::vector<std::string> failures;
  if (baseline.kind != candidate.kind) {
    failures.push_back("kind mismatch: baseline '" + baseline.kind +
                       "' vs candidate '" + candidate.kind + "'");
    return failures;
  }

  if (options.exact_curve) {
    if (baseline.curve.size() != candidate.curve.size()) {
      failures.push_back(
          "curve length differs: " + std::to_string(baseline.curve.size()) +
          " vs " + std::to_string(candidate.curve.size()));
    } else {
      for (size_t i = 0; i < baseline.curve.size(); ++i) {
        const ReportIteration& a = baseline.curve[i];
        const ReportIteration& b = candidate.curve[i];
        if (a.labels_used != b.labels_used || a.f1 != b.f1 ||
            a.precision != b.precision || a.recall != b.recall) {
          failures.push_back(
              "curve diverges at iteration " + std::to_string(i + 1) +
              ": labels " + std::to_string(a.labels_used) + "/" +
              std::to_string(b.labels_used) + ", F1 " + FormatDouble(a.f1) +
              "/" + FormatDouble(b.f1));
          break;
        }
      }
    }
  }

  if (baseline.kind == "run") {
    if (candidate.final_f1 < baseline.final_f1 - options.f1_tol) {
      failures.push_back(
          "final F1 regressed: " + FormatDouble(candidate.final_f1) +
          " vs baseline " + FormatDouble(baseline.final_f1) + " (tolerance " +
          FormatDouble(options.f1_tol) + ")");
    }
    if (candidate.best_f1 < baseline.best_f1 - options.f1_tol) {
      failures.push_back(
          "best F1 regressed: " + FormatDouble(candidate.best_f1) +
          " vs baseline " + FormatDouble(baseline.best_f1) + " (tolerance " +
          FormatDouble(options.f1_tol) + ")");
    }
    // Scoring is required where the baseline scored: a random-batch
    // candidate cannot stand in for a scoring baseline. (The parser already
    // requires oracle.queries of every run report.)
    if (baseline.CounterOr("selector.scored_examples") != 0 &&
        candidate.CounterOr("selector.scored_examples") == 0) {
      failures.push_back(
          "counter selector.scored_examples is zero or missing in candidate");
    }
  }

  if (options.latency_tol >= 0.0) {
    CheckLatency("total_wait_seconds", baseline.total_wait_seconds,
                 candidate.total_wait_seconds, options.latency_tol,
                 &failures);
    CheckLatency("wall_seconds", baseline.wall_seconds,
                 candidate.wall_seconds, options.latency_tol, &failures);
  }

  if (options.latency_p95_tol >= 0.0) {
    // Gate only regions present on both sides: thread-count changes add or
    // remove parallel regions structurally, and a missing region is not a
    // latency regression.
    for (const LatencyEntry& base : baseline.latency) {
      const LatencyEntry* cand = nullptr;
      for (const LatencyEntry& entry : candidate.latency) {
        if (entry.name == base.name) {
          cand = &entry;
          break;
        }
      }
      if (cand == nullptr) continue;
      CheckLatency(("p95." + base.name).c_str(), base.p95_seconds,
                   cand->p95_seconds, options.latency_p95_tol, &failures);
    }
  }

  if (options.counter_tol >= 0.0) {
    for (const auto& [name, base_value] : baseline.counters) {
      const uint64_t cand_value = candidate.CounterOr(name, UINT64_MAX);
      if (cand_value == UINT64_MAX) {
        failures.push_back("counter " + name + " missing in candidate");
        continue;
      }
      const double denom =
          std::max<double>(1.0, static_cast<double>(base_value));
      const double relative =
          std::abs(static_cast<double>(cand_value) -
                   static_cast<double>(base_value)) /
          denom;
      if (relative > options.counter_tol) {
        failures.push_back("counter " + name + " drifted: " +
                           std::to_string(cand_value) + " vs baseline " +
                           std::to_string(base_value) + " (relative " +
                           FormatDouble(relative) + " > " +
                           FormatDouble(options.counter_tol) + ")");
      }
    }
  }

  return failures;
}

}  // namespace obs
}  // namespace alem
