#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

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

// Field extraction with required-field accounting: every miss appends to
// *missing so the error message names all absent fields at once.
struct FieldReader {
  const JsonValue& object;
  std::string* missing;
  std::string context;

  const JsonValue* Get(const char* key, bool required) const {
    const JsonValue* value = object.Find(key);
    if (value == nullptr && required) {
      if (!missing->empty()) missing->append(", ");
      missing->append(context + key);
    }
    return value;
  }

  std::string String(const char* key, bool required = true) const {
    const JsonValue* v = Get(key, required);
    return (v != nullptr && v->is_string()) ? v->string_value() : "";
  }
  double Number(const char* key, bool required = true) const {
    const JsonValue* v = Get(key, required);
    return (v != nullptr && v->is_number()) ? v->number_value() : 0.0;
  }
  uint64_t Uint(const char* key, bool required = true) const {
    const double v = Number(key, required);
    return v > 0 ? static_cast<uint64_t>(v + 0.5) : 0;
  }
  bool Bool(const char* key, bool required = true) const {
    const JsonValue* v = Get(key, required);
    return v != nullptr && v->is_bool() && v->bool_value();
  }
};

bool ParseIteration(const JsonValue& value, ReportIteration* it,
                    std::string* missing) {
  if (!value.is_object()) return false;
  FieldReader reader{value, missing, "curve[]."};
  it->iteration = reader.Uint("iteration");
  it->labels_used = reader.Uint("labels_used");
  it->precision = reader.Number("precision");
  it->recall = reader.Number("recall");
  it->f1 = reader.Number("f1");
  it->train_seconds = reader.Number("train_seconds");
  it->evaluate_seconds = reader.Number("evaluate_seconds");
  it->select_seconds = reader.Number("select_seconds");
  it->committee_seconds = reader.Number("committee_seconds");
  it->scoring_seconds = reader.Number("scoring_seconds");
  it->label_seconds = reader.Number("label_seconds");
  it->wait_seconds = reader.Number("wait_seconds");
  it->scored_examples = reader.Uint("scored_examples");
  it->pruned_examples = reader.Uint("pruned_examples");
  it->dnf_atoms = reader.Uint("dnf_atoms");
  it->tree_depth = static_cast<int>(reader.Number("tree_depth"));
  it->ensemble_size = reader.Uint("ensemble_size");
  return true;
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
  FieldReader top{root, &missing, ""};
  RunReport parsed;
  parsed.schema_version = static_cast<int>(top.Number("schema_version"));
  parsed.kind = top.String("kind");
  parsed.tool = top.String("tool");
  parsed.build = top.String("build");

  const JsonValue* config = top.Get("config", true);
  if (config != nullptr && config->is_object()) {
    FieldReader cfg{*config, &missing, "config."};
    parsed.dataset = cfg.String("dataset");
    parsed.approach = cfg.String("approach");
    parsed.data_seed = cfg.Uint("data_seed");
    parsed.run_seed = cfg.Uint("run_seed");
    parsed.scale = cfg.Number("scale");
    parsed.threads = static_cast<int>(cfg.Number("threads"));
    parsed.seed_size = cfg.Uint("seed_size");
    parsed.batch_size = cfg.Uint("batch_size");
    parsed.max_labels = cfg.Uint("max_labels");
    parsed.oracle_noise = cfg.Number("oracle_noise");
    parsed.holdout = cfg.Bool("holdout");
    const std::string cache = cfg.String("cache", /*required=*/false);
    if (!cache.empty()) parsed.cache = cache;
    const std::string kernel_backend =
        cfg.String("kernel_backend", /*required=*/false);
    if (!kernel_backend.empty()) parsed.kernel_backend = kernel_backend;
    const std::string session = cfg.String("session", /*required=*/false);
    if (!session.empty()) parsed.session = session;
    if (cfg.Get("session_resumes", false) != nullptr) {
      parsed.session_resumes = cfg.Uint("session_resumes");
    }
    const std::string warm_start = cfg.String("warm_start", /*required=*/false);
    if (!warm_start.empty()) parsed.warm_start = warm_start;
  }

  const bool is_run = parsed.kind == "run";
  const JsonValue* curve = top.Get("curve", is_run);
  if (curve != nullptr && curve->is_array()) {
    for (const JsonValue& element : curve->array()) {
      ReportIteration it;
      if (!ParseIteration(element, &it, &missing)) {
        if (error != nullptr) *error = "curve element is not an object";
        return false;
      }
      parsed.curve.push_back(it);
    }
  }
  const JsonValue* summary = top.Get("summary", is_run);
  if (summary != nullptr && summary->is_object()) {
    FieldReader sum{*summary, &missing, "summary."};
    sum.Uint("iterations");
    parsed.best_f1 = sum.Number("best_f1");
    parsed.final_f1 = sum.Number("final_f1");
    parsed.labels_to_converge = sum.Uint("labels_to_converge");
    parsed.total_wait_seconds = sum.Number("total_wait_seconds");
    parsed.ensemble_accepted = sum.Uint("ensemble_accepted");
  }

  const JsonValue* counters = top.Get("counters", true);
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->object()) {
      parsed.counters.emplace_back(
          name, value.is_number()
                    ? static_cast<uint64_t>(value.number_value() + 0.5)
                    : 0);
    }
  }
  const JsonValue* gauges = top.Get("gauges", true);
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->object()) {
      parsed.gauges.emplace_back(
          name, value.is_number() ? value.number_value() : 0.0);
    }
  }
  const JsonValue* spans = top.Get("spans", true);
  if (spans != nullptr && spans->is_array()) {
    for (const JsonValue& element : spans->array()) {
      if (!element.is_object()) continue;
      FieldReader span{element, &missing, "spans[]."};
      SpanRollupEntry entry;
      entry.name = span.String("name");
      entry.count = span.Uint("count");
      entry.total_seconds = span.Number("total_seconds");
      entry.self_seconds = span.Number("self_seconds");
      parsed.spans.push_back(std::move(entry));
    }
  }
  // Optional sections (pre-telemetry reports stay loadable).
  const JsonValue* latency = top.Get("latency", /*required=*/false);
  if (latency != nullptr && latency->is_array()) {
    for (const JsonValue& element : latency->array()) {
      if (!element.is_object()) continue;
      FieldReader lat{element, &missing, "latency[]."};
      LatencyEntry entry;
      entry.name = lat.String("name");
      entry.count = lat.Uint("count");
      entry.sum_seconds = lat.Number("sum_seconds");
      entry.p50_seconds = lat.Number("p50_seconds");
      entry.p95_seconds = lat.Number("p95_seconds");
      entry.p99_seconds = lat.Number("p99_seconds");
      parsed.latency.push_back(std::move(entry));
    }
  }
  const JsonValue* pool = top.Get("pool", /*required=*/false);
  if (pool != nullptr && pool->is_object()) {
    parsed.has_pool = true;
    FieldReader p{*pool, &missing, "pool."};
    parsed.pool.workers = static_cast<int>(p.Number("workers"));
    parsed.pool.busy_seconds = p.Number("busy_seconds");
    parsed.pool.idle_seconds = p.Number("idle_seconds");
    parsed.pool.queue_wait_seconds = p.Number("queue_wait_seconds");
    parsed.pool.worker_wall_seconds = p.Number("worker_wall_seconds");
    parsed.pool.utilization = p.Number("utilization");
    const JsonValue* regions = p.Get("regions", true);
    if (regions != nullptr && regions->is_array()) {
      for (const JsonValue& element : regions->array()) {
        if (!element.is_object()) continue;
        FieldReader reg{element, &missing, "pool.regions[]."};
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
  }
  const JsonValue* process = top.Get("process", true);
  if (process != nullptr && process->is_object()) {
    FieldReader proc{*process, &missing, "process."};
    parsed.wall_seconds = proc.Number("wall_seconds");
    parsed.peak_rss_bytes = proc.Uint("peak_rss_bytes");
  }

  if (!missing.empty()) {
    if (error != nullptr) *error = "missing required fields: " + missing;
    return false;
  }
  if (parsed.schema_version != kReportSchemaVersion) {
    if (error != nullptr) {
      *error = "unsupported schema_version " +
               std::to_string(parsed.schema_version) + " (expected " +
               std::to_string(kReportSchemaVersion) + ")";
    }
    return false;
  }
  if (parsed.kind != "run" && parsed.kind != "bench") {
    if (error != nullptr) *error = "unknown report kind '" + parsed.kind + "'";
    return false;
  }
  if (is_run && parsed.curve.empty()) {
    if (error != nullptr) *error = "run report has an empty curve";
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
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseReportJson(content.str(), report, error);
}

// ---- Regression gate --------------------------------------------------

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

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
    // A run that queried no labels measured nothing. Scoring is required
    // only where the baseline scored: a random selector never scores.
    auto require_nonzero = [&](const std::string& name) {
      if (candidate.CounterOr(name) == 0) {
        failures.push_back("counter " + name +
                           " is zero or missing in candidate");
      }
    };
    require_nonzero("oracle.queries");
    if (baseline.CounterOr("selector.scored_examples") != 0) {
      require_nonzero("selector.scored_examples");
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
