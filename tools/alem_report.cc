// alem_report: inspect, compare, and gate RunReport flight-recorder
// artifacts (see src/obs/report.h for the schema). Every command loads
// through ParseReportJson, so it rejects a report that breaks an invariant;
// `alem_report show R > /dev/null` validates one report.
//
// Commands:
//   alem_report show REPORT.json
//       Prints a human summary: config, F1 summary, top spans, per-region
//       latency percentiles, the thread-pool utilization section (when
//       present), and counters.
//   alem_report compare A.json B.json
//       Side-by-side key numbers for two reports (quality + latency).
//   alem_report diff A.json B.json
//       Lists every differing summary field, counter, and span rollup row.
//   alem_report check BASELINE.json CANDIDATE.json
//       [--f1-tol=0.02] [--latency-tol=FRAC] [--counter-tol=FRAC]
//       [--latency-p95-tol=FRAC] [--exact-curve]
//       The regression gate: exits nonzero (printing each violation) when
//       the candidate's F1 trails the baseline beyond --f1-tol, when a
//       run-kind candidate has zero selector.scored_examples where the
//       baseline scored, when latency/counter gates (opt-in) trip, or
//       when --exact-curve finds any curve divergence. Any other
//       flag is an error, so a misspelled tolerance cannot switch its
//       gate off. This is what the `report` ctest label runs against the
//       committed golden baseline.
//   alem_report aggregate DIR [--out=BENCH_alembench.json]
//       Rolls every *.report.json under DIR into one machine-readable
//       trajectory file (sorted by file name for determinism).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/report.h"
#include "util/flags.h"
#include "util/json.h"

namespace alem {
namespace {

using obs::RunReport;

bool Load(const std::string& path, RunReport* report) {
  std::string error;
  if (!obs::LoadReportFile(path, report, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

void PrintSummaryLine(const RunReport& report) {
  if (report.kind == "run") {
    std::printf("  %s on %s (data_seed=%llu run_seed=%llu scale=%.3g "
                "threads=%d)\n",
                report.approach.c_str(), report.dataset.c_str(),
                static_cast<unsigned long long>(report.data_seed),
                static_cast<unsigned long long>(report.run_seed),
                report.scale, report.threads);
    std::printf("  best F1 %.4f, final F1 %.4f, %zu iterations, "
                "%llu labels to converge, total wait %.3fs\n",
                report.best_f1, report.final_f1, report.curve.size(),
                static_cast<unsigned long long>(report.labels_to_converge),
                report.total_wait_seconds);
  }
  std::printf("  wall %.3fs, peak RSS %llu bytes (%.1f MiB), build %s\n",
              report.wall_seconds,
              static_cast<unsigned long long>(report.peak_rss_bytes),
              static_cast<double>(report.peak_rss_bytes) / (1024.0 * 1024.0),
              report.build.c_str());
}

void PrintLatencyTable(const RunReport& report) {
  if (report.latency.empty()) return;
  std::printf("\n  %-28s %7s %10s %10s %10s\n", "latency region", "count",
              "p50(ms)", "p95(ms)", "p99(ms)");
  for (const obs::LatencyEntry& entry : report.latency) {
    std::printf("  %-28s %7llu %10.3f %10.3f %10.3f\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.count),
                entry.p50_seconds * 1e3, entry.p95_seconds * 1e3,
                entry.p99_seconds * 1e3);
  }
}

void PrintPoolSummary(const RunReport& report) {
  if (!report.has_pool) return;
  const obs::PoolStats& pool = report.pool;
  std::printf("\n  pool: %d workers, %.0f%% utilized "
              "(busy %.3fs, idle %.3fs, queue-wait %.3fs, wall %.3fs)\n",
              pool.workers, pool.utilization * 100.0, pool.busy_seconds,
              pool.idle_seconds, pool.queue_wait_seconds,
              pool.worker_wall_seconds);
  if (pool.regions.empty()) return;
  std::printf("  %-28s %5s %7s %10s %10s %10s %6s\n", "pool region", "runs",
              "chunks", "min(ms)", "mean(ms)", "max(ms)", "util");
  for (const obs::PoolRegionStats& region : pool.regions) {
    std::printf("  %-28s %5llu %7llu %10.3f %10.3f %10.3f %5.0f%%\n",
                region.name.c_str(),
                static_cast<unsigned long long>(region.runs),
                static_cast<unsigned long long>(region.chunks),
                region.min_chunk_seconds * 1e3,
                region.mean_chunk_seconds * 1e3,
                region.max_chunk_seconds * 1e3, region.utilization * 100.0);
  }
}

int CommandShow(const std::string& path) {
  RunReport report;
  if (!Load(path, &report)) return 1;
  std::printf("%s: %s report from %s\n", path.c_str(), report.kind.c_str(),
              report.tool.c_str());
  PrintSummaryLine(report);
  std::printf("\n  %-28s %7s %11s %11s\n", "span", "count", "total(ms)",
              "self(ms)");
  const size_t top = std::min<size_t>(report.spans.size(), 12);
  for (size_t i = 0; i < top; ++i) {
    const obs::SpanRollupEntry& span = report.spans[i];
    std::printf("  %-28s %7llu %11.3f %11.3f\n", span.name.c_str(),
                static_cast<unsigned long long>(span.count),
                span.total_seconds * 1e3, span.self_seconds * 1e3);
  }
  PrintLatencyTable(report);
  PrintPoolSummary(report);
  std::printf("\n");
  for (const auto& [name, value] : report.counters) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}

int CommandCompare(const std::string& path_a, const std::string& path_b) {
  RunReport a, b;
  if (!Load(path_a, &a) || !Load(path_b, &b)) return 1;
  std::printf("%-24s %14s %14s %10s\n", "", "A", "B", "delta");
  auto row = [](const char* name, double va, double vb) {
    std::printf("%-24s %14.6g %14.6g %+10.4g\n", name, va, vb, vb - va);
  };
  row("best_f1", a.best_f1, b.best_f1);
  row("final_f1", a.final_f1, b.final_f1);
  row("iterations", static_cast<double>(a.curve.size()),
      static_cast<double>(b.curve.size()));
  row("labels_to_converge", static_cast<double>(a.labels_to_converge),
      static_cast<double>(b.labels_to_converge));
  row("total_wait_seconds", a.total_wait_seconds, b.total_wait_seconds);
  row("wall_seconds", a.wall_seconds, b.wall_seconds);
  row("peak_rss_mib", static_cast<double>(a.peak_rss_bytes) / 1048576.0,
      static_cast<double>(b.peak_rss_bytes) / 1048576.0);
  for (const auto& [name, value] : a.counters) {
    const uint64_t other = b.CounterOr(name, 0);
    if (value != other) {
      row(name.c_str(), static_cast<double>(value),
          static_cast<double>(other));
    }
  }
  for (const obs::LatencyEntry& entry_a : a.latency) {
    for (const obs::LatencyEntry& entry_b : b.latency) {
      if (entry_b.name != entry_a.name) continue;
      row(("p95." + entry_a.name).c_str(), entry_a.p95_seconds,
          entry_b.p95_seconds);
      break;
    }
  }
  if (a.has_pool || b.has_pool) {
    row("pool.workers", static_cast<double>(a.pool.workers),
        static_cast<double>(b.pool.workers));
    row("pool.utilization", a.pool.utilization, b.pool.utilization);
  }
  std::printf("  (A = %s, B = %s)\n", path_a.c_str(), path_b.c_str());
  return 0;
}

int CommandDiff(const std::string& path_a, const std::string& path_b) {
  RunReport a, b;
  if (!Load(path_a, &a) || !Load(path_b, &b)) return 1;
  size_t differences = 0;
  auto report_diff = [&differences](const std::string& field,
                                    const std::string& va,
                                    const std::string& vb) {
    std::printf("%-32s %s -> %s\n", field.c_str(), va.c_str(), vb.c_str());
    ++differences;
  };
  auto number = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  if (a.kind != b.kind) report_diff("kind", a.kind, b.kind);
  if (a.tool != b.tool) report_diff("tool", a.tool, b.tool);
  if (a.build != b.build) report_diff("build", a.build, b.build);
  if (a.dataset != b.dataset) report_diff("config.dataset", a.dataset,
                                          b.dataset);
  if (a.approach != b.approach) report_diff("config.approach", a.approach,
                                            b.approach);
  if (a.threads != b.threads) {
    report_diff("config.threads", number(a.threads), number(b.threads));
  }
  if (a.scale != b.scale) {
    report_diff("config.scale", number(a.scale), number(b.scale));
  }
  if (a.curve.size() != b.curve.size()) {
    report_diff("summary.iterations", number(a.curve.size()),
                number(b.curve.size()));
  }
  if (a.best_f1 != b.best_f1) {
    report_diff("summary.best_f1", number(a.best_f1), number(b.best_f1));
  }
  if (a.final_f1 != b.final_f1) {
    report_diff("summary.final_f1", number(a.final_f1), number(b.final_f1));
  }
  const size_t curve_common = std::min(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < curve_common; ++i) {
    if (a.curve[i].f1 != b.curve[i].f1 ||
        a.curve[i].labels_used != b.curve[i].labels_used) {
      report_diff("curve[" + std::to_string(i) + "]",
                  number(a.curve[i].labels_used) + " labels, F1 " +
                      number(a.curve[i].f1),
                  number(b.curve[i].labels_used) + " labels, F1 " +
                      number(b.curve[i].f1));
    }
  }
  for (const auto& [name, value] : a.counters) {
    const uint64_t other = b.CounterOr(name, UINT64_MAX);
    if (other == UINT64_MAX) {
      report_diff("counters." + name, std::to_string(value), "(missing)");
    } else if (other != value) {
      report_diff("counters." + name, std::to_string(value),
                  std::to_string(other));
    }
  }
  for (const auto& [name, value] : b.counters) {
    if (a.CounterOr(name, UINT64_MAX) == UINT64_MAX) {
      report_diff("counters." + name, "(missing)", std::to_string(value));
    }
  }
  std::printf("%zu difference%s\n", differences,
              differences == 1 ? "" : "s");
  return 0;
}

int CommandCheck(const FlagParser& flags, const std::string& baseline_path,
                 const std::string& candidate_path) {
  const std::vector<std::string> unknown = flags.Unknown(
      {"f1-tol", "latency-tol", "counter-tol", "latency-p95-tol",
       "exact-curve"});
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "check: unknown flag --%s\n", name.c_str());
    }
    return 2;
  }
  RunReport baseline, candidate;
  if (!Load(baseline_path, &baseline) || !Load(candidate_path, &candidate)) {
    return 1;
  }
  obs::ReportCheckOptions options;
  options.f1_tol = flags.GetDouble("f1-tol", options.f1_tol);
  options.latency_tol = flags.GetDouble("latency-tol", options.latency_tol);
  options.counter_tol = flags.GetDouble("counter-tol", options.counter_tol);
  options.latency_p95_tol =
      flags.GetDouble("latency-p95-tol", options.latency_p95_tol);
  options.exact_curve = flags.GetBool("exact-curve", false);
  const std::vector<std::string> failures =
      obs::CheckReports(baseline, candidate, options);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  if (!failures.empty()) return 1;
  std::printf("report check OK (%s vs %s, f1-tol=%.4g%s)\n",
              candidate_path.c_str(), baseline_path.c_str(), options.f1_tol,
              options.exact_curve ? ", exact-curve" : "");
  return 0;
}

int CommandAggregate(const FlagParser& flags, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 &&
        name.compare(name.size() - 12, 12, ".report.json") == 0) {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (files.empty()) {
    std::fprintf(stderr, "no *.report.json files under %s\n", dir.c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());

  std::string out = "{\n  \"schema_version\": 1,\n  \"kind\": \"aggregate\","
                    "\n  \"tool\": \"alem_report\",\n  \"build\": ";
  AppendJsonString(&out, obs::BuildStamp());
  out.append(",\n  \"source_dir\": ");
  AppendJsonString(&out, dir);
  out.append(",\n  \"reports\": [\n");
  size_t emitted = 0;
  for (const std::string& file : files) {
    RunReport report;
    std::string error;
    if (!obs::LoadReportFile(file, &report, &error)) {
      std::fprintf(stderr, "skipping %s: %s\n", file.c_str(), error.c_str());
      continue;
    }
    if (emitted > 0) out.append(",\n");
    out.append("    {\"file\": ");
    AppendJsonString(&out, fs::path(file).filename().string());
    out.append(", \"kind\": ");
    AppendJsonString(&out, report.kind);
    out.append(", \"tool\": ");
    AppendJsonString(&out, report.tool);
    out.append(", \"build\": ");
    AppendJsonString(&out, report.build);
    if (report.kind == "run") {
      out.append(",\n     \"dataset\": ");
      AppendJsonString(&out, report.dataset);
      out.append(", \"approach\": ");
      AppendJsonString(&out, report.approach);
      out.append(", \"best_f1\": ");
      AppendJsonDouble(&out, report.best_f1);
      out.append(", \"final_f1\": ");
      AppendJsonDouble(&out, report.final_f1);
      out.append(", \"iterations\": ");
      AppendJsonUint(&out, report.curve.size());
      out.append(", \"labels_to_converge\": ");
      AppendJsonUint(&out, report.labels_to_converge);
      out.append(", \"total_wait_seconds\": ");
      AppendJsonDouble(&out, report.total_wait_seconds);
    }
    out.append(",\n     \"threads\": ");
    out.append(std::to_string(report.threads));
    out.append(", \"scale\": ");
    AppendJsonDouble(&out, report.scale);
    out.append(", \"wall_seconds\": ");
    AppendJsonDouble(&out, report.wall_seconds);
    out.append(", \"peak_rss_bytes\": ");
    AppendJsonUint(&out, report.peak_rss_bytes);
    out.append(",\n     \"counters\": {");
    bool first_counter = true;
    for (const char* name :
         {"oracle.queries", "selector.scored_examples", "blocking.pruned",
          "blocking.candidate_pairs", "sim.calls", "ml.fit_calls",
          "ml.predict_calls", "loop.iterations"}) {
      const uint64_t value = report.CounterOr(name, UINT64_MAX);
      if (value == UINT64_MAX) continue;
      if (!first_counter) out.append(", ");
      first_counter = false;
      AppendJsonString(&out, name);
      out.append(": ");
      AppendJsonUint(&out, value);
    }
    out.append("}");
    if (!report.latency.empty()) {
      out.append(",\n     \"latency\": [");
      bool first_latency = true;
      for (const obs::LatencyEntry& entry : report.latency) {
        if (!first_latency) out.append(", ");
        first_latency = false;
        out.append("{\"name\": ");
        AppendJsonString(&out, entry.name);
        out.append(", \"count\": ");
        AppendJsonUint(&out, entry.count);
        out.append(", \"p50_seconds\": ");
        AppendJsonDouble(&out, entry.p50_seconds);
        out.append(", \"p95_seconds\": ");
        AppendJsonDouble(&out, entry.p95_seconds);
        out.append(", \"p99_seconds\": ");
        AppendJsonDouble(&out, entry.p99_seconds);
        out.append("}");
      }
      out.append("]");
    }
    if (report.has_pool) {
      out.append(",\n     \"pool\": {\"workers\": ");
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
      out.append(", \"regions\": ");
      AppendJsonUint(&out, report.pool.regions.size());
      out.append("}");
    }
    out.append("}");
    ++emitted;
  }
  out.append("\n  ]\n}\n");
  if (emitted == 0) {
    std::fprintf(stderr, "no valid reports under %s\n", dir.c_str());
    return 1;
  }

  const std::string out_path =
      flags.GetString("out", "BENCH_alembench.json");
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), file);
  std::fclose(file);
  std::printf("aggregated %zu report%s into %s\n", emitted,
              emitted == 1 ? "" : "s", out_path.c_str());
  return 0;
}

int Usage() {
  std::printf(
      "usage: alem_report <show|compare|diff|check|aggregate> [flags]\n"
      "  alem_report show RUN.report.json\n"
      "  alem_report compare A.report.json B.report.json\n"
      "  alem_report diff A.report.json B.report.json\n"
      "  alem_report check BASELINE.json CANDIDATE.json [--f1-tol=0.02]\n"
      "      [--latency-tol=FRAC] [--counter-tol=FRAC]\n"
      "      [--latency-p95-tol=FRAC] [--exact-curve]\n"
      "  alem_report aggregate DIR [--out=BENCH_alembench.json]\n");
  return 1;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv, {"exact-curve"});
  const std::vector<std::string>& args = flags.positional();
  if (args.empty()) return Usage();
  const std::string& command = args[0];
  if (command == "show" && args.size() == 2) return CommandShow(args[1]);
  if (command == "compare" && args.size() == 3) {
    return CommandCompare(args[1], args[2]);
  }
  if (command == "diff" && args.size() == 3) {
    return CommandDiff(args[1], args[2]);
  }
  if (command == "check" && args.size() == 3) {
    return CommandCheck(flags, args[1], args[2]);
  }
  if (command == "aggregate" && args.size() == 2) {
    return CommandAggregate(flags, args[1]);
  }
  return Usage();
}

}  // namespace
}  // namespace alem

int main(int argc, char** argv) { return alem::Main(argc, argv); }
