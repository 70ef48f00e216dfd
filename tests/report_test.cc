// Tests for the RunReport flight recorder (src/obs/report.h): JSON
// round-trip fidelity, schema validation, the span self-time rollup, the
// regression-gate comparator, and the JSON parser underneath it all.

#include "obs/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/json.h"

namespace alem {
namespace obs {
namespace {

// A fully-populated report with awkward values: non-round doubles that
// need all 17 significant digits, strings that need escaping.
RunReport MakeReport() {
  RunReport report;
  report.kind = "run";
  report.tool = "report_test";
  report.build = "deadbeef-dirty";
  report.dataset = "Abt-Buy \"quoted\"";
  report.approach = "linear-margin";
  report.data_seed = 7;
  report.run_seed = 123456789;
  report.scale = 0.1 + 0.2;  // 0.30000000000000004
  report.threads = 4;
  report.seed_size = 30;
  report.batch_size = 10;
  report.max_labels = 200;
  report.oracle_noise = 0.05;
  report.holdout = true;

  for (int i = 1; i <= 3; ++i) {
    ReportIteration point;
    point.iteration = static_cast<uint64_t>(i);
    point.labels_used = static_cast<uint64_t>(30 + 10 * i);
    point.precision = 0.7 + 0.01 * i;
    point.recall = 0.6 + 0.01 * i;
    point.f1 = 1.0 / (3.0 + i);  // Not representable exactly.
    point.train_seconds = 0.001 * i;
    point.evaluate_seconds = 0.0005;
    point.select_seconds = 0.002;
    point.committee_seconds = 0.0015;
    point.scoring_seconds = 0.0004;
    point.label_seconds = 1e-5;
    point.wait_seconds = point.train_seconds + point.select_seconds;
    point.scored_examples = 500;
    point.pruned_examples = 100;
    point.dnf_atoms = 3;
    point.tree_depth = 5;
    point.ensemble_size = static_cast<uint64_t>(i);
    report.curve.push_back(point);
  }
  report.best_f1 = report.curve.back().f1;
  report.final_f1 = report.curve.back().f1;
  report.labels_to_converge = 60;
  report.total_wait_seconds = 0.009;
  report.ensemble_accepted = 3;

  report.counters = {{"oracle.queries", 60},
                     {"selector.scored_examples", 1500},
                     {"blocking.pruned", 300},
                     {"sim.calls", 53802}};
  report.gauges = {{"process.peak_rss_bytes", 8.5e6}};
  report.spans = {{"loop.run", 1, 0.010, 0.002},
                  {"ml.fit", 3, 0.003, 0.003}};
  report.wall_seconds = 0.25;
  report.peak_rss_bytes = 8500000;
  return report;
}

TEST(ReportJsonTest, RoundTripIsLossless) {
  const RunReport report = MakeReport();
  const std::string json = ReportToJson(report);

  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(json, &parsed, &error)) << error;

  EXPECT_EQ(parsed.schema_version, report.schema_version);
  EXPECT_EQ(parsed.kind, report.kind);
  EXPECT_EQ(parsed.tool, report.tool);
  EXPECT_EQ(parsed.build, report.build);
  EXPECT_EQ(parsed.dataset, report.dataset);
  EXPECT_EQ(parsed.approach, report.approach);
  EXPECT_EQ(parsed.data_seed, report.data_seed);
  EXPECT_EQ(parsed.run_seed, report.run_seed);
  EXPECT_EQ(parsed.scale, report.scale);  // Bitwise: %.17g round-trips.
  EXPECT_EQ(parsed.threads, report.threads);
  EXPECT_EQ(parsed.seed_size, report.seed_size);
  EXPECT_EQ(parsed.batch_size, report.batch_size);
  EXPECT_EQ(parsed.max_labels, report.max_labels);
  EXPECT_EQ(parsed.oracle_noise, report.oracle_noise);
  EXPECT_EQ(parsed.holdout, report.holdout);

  ASSERT_EQ(parsed.curve.size(), report.curve.size());
  for (size_t i = 0; i < report.curve.size(); ++i) {
    EXPECT_EQ(parsed.curve[i].iteration, report.curve[i].iteration);
    EXPECT_EQ(parsed.curve[i].labels_used, report.curve[i].labels_used);
    EXPECT_EQ(parsed.curve[i].f1, report.curve[i].f1);  // Bitwise.
    EXPECT_EQ(parsed.curve[i].precision, report.curve[i].precision);
    EXPECT_EQ(parsed.curve[i].recall, report.curve[i].recall);
    EXPECT_EQ(parsed.curve[i].wait_seconds, report.curve[i].wait_seconds);
    EXPECT_EQ(parsed.curve[i].scored_examples,
              report.curve[i].scored_examples);
    EXPECT_EQ(parsed.curve[i].tree_depth, report.curve[i].tree_depth);
  }
  EXPECT_EQ(parsed.best_f1, report.best_f1);
  EXPECT_EQ(parsed.final_f1, report.final_f1);
  EXPECT_EQ(parsed.labels_to_converge, report.labels_to_converge);
  EXPECT_EQ(parsed.ensemble_accepted, report.ensemble_accepted);

  EXPECT_EQ(parsed.counters, report.counters);
  ASSERT_EQ(parsed.spans.size(), report.spans.size());
  EXPECT_EQ(parsed.spans[0].name, "loop.run");
  EXPECT_EQ(parsed.spans[0].count, 1u);
  EXPECT_EQ(parsed.wall_seconds, report.wall_seconds);
  EXPECT_EQ(parsed.peak_rss_bytes, report.peak_rss_bytes);
}

TEST(ReportJsonTest, FileRoundTrip) {
  const RunReport report = MakeReport();
  const std::string path = ::testing::TempDir() + "/report_test.json";
  ASSERT_TRUE(WriteReportJson(path, report));
  RunReport loaded;
  std::string error;
  ASSERT_TRUE(LoadReportFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.final_f1, report.final_f1);
  EXPECT_EQ(loaded.counters, report.counters);
  std::remove(path.c_str());
}

TEST(ReportJsonTest, RejectsMissingRequiredFields) {
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson("{\"schema_version\": 1}", &parsed, &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(ReportJsonTest, RejectsWrongSchemaVersion) {
  RunReport report = MakeReport();
  report.schema_version = 99;
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson(ReportToJson(report), &parsed, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(ReportJsonTest, RejectsRunReportWithEmptyCurve) {
  RunReport report = MakeReport();
  report.curve.clear();
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson(ReportToJson(report), &parsed, &error));
}

TEST(ReportJsonTest, BenchReportNeedsNoCurve) {
  RunReport report = MakeReport();
  report.kind = "bench";
  report.curve.clear();
  RunReport parsed;
  std::string error;
  EXPECT_TRUE(ParseReportJson(ReportToJson(report), &parsed, &error))
      << error;
}

TEST(ReportJsonTest, RejectsMalformedJson) {
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson("{\"schema_version\": 1,,}", &parsed,
                               &error));
  EXPECT_FALSE(ParseReportJson("", &parsed, &error));
}

// ---- JSON parser (util/json.h) ----------------------------------------

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(
      R"({"a": [1, 2.5, -3e2], "b": "x\n\"yé", "c": true, "d": null})",
      &value, &error))
      << error;
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[0].number_value(), 1.0);
  EXPECT_EQ(a->array()[2].number_value(), -300.0);
  const JsonValue* b = value.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_value(), "x\n\"y\xc3\xa9");
  EXPECT_TRUE(value.Find("c")->bool_value());
  EXPECT_EQ(value.Find("d")->kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(value.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsTrailingGarbageAndBadSyntax) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{} extra", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &value, &error));
}

TEST(JsonParserTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &value, &error));
}

TEST(JsonParserTest, SeventeenDigitDoubleRoundTrip) {
  std::string out;
  AppendJsonDouble(&out, 0.1 + 0.2);
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(out, &value, &error)) << error;
  EXPECT_EQ(value.number_value(), 0.1 + 0.2);
}

// ---- Span self-time rollup --------------------------------------------

SpanRecord Record(const char* name, uint32_t tid, uint64_t start_ns,
                  uint64_t duration_ns) {
  SpanRecord record;
  record.name = name;
  record.thread_id = tid;
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  return record;
}

TEST(SelfTimeRollupTest, SubtractsNestedChildren) {
  // outer [0, 1000] contains two inner spans of 200ns and 300ns; a span
  // on another thread overlapping in time must NOT be subtracted.
  const std::vector<SpanRecord> records = {
      Record("outer", 0, 0, 1000),
      Record("inner", 0, 100, 200),
      Record("inner", 0, 500, 300),
      Record("other_thread", 1, 0, 400),
  };
  const std::vector<SpanRollupEntry> rollup = SelfTimeRollup(records);
  double outer_self = -1.0;
  double inner_total = -1.0;
  for (const SpanRollupEntry& entry : rollup) {
    if (entry.name == "outer") outer_self = entry.self_seconds;
    if (entry.name == "inner") inner_total = entry.total_seconds;
  }
  EXPECT_DOUBLE_EQ(outer_self, 500e-9);
  EXPECT_DOUBLE_EQ(inner_total, 500e-9);
}

TEST(SelfTimeRollupTest, SortedBySelfTimeDescending) {
  const std::vector<SpanRecord> records = {
      Record("small", 0, 0, 10),
      Record("big", 0, 100, 1000),
  };
  const std::vector<SpanRollupEntry> rollup = SelfTimeRollup(records);
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup[0].name, "big");
  EXPECT_EQ(rollup[1].name, "small");
}

// ---- Process stats -----------------------------------------------------

TEST(ProcessStatsTest, PeakRssIsNonzeroOnLinux) {
#if defined(__linux__)
  EXPECT_GT(PeakRssBytes(), 0u);
#else
  GTEST_SKIP() << "peak RSS source is platform-specific";
#endif
}

TEST(ProcessStatsTest, StampObservabilityFillsBuildAndRss) {
  RunReport report;
  StampObservability(&report);
  EXPECT_FALSE(report.build.empty());
#if defined(__linux__)
  EXPECT_GT(report.peak_rss_bytes, 0u);
#endif
}

// ---- Regression gate ---------------------------------------------------

TEST(CheckReportsTest, IdenticalReportsPass) {
  const RunReport report = MakeReport();
  EXPECT_TRUE(CheckReports(report, report, ReportCheckOptions()).empty());
}

TEST(CheckReportsTest, RegressionBeyondToleranceFails) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.05;
  candidate.best_f1 = baseline.best_f1 - 0.05;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, ReportCheckOptions());
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("F1"), std::string::npos) << failures[0];
}

TEST(CheckReportsTest, RegressionWithinTolerancePasses) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.01;  // Inside f1_tol = 0.02.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
}

TEST(CheckReportsTest, ImprovementAlwaysPasses) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 + 0.10;
  candidate.best_f1 = baseline.best_f1 + 0.10;
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
}

TEST(CheckReportsTest, ToleranceBoundaryIsInclusive) {
  ReportCheckOptions options;
  options.f1_tol = 0.05;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.05;
  candidate.best_f1 = baseline.best_f1 - 0.05;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
  candidate.final_f1 -= 1e-9;
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ExactCurveCatchesOneUlp) {
  ReportCheckOptions options;
  options.exact_curve = true;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
  candidate.curve[1].f1 =
      std::nextafter(candidate.curve[1].f1, 1.0);  // One ulp.
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ExactCurveCatchesLengthMismatch) {
  ReportCheckOptions options;
  options.exact_curve = true;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.curve.pop_back();
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ZeroRequiredCounterFails) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  for (auto& [name, value] : candidate.counters) {
    if (name == "oracle.queries") value = 0;
  }
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, ReportCheckOptions());
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("oracle.queries"), std::string::npos);
}

TEST(CheckReportsTest, ScoredExamplesRequiredOnlyWhereBaselineScored) {
  // A random-selector run scores nothing: it must pass against itself...
  RunReport unscored = MakeReport();
  for (auto& [name, value] : unscored.counters) {
    if (name == "selector.scored_examples") value = 0;
  }
  EXPECT_TRUE(CheckReports(unscored, unscored, ReportCheckOptions()).empty());
  // ...but not stand in for a baseline that did score.
  const std::vector<std::string> failures =
      CheckReports(MakeReport(), unscored, ReportCheckOptions());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("selector.scored_examples"), std::string::npos)
      << failures[0];
}

TEST(CheckReportsTest, KindMismatchFails) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.kind = "bench";
  candidate.curve.clear();
  EXPECT_FALSE(
      CheckReports(baseline, candidate, ReportCheckOptions()).empty());
}

TEST(CheckReportsTest, LatencyGateIsOptIn) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.wall_seconds = baseline.wall_seconds * 100.0;
  candidate.total_wait_seconds = baseline.total_wait_seconds * 100.0;
  // Off by default: a huge slowdown still passes.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.latency_tol = 0.25;
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, LatencyGateHasAbsoluteGrace) {
  // Micro-runs jitter by a few ms; the 10ms absolute grace must absorb
  // that even when the relative tolerance alone would fail.
  ReportCheckOptions options;
  options.latency_tol = 0.10;
  RunReport baseline = MakeReport();
  baseline.wall_seconds = 0.001;
  baseline.total_wait_seconds = 0.001;
  RunReport candidate = baseline;
  candidate.wall_seconds = 0.008;  // 8x, but under 1ms*1.1 + 10ms.
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

// ---- Latency / pool sections -------------------------------------------

RunReport MakeReportWithTelemetry() {
  RunReport report = MakeReport();
  report.latency = {{"loop.train", 3, 0.0061, 0.0019, 0.0029, 0.003},
                    {"selector.scoring", 3, 0.0072, 0.0021, 0.0033, 0.0039}};
  report.has_pool = true;
  report.pool.workers = 4;
  report.pool.busy_seconds = 0.040;
  report.pool.idle_seconds = 0.010;
  report.pool.queue_wait_seconds = 0.002;
  report.pool.worker_wall_seconds = 0.052;
  report.pool.utilization = 0.040 / 0.052;
  report.pool.regions = {{"ml.batch", 6, 48, 0.0001, 0.0009, 0.0004, 0.71}};
  return report;
}

TEST(ReportJsonTest, LatencyAndPoolSectionsRoundTrip) {
  const RunReport report = MakeReportWithTelemetry();
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(ReportToJson(report), &parsed, &error))
      << error;

  ASSERT_EQ(parsed.latency.size(), 2u);
  EXPECT_EQ(parsed.latency[0].name, "loop.train");
  EXPECT_EQ(parsed.latency[0].count, 3u);
  EXPECT_EQ(parsed.latency[0].sum_seconds, 0.0061);  // Bitwise (%.17g).
  EXPECT_EQ(parsed.latency[0].p50_seconds, 0.0019);
  EXPECT_EQ(parsed.latency[0].p95_seconds, 0.0029);
  EXPECT_EQ(parsed.latency[0].p99_seconds, 0.003);
  EXPECT_EQ(parsed.latency[1].name, "selector.scoring");

  ASSERT_TRUE(parsed.has_pool);
  EXPECT_EQ(parsed.pool.workers, 4);
  EXPECT_EQ(parsed.pool.busy_seconds, 0.040);
  EXPECT_EQ(parsed.pool.idle_seconds, 0.010);
  EXPECT_EQ(parsed.pool.queue_wait_seconds, 0.002);
  EXPECT_EQ(parsed.pool.worker_wall_seconds, 0.052);
  EXPECT_EQ(parsed.pool.utilization, 0.040 / 0.052);
  ASSERT_EQ(parsed.pool.regions.size(), 1u);
  EXPECT_EQ(parsed.pool.regions[0].name, "ml.batch");
  EXPECT_EQ(parsed.pool.regions[0].runs, 6u);
  EXPECT_EQ(parsed.pool.regions[0].chunks, 48u);
  EXPECT_EQ(parsed.pool.regions[0].min_chunk_seconds, 0.0001);
  EXPECT_EQ(parsed.pool.regions[0].max_chunk_seconds, 0.0009);
  EXPECT_EQ(parsed.pool.regions[0].mean_chunk_seconds, 0.0004);
  EXPECT_EQ(parsed.pool.regions[0].utilization, 0.71);
}

TEST(ReportJsonTest, LatencyAndPoolSectionsAreOptionalOnParse) {
  // Reports written before the sections existed (or from serial runs)
  // must keep parsing; the absence is the serial-path signal.
  const std::string json = ReportToJson(MakeReport());
  EXPECT_EQ(json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(json.find("\"pool\""), std::string::npos);
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(json, &parsed, &error)) << error;
  EXPECT_TRUE(parsed.latency.empty());
  EXPECT_FALSE(parsed.has_pool);
}

TEST(ReportJsonTest, LegacyProfileSectionIsIgnoredOnParse) {
  // Older builds wrote a "profile" section (per-region work counters and
  // hardware counters, as in bench/artifacts/
  // cli_abtbuy_linear_margin_full.report.json). Schema v1 still parses
  // such reports; the section is dropped and never written back.
  const std::string json = ReportToJson(MakeReport());
  const std::string process_key = ",\n  \"process\":";
  const size_t at = json.find(process_key);
  ASSERT_NE(at, std::string::npos);
  const std::string legacy =
      json.substr(0, at) +
      ",\n  \"profile\": {\"hw\": \"unavailable\", \"regions\": [\n"
      "    {\"name\": \"sim.batch\", \"spans\": 63, \"seconds\": 0.568897286, "
      "\"items\": 200781, \"bytes\": 21728196, \"flops\": 0, \"cycles\": 0, "
      "\"instructions\": 0, \"cache_refs\": 0, \"cache_misses\": 0, "
      "\"branch_misses\": 0, \"items_per_sec\": 352930.14212059363, "
      "\"bytes_per_sec\": 38193530.77384869, \"flops_per_sec\": 0, "
      "\"ipc\": 0}\n  ]}" +
      json.substr(at);
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(legacy, &parsed, &error)) << error;
  const std::string rewritten = ReportToJson(parsed);
  EXPECT_EQ(rewritten.find("\"profile\""), std::string::npos);
  EXPECT_EQ(rewritten, json);
}

TEST(CheckReportsTest, LatencyP95GateIsOptIn) {
  const RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  candidate.latency[0].p95_seconds = baseline.latency[0].p95_seconds * 100.0;
  // Off by default: a huge tail regression still passes.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.latency_p95_tol = 0.25;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, options);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("p95.loop.train"), std::string::npos)
      << failures[0];
}

TEST(CheckReportsTest, LatencyP95WithinToleranceAndGracePasses) {
  ReportCheckOptions options;
  options.latency_p95_tol = 0.25;
  const RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  // +10% relative: inside the 25% tolerance.
  candidate.latency[0].p95_seconds = baseline.latency[0].p95_seconds * 1.10;
  // Tiny p95s jitter wildly in relative terms; the 10ms grace absorbs it.
  candidate.latency[1].p95_seconds = baseline.latency[1].p95_seconds + 0.009;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, LatencyP95GateSkipsRegionsMissingFromEitherSide) {
  ReportCheckOptions options;
  options.latency_p95_tol = 0.0;
  RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  // Candidate-only region (e.g. parallel.chunk at threads=4) and a
  // baseline-only region are structural, not regressions: both skipped.
  candidate.latency.push_back({"parallel.chunk", 48, 1.0, 0.5, 0.9, 1.0});
  baseline.latency.push_back({"t1.only", 1, 5.0, 5.0, 5.0, 5.0});
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, CounterGateIsOptIn) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  for (auto& [name, value] : candidate.counters) {
    if (name == "sim.calls") value *= 3;
  }
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.counter_tol = 0.5;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, options);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("sim.calls"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace alem
