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

TEST(ReportJsonTest, LoadRejectsMissingFileAndDirectory) {
  RunReport loaded;
  std::string error;
  EXPECT_FALSE(LoadReportFile(::testing::TempDir() + "/no_such.report.json",
                              &loaded, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
  EXPECT_FALSE(LoadReportFile(::testing::TempDir(), &loaded, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
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

// ---- Report invariants -------------------------------------------------
// Each case mutates MakeReport(), which satisfies every rule, and expects
// the parser to reject the round-tripped JSON with an error naming the rule.

void ExpectRejected(const std::string& json, const std::string& needle) {
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson(json, &parsed, &error));
  EXPECT_NE(error.find(needle), std::string::npos) << error;
}

void ExpectRejected(const RunReport& report, const std::string& needle) {
  ExpectRejected(ReportToJson(report), needle);
}

void ExpectAccepted(const RunReport& report) {
  RunReport parsed;
  std::string error;
  EXPECT_TRUE(ParseReportJson(ReportToJson(report), &parsed, &error))
      << error;
}

// `json` with its first `from` replaced by `to`.
std::string Replaced(std::string json, const std::string& from,
                     const std::string& to) {
  const size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) json.replace(at, from.size(), to);
  return json;
}

void SetCounter(RunReport* report, const std::string& name, uint64_t value) {
  for (auto& [counter, counter_value] : report->counters) {
    if (counter == name) {
      counter_value = value;
      return;
    }
  }
  report->counters.emplace_back(name, value);
}

// A cold cache miss that stored its entry: consistent cache counters.
RunReport MakeCachedReport() {
  RunReport report = MakeReport();
  report.cache = "miss";
  SetCounter(&report, "featurize.cache.miss", 1);
  SetCounter(&report, "featurize.cache.write", 1);
  report.spans.push_back({"harness.featurize.cache", 1, 0.001, 0.001});
  return report;
}

TEST(ReportInvariantTest, SpanSelfTimeAboveTotalFails) {
  RunReport report = MakeReport();
  report.spans[0].self_seconds = report.spans[0].total_seconds + 1e-6;
  ExpectRejected(report, "self time");
}

TEST(ReportInvariantTest, CacheCountersNeedTheCacheSpan) {
  RunReport report = MakeCachedReport();
  ExpectAccepted(report);
  report.spans.pop_back();
  ExpectRejected(report, "harness.featurize.cache");
  // A resumed session's spans cover only the resuming process.
  report.session = "resumed";
  ExpectAccepted(report);
}

TEST(ReportInvariantTest, CacheWritesAboveMissesFail) {
  RunReport report = MakeCachedReport();
  SetCounter(&report, "featurize.cache.write", 2);
  ExpectRejected(report, "every write follows a miss");
}

TEST(ReportInvariantTest, CacheCountersWithCacheOffFail) {
  RunReport report = MakeCachedReport();
  report.cache = "off";
  ExpectRejected(report, "config.cache is 'off'");
}

TEST(ReportInvariantTest, CacheProvenanceMustMatchCounters) {
  RunReport report = MakeCachedReport();
  report.cache = "hit";  // The counters say miss.
  ExpectRejected(report, "featurize.cache.hit is zero");
  // A warm hit: one hit, no miss and no write.
  report = MakeCachedReport();
  report.cache = "hit";
  SetCounter(&report, "featurize.cache.hit", 1);
  SetCounter(&report, "featurize.cache.miss", 0);
  SetCounter(&report, "featurize.cache.write", 0);
  ExpectAccepted(report);
  report.cache = "miss";
  ExpectRejected(report, "featurize.cache.miss is zero");
}

TEST(ReportInvariantTest, CacheIsRequired) {
  ExpectRejected(Replaced(ReportToJson(MakeReport()), "\"cache\": \"off\", ",
                          ""),
                 "config.cache");
}

TEST(ReportInvariantTest, WarmColdSplitMustTallyFitCalls) {
  RunReport report = MakeReport();
  report.warm_start = "on";
  SetCounter(&report, "ml.fit_calls", 6);
  SetCounter(&report, "ml.warm_fits", 5);
  SetCounter(&report, "ml.cold_fits", 1);
  ExpectAccepted(report);
  SetCounter(&report, "ml.cold_fits", 2);
  ExpectRejected(report, "ml.fit_calls");
}

TEST(ReportInvariantTest, UnknownWarmStartModeFails) {
  RunReport report = MakeReport();
  report.warm_start = "lukewarm";
  ExpectRejected(report, "config.warm_start");
}

TEST(ReportInvariantTest, WarmFitsWithWarmStartOffFail) {
  RunReport report = MakeReport();
  SetCounter(&report, "ml.fit_calls", 2);
  SetCounter(&report, "ml.warm_fits", 1);
  SetCounter(&report, "ml.cold_fits", 1);
  ExpectRejected(report, "ml.warm_fits is 1");
}

TEST(ReportInvariantTest, EmptyLatencyRegionFails) {
  RunReport report = MakeReportWithTelemetry();
  report.latency[0].count = 0;
  ExpectRejected(report, "count must be positive");
}

TEST(ReportInvariantTest, UnorderedPercentilesFail) {
  RunReport report = MakeReportWithTelemetry();
  report.latency[0].p95_seconds = report.latency[0].p99_seconds * 2.0;
  ExpectRejected(report, "percentiles not ordered");
  report = MakeReportWithTelemetry();
  report.latency[1].p50_seconds = -1e-3;
  ExpectRejected(report, "percentiles not ordered");
}

TEST(ReportInvariantTest, PoolAccountingGapFails) {
  RunReport report = MakeReportWithTelemetry();
  // 1% of a 2 s wall is 20 ms: a 15 ms gap passes, a 25 ms gap fails.
  report.pool.worker_wall_seconds = 2.0;
  report.pool.busy_seconds = 1.5;
  report.pool.idle_seconds = 0.485;
  report.pool.queue_wait_seconds = 0.0;
  report.pool.utilization = 0.75;
  ExpectAccepted(report);
  report.pool.idle_seconds = 0.475;
  ExpectRejected(report, "pool accounting gap");
}

TEST(ReportInvariantTest, PoolUtilizationOutsideUnitIntervalFails) {
  RunReport report = MakeReportWithTelemetry();
  report.pool.utilization = 1.5;
  ExpectRejected(report, "pool utilization");
  report = MakeReportWithTelemetry();
  report.pool.regions[0].utilization = -0.1;
  ExpectRejected(report, "ml.batch: utilization");
}

TEST(ReportInvariantTest, PoolNeedsWorkersAndRegionRuns) {
  RunReport report = MakeReportWithTelemetry();
  report.pool.workers = 0;
  ExpectRejected(report, "pool workers");
  report = MakeReportWithTelemetry();
  report.pool.regions[0].chunks = 0;
  ExpectRejected(report, "runs/chunks must be positive");
}

TEST(ReportInvariantTest, UnorderedChunkStatsFail) {
  RunReport report = MakeReportWithTelemetry();
  report.pool.regions[0].mean_chunk_seconds = 0.002;  // Above the max.
  ExpectRejected(report, "chunk stats not ordered");
}

TEST(ReportInvariantTest, DecreasingLabelsUsedFails) {
  RunReport report = MakeReport();
  report.curve[2].labels_used = report.curve[1].labels_used - 1;
  ExpectRejected(report, "labels_used");
}

TEST(ReportInvariantTest, F1OutsideUnitIntervalFails) {
  RunReport report = MakeReport();
  report.curve[0].f1 = 1.7;
  ExpectRejected(report, "outside [0, 1]");
}

TEST(ReportInvariantTest, FinalF1MustMatchLastPoint) {
  RunReport report = MakeReport();
  report.final_f1 = report.curve.back().f1 + 1e-9;
  ExpectRejected(report, "summary.final_f1");
}

TEST(ReportInvariantTest, ZeroOracleQueriesFails) {
  RunReport report = MakeReport();
  SetCounter(&report, "oracle.queries", 0);
  ExpectRejected(report, "oracle.queries");
}

TEST(ReportInvariantTest, ScoringApproachNeedsScoredExamples) {
  RunReport report = MakeReport();
  SetCounter(&report, "selector.scored_examples", 0);
  ExpectRejected(report, "selector.scored_examples");
  // Random-batch approaches pick without scoring.
  report.approach = "SupervisedTrees(Random-5)";
  ExpectAccepted(report);
  report.approach = "DeepMatcher";
  ExpectAccepted(report);
}

TEST(ReportInvariantTest, ErrorNamesEveryViolation) {
  RunReport report = MakeReport();
  report.curve[0].f1 = 1.7;
  SetCounter(&report, "oracle.queries", 0);
  ExpectRejected(report, "outside [0, 1]");
  ExpectRejected(report, "oracle.queries");
}

// ---- Field types and ranges --------------------------------------------

TEST(ReportFieldTest, MistypedFieldFails) {
  const std::string json = ReportToJson(MakeReport());
  ExpectRejected(Replaced(json, "\"threads\": 4", "\"threads\": \"four\""),
                 "config.threads");
  ExpectRejected(Replaced(json, "\"scale\": ", "\"scale\": \"x\", \"_\": "),
                 "config.scale is not a number");
  ExpectRejected(Replaced(json, "\"holdout\": true", "\"holdout\": 1"),
                 "config.holdout is not a boolean");
  ExpectRejected(Replaced(json, "\"approach\": \"linear-margin\"",
                          "\"approach\": 5"),
                 "config.approach is not a string");
  ExpectRejected(Replaced(json, "\"config\": {", "\"config\": 5, \"_\": {"),
                 "config is not an object");
  ExpectRejected(Replaced(json, "\"sim.calls\": 53802", "\"sim.calls\": \"n\""),
                 "counters.sim.calls");
}

TEST(ReportFieldTest, NegativeIntegerFails) {
  const std::string json = ReportToJson(MakeReport());
  ExpectRejected(Replaced(json, "\"sim.calls\": 53802", "\"sim.calls\": -5"),
                 "counters.sim.calls");
  ExpectRejected(Replaced(json, "\"tree_depth\":5", "\"tree_depth\":-1"),
                 "curve[].tree_depth");
}

TEST(ReportFieldTest, NonIntegralIntegerFails) {
  const std::string json = ReportToJson(MakeReport());
  ExpectRejected(Replaced(json, "\"sim.calls\": 53802",
                          "\"sim.calls\": 53802.5"),
                 "counters.sim.calls");
  ExpectRejected(Replaced(json, "\"max_labels\": 200", "\"max_labels\": 1.5"),
                 "config.max_labels");
}

TEST(ReportFieldTest, OutOfRangeIntegerFails) {
  const std::string json = ReportToJson(MakeReport());
  ExpectRejected(Replaced(json, "\"data_seed\": 7", "\"data_seed\": 1e300"),
                 "config.data_seed");
  ExpectRejected(Replaced(json, "\"threads\": 4", "\"threads\": 1e10"),
                 "config.threads");
  ExpectRejected(Replaced(json, "\"schema_version\": 1",
                          "\"schema_version\": 4294967297"),
                 "schema_version");
  RunReport report = MakeReportWithTelemetry();
  ExpectRejected(Replaced(ReportToJson(report), "\"workers\": 4",
                          "\"workers\": 3e9"),
                 "pool.workers");
}

TEST(ReportFieldTest, LargestIntegersParse) {
  // 2^53 is exact as a double; 2^31 - 1 is the largest int field.
  const std::string json = Replaced(
      Replaced(ReportToJson(MakeReport()), "\"sim.calls\": 53802",
               "\"sim.calls\": 9007199254740992"),
      "\"threads\": 4", "\"threads\": 2147483647");
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.CounterOr("sim.calls"), 9007199254740992u);
  EXPECT_EQ(parsed.threads, 2147483647);
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
