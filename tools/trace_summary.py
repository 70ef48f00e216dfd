#!/usr/bin/env python3
"""Summarize and validate alembench Chrome trace files.

Default mode prints the top-N span names by *self* time (wall time minus
the wall time of nested child spans), which is the first question a trace
answers: where does an active-learning run actually spend its time?

Modes:
  trace_summary.py TRACE.json [--top N] [--metrics METRICS.csv]
      Print per-span-name aggregates (count, total, self) sorted by self
      time; when --metrics is given, append the metrics CSV contents.
  trace_summary.py --check TRACE.json --metrics METRICS.csv
      Validate the artifacts: the trace must be well-formed Chrome
      trace-event JSON whose every iteration contains train / evaluate /
      select / label spans, whose every parallel.chunk span nests (in
      time) inside a matching <region>.parallel span, whose every
      ml.batch.parallel span (the batch inference engine's fan-out)
      nests inside one of the pipeline phases that gather rows for it,
      and the metrics CSV must report nonzero selector.scored_examples
      and oracle.queries. Any telemetry counter events ("C" phase, from
      the --telemetry-hz sampler) must be well-formed; pass
      --expect-telemetry to additionally require them. Exits nonzero on
      any violation (used by ctest).
  trace_summary.py --check --report RUN.report.json
      Validate a RunReport flight-recorder artifact (schema described in
      docs/observability.md): required fields, a coherent learning curve
      for "run" reports, nonzero required counters (oracle.queries, and
      selector.scored_examples unless config.approach picks random
      batches), span rollup
      consistency, ordered percentiles in the optional latency section,
      and — when the optional pool section is present — the worker
      accounting invariant busy + idle + queue_wait ≈ worker_wall.
      Combinable with a trace check in the same call.
  trace_summary.py --run-cli PATH/TO/alem_cli --check
      Run a tiny synthetic experiment through alem_cli with --trace,
      --metrics, and --report, then validate all three artifacts. Add
      --telemetry HZ to run it at 4 threads with --telemetry-hz=HZ (pair
      with --expect-telemetry to assert the sampler produced events).

Only the Python standard library is used.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Spans that must appear inside every loop.iteration span (the pipeline
# phases the paper's latency figures are built from).
REQUIRED_PHASE_SPANS = ("loop.train", "loop.evaluate", "loop.select",
                        "loop.label")
# Metrics that a real run can never legitimately leave at zero.
REQUIRED_NONZERO_COUNTERS = ("selector.scored_examples", "oracle.queries")
# Counters a run report requires nonzero whatever its approach; scoring is
# required only of approaches whose selector scores examples.
REPORT_NONZERO_COUNTERS = ("oracle.queries",)
SCORING_COUNTER = "selector.scored_examples"
# Every ml.batch fan-out is issued by a pipeline phase that gathered the
# rows first, so its aggregate span must sit inside one of these spans on
# the submitting thread (selectors score, the evaluator sweeps the eval
# split, the ensemble's precision gate trains and its coverage scan runs
# under its own span).
ML_BATCH_PARENT_SPANS = ("selector.scoring", "loop.train", "loop.evaluate",
                         "ensemble.coverage")


def load_trace(path):
    """Parses a Chrome trace file; returns its complete ("X") events."""
    with open(path, "r", encoding="utf-8") as f:
        root = json.load(f)
    if not isinstance(root, dict) or "traceEvents" not in root:
        raise ValueError(f"{path}: no traceEvents array")
    events = [e for e in root["traceEvents"] if e.get("ph") == "X"]
    for event in events:
        for field in ("name", "ts", "dur", "tid"):
            if field not in event:
                raise ValueError(f"{path}: event missing '{field}': {event}")
    return events


def load_counter_events(path):
    """Parses a Chrome trace file; returns its counter ("C") events."""
    with open(path, "r", encoding="utf-8") as f:
        root = json.load(f)
    if not isinstance(root, dict) or "traceEvents" not in root:
        raise ValueError(f"{path}: no traceEvents array")
    events = [e for e in root["traceEvents"] if e.get("ph") == "C"]
    for event in events:
        for field in ("name", "ts", "args"):
            if field not in event:
                raise ValueError(f"{path}: counter event missing "
                                 f"'{field}': {event}")
        if "value" not in event.get("args", {}):
            raise ValueError(f"{path}: counter event missing args.value: "
                             f"{event}")
    return events


def check_telemetry(trace_path, expect_telemetry):
    """Validates sampler counter events; returns failure strings.

    Counter events are emitted only by the --telemetry-hz background
    sampler, so a trace without any is valid unless --expect-telemetry
    was passed. When present, every series must be named "telemetry.*",
    carry numeric non-negative values with non-decreasing timestamps,
    and the mandatory RSS series must report a positive resident size.
    """
    try:
        events = load_counter_events(trace_path)
    except (ValueError, json.JSONDecodeError, OSError) as error:
        return [f"trace counter events unreadable: {error}"]
    if not events:
        if expect_telemetry:
            return ["--expect-telemetry: trace contains no telemetry "
                    "counter events (was --telemetry-hz passed?)"]
        return []
    failures = []
    last_ts = {}
    series = set()
    for event in events:
        name = event["name"]
        series.add(name)
        if not name.startswith("telemetry."):
            failures.append(f"counter event '{name}' is not in the "
                            "telemetry.* namespace")
            break
        value = event["args"]["value"]
        if not isinstance(value, (int, float)) or value < 0:
            failures.append(f"counter {name} has non-numeric or negative "
                            f"value {value!r}")
            break
        if event["ts"] < last_ts.get(name, 0):
            failures.append(f"counter {name} timestamps go backwards at "
                            f"ts={event['ts']}")
            break
        last_ts[name] = event["ts"]
    if "telemetry.rss_mib" not in series:
        failures.append("telemetry counter events present but the "
                        "telemetry.rss_mib series is missing")
    elif all(e["args"]["value"] <= 0 for e in events
             if e["name"] == "telemetry.rss_mib"):
        failures.append("telemetry.rss_mib never reports a positive "
                        "resident size")
    return failures


def self_times(events):
    """Returns {span name: (count, total_us, self_us)} aggregates.

    Self time is an event's duration minus the duration of the events
    nested inside it on the same thread (containment by [ts, ts+dur]).
    """
    aggregates = {}
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    for tid_events in by_tid.values():
        # Parents sort before their children: earlier start, longer first.
        tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, name) of open ancestors.
        self_us = [e["dur"] for e in tid_events]
        for i, event in enumerate(tid_events):
            while stack and stack[-1][0] <= event["ts"]:
                stack.pop()
            if stack:
                parent_index = stack[-1][1]
                self_us[parent_index] -= event["dur"]
            stack.append((event["ts"] + event["dur"], i))
        for i, event in enumerate(tid_events):
            count, total, self_time = aggregates.get(event["name"], (0, 0.0,
                                                                     0.0))
            aggregates[event["name"]] = (count + 1, total + event["dur"],
                                         self_time + self_us[i])
    return aggregates


def print_summary(events, top):
    aggregates = self_times(events)
    rows = sorted(aggregates.items(), key=lambda kv: -kv[1][2])[:top]
    print(f"{'span':<28} {'count':>7} {'total(ms)':>11} {'self(ms)':>11}")
    for name, (count, total_us, self_us) in rows:
        print(f"{name:<28} {count:>7} {total_us / 1e3:>11.3f} "
              f"{self_us / 1e3:>11.3f}")


def read_counters(metrics_path):
    """Returns {name: value} for the counter rows of a metrics CSV."""
    counters = {}
    with open(metrics_path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "kind,name,field,value":
            raise ValueError(f"{metrics_path}: unexpected header '{header}'")
        for line in f:
            parts = line.strip().split(",")
            if len(parts) == 4 and parts[0] == "counter":
                counters[parts[1]] = int(parts[3])
    return counters


def check(trace_path, metrics_path):
    """Validates the artifacts; returns a list of failure strings."""
    failures = []
    try:
        events = load_trace(trace_path)
    except (ValueError, json.JSONDecodeError, OSError) as error:
        return [f"trace unreadable: {error}"]
    if not events:
        failures.append("trace contains no spans")

    counts = {}
    for event in events:
        counts[event["name"]] = counts.get(event["name"], 0) + 1
    iterations = counts.get("loop.iteration", 0)
    if iterations == 0:
        failures.append("no loop.iteration spans in trace")
    for name in REQUIRED_PHASE_SPANS:
        if counts.get(name, 0) < iterations:
            failures.append(
                f"{name}: {counts.get(name, 0)} spans for {iterations} "
                "iterations (every iteration must contain one)")

    # Phase spans must nest inside an iteration span on the same thread.
    iteration_windows = {}
    for event in events:
        if event["name"] == "loop.iteration":
            iteration_windows.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"]))
    for event in events:
        if event["name"] not in REQUIRED_PHASE_SPANS:
            continue
        windows = iteration_windows.get(event["tid"], [])
        inside = any(start <= event["ts"] and
                     event["ts"] + event["dur"] <= end + 1e-3
                     for start, end in windows)
        if not inside:
            failures.append(f"{event['name']} span at ts={event['ts']} is "
                            "not nested in any loop.iteration span")
            break

    failures.extend(check_parallel_nesting(events))
    failures.extend(check_ml_batch_nesting(events))

    if metrics_path is None:
        failures.append("--check requires --metrics")
        return failures
    try:
        counters = read_counters(metrics_path)
    except (ValueError, OSError) as error:
        failures.append(f"metrics unreadable: {error}")
        return failures
    for name in REQUIRED_NONZERO_COUNTERS:
        if counters.get(name, 0) <= 0:
            failures.append(f"counter {name} is zero or missing")
    return failures


def check_parallel_nesting(events):
    """Validates thread-pool span structure; returns failure strings.

    Every parallel.chunk span (emitted on a worker thread, with
    args.detail naming its region) must fall inside the time window of a
    "<region>.parallel" span emitted by the submitting thread, and every
    such aggregate span must contain at least one chunk. Serial traces
    (--threads=1) contain neither span, which is valid.
    """
    failures = []
    windows = {}  # region -> [(start, end)] of <region>.parallel spans.
    for event in events:
        if event["name"].endswith(".parallel"):
            region = event["name"][:-len(".parallel")]
            windows.setdefault(region, []).append(
                (event["ts"], event["ts"] + event["dur"]))
    chunks_per_region = {region: 0 for region in windows}
    for event in events:
        if event["name"] != "parallel.chunk":
            continue
        region = event.get("args", {}).get("detail", "")
        if not region:
            failures.append(f"parallel.chunk at ts={event['ts']} has no "
                            "args.detail naming its region")
            continue
        # Workers run on other threads, so containment is checked against
        # the submitting thread's window in time only (small grace for
        # clock granularity at the edges).
        inside = any(start - 1e-3 <= event["ts"] and
                     event["ts"] + event["dur"] <= end + 1e-3
                     for start, end in windows.get(region, []))
        if not inside:
            failures.append(
                f"parallel.chunk (region {region}) at ts={event['ts']} is "
                f"not inside any {region}.parallel span window")
            break
        chunks_per_region[region] += 1
    for region, count in chunks_per_region.items():
        if count == 0:
            failures.append(f"{region}.parallel spans exist but no "
                            "parallel.chunk spans name that region")
    return failures


def check_ml_batch_nesting(events):
    """Validates batch-inference span placement; returns failure strings.

    Every ml.batch.parallel span (the aggregate span `ParallelFor` emits
    on the submitting thread when the batch inference engine fans out
    with threads > 1) must nest, on the same thread, inside one of the
    ML_BATCH_PARENT_SPANS phase spans: no consumer may call a batch
    scoring API outside the phase that owns its row gathering. Serial
    traces (--threads=1) contain no ml.batch.parallel spans, which is
    valid.
    """
    failures = []
    parent_windows = {}  # tid -> [(start, end)] of allowed parent spans.
    for event in events:
        if event["name"] in ML_BATCH_PARENT_SPANS:
            parent_windows.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"]))
    for event in events:
        if event["name"] != "ml.batch.parallel":
            continue
        windows = parent_windows.get(event["tid"], [])
        inside = any(start - 1e-3 <= event["ts"] and
                     event["ts"] + event["dur"] <= end + 1e-3
                     for start, end in windows)
        if not inside:
            failures.append(
                f"ml.batch.parallel span at ts={event['ts']} is not nested "
                "in any of " + "/".join(ML_BATCH_PARENT_SPANS) +
                " on its thread")
            break
    return failures


# Fields every report must carry, and the extra ones "run" reports add.
REPORT_REQUIRED_FIELDS = ("schema_version", "kind", "tool", "build",
                          "config", "counters", "gauges", "spans", "process")
REPORT_CONFIG_FIELDS = ("dataset", "approach", "data_seed", "run_seed",
                        "scale", "threads", "seed_size", "batch_size",
                        "max_labels", "oracle_noise", "holdout", "cache")
REPORT_CURVE_FIELDS = ("iteration", "labels_used", "precision", "recall",
                       "f1", "train_seconds", "select_seconds",
                       "wait_seconds")
REPORT_SUMMARY_FIELDS = ("iterations", "best_f1", "final_f1",
                         "labels_to_converge", "total_wait_seconds")


def check_report(report_path):
    """Validates a RunReport JSON artifact; returns failure strings."""
    try:
        with open(report_path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (ValueError, OSError) as error:
        return [f"report unreadable: {error}"]
    if not isinstance(report, dict):
        return ["report root is not a JSON object"]

    failures = []
    for field in REPORT_REQUIRED_FIELDS:
        if field not in report:
            failures.append(f"report missing required field '{field}'")
    if failures:
        return failures
    if report["schema_version"] != 1:
        failures.append(
            f"unsupported schema_version {report['schema_version']}")
    kind = report["kind"]
    if kind not in ("run", "bench"):
        failures.append(f"unknown report kind '{kind}'")
    for field in REPORT_CONFIG_FIELDS:
        if field not in report["config"]:
            failures.append(f"report config missing '{field}'")
    for field in ("wall_seconds", "peak_rss_bytes"):
        if field not in report["process"]:
            failures.append(f"report process missing '{field}'")

    for span in report["spans"]:
        for field in ("name", "count", "total_seconds", "self_seconds"):
            if field not in span:
                failures.append(f"span rollup entry missing '{field}': "
                                f"{span}")
                break
        else:
            if span["self_seconds"] > span["total_seconds"] + 1e-9:
                failures.append(f"span {span['name']}: self time "
                                f"{span['self_seconds']} exceeds total "
                                f"{span['total_seconds']}")

    failures.extend(check_report_cache(report, kind))
    failures.extend(check_report_latency(report))
    failures.extend(check_report_pool(report))
    failures.extend(check_report_warm_start(report))

    if kind == "run":
        curve = report.get("curve", [])
        if not curve:
            failures.append("run report has an empty learning curve")
        previous_labels = -1
        for i, point in enumerate(curve):
            for field in REPORT_CURVE_FIELDS:
                if field not in point:
                    failures.append(f"curve[{i}] missing '{field}'")
                    break
            labels = point.get("labels_used", 0)
            if labels < previous_labels:
                failures.append(f"curve[{i}]: labels_used {labels} "
                                "decreases (curve must be monotone)")
            previous_labels = labels
            if not 0.0 <= point.get("f1", -1.0) <= 1.0:
                failures.append(f"curve[{i}]: F1 {point.get('f1')} outside "
                                "[0, 1]")
        summary = report.get("summary", {})
        for field in REPORT_SUMMARY_FIELDS:
            if field not in summary:
                failures.append(f"report summary missing '{field}'")
        if curve and summary and "final_f1" in summary:
            if abs(summary["final_f1"] - curve[-1].get("f1", -1.0)) > 1e-12:
                failures.append("summary.final_f1 does not match the last "
                                "curve point")
        required = list(REPORT_NONZERO_COUNTERS)
        if approach_scores_examples(report["config"].get("approach", "")):
            required.append(SCORING_COUNTER)
        for name in required:
            if report["counters"].get(name, 0) <= 0:
                failures.append(f"report counter {name} is zero or missing")
    return failures


def approach_scores_examples(approach):
    """Whether a report's config.approach names a scoring selector.

    Random-batch approaches ("SupervisedTrees(Random-5)", "<learner>-Random"
    and DeepMatcher, which labels random batches) pick examples without
    scoring any, so their selector.scored_examples is legitimately zero.
    """
    return "Random" not in approach and approach != "DeepMatcher"


def check_report_cache(report, kind):
    """Validates feature-cache counters against spans and provenance.

    Whenever the persistent feature cache was touched (any
    featurize.cache.* counter present), the report must also carry the
    harness.featurize.cache span, writes can never outnumber misses
    (every write follows a miss), and a "run" report's config.cache
    provenance must agree with the counters. A resumed session's report
    (config.session == "resumed") is exempt from the span requirement:
    its counters stitch in the saving process's totals while its span
    rollup covers only the resuming process (docs/sessions.md).
    """
    failures = []
    counters = report.get("counters", {})
    hits = counters.get("featurize.cache.hit", 0)
    misses = counters.get("featurize.cache.miss", 0)
    writes = counters.get("featurize.cache.write", 0)
    if hits + misses + writes == 0:
        return failures
    resumed = report.get("config", {}).get("session") == "resumed"
    span_names = {span.get("name") for span in report.get("spans", [])}
    if "harness.featurize.cache" not in span_names and not resumed:
        failures.append("featurize.cache.* counters present but no "
                        "harness.featurize.cache span recorded")
    if writes > misses:
        failures.append(f"featurize.cache.write {writes} exceeds "
                        f"featurize.cache.miss {misses} (every write "
                        "follows a miss)")
    if kind == "run":
        cache = report.get("config", {}).get("cache", "off")
        if cache == "off":
            failures.append("featurize.cache.* counters present but "
                            "config.cache is 'off'")
        elif cache == "hit" and hits == 0:
            failures.append("config.cache is 'hit' but "
                            "featurize.cache.hit is zero")
        elif cache == "miss" and misses == 0:
            failures.append("config.cache is 'miss' but "
                            "featurize.cache.miss is zero")
    return failures


def check_report_warm_start(report):
    """Validates the warm-start counters (docs/training.md).

    The fit-path split must tally: every Learner::Fit lands in exactly one
    of ml.warm_fits / ml.cold_fits, so their sum equals ml.fit_calls
    whenever the split counters are present. config.warm_start (optional
    on old reports) must be a known mode, and with warm starts off no warm
    fit may be recorded.
    """
    failures = []
    counters = report.get("counters", {})
    warm = counters.get("ml.warm_fits", 0)
    cold = counters.get("ml.cold_fits", 0)
    fits = counters.get("ml.fit_calls", 0)
    if ("ml.warm_fits" in counters or "ml.cold_fits" in counters) \
            and warm + cold != fits:
        failures.append(f"ml.warm_fits {warm} + ml.cold_fits {cold} != "
                        f"ml.fit_calls {fits}")
    mode = report.get("config", {}).get("warm_start", "off")
    if mode not in ("off", "on"):
        failures.append(f"config.warm_start is '{mode}' (expected off/on)")
    elif mode == "off" and warm > 0:
        failures.append(f"config.warm_start is 'off' but ml.warm_fits "
                        f"is {warm}")
    return failures


def check_report_latency(report):
    """Validates the optional per-region latency percentile section.

    Reports written before the section existed (or with metrics off)
    simply omit it, which is valid. When present, every entry must name
    a region with at least one observation and ordered percentiles
    0 <= p50 <= p95 <= p99.
    """
    latency = report.get("latency")
    if latency is None:
        return []
    if not isinstance(latency, list):
        return ["report latency section is not an array"]
    failures = []
    for entry in latency:
        for field in ("name", "count", "sum_seconds", "p50_seconds",
                      "p95_seconds", "p99_seconds"):
            if field not in entry:
                failures.append(f"latency entry missing '{field}': {entry}")
                break
        else:
            name = entry["name"]
            if entry["count"] <= 0:
                failures.append(f"latency {name}: count {entry['count']} "
                                "must be positive (empty regions are "
                                "omitted)")
            p50, p95, p99 = (entry["p50_seconds"], entry["p95_seconds"],
                             entry["p99_seconds"])
            if not 0.0 <= p50 <= p95 <= p99:
                failures.append(f"latency {name}: percentiles not ordered "
                                f"(p50={p50} p95={p95} p99={p99})")
    return failures


def check_report_pool(report):
    """Validates the optional thread-pool utilization section.

    Serial runs (--threads=1) never engage the pool and omit the
    section, which is valid. When present, the per-worker accounting
    must tile worker wall time: |busy + idle + queue_wait - worker_wall|
    within max(1% of wall, 10 ms), and every region's chunk-duration
    stats must satisfy min <= mean <= max with a sane utilization.
    """
    pool = report.get("pool")
    if pool is None:
        return []
    failures = []
    for field in ("workers", "busy_seconds", "idle_seconds",
                  "queue_wait_seconds", "worker_wall_seconds",
                  "utilization", "regions"):
        if field not in pool:
            failures.append(f"pool section missing '{field}'")
    if failures:
        return failures
    if pool["workers"] < 1:
        failures.append(f"pool workers {pool['workers']} must be >= 1")
    wall = pool["worker_wall_seconds"]
    accounted = (pool["busy_seconds"] + pool["idle_seconds"] +
                 pool["queue_wait_seconds"])
    if abs(accounted - wall) > max(0.01 * wall, 0.01):
        failures.append(f"pool accounting gap: busy+idle+queue_wait "
                        f"{accounted:.6f}s vs worker_wall {wall:.6f}s "
                        "(must agree within 1% or 10ms)")
    if not 0.0 <= pool["utilization"] <= 1.0 + 1e-9:
        failures.append(f"pool utilization {pool['utilization']} outside "
                        "[0, 1]")
    for region in pool["regions"]:
        for field in ("name", "runs", "chunks", "min_chunk_seconds",
                      "max_chunk_seconds", "mean_chunk_seconds",
                      "utilization"):
            if field not in region:
                failures.append(f"pool region missing '{field}': {region}")
                break
        else:
            name = region["name"]
            if region["chunks"] <= 0 or region["runs"] <= 0:
                failures.append(f"pool region {name}: runs/chunks must be "
                                "positive")
            lo, mean, hi = (region["min_chunk_seconds"],
                            region["mean_chunk_seconds"],
                            region["max_chunk_seconds"])
            if not 0.0 <= lo <= mean + 1e-12 or not mean <= hi + 1e-12:
                failures.append(f"pool region {name}: chunk stats not "
                                f"ordered (min={lo} mean={mean} max={hi})")
            if not 0.0 <= region["utilization"] <= 1.0 + 1e-9:
                failures.append(f"pool region {name}: utilization "
                                f"{region['utilization']} outside [0, 1]")
    return failures


def run_cli(cli_path, out_dir, telemetry_hz=0.0):
    """Runs a tiny traced experiment; returns its artifact paths.

    With telemetry_hz > 0 the run also starts the background telemetry
    sampler and uses 4 threads so the pool-occupancy series and the
    report's pool section have something to observe.
    """
    trace_path = os.path.join(out_dir, "smoke.trace.json")
    metrics_path = os.path.join(out_dir, "smoke.metrics.csv")
    report_path = os.path.join(out_dir, "smoke.report.json")
    cache_dir = os.path.join(out_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    command = [
        cli_path, "run", "--dataset=Abt-Buy", "--approach=linear-margin",
        "--scale=0.25", "--max-labels=60", "--quiet",
        f"--cache-dir={cache_dir}",  # Cold miss: exercises the cache checks.
        f"--trace={trace_path}", f"--metrics={metrics_path}",
        f"--report={report_path}"
    ]
    if telemetry_hz > 0:
        command += [f"--telemetry-hz={telemetry_hz}", "--threads=4"]
    print("+", " ".join(command))
    subprocess.run(command, check=True)
    return trace_path, metrics_path, report_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="Chrome trace JSON file")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the self-time summary")
    parser.add_argument("--metrics", help="metrics CSV to read")
    parser.add_argument("--report", help="RunReport JSON to validate")
    parser.add_argument("--check", action="store_true",
                        help="validate instead of summarize; nonzero exit "
                             "on violations")
    parser.add_argument("--run-cli", metavar="ALEM_CLI",
                        help="run a tiny traced experiment through this "
                             "alem_cli binary first")
    parser.add_argument("--telemetry", type=float, default=0.0,
                        metavar="HZ",
                        help="with --run-cli: sample telemetry at HZ and "
                             "use 4 threads")
    parser.add_argument("--expect-telemetry", action="store_true",
                        help="with --check: fail unless the trace contains "
                             "telemetry counter events")
    args = parser.parse_args()

    if args.run_cli:
        with tempfile.TemporaryDirectory(prefix="alem_trace_") as out_dir:
            trace_path, metrics_path, report_path = run_cli(
                args.run_cli, out_dir, telemetry_hz=args.telemetry)
            return finish(args, trace_path, metrics_path, report_path)
    if not args.trace and not (args.check and args.report):
        parser.error("a trace file (or --run-cli, or --check --report) is "
                     "required")
    return finish(args, args.trace, args.metrics, args.report)


def finish(args, trace_path, metrics_path, report_path):
    if args.check:
        failures = []
        checked = []
        if trace_path:
            failures.extend(check(trace_path, metrics_path))
            failures.extend(check_telemetry(trace_path,
                                            args.expect_telemetry))
            checked.extend([trace_path, metrics_path])
        if report_path:
            failures.extend(check_report(report_path))
            checked.append(report_path)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("artifacts OK (" + ", ".join(str(p) for p in checked) + ")")
        return 0
    print_summary(load_trace(trace_path), args.top)
    if metrics_path:
        with open(metrics_path, "r", encoding="utf-8") as f:
            print()
            print(f.read(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
