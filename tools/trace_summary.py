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
  trace_summary.py --run-cli PATH/TO/alem_cli --check
      Run a tiny synthetic experiment through alem_cli with --trace and
      --metrics, then validate both artifacts. Add --telemetry HZ to run
      it at 4 threads with --telemetry-hz=HZ (pair with --expect-telemetry
      to assert the sampler produced events).

RunReport JSON is validated by the C++ parser every alem_report command
runs (src/obs/report.cc); check one report with
`alem_report show RUN.report.json > /dev/null`.

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


def run_cli(cli_path, out_dir, telemetry_hz=0.0):
    """Runs a tiny traced experiment; returns its artifact paths.

    With telemetry_hz > 0 the run also starts the background telemetry
    sampler and uses 4 threads so the pool-occupancy series has something
    to observe.
    """
    trace_path = os.path.join(out_dir, "smoke.trace.json")
    metrics_path = os.path.join(out_dir, "smoke.metrics.csv")
    command = [
        cli_path, "run", "--dataset=Abt-Buy", "--approach=linear-margin",
        "--scale=0.25", "--max-labels=60", "--quiet", "--no-cache",
        f"--trace={trace_path}", f"--metrics={metrics_path}"
    ]
    if telemetry_hz > 0:
        command += [f"--telemetry-hz={telemetry_hz}", "--threads=4"]
    print("+", " ".join(command))
    subprocess.run(command, check=True)
    return trace_path, metrics_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="Chrome trace JSON file")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the self-time summary")
    parser.add_argument("--metrics", help="metrics CSV to read")
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
            trace_path, metrics_path = run_cli(args.run_cli, out_dir,
                                               telemetry_hz=args.telemetry)
            return finish(args, trace_path, metrics_path)
    if not args.trace:
        parser.error("a trace file (or --run-cli) is required")
    return finish(args, args.trace, args.metrics)


def finish(args, trace_path, metrics_path):
    if args.check:
        failures = check(trace_path, metrics_path)
        failures.extend(check_telemetry(trace_path, args.expect_telemetry))
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"artifacts OK ({trace_path}, {metrics_path})")
        return 0
    print_summary(load_trace(trace_path), args.top)
    if metrics_path:
        with open(metrics_path, "r", encoding="utf-8") as f:
            print()
            print(f.read(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
