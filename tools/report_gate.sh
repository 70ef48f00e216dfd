#!/bin/sh
# End-to-end regression gate over RunReport flight-recorder artifacts.
# Registered as the `report`-labeled ctest (tests/CMakeLists.txt); also
# runnable by hand after a build:
#   tools/report_gate.sh [BUILD_DIR]   (default: build)
#
# Gates, in order:
#   1. Determinism: the CLI's learning curve must be bitwise identical at
#      --threads=1 (cold, fresh feature-cache dir) and --threads=4 with
#      the cache disabled (alem_report check --exact-curve) — one check
#      covering both thread-count and cache-vs-recompute invariance.
#   2. Cache warmth: rerunning the same workload against the now-warm
#      cache must produce a bitwise-identical curve, report
#      config.cache="hit", count exactly one featurize.cache.hit, and
#      carry the cold run's blocking.candidate_pairs (a hit loads the
#      pairs instead of blocking).
#   3. Exact replay: fresh runs of all six 60-label golden workloads
#      (linear-margin, trees5, linear-qbc4, rules, supervised-trees5,
#      nn-qbc2) must
#      replay their committed baselines with the curve bitwise and every
#      counter exact (--exact-curve --counter-tol=0, including
#      featurize.cache.*).
#   4. Sensitivity: a baseline whose F1 is perturbed beyond tolerance
#      must make the check FAIL (guards against a gate that passes
#      everything).
#   5. Bench path: a tiny bench run with ALEM_REPORT_DIR set must emit a
#      valid bench report, and `alem_report aggregate` must roll it into a
#      BENCH_alembench.json.
#   6. Tail latency: a 4-thread telemetry run must produce a trace with
#      sampler counter events, a valid pool section satisfying the
#      busy+idle+queue-wait ≈ worker-wall invariant, per-region
#      latency counts identical to the serial run for every region
#      present in both (deterministic structure), p95s within a generous
#      tolerance — and a perturbed-latency baseline must make
#      `check --latency-p95-tol=0` FAIL.
#   7. Kernel backends: scalar-forced reruns of all six 60-label golden
#      workloads must replay their committed baselines with the curve
#      bitwise and every counter exact (stage 3 already replayed them on
#      the best available backend), and each additional backend reported
#      by `alem_cli kernels` must reproduce the scalar linear-margin curve
#      bitwise (--exact-curve --counter-tol=0) while stamping its name
#      into config.kernel_backend — the end-to-end counterpart of the
#      kernels-labeled ctest matrix (docs/kernels.md).
#   8. Resumable sessions: the golden linear-margin workload saved after
#      2 iterations (`alem_cli session save`) and resumed in a fresh
#      4-thread process must produce a stitched report that replays the
#      committed uninterrupted baseline with the curve exact and every
#      counter exact (--exact-curve --counter-tol=0), stamped
#      config.session="resumed" / session_resumes=1 (docs/sessions.md).
#      A second resume of the same snapshot against the cache directory
#      its save filled must replay the baseline the same way, with a
#      prepare that was a hit: a cache span and no generation or blocking
#      span.
#   9. Warm starts (docs/training.md): a --warm-start=on run must stay
#      within the F1 tolerance of a cold run with warm/cold fit counters
#      consistent and config.warm_start stamped; and the warm run paused
#      after 2 iterations and resumed in a fresh process must replay the
#      uninterrupted warm run bitwise (warm refits are restartable).
#  10. Active ensemble (Section 5.2): cold runs of the golden
#      linear-margin-ensemble workload (100 labels, two accepted members)
#      on every available kernel backend must replay its committed
#      baseline with the curve exact and every counter exact.
#  11. Ensemble sessions: the same workload saved after 4 iterations
#      (one member accepted) and resumed in a fresh 4-thread process must
#      replay that baseline exactly (docs/sessions.md).
#
# Every alem_report command validates the reports it loads (schema and
# invariants, src/obs/report.cc); `alem_report show R > /dev/null` checks a
# report no other command here loads.
set -eu

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Accept the build directory as absolute (ctest passes one) or relative
# to the repo root.
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac
cli="$build_dir/tools/alem_cli"
report_tool="$build_dir/tools/alem_report"
baseline_dir="$repo_root/bench/baselines"
work="$(mktemp -d "${TMPDIR:-/tmp}/alem_report_gate.XXXXXX")"
trap 'rm -rf "$work"' EXIT

for f in "$cli" "$report_tool" \
    "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$baseline_dir/cli_abtbuy_trees5.report.json" \
    "$baseline_dir/cli_abtbuy_linear_qbc4.report.json" \
    "$baseline_dir/cli_abtbuy_rules.report.json" \
    "$baseline_dir/cli_abtbuy_supervised_trees5.report.json" \
    "$baseline_dir/cli_abtbuy_nn_qbc2.report.json" \
    "$baseline_dir/cli_abtbuy_linear_margin_ensemble.report.json"; do
  if [ ! -e "$f" ]; then
    echo "error: missing $f" >&2
    exit 1
  fi
done

# The six 60-label golden workloads, one baseline each.
golden="linear-margin trees5 linear-qbc4 rules supervised-trees5 nn-qbc2"

# The golden workload: Abt-Buy at scale 0.25, 60 labels. $1 = approach,
# $2 = threads, $3 = output report, $4... = extra flags (cache policy).
run_cli() {
  approach="$1"; threads="$2"; out="$3"; shift 3
  "$cli" run --dataset=Abt-Buy --approach="$approach" --scale=0.25 \
      --max-labels=60 --threads="$threads" --quiet --report="$out" \
      "$@" > /dev/null
}

echo "[1/11] determinism: cold cached t1 curve == uncached t4 curve"
mkdir -p "$work/cache"
run_cli linear-margin 1 "$work/t1.report.json" --cache-dir="$work/cache"
run_cli linear-margin 4 "$work/t4.report.json" --no-cache
"$report_tool" check "$work/t1.report.json" "$work/t4.report.json" \
    --exact-curve

echo "[2/11] cache warmth: warm rerun identical, provenance says hit"
run_cli linear-margin 1 "$work/warm.report.json" --cache-dir="$work/cache"
"$report_tool" check "$work/t1.report.json" "$work/warm.report.json" \
    --exact-curve
python3 - "$work/t1.report.json" "$work/warm.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cold = json.load(f)
with open(sys.argv[2]) as f:
    warm = json.load(f)
assert cold["config"]["cache"] == "miss", cold["config"]["cache"]
assert warm["config"]["cache"] == "hit", warm["config"]["cache"]
assert cold["counters"].get("featurize.cache.miss") == 1, cold["counters"]
assert cold["counters"].get("featurize.cache.write") == 1, cold["counters"]
assert warm["counters"].get("featurize.cache.hit") == 1, warm["counters"]
assert warm["counters"].get("featurize.cache.miss", 0) == 0, warm["counters"]
assert (warm["counters"].get("blocking.candidate_pairs")
        == cold["counters"].get("blocking.candidate_pairs")), (
    warm["counters"], cold["counters"])
EOF

echo "[3/11] exact replay: six golden workloads, curve and counters exact"
for approach in $golden; do
  name="$(printf '%s' "$approach" | tr '-' '_')"
  candidate="$work/cand_$name.report.json"
  if [ "$approach" = "linear-margin" ]; then
    candidate="$work/t1.report.json"  # Already produced cold above.
  else
    mkdir -p "$work/cache_$name"
    run_cli "$approach" 1 "$candidate" --cache-dir="$work/cache_$name"
  fi
  "$report_tool" check \
      "$baseline_dir/cli_abtbuy_$name.report.json" "$candidate" \
      --exact-curve --counter-tol=0
done

echo "[4/11] sensitivity: perturbed baseline must fail the check"
python3 - "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
# Inflate the baseline far beyond the F1 tolerance so the fresh run
# appears to be a large regression.
report["summary"]["final_f1"] = min(1.0, report["summary"]["final_f1"] + 0.2)
report["summary"]["best_f1"] = min(1.0, report["summary"]["best_f1"] + 0.2)
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$report_tool" check "$work/perturbed.json" "$work/t1.report.json" \
    2> /dev/null; then
  echo "FAIL: check passed against a perturbed baseline" >&2
  exit 1
fi
echo "perturbed baseline rejected as expected"

echo "[5/11] bench path: ALEM_REPORT_DIR export + aggregation"
mkdir -p "$work/reports"
ALEM_REPORT_DIR="$work/reports" ALEM_SCALE=0.2 ALEM_MAX_LABELS=40 \
    ALEM_THREADS=2 "$build_dir/bench/bench_fig10d_blocking_time" \
    > /dev/null
for report in "$work/reports"/*.report.json; do
  "$report_tool" show "$report" > /dev/null
done
(cd "$work" && "$report_tool" aggregate reports --out=BENCH_gate.json)
python3 - "$work/BENCH_gate.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    agg = json.load(f)
assert agg["kind"] == "aggregate", agg.get("kind")
assert len(agg["reports"]) >= 1, "aggregate rolled up no reports"
EOF

echo "[6/11] tail latency: telemetry run, pool invariant, p95 determinism"
run_cli linear-margin 4 "$work/lat4.report.json" --no-cache \
    --telemetry-hz=50 --trace="$work/lat4.trace.json" \
    --metrics="$work/lat4.metrics.csv"
python3 "$repo_root/tools/trace_summary.py" --check "$work/lat4.trace.json" \
    --metrics "$work/lat4.metrics.csv" --expect-telemetry
"$report_tool" show "$work/lat4.report.json" > /dev/null
# Latency structure is deterministic: every region recorded in both the
# serial and the 4-thread report must observe the same number of events
# (pool-only regions like parallel.chunk are legitimately t4-only).
python3 - "$work/t1.report.json" "$work/lat4.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    t1 = {e["name"]: e for e in json.load(f).get("latency", [])}
with open(sys.argv[2]) as f:
    t4 = {e["name"]: e for e in json.load(f).get("latency", [])}
assert t1 and t4, "latency sections missing from the gate reports"
common = sorted(set(t1) & set(t4))
assert common, "no latency regions shared between t1 and t4 reports"
for name in common:
    assert t1[name]["count"] == t4[name]["count"], (
        f"{name}: {t1[name]['count']} observations at t1 vs "
        f"{t4[name]['count']} at t4")
EOF
# Generous p95 gate between the two thread counts: catches order-of-
# magnitude tail regressions without flaking on scheduler noise.
"$report_tool" check "$work/t1.report.json" "$work/lat4.report.json" \
    --f1-tol=1 --latency-p95-tol=20
# Sensitivity: shrink every baseline p95 to ~zero; a zero-tolerance
# latency gate must then reject the candidate.
python3 - "$work/t1.report.json" "$work/lat_perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report.get("latency"), "t1 report carries no latency section"
for entry in report["latency"]:
    entry["p95_seconds"] *= 1e-9
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$report_tool" check "$work/lat_perturbed.json" "$work/lat4.report.json" \
    --f1-tol=1 --latency-p95-tol=0 2> /dev/null; then
  echo "FAIL: latency gate passed against a perturbed baseline" >&2
  exit 1
fi
echo "perturbed latency baseline rejected as expected"

echo "[7/11] kernel backends: scalar golden replay, per-backend equivalence"
# Scalar-forced cold runs must replay all six committed 60-label
# baselines bitwise, every counter exact — pins the scalar reference path
# end to end.
for approach in $golden; do
  name="$(printf '%s' "$approach" | tr '-' '_')"
  mkdir -p "$work/cache_scalar_$name"
  run_cli "$approach" 1 "$work/scalar_$name.report.json" \
      --cache-dir="$work/cache_scalar_$name" --kernel-backend=scalar
  "$report_tool" check \
      "$baseline_dir/cli_abtbuy_$name.report.json" \
      "$work/scalar_$name.report.json" --exact-curve --counter-tol=0
done
# Every additional backend this host offers must reproduce the scalar
# linear-margin curve bitwise and stamp itself into config.kernel_backend.
backends="$("$cli" kernels | sed -n 's/^available: //p')"
for backend in $backends; do
  [ "$backend" = "scalar" ] && continue
  mkdir -p "$work/cache_kb_$backend"
  run_cli linear-margin 1 "$work/kb_$backend.report.json" \
      --cache-dir="$work/cache_kb_$backend" --kernel-backend="$backend"
  "$report_tool" check \
      "$work/scalar_linear_margin.report.json" \
      "$work/kb_$backend.report.json" --exact-curve --counter-tol=0
  python3 - "$work/kb_$backend.report.json" "$backend" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
stamped = report["config"].get("kernel_backend")
assert stamped == sys.argv[2], (
    f"config.kernel_backend is {stamped!r}, expected {sys.argv[2]!r}")
EOF
done
python3 - "$work/scalar_linear_margin.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
stamped = report["config"].get("kernel_backend")
assert stamped == "scalar", (
    f"config.kernel_backend is {stamped!r}, expected 'scalar'")
EOF

echo "[8/11] resumable sessions: half-run save, fresh-process resume, stitch"
# Pause the golden linear-margin workload after 2 iterations (cold cache,
# matching the baseline's featurize.cache.* counters), resume it in a NEW
# process at 4 threads with the cache disabled, and require the stitched
# report to replay the committed uninterrupted baseline bitwise — curve
# exact, every counter exact (docs/sessions.md). The resume process's own
# prepare-phase counters are discarded in favor of the snapshot's, so its
# cache policy is free.
mkdir -p "$work/cache_session"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin \
    --scale=0.25 --max-labels=60 --threads=1 \
    --cache-dir="$work/cache_session" \
    --snapshot="$work/gate.alss" --stop-after=2 > /dev/null
"$cli" session resume --snapshot="$work/gate.alss" --threads=4 --no-cache \
    --quiet --report="$work/resumed.report.json" > /dev/null
"$report_tool" check \
    "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/resumed.report.json" --exact-curve --counter-tol=0
python3 - "$work/resumed.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
config = report["config"]
assert config.get("session") == "resumed", config.get("session")
assert config.get("session_resumes") == 1, config.get("session_resumes")
EOF
"$cli" session resume --snapshot="$work/gate.alss" --threads=4 \
    --cache-dir="$work/cache_session" --quiet \
    --report="$work/resumed_warm.report.json" > /dev/null
"$report_tool" check \
    "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/resumed_warm.report.json" --exact-curve --counter-tol=0
python3 - "$work/resumed_warm.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
spans = {span["name"] for span in report.get("spans", [])}
assert "harness.featurize.cache" in spans, sorted(spans)
for skipped in ("harness.generate", "harness.block", "blocking.jaccard"):
    assert skipped not in spans, f"{skipped} ran in a cache-hit resume"
EOF
echo "resumed run replays the golden baseline exactly, warm and cold"

echo "[9/11] warm starts: warm gated, warm resume"
# on = warm refits: the curve is gated against a cold run by F1 tolerance,
# not bitwise. The comparison runs at 150 labels against a freshly
# generated cold reference rather than the committed 60-label baseline:
# at 60 labels the cold curve's own run-seed spread is ~0.1 F1 (last-
# iterate Pegasos noise on tiny label sets), so a tolerance able to pass
# there would gate nothing. At 150 labels both paths converge and the
# warm-vs-cold gap is within 0.05 (docs/training.md).
"$cli" run --dataset=Abt-Buy --approach=linear-margin --scale=0.25 \
    --max-labels=150 --threads=1 --quiet --no-cache --warm-start=off \
    --report="$work/warm_cold_ref.report.json" > /dev/null
"$cli" run --dataset=Abt-Buy --approach=linear-margin --scale=0.25 \
    --max-labels=150 --threads=1 --quiet --no-cache --warm-start=on \
    --report="$work/warm_on150.report.json" > /dev/null
"$report_tool" check \
    "$work/warm_cold_ref.report.json" "$work/warm_on150.report.json" \
    --f1-tol=0.05
# The 60-label warm run feeds the counter-identity asserts and the
# save/resume replay below.
mkdir -p "$work/cache_warm_on"
run_cli linear-margin 1 "$work/warm_on.report.json" \
    --cache-dir="$work/cache_warm_on" --warm-start=on
python3 - "$work/warm_on.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    on = json.load(f)
assert on["config"].get("warm_start") == "on", on["config"]
c = on["counters"]
fits = c.get("ml.fit_calls", 0)
warm = c.get("ml.warm_fits", 0)
cold = c.get("ml.cold_fits", 0)
assert fits > 0 and warm + cold == fits, (
    f"warm {warm} + cold {cold} != fit_calls {fits}")
# Warm mode must actually take the warm path after the first (cold) fit.
assert warm == fits - 1, c
EOF
# Warm save/resume: pause the warm run after 2 iterations and resume in a
# fresh process — the stitched report must replay the uninterrupted warm
# run bitwise (curve exact, every counter exact).
mkdir -p "$work/cache_warm_session"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin \
    --scale=0.25 --max-labels=60 --threads=1 --warm-start=on \
    --cache-dir="$work/cache_warm_session" \
    --snapshot="$work/warm_gate.alss" --stop-after=2 > /dev/null
"$cli" session resume --snapshot="$work/warm_gate.alss" --threads=4 \
    --no-cache --quiet --report="$work/warm_resumed.report.json" > /dev/null
"$report_tool" check \
    "$work/warm_on.report.json" "$work/warm_resumed.report.json" \
    --exact-curve --counter-tol=0
python3 - "$work/warm_resumed.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
config = report["config"]
assert config.get("session") == "resumed", config.get("session")
assert config.get("warm_start") == "on", config.get("warm_start")
EOF
echo "warm resume replays the uninterrupted warm run exactly"

ensemble_baseline="$baseline_dir/cli_abtbuy_linear_margin_ensemble.report.json"
echo "[10/11] active ensemble: golden replay on every kernel backend"
for backend in $backends; do
  mkdir -p "$work/cache_ens_$backend"
  "$cli" run --dataset=Abt-Buy --approach=linear-margin-ensemble \
      --scale=0.25 --max-labels=100 --threads=1 --quiet \
      --kernel-backend="$backend" --cache-dir="$work/cache_ens_$backend" \
      --report="$work/ens_$backend.report.json" > /dev/null
  "$report_tool" check "$ensemble_baseline" \
      "$work/ens_$backend.report.json" --exact-curve --counter-tol=0
done

echo "[11/11] ensemble sessions: save after an acceptance, 4-thread resume"
mkdir -p "$work/cache_ens_session"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin-ensemble \
    --scale=0.25 --max-labels=100 --threads=1 \
    --cache-dir="$work/cache_ens_session" \
    --snapshot="$work/ens_gate.alss" --stop-after=4 > /dev/null
"$cli" session resume --snapshot="$work/ens_gate.alss" --threads=4 \
    --no-cache --quiet --report="$work/ens_resumed.report.json" > /dev/null
"$report_tool" check "$ensemble_baseline" "$work/ens_resumed.report.json" \
    --exact-curve --counter-tol=0
"$report_tool" show "$work/ens_scalar.report.json" > /dev/null
echo "resumed ensemble replays the golden baseline exactly"

echo "report gate OK"
