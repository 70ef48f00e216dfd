#!/bin/sh
# Regenerates the golden RunReport baselines that the `report` ctest label
# gates against (bench/baselines/cli_abtbuy_*.report.json): one per golden
# workload — linear-margin (margin selection), trees5 (forest + QBC),
# linear-qbc4 (bootstrap committee), rules (DNF rules + LFP/LFN; the run
# ends by selector exhaustion), supervised-trees5 (random batches, so no
# example is ever scored), nn-qbc2 (neural network + bootstrap QBC; the
# only golden workload that trains the NN, so it pins every SGD weight
# bit), and linear-margin-ensemble (the §5.2 active ensemble; 100 labels,
# so that it accepts two members and both the acceptance and the residue
# paths run).
#
# Run this after a change that *intentionally* moves a learning curve or a
# pipeline counter (new featurizer, different seeding, selector fixes) so
# the regression gate tracks the new expected behavior. Gratuitous
# refreshes defeat the gate — diff old vs new first:
#   build/tools/alem_report diff bench/baselines/... NEW.report.json
#
# Each baseline is produced against a fresh, empty feature-cache directory,
# so its featurize.cache.* counters record the canonical cold run
# (miss=1, write=1, hit=0); report_gate.sh replays the same cold setup and
# compares counters exactly.
#
# Baselines are generated with --kernel-backend=scalar so they pin the
# portable reference path regardless of the refreshing host's CPU; the
# SIMD backends are required to reproduce these curves bitwise anyway
# (docs/kernels.md), and report_gate.sh stage 7 enforces that. They are
# also pinned to --warm-start=off (cold refits + full rescores, immune to
# any ALEM_WARM_START in the refreshing environment): the baselines define
# the exact-replay contract, and warm-start runs are gated against
# them by report_gate.sh stage 9 (docs/training.md).
#
# Usage: tools/refresh_baseline.sh [BUILD_DIR]   (default: build)
set -eu

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac
cli="$build_dir/tools/alem_cli"
baseline_dir="$repo_root/bench/baselines"
work="$(mktemp -d "${TMPDIR:-/tmp}/alem_refresh.XXXXXX")"
trap 'rm -rf "$work"' EXIT

if [ ! -x "$cli" ]; then
  echo "error: $cli not built (cmake --build $build_dir first)" >&2
  exit 1
fi

mkdir -p "$baseline_dir"
# The exact workloads the report_gate test replays: small enough to run in
# seconds, deterministic at any thread count.
for approach in linear-margin trees5 linear-qbc4 rules supervised-trees5 \
    nn-qbc2 linear-margin-ensemble; do
  name="$(printf '%s' "$approach" | tr '-' '_')"
  baseline="$baseline_dir/cli_abtbuy_$name.report.json"
  labels=60
  [ "$approach" = "linear-margin-ensemble" ] && labels=100
  mkdir -p "$work/cache_$name"
  "$cli" run --dataset=Abt-Buy --approach="$approach" --scale=0.25 \
      --max-labels="$labels" --threads=1 --quiet --kernel-backend=scalar \
      --warm-start=off --cache-dir="$work/cache_$name" --report="$baseline"
  echo "baseline refreshed: $baseline"
done
echo "review with: $build_dir/tools/alem_report show <baseline>"
