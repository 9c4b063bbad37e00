#!/usr/bin/env bash
# Same-host throughput gate: checks the working tree against a base
# revision on perfbench's end-to-end workloads.
#
#   bash ci/perf-gate.sh <base-rev> [workload ...]
#
# Builds <base-rev> in a temporary git worktree with its own
# CARGO_TARGET_DIR, then runs `bash perfbench/run.sh --workload W
# --seed 1 --seconds 5 --trace 0` three times on the base and three
# times on the working tree, alternating the two so host drift hits both
# alike. Workloads default to kernel-lu1m and serve-mix.
#
# Exits 1 if any run is not `"correct": true` with `"failed": 0`, if
# the working tree's median `tasks_per_s` falls below the base's median
# by more than the `tasks_per_s` bound in BENCHMARK.json, or, on
# kernel-lu1m only, if its median `peak_rss_mb` exceeds the base's by
# more than the `peak_rss_mb` bound; 2 on a usage or setup error; 0
# otherwise. Needs git and jq. (The serve-* workloads' `peak_rss_mb`
# is not gated: single runs of it have read 25 % above their pair.)
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: bash ci/perf-gate.sh <base-rev> [workload ...]" >&2
  exit 2
fi
base_rev=$1
shift
workloads=("$@")
[[ ${#workloads[@]} -gt 0 ]] || workloads=(kernel-lu1m serve-mix)
pairs=3

root=$(git rev-parse --show-toplevel)
cd "$root"
bound=$(jq -er '.end_to_end[] | select(.name == "tasks_per_s") | .bound' BENCHMARK.json)
rss_bound=$(jq -er '.end_to_end[] | select(.name == "peak_rss_mb") | .bound' BENCHMARK.json)

work=$(mktemp -d)
base_dir=$work/base
# Building perfbench may rewrite its lock file; leave the tree as found.
cp perfbench/Cargo.lock "$work/perfbench.lock"
cleanup() {
  cp "$work/perfbench.lock" perfbench/Cargo.lock
  git worktree remove --force "$base_dir" >/dev/null 2>&1 || true
  git worktree prune
  rm -rf "$work"
}
trap cleanup EXIT

if ! git worktree add --quiet --detach "$base_dir" "$base_rev"; then
  echo "perf-gate: cannot check out $base_rev" >&2
  exit 2
fi
if [[ ! -f $base_dir/perfbench/run.sh ]]; then
  echo "perf-gate: $base_rev has no perfbench/run.sh" >&2
  exit 2
fi
echo "perf-gate: base $(git rev-parse --short "$base_rev"), head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + local changes'), tasks_per_s bound $bound, kernel-lu1m peak_rss_mb bound $rss_bound"

# run <side> <workload>: prints the run's tasks_per_s and peak_rss_mb,
# or fails the gate.
run() {
  local side=$1 workload=$2 dir target result
  if [[ $side == base ]]; then
    dir=$base_dir target=$work/target
  else
    dir=$root target=$root/.bench_build
  fi
  result=$(cd "$dir" && CARGO_TARGET_DIR=$target bash perfbench/run.sh \
    --workload "$workload" --seed 1 --seconds 5 --trace 0 | tail -n 1) || true
  if ! jq -e '.correct == true and .failed == 0' <<<"$result" >/dev/null 2>&1; then
    echo "perf-gate: FAILED: $workload on $side is not correct with 0 failed: $result" >&2
    exit 1
  fi
  jq -r '"\(.metrics.tasks_per_s.value) \(.metrics.peak_rss_mb.value)"' <<<"$result"
}

# median <odd number of values>
median() {
  printf '%s\n' "$@" | sort -g | sed -n "$((($# + 1) / 2))p"
}

status=0
for workload in "${workloads[@]}"; do
  base=() head=() base_rss=() head_rss=()
  for ((i = 1; i <= pairs; i++)); do
    # Alternate which side runs first in each pair.
    if ((i % 2)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
      # An assignment, so that `set -e` ends the gate when `run` fails.
      out=$(run "$side" "$workload")
      read -r tps rss <<<"$out"
      echo "  $workload pair $i $side: tasks_per_s $tps peak_rss_mb $rss"
      if [[ $side == base ]]; then
        base+=("$tps") base_rss+=("$rss")
      else
        head+=("$tps") head_rss+=("$rss")
      fi
    done
  done
  base_med=$(median "${base[@]}")
  head_med=$(median "${head[@]}")
  verdict=$(awk -v b="$base_med" -v h="$head_med" -v bound="$bound" 'BEGIN {
    change = (h / b - 1) * 100
    if (h < b * (1 - bound)) { printf "REGRESSION %+.1f%% (bound -%.0f%%)", change, bound * 100; exit 1 }
    printf "ok %+.1f%% (bound -%.0f%%)", change, bound * 100
  }') || status=1
  echo "perf-gate: $workload median tasks_per_s head $head_med vs base $base_med: $verdict"
  if [[ $workload == kernel-lu1m ]]; then
    base_med=$(median "${base_rss[@]}")
    head_med=$(median "${head_rss[@]}")
    verdict=$(awk -v b="$base_med" -v h="$head_med" -v bound="$rss_bound" 'BEGIN {
      change = (h / b - 1) * 100
      if (h > b * (1 + bound)) { printf "REGRESSION %+.1f%% (bound +%.0f%%)", change, bound * 100; exit 1 }
      printf "ok %+.1f%% (bound +%.0f%%)", change, bound * 100
    }') || status=1
    echo "perf-gate: $workload median peak_rss_mb head $head_med vs base $base_med: $verdict"
  fi
done
exit "$status"
