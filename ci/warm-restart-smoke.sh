#!/usr/bin/env bash
# Crash-safe warm restart through the shipped binary: populate the cache
# with interval snapshotting on, kill the daemon with SIGTERM
# (uncatchable for the pure-std binary — the on-disk snapshot is all
# that survives), restart from the snapshot, and verify the replayed
# workload is served from cache.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/warm-restart-smoke.sh
#
# Runs from the repository root against target/release/flb, listening on
# 127.0.0.1:7272, with the snapshot in a fresh `mktemp -d` directory
# (removed on exit). Leaves serve1.log, serve2.log, replay.out and
# stats.out in the working directory. Exits non-zero on the first failed
# check.
set -euo pipefail

FLB=target/release/flb
ADDR=127.0.0.1:7272
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
SNAP=$work/flb-cache.snap
"$FLB" serve --listen "$ADDR" --workers 2 \
  --cache-file "$SNAP" --snapshot-interval-ms 50 > serve1.log &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "$FLB" submit --listen "$ADDR" --ping >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$FLB" submit --listen "$ADDR" --family lu --tasks 200 --alg flb --procs 4
"$FLB" submit --listen "$ADDR" --family laplace --tasks 100 --alg etf --procs 4
sleep 0.5   # let an interval snapshot land
test -s "$SNAP"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
# Generation B: boot from the snapshot and replay the workload.
"$FLB" serve --listen "$ADDR" --workers 2 \
  --cache-file "$SNAP" > serve2.log &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "$FLB" submit --listen "$ADDR" --ping >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$FLB" submit --listen "$ADDR" \
  --family lu --tasks 200 --alg flb --procs 4 | tee replay.out
grep -q 'cached: true' replay.out
"$FLB" submit --listen "$ADDR" --stats | tee stats.out
grep -q 'snapshot loaded 2' stats.out
grep -q 'cache hits      1' stats.out
"$FLB" submit --listen "$ADDR" --shutdown
wait "$SERVE_PID"
