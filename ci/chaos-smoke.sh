#!/usr/bin/env bash
# Fixed-seed chaos campaign against the shipped binary over a Unix
# socket: torn frames, partial writes, disconnects, corruption, floods,
# deadline storms, oversize frames, injected panics and hard worker
# kills. The daemon must keep serving probes, finish with a full worker
# pool and consistent counters, and still serve a correct schedule.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/chaos-smoke.sh
#
# Runs from the repository root against target/release/flb, listening on
# unix:/tmp/flb-chaos.sock. Leaves serve.log and chaos.out in the working
# directory. Exits non-zero on the first failed check.
set -euo pipefail

FLB=target/release/flb
SOCK=unix:/tmp/flb-chaos.sock
"$FLB" serve --listen "$SOCK" --workers 3 --chaos-markers \
  --read-timeout-ms 500 --write-timeout-ms 500 \
  --frame-deadline-ms 1000 > serve.log 2>&1 &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "$FLB" submit --listen "$SOCK" --ping >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$FLB" chaos --listen "$SOCK" --seed 42 --scenarios 500 \
  --inject-panics --expect-workers 3 | tee chaos.out
grep -q 'failures        0' chaos.out
# Post-chaos, the pool still serves correct schedules.
"$FLB" submit --listen "$SOCK" \
  --family lu --tasks 200 --alg flb --procs 4 --check
"$FLB" submit --listen "$SOCK" --shutdown
wait "$SERVE_PID"
grep -q 'service stopped' serve.log
