#!/usr/bin/env bash
# Fixed-seed tenant-chaos campaign (the acceptance run of EXPERIMENTS.md
# X14): floods from a quota-limited tenant, quota edges, breaker flaps
# and priority inversions against a quota'd daemon over a Unix socket.
# The machine-checked isolation invariant (flooded probe p99 within 3x
# the baseline, zero probe requests shed) is part of the harness; the
# grep pins it.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/overload-smoke.sh
#
# Runs from the repository root against target/release/flb, listening on
# unix:/tmp/flb-overload.sock. Leaves serve.log, chaos.out and stats.out
# in the working directory. Exits non-zero on the first failed check.
set -euo pipefail

FLB=target/release/flb
SOCK=unix:/tmp/flb-overload.sock
"$FLB" serve --listen "$SOCK" --workers 2 --chaos-markers \
  --tenant-quota 200:50 --shed-policy graduated \
  --breaker-threshold 3 --breaker-cooldown-ms 300 \
  > serve.log 2>&1 &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "$FLB" submit --listen "$SOCK" --ping >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$FLB" chaos --listen "$SOCK" --seed 42 --scenarios 200 \
  --inject-panics --expect-workers 2 --tenant-chaos \
  --flood-threads 4 --flood-ms 2000 --probe-requests 30 | tee chaos.out
grep -q 'failures        0' chaos.out
grep -q 'tenant floods   2' chaos.out
grep -q 'breaker flaps   2' chaos.out
# The isolation invariant: a flooded probe tenant was never shed.
grep -q 'probe shed      0' chaos.out
# Overload accounting is visible in the daemon's own stats.
"$FLB" submit --listen "$SOCK" --stats | tee stats.out
grep -q 'overload state' stats.out
grep -q 'tenants tracked' stats.out
# Post-chaos, over-quota shedding still works end to end: the
# daemon serves a correct schedule for a well-behaved tenant.
"$FLB" submit --listen "$SOCK" \
  --family lu --tasks 200 --alg flb --procs 4 --check
"$FLB" submit --listen "$SOCK" --shutdown
wait "$SERVE_PID"
grep -q 'service stopped' serve.log
