#!/usr/bin/env bash
# End-to-end daemon exercise through the shipped binary: start it,
# schedule a real graph against it, verify the resubmission is served
# from cache, and shut it down cleanly.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/service-smoke.sh
#
# Runs from the repository root against target/release/flb, listening on
# 127.0.0.1:7171. Leaves serve.log and the submit outputs (*.out) in the
# working directory. Exits non-zero on the first failed check.
set -euo pipefail

FLB=target/release/flb
"$FLB" serve --listen 127.0.0.1:7171 --workers 2 > serve.log &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "$FLB" submit --listen 127.0.0.1:7171 --ping >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$FLB" submit --listen 127.0.0.1:7171 --ping
# A small LU graph: --check asserts the served schedule is
# bit-identical to a local flb-core run and passes validation.
"$FLB" submit --listen 127.0.0.1:7171 \
  --family lu --tasks 200 --alg flb --procs 4 --check | tee first.out
grep -q 'cached: false' first.out
grep -q 'identical to local run' first.out
# Resubmitting the same request must be answered from the cache.
"$FLB" submit --listen 127.0.0.1:7171 \
  --family lu --tasks 200 --alg flb --procs 4 | tee second.out
grep -q 'cached: true' second.out
"$FLB" submit --listen 127.0.0.1:7171 --stats | tee stats.out
grep -q 'cache hits      1' stats.out
# FLB misses decode straight into the kernel's CSR form and run
# on flb-kernel; --check holds each reply to the flb-core oracle.
for family in lu laplace stencil fft; do
  for procs in 2 32; do
    "$FLB" submit --listen 127.0.0.1:7171 --family "$family" \
      --tasks 1000 --alg flb --procs "$procs" --check | tee flat.out
    grep -q 'identical to local run' flat.out
  done
done
# The baselines still decode to a TaskGraph.
"$FLB" submit --listen 127.0.0.1:7171 \
  --family lu --tasks 1000 --alg etf --procs 4 --check | tee etf.out
grep -q 'identical to local run' etf.out
"$FLB" submit --listen 127.0.0.1:7171 --shutdown
wait "$SERVE_PID"
grep -q 'service stopped' serve.log
