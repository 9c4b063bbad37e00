#!/usr/bin/env bash
# Durable journaling and record/replay, end to end through the shipped
# binary (EXPERIMENTS.md X18), in three steps:
#
#   record-recover  record live traffic into the request journal, kill -9
#                   the daemon mid-flood, check that boot recovery heals
#                   the torn tail without refusing to start, and replay
#                   the recovered journal with reply-equivalence on;
#   pinned          regenerate the committed pinned trace from its seed,
#                   byte for byte, and replay it with zero mismatches;
#   stalled-journal a chaos round against a stalled journal: the journal
#                   sheds records, never client requests.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/replay-smoke.sh [record-recover|pinned|stalled-journal]...
#
# With no argument all three steps run, in that order. Runs from the
# repository root against target/release/flb: record-recover listens on
# 127.0.0.1:7373 and journals to /tmp/flb-journal, stalled-journal
# listens on unix:/tmp/flb-replay-chaos.sock and journals to
# /tmp/flb-stall. Leaves serve1.log, serve2.log, serve3.log, stats.out,
# replay-recovered.out, replay.out and chaos.out in the working
# directory. Exits non-zero on the first failed check.
set -euo pipefail

FLB=target/release/flb

record_recover() {
  local ADDR=127.0.0.1:7373
  local DIR=/tmp/flb-journal
  "$FLB" serve --listen "$ADDR" --workers 2 \
    --record "$DIR" --journal-sync always > serve1.log 2>&1 &
  SERVE_PID=$!
  for i in $(seq 1 100); do
    if "$FLB" submit --listen "$ADDR" --ping >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  # Committed traffic ahead of the crash (also journaled by the
  # daemon itself, independently of the client-side trace file).
  "$FLB" record --listen "$ADDR" --out /tmp/flb-live-trace \
    --requests 16 --seed 7
  test -s "$DIR"/journal-00000001.flbj
  # kill -9 in the middle of a fresh flood: whatever frame was
  # mid-append becomes the torn tail recovery must heal.
  ("$FLB" record --listen "$ADDR" --out /tmp/flb-live-2 \
    --requests 500 --seed 9 >/dev/null 2>&1 || true) &
  FLOOD_PID=$!
  sleep 0.3
  kill -9 "$SERVE_PID"
  wait "$FLOOD_PID" || true
  wait "$SERVE_PID" || true
  # Restart on the same journal dir: boot recovery, then keep serving.
  "$FLB" serve --listen "$ADDR" --workers 2 \
    --record "$DIR" --journal-sync always > serve2.log 2>&1 &
  SERVE_PID=$!
  for i in $(seq 1 100); do
    if "$FLB" submit --listen "$ADDR" --ping >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  "$FLB" stats --listen "$ADDR" | tee stats.out
  grep -q 'jrnl recovered' stats.out
  test "$(grep 'jrnl recovered' stats.out | awk '{print $3}')" -ge 16
  test "$(grep 'jrnl quarantine' stats.out | awk '{print $3}')" -eq 0
  "$FLB" submit --listen "$ADDR" --shutdown
  wait "$SERVE_PID" || true
  # The recovered journal replays with reply-equivalence on.
  "$FLB" replay --trace "$DIR" --spawn | tee replay-recovered.out
  grep -q 'mismatched  0' replay-recovered.out
  grep -q 'errors      0' replay-recovered.out
}

pinned() {
  "$FLB" record --offline --out /tmp/flb-pinned-regen \
    --seed 1999 --requests 64
  cmp tests/traces/pinned/journal-00000001.flbj \
    /tmp/flb-pinned-regen/journal-00000001.flbj
  "$FLB" replay --trace tests/traces/pinned --spawn | tee replay.out
  grep -q 'sent        64' replay.out
  grep -q 'mismatched  0' replay.out
}

stalled_journal() {
  local SOCK=unix:/tmp/flb-replay-chaos.sock
  "$FLB" serve --listen "$SOCK" --workers 2 \
    --record /tmp/flb-stall --journal-stall-ms 50 --journal-queue 8 \
    > serve3.log 2>&1 &
  SERVE_PID=$!
  for i in $(seq 1 100); do
    if "$FLB" submit --listen "$SOCK" --ping >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  "$FLB" chaos --listen "$SOCK" --seed 42 --scenarios 60 \
    --trace tests/traces/pinned --expect-journal-drops \
    --flood-ms 300 --probe-requests 8 | tee chaos.out
  grep -q 'failures        0' chaos.out
  # The scenario's own invariant: requests kept flowing while the
  # journal shed; the drop counter it read back was nonzero.
  test "$(grep 'journal dropped' chaos.out | awk '{print $3}')" -gt 0
  "$FLB" submit --listen "$SOCK" --shutdown
  wait "$SERVE_PID" || true
}

steps=("$@")
if [[ ${#steps[@]} -eq 0 ]]; then
  steps=(record-recover pinned stalled-journal)
fi
for step in "${steps[@]}"; do
  case "$step" in
    record-recover) record_recover ;;
    pinned) pinned ;;
    stalled-journal) stalled_journal ;;
    *)
      echo "replay-smoke: unknown step $step" >&2
      exit 2
      ;;
  esac
done
