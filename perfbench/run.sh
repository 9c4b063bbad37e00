#!/usr/bin/env bash
# Builds the `flb` daemon and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the result object.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
  echo "perfbench: run from the root of a full repository checkout" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p flb-cli --bin flb >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
out="$CARGO_TARGET_DIR/perfbench"
mkdir -p "$out"
exec "$CARGO_TARGET_DIR/release/perfbench" \
  --flb "$CARGO_TARGET_DIR/release/flb" --out-dir "$out" "$@"
