#!/usr/bin/env bash
# The kernel's decisions in the release build: the optimised build
# compiles the kernel's branch-free heap code differently from the debug
# build the tier-1 tests run, so step it against the reference `FlbRun`
# here too, run the kernel's own tests (the list model tests and the
# allocation check) and the graph crate's (its packed cost columns are
# read as masked 8-byte loads, which the optimiser also compiles its own
# way) in release, and pin the million-task LU's counters, makespan,
# placement digest and graph size (ignored in the debug run).
#
#   bash ci/kernel-pins.sh
#
# Runs from the repository root. Exits non-zero on the first failure.
set -euo pipefail

cargo test -q --release --offline -p flb-core --test parity
cargo test -q --release --offline -p flb-core --test deep_parity
cargo test -q --release --offline -p flb-kernel
cargo test -q --release --offline -p flb-graph
cargo test -q --release --offline -p flb-workloads --test flat_kernel -- --ignored lu_flat_1m_counters_and_placements_are_pinned
