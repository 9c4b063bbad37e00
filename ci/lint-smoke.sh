#!/usr/bin/env bash
# Project-invariant static analysis (flb-analyze) over the whole
# workspace: any finding without a reasoned inline waiver fails, and
# the JSON output must carry the `flb-analyze/v1` schema tag.
#
#   cargo build --release --offline -p flb-cli
#   bash ci/lint-smoke.sh
#
# Runs from the repository root against target/release/flb. Leaves
# lint.json in the working directory. Exits non-zero on the first failed
# check.
set -euo pipefail

target/release/flb lint --format json --deny-unwaived | tee lint.json
grep -q 'flb-analyze/v1' lint.json
grep -q '"unwaived": 0' lint.json
