#!/usr/bin/env bash
# Append a commit-stamped measurement round to the BENCH_*.json
# performance trails.
#
#   scripts/perf_append.sh             # interleaved resort-vs-cached A/B (3 rounds/case) + 100k design point,
#                                      # then a mapper-kernel history round
#   scripts/perf_append.sh --rounds 5  # more rounds per case (both files)
#
# BENCH_scale.json: the scale_ab binary rewrites the per-case blocks
# with the fresh numbers but always carries the existing `history`
# array forward and appends one `{commit, date, case, after_min_ms}`
# entry per run, so the file accumulates a per-commit performance
# trail instead of erasing it. CI's regression gate
# (scripts/bench_ratchet.sh) ratchets against the best after_min_ms
# across that trail.
#
# BENCH_kernel.json: the one-time pre/post-refactor A/B in its `cases`
# blocks is not reproducible from a single checkout, so kernel_append
# never rewrites it — it re-times the four mapper_kernel workloads
# with the current code and splices one commit-stamped entry per case
# into the same kind of `history` array, leaving every other byte of
# the file untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench
cargo run -p bench --release --bin scale_ab -- "$@"
exec cargo run -p bench --release --bin kernel_append -- "$@"
