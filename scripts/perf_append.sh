#!/usr/bin/env bash
# Append a commit-stamped measurement round to BENCH_scale.json, the
# one live performance trail outside benchmark/.
#
#   scripts/perf_append.sh             # interleaved resort-vs-cached A/B (3 rounds/case) + 100k design point
#   scripts/perf_append.sh --rounds 5  # more rounds per case
#
# The scale_ab binary rewrites the per-case blocks with the fresh
# numbers but always carries the existing `history` array forward byte
# for byte and appends one `{commit, date, case, after_min_ms}` row per
# case of the round (1024x16, 16384x64, 65536x256, 100000x1000), stamped
# with `git describe --always --dirty`: commit first, then measure, or
# the rows say -dirty. Nothing gates on the file — rows from different
# sessions and hosts are a trail, not an A/B; the per-PR same-host
# check is BENCHMARK.json's.
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -p bench --release --bin scale_ab -- "$@"
