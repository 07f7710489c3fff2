#!/usr/bin/env bash
# Frontier-kernel performance ratchet: fails when a fresh 16384x64 run
# regresses past 1.3x the best after_min_ms recorded for that case in
# BENCH_scale.json (cases and history entries both count), or when the
# 65k run exceeds its 30 s wall-clock ceiling.
#
#   scripts/bench_ratchet.sh           # 16k min-of-3 regression gate + 65k smoke
#   scripts/bench_ratchet.sh --smoke   # 65k smoke only (fast CI lane)
#
# The recorded numbers live in BENCH_scale.json; regenerate with
#   cargo run -p bench --release --bin scale_ab
# and append a commit-stamped round without a full rewrite with
#   scripts/perf_append.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mode="--check"
if [[ "${1:-}" == "--smoke" ]]; then
    mode="--smoke"
fi

cargo build --release -p bench
exec cargo run -p bench --release --bin scale_ab -- "$mode"
