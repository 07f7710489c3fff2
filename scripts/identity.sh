#!/usr/bin/env bash
# Writes the stdout digest of one `lrh-grid run` per row to
# scripts/identity.txt (or to $1): SLRH-1/2/3, Max-Max, Greedy and
# DBC-Cost at 256 and 1 024 subtasks in Cases A, B and C, and each SLRH
# row three more times: under churn (`--lose`/`--join`), under a loss
# early enough to cascade through a large share of the schedule, and
# with online adaptation. Greedy and DBC-Cost share one list walk, so their rows pin
# it for both keys. The `tune` rows digest one `lrh-grid tune` per
# SLRH-1/SLRH-3/Max-Max x 32/256 subtasks x Case A/B/C at the paper's
# 0.1 -> 0.02 steps: the winning weights, their T100 and the number of
# runs searched. A change
# that must not move any report regenerates the file and diffs it:
#
#   cargo build --release --bin lrh-grid
#   scripts/identity.sh && git diff --exit-code -- scripts/identity.txt
#
# A row is `heuristic tasks case mode sha256-prefix`; the report is the
# deterministic stdout block (wall-clock timing goes to stderr).
set -euo pipefail

BIN="${BIN:-target/release/lrh-grid}"
OUT="${1:-scripts/identity.txt}"

if [[ ! -x "$BIN" ]]; then
    echo "identity: $BIN not built" >&2
    exit 2
fi

# Cases B and C have three machines, so every churn event names one of
# machines 0..2.
CHURN=(--lose 0@1500 --join 2@800)
# The cascade rows lose machine 0 at tau/6 after machine 2 joins at
# tau/8 (tau = 85 190 ticks at 256 subtasks, 340 750 at 1 024): the
# loss invalidates 167-248 subtasks of SLRH-1's schedule at 256 and
# 781-957 at 1 024, so the rows pin deep unmap cascades.
declare -A CASCADE=(
    [256]="--lose 0@14198 --join 2@10648"
    [1024]="--lose 0@56791 --join 2@42593"
)
ADAPT=(--adapt "diminishing(0.5)" --adapt-every 10)

row() {
    local heuristic=$1 tasks=$2 case=$3 mode=$4
    shift 4
    local command=run digest
    if [[ $mode == tune ]]; then
        command=tune
    fi
    digest=$("$BIN" "$command" --heuristic "$heuristic" --tasks "$tasks" --case "$case" "$@" 2>/dev/null \
        | sha256sum | cut -c1-16)
    echo "$heuristic $tasks $case $mode $digest"
}

{
    echo "# lrh-grid run stdout digests; regenerate with scripts/identity.sh"
    for heuristic in slrh1 slrh2 slrh3 maxmax greedy dbccost; do
        for tasks in 256 1024; do
            for case in A B C; do
                row "$heuristic" "$tasks" "$case" plain
                if [[ $heuristic == slrh* ]]; then
                    row "$heuristic" "$tasks" "$case" churn "${CHURN[@]}"
                    # shellcheck disable=SC2086 # the flags split on spaces
                    row "$heuristic" "$tasks" "$case" cascade ${CASCADE[$tasks]}
                    row "$heuristic" "$tasks" "$case" adapt "${ADAPT[@]}"
                fi
            done
        done
    done
    for heuristic in slrh1 slrh3 maxmax; do
        for tasks in 32 256; do
            for case in A B C; do
                row "$heuristic" "$tasks" "$case" tune --coarse 0.1 --fine 0.02
            done
        done
    done
} >"$OUT"
