#!/usr/bin/env bash
# End-to-end broker smoke, in two legs against real daemons:
#
# 1. start a daemon, run three concurrent submissions, and diff every
#    streamed report byte-for-byte against the one-shot CLI's output for
#    the same flags;
# 2. start a daemon, submit a paper-scale job (about a thousand event
#    frames, one per committing tick), `stop` the daemon as soon as
#    `status` shows the job running or just run, and require the
#    submission to complete with the one-shot CLI's report: `serve` may
#    exit only once the reply is on the wire.
#
# CI runs this in the RAYON_NUM_THREADS={1,4} matrix; the diffs must be
# empty either way.
set -euo pipefail

BIN="${BIN:-target/release/lrh-grid}"
ADDR="${ADDR:-127.0.0.1:7183}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$BIN" ]]; then
    echo "broker_smoke: $BIN not built" >&2
    exit 2
fi

SERVE_PID=
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Start a daemon with $1 execution slots and wait for its listener.
start_daemon() {
    "$BIN" serve --addr "$ADDR" --workers "$1" 2>>"$WORK/serve.log" &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        if "$BIN" status --addr "$ADDR" >/dev/null 2>&1; then
            return
        fi
        sleep 0.1
    done
    echo "broker_smoke: no daemon listening on $ADDR" >&2
    exit 1
}

# ---- leg 1: concurrent submissions ------------------------------------

start_daemon 2

JOBS=(
    "--tasks 48 --case A --heuristic slrh1 --alpha 0.5 --beta 0.3 --seed 7"
    "--tasks 64 --case B --heuristic slrh2 --alpha 0.4 --beta 0.4 --lose 1@400"
    "--tasks 96 --case C --heuristic maxmax --seed 0x2a"
)

# Three concurrent submissions...
for i in "${!JOBS[@]}"; do
    # shellcheck disable=SC2086  # word-splitting the flag string is the point
    "$BIN" submit --addr "$ADDR" --client "smoke-$i" ${JOBS[$i]} \
        >"$WORK/remote-$i.txt" 2>"$WORK/remote-$i.log" &
    CLIENT_PIDS[$i]=$!
done
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid"
done

# ...must each be byte-identical to the one-shot CLI.
for i in "${!JOBS[@]}"; do
    # shellcheck disable=SC2086
    "$BIN" run ${JOBS[$i]} >"$WORK/local-$i.txt" 2>/dev/null
    if ! diff -u "$WORK/local-$i.txt" "$WORK/remote-$i.txt"; then
        echo "broker_smoke: job $i diverged from the one-shot CLI" >&2
        exit 1
    fi
done

STATUS="$("$BIN" status --addr "$ADDR")"
echo "broker_smoke: daemon status: $STATUS"
case "$STATUS" in
    *"completed=3"*) ;;
    *)
        echo "broker_smoke: expected 3 completed jobs" >&2
        exit 1
        ;;
esac

"$BIN" stop --addr "$ADDR"
wait "$SERVE_PID"
echo "broker_smoke: OK — 3 concurrent submissions byte-identical to local runs"

# ---- leg 2: stop during a paper-scale submit --------------------------

PAPER="--tasks 1024 --case A --heuristic slrh1 --alpha 0.5 --beta 0.3 --seed 9"
# shellcheck disable=SC2086
"$BIN" run $PAPER >"$WORK/local-paper.txt" 2>/dev/null

start_daemon 1
# shellcheck disable=SC2086
"$BIN" submit --addr "$ADDR" --client smoke-stop $PAPER \
    >"$WORK/remote-paper.txt" 2>"$WORK/remote-paper.log" &
SUBMIT_PID=$!

# Stop the daemon the moment the job is seen running — or just run: the
# job is done in milliseconds and its reply trails it.
while :; do
    STATUS="$("$BIN" status --addr "$ADDR")"
    case "$STATUS" in
        *"running=1"* | *"completed=1"*) break ;;
    esac
done
"$BIN" stop --addr "$ADDR"
wait "$SERVE_PID"

# The daemon has exited; whatever it delivered is all the client gets.
if ! wait "$SUBMIT_PID"; then
    echo "broker_smoke: stop cut the submission's reply short:" >&2
    cat "$WORK/remote-paper.log" >&2
    exit 1
fi
if ! diff -u "$WORK/local-paper.txt" "$WORK/remote-paper.txt"; then
    echo "broker_smoke: the drained job diverged from the one-shot CLI" >&2
    exit 1
fi
echo "broker_smoke: OK — stop during a paper-scale submit delivered the whole reply"
