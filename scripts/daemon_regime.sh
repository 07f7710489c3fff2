#!/usr/bin/env bash
# Regime tripwire for the daemon's reply path: one short run of the
# benchmark's `daemon_small` workload must put submit-to-done p50 under
# 20 ms. The two regimes are far apart — about 44 ms when every event
# frame is its own write on a socket with Nagle on (each small write
# waits for the client's delayed ACK), under 5 ms with the buffered,
# flush-before-blocking reply path (DESIGN.md section 14, "Transport";
# typically 0.6 ms now that a job runs on its connection's thread) — so
# the ceiling sits between them, not on a noise edge.
set -euo pipefail

CEILING_MS=20

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload daemon_small --seed 7 --seconds 2 --trace 0 |
    tail -n 1 |
    python3 -c '
import json, sys
run = json.load(sys.stdin)
p50 = run["metrics"]["job_p50_ms"]["value"]
failed = run["failed"]
print("daemon_regime: daemon_small job_p50_ms = %.2f (ceiling %s), failed = %d" % (p50, sys.argv[1], failed))
sys.exit(0 if failed == 0 and p50 < float(sys.argv[1]) else 1)
' "$CEILING_MS"
