#!/usr/bin/env bash
# Tripwire for the SLRH driver surface (DESIGN.md section 20): there is
# one way to run SLRH, one way to build its configuration, one owner per
# request check and one owner per performance number, and this script
# fails when a second one grows back.
#
#  * none of the retired entry points, outcome types, validators or
#    the config builder reappears anywhere in the workspace's code;
#  * `slrh`'s root re-exports exactly the five run functions and the one
#    SLRH outcome type;
#  * the churn-trace messages live in one product source file (the
#    `ChurnError` display), not in a re-typed copy of the rule;
#  * the mapping kernel stays sequential: no crate under the clock loop
#    (`slrh`, `gridsim`, `adhoc-grid`, `lagrange`) depends on rayon, and
#    the bounded chunk map that existed only to feed the kernel's
#    never-executed parallel scan stays gone (DESIGN.md section 17) —
#    the compile-time fact that replaced the 1- vs 4-thread kernel
#    differentials;
#  * the tick loop allocates nothing in steady state (DESIGN.md section
#    21): the delta field nobody read stays gone;
#  * the clock loop has one clock and one visit order (DESIGN.md section
#    19): the event trigger and the machine visit orders (`enum Trigger`,
#    `MachineAvailable`, `MachineOrder`, `event_driven`,
#    `with_machine_order`), their ablation (`trigger_mode`) and the
#    `repro` targets `ablate-trigger`/`ablate-order` stay gone; their
#    values survive only as config-string values refused as retired;
#  * SLRH has one version rule (the §IV gate tests the secondary, and
#    the primary competes when it fits too): the primary-only gate
#    (`allow_secondary`, `primary_only`, a `fn gate_version`), its
#    ablation (`secondary_availability`) and the `repro` target
#    `ablate-secondary` stay gone; `secondary=on` survives only as fixed
#    config-string text and `secondary=off` is refused as retired;
#  * there is one candidate kernel and it is exact: the names of the
#    deleted clustered (approximate) frontier stay gone, and `ScaleMode`
#    survives only as the inert shim the untouched `benchmark/` adapter
#    still spells (DESIGN.md section 16) plus its two re-exports;
#  * timing has one owner per number (EXPERIMENTS.md, "Who owns which
#    performance number"): no criterion dependency, no `benches/`
#    directory or `[[bench]]` table under `crates/`, and neither the
#    second history writer nor the cross-host ratchet comes back;
#  * per-edge quantities are read by edge id (DESIGN.md section 11,
#    "Edge ids"): no `HashMap` in the energy ledger, no `HashMap` keyed
#    by `(TaskId, TaskId)` in the validator, no `.edge(&` position-search
#    lookup in the non-test code of `gridsim` or `slrh`, and the
#    duplicate child offsets `out_offsets` stay gone;
#  * parallel code lives only where something runs in parallel: the
#    never-called replication sweep (`crates/sweep/src/replicate.rs`)
#    stays gone, the rayon shim offers no adaptor or consumer beyond
#    `par_iter().map/map_init().collect()`, `SimState` holds no atomics
#    (nothing needs it to be `Sync`), and the frontier's redundant
#    parent-cost tuple cache stays gone;
#  * the stress harness fuzzes the scheduler and nothing else: the wire
#    protocol has one fuzzer, the broker's property suite
#    (`crates/broker/tests/proptest_wire_roundtrip.rs`), so the stress
#    copy (`crates/stress/src/wire.rs`, `tests/wire_fuzz.rs`, its names
#    and its `--wire-seeds` flag) stays gone; `stress` depends on
#    neither `grid-broker`, `grid-sweep` nor rayon, and runs no
#    `par_iter` (its 1- vs 4-thread registry rerun only ever re-ran
#    sequential heuristics);
#  * Max-Max plans only the winner of each commit, on the run's recycled
#    scratch (DESIGN.md section 21): the per-triplet `state.plan(` on a
#    fresh `PlanScratch::default()` lives only in its test oracle,
#    `crates/baselines/src/maxmax/reference.rs`, not in the non-test code
#    of `maxmax.rs`;
#  * there is one costing and one objective expression (DESIGN.md
#    section 21): the per-placement costing twins (`AppendCost`,
#    `InsertCost`, `InsertSlot`, `cost_append`, `cost_insert`) stay gone,
#    and outside `crates/core/src/pool.rs` the non-test code of `slrh`,
#    `grid-baselines` and `gridsim` builds no `ObjectiveInputs` of its own;
#  * the clock loop asks its kernel one question, SLRH-1/3's best
#    startable candidate (DESIGN.md section 17): SLRH-2's frozen order and
#    the stuck check read the state, so the kernel methods that served
#    them (`frozen_order`, `any_gate_feasible`), the one-argument-short
#    `build_pool` wrapper and the frontier's private SLRH-2 pipeline
#    (`fn freeze` under `crates/core/src/frontier`) stay gone, and the
#    list's from-scratch filter `collect_startable` is called only by the
#    resort scan (`frontier/view.rs`) next to its definition
#    (`frontier/membership.rs`);
#  * `SimState` is the one owner of readiness and a commit reports only
#    the subtasks it readied (DESIGN.md section 16): the state delta
#    (`StateDelta`, `DeltaKind`, its `delta_invalidated` buffer) and the
#    `run_mct` alias of the greedy stay gone, the frontier's non-test
#    code keeps no ready set of its own (no `swap_remove` under
#    `crates/core/src/frontier`), and `SimState` takes no delta back
#    (no `fn recycle(&mut self, delta` in `crates/sim/src/state.rs`);
#  * there is one projected multiplier update, `StepRule::ascend`, and
#    one dual solver, `SeparableProblem::minimize_dual`: nothing outside
#    `crates/lagrange/src/step.rs` calls `.step(`, the retired stack
#    (`MultiplierVector`, `SubgradientSolver`, `SubgradientResult`,
#    `DualOracle`, `solve_dual`, and `crates/lagrange/src/{multipliers,
#    subgradient}.rs`) stays gone, and so do LR-list's unused knobs
#    (`LrListConfig`, `dual_iters`);
#  * a daemon job runs on its connection's thread (DESIGN.md section 14,
#    "Architecture"): the worker threads and the worker-to-connection
#    hand-off (`Outbox`, `pump_until_finished`, `worker_loop`,
#    `OUTBOX_BLOCK_BYTES`, `OUTBOX_SPARE_BLOCKS`) stay gone;
#  * there is one weight searcher, the paper's two-stage grid (DESIGN.md
#    section 15): the seeded annealing searcher (`anneal_weights`,
#    `AnnealConfig`, `SearcherKind::Anneal`, `anneal_config`, `tune`'s
#    `--sa-seed`/`--sa-iters`, `sa_determinism`, `sa_search.txt`) stays
#    gone, and `SearcherKind` survives only as a one-variant shim named
#    at its definition, its re-export and the campaign request the
#    untouched `benchmark/` adapter still fills in;
#  * the replay log nothing replayed (`EventTrace`, `ReplayOp`,
#    `proptest_trace_replay.rs`) stays gone: a stress reproducer replays
#    by re-running its case;
#  * online adaptation has one projection, two constants in
#    `lagrange::online` (DESIGN.md section 15): the settable projection
#    (`OnlineProjection`, `BadAdaptProjection`), the warm start
#    (`warm_start`, the config's `fn armed` that applied it), the CLI
#    flags `--adapt-amin`/`--adapt-lmax`/`--adapt-warm` outside the CLI's
#    rejection test, and the corpus keys `adapt_amin`/`adapt_lmax`/
#    `adapt_warm` stay gone;
#  * "is this finished run valid?" has one answer, `gridsim::validate`,
#    which reads each machine's availability window from the state
#    (DESIGN.md section 13): the churn validators (`validate_loss`,
#    `validate_arrivals`), the broker's `schedule_valid`, the stress
#    oracles that re-checked what `validate` checks (`check_churn`,
#    `check_battery`, `check_objective`) and the CLI's decimal-only
#    `M@T` parser `parse_event` stay gone;
#  * a context baseline that never met τ at the paper's scale is not
#    kept (EXPERIMENTS.md, "Context baselines"): OLB, Min-Min and HEFT
#    (`crates/baselines/src/{heft,simple}.rs`, `run_heft*`,
#    `run_minmin*`, `run_olb*`, `upward_ranks`, and the `Heuristic`
#    variants `Heft`, `MinMin`, `Olb`) stay gone; their names survive
#    only as strings the heuristic parser refuses as retired;
#  * the greedy and DBC-Cost are one list walk under two keys: DBC-Time
#    (the greedy with a price tie-break, retired by the same rule), its
#    mode switch (`DbcMode`, `DbcTime`, the stress harness's "dbc-time"
#    arm) and the greedy's own copy of the walk (`fn earliest_finish`)
#    stay gone; `dbctime` survives only as a name the parser refuses;
#  * code nothing calls stays gone: the daemon's job queue has one
#    non-blocking `pop` (no `try_pop` beside a blocking twin) and
#    `slrh::mapper` no `fn cycles`; the bare case letter is written
#    once, in `GridCase::letter` (`crates/grid/src/config.rs`);
#  * an unmap costs what it touches (DESIGN.md section 11): the schedule
#    drops a child's transfers with `Schedule::remove_transfers_to`, and
#    the whole-list `retain_transfers` with its full index rebuild lives
#    only as that method's test oracle, not in the non-test code of
#    `crates/sim/src`;
#  * a weight search prepares its scenario once (DESIGN.md section 12):
#    Max-Max's per-run loop (`fn map` and the `Scan` it drives) reads the
#    downgrade guard and the machine energy orders from the statics it
#    is handed and never builds them itself;
#  * a run has one lifecycle (DESIGN.md section 12): every heuristic
#    maps on `slrh::RunContext`, so the context's raw-buffer accessor
#    (`fn buffers_mut`) stays gone and the non-test code of
#    `crates/baselines/src` never names `StateBuffers`; a finished run is
#    read from its final `SimState`, so the outcome trait
#    (`MappingOutcome`, `crates/sim/src/outcome.rs`) stays gone.
#
# Plain grep, run from the repository root.
set -euo pipefail

status=0
fail() {
    echo "api_surface: $*" >&2
    status=1
}

retired='run_slrh_in|run_slrh_observed|run_slrh_dynamic|run_slrh_churn_in|run_slrh_churn_observed|run_adaptive_slrh|AdaptiveConfig|AdaptiveOutcome|DynamicOutcome|validate_churn|SlrhConfigBuilder|touched_machines|spill_after|promote_to_spill|visible_lists|cluster_of|home_of|machine_mean_seconds|ZeroClusters|from_values_at|AppendCost|InsertCost|InsertSlot|cost_append|cost_insert|frozen_order|any_gate_feasible|build_pool|StateDelta|DeltaKind|delta_invalidated|run_mct|run_mct_in'
retired+='|MultiplierVector|SubgradientSolver|SubgradientResult|DualOracle|solve_dual|LrListConfig|dual_iters'
retired+='|Outbox|pump_until_finished|worker_loop|OUTBOX_BLOCK_BYTES|OUTBOX_SPARE_BLOCKS'
retired+='|anneal_weights|anneal_weights_in|AnnealConfig|anneal_config|EventTrace|ReplayOp'
retired+='|OnlineProjection|BadAdaptProjection|warm_start'
retired+='|validate_loss|validate_arrivals|schedule_valid|check_churn|check_battery|check_objective|parse_event'
retired+='|upward_ranks|try_pop'
if hits=$(grep -rnwE "$retired" crates src tests examples --include='*.rs'); then
    fail "retired names are back:"$'\n'"$hits"
fi

scale_mode=$(grep -rlw 'ScaleMode' crates/*/src src --include='*.rs' | sort | tr '\n' ' ')
if [ "$scale_mode" != 'crates/core/src/config.rs crates/core/src/lib.rs src/lib.rs ' ]; then
    fail "ScaleMode is named outside its shim and two re-exports: [ $scale_mode]"
fi

for f in crates/sweep/src/anneal.rs crates/sweep/tests/sa_determinism.rs \
    crates/sweep/tests/golden/sa_search.txt crates/sim/tests/proptest_trace_replay.rs; do
    if [ -e "$f" ]; then
        fail "$f is back"
    fi
done
if hits=$(grep -rnE 'SearcherKind::Anneal|sa_determinism|sa_search\.txt' \
    crates src tests examples scripts .github | grep -v '^scripts/api_surface.sh:'); then
    fail "the annealing searcher is back:"$'\n'"$hits"
fi
# The flags in scripts, CI and non-test Rust code: the CLI's rejection
# test names them on purpose.
if hits=$(grep -rnE -- '--sa-(seed|iters)' scripts .github | grep -v '^scripts/api_surface.sh:'); then
    fail "tune's annealing flags are back:"$'\n'"$hits"
fi
for f in $(find crates/*/src src -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /--sa-(seed|iters)/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "tune's annealing flags are back:"$'\n'"$hits"
    fi
done
searcher=$(grep -rlw 'SearcherKind' crates/*/src src --include='*.rs' | sort | tr '\n' ' ')
if [ "$searcher" != 'crates/broker/src/proto.rs crates/sweep/src/lib.rs crates/sweep/src/weight_search.rs ' ]; then
    fail "SearcherKind is named outside its shim, its re-export and CampaignRequest: [ $searcher]"
fi
variants=$(awk '/pub enum SearcherKind/ { on = 1; next } on && /^}/ { exit } on && /^ *[A-Z]/ { print $1 }' \
    crates/sweep/src/weight_search.rs | tr '\n' ' ')
if [ "$variants" != 'Grid, ' ]; then
    fail "SearcherKind has variants [ $variants] (want [ Grid, ])"
fi

for f in crates/baselines/src/heft.rs crates/baselines/src/simple.rs; do
    if [ -e "$f" ]; then
        fail "$f is back"
    fi
done
if hits=$(grep -rnE '\brun_(heft|minmin|olb)|Heuristic::(Heft|MinMin|Olb)\b' \
    crates src tests examples benchmark/src --include='*.rs'); then
    fail "a retired context baseline (OLB, Min-Min, HEFT) is back:"$'\n'"$hits"
fi
variants=$(awk '/pub enum Heuristic / { on = 1; next } on && /^}/ { exit } on && /^ *[A-Z]/ { print $1 }' \
    crates/sweep/src/heuristic.rs | tr '\n' ' ')
if grep -qwE 'Heft|MinMin|Olb' <<<"$variants"; then
    fail "Heuristic has a retired variant again: [ $variants]"
fi
if hits=$(grep -rnE '\b(DbcMode|DbcTime)\b|fn earliest_finish\b|"dbc-time"' \
    crates src tests examples benchmark/src --include='*.rs'); then
    fail "DBC-Time or a second list walk is back (the greedy and DBC-Cost share one):"$'\n'"$hits"
fi
if hits=$(grep -rnw 'fn cycles' crates src tests examples --include='*.rs'); then
    fail "the uncalled ΔT helper is back:"$'\n'"$hits"
fi
letters=$(grep -rnE '\bA *=> *"A"' crates src tests examples benchmark/src --include='*.rs' |
    grep -v '^crates/grid/src/config.rs:' || true)
if [ -n "$letters" ]; then
    fail "the bare case letter is written outside GridCase::letter:"$'\n'"$letters"
fi

if [ -e crates/core/src/adaptive.rs ]; then
    fail "crates/core/src/adaptive.rs is back"
fi

exports=$(grep -E '^pub use ' crates/core/src/lib.rs)
runs=$(grep -oE '\brun_[a-z_]+' <<<"$exports" | sort -u | tr '\n' ' ')
want_runs='run_open run_open_in run_slrh run_slrh_churn run_slrh_with '
if [ "$runs" != "$want_runs" ]; then
    fail "slrh re-exports run functions [ $runs] (want [ $want_runs])"
fi
outcomes=$(grep -oE '\b[A-Za-z]*Slrh[A-Za-z]*Outcome|\b(Dynamic|Adaptive)Outcome' <<<"$exports" | sort -u | tr '\n' ' ')
if [ "$outcomes" != 'SlrhOutcome ' ]; then
    fail "slrh re-exports SLRH outcome types [ $outcomes] (want [ SlrhOutcome ])"
fi

# Product sources only: tests may quote a message they expect.
for message in 'machine lost twice' 'cannot lose every machine'; do
    files=$(grep -rlF "\"$message\"" crates/*/src src --include='*.rs' || true)
    if [ "$(grep -c . <<<"$files")" -gt 1 ]; then
        fail "\"$message\" is spelled in more than one source file:"$'\n'"$files"
    fi
done

if hits=$(grep -n 'rayon' crates/{core,sim,grid,lagrange}/Cargo.toml); then
    fail "a crate under the clock loop depends on rayon:"$'\n'"$hits"
fi
if hits=$(grep -rn 'map_bounded' crates src tests examples benchmark/src --include='*.rs'); then
    fail "the bounded chunk map is back:"$'\n'"$hits"
fi

if hits=$(grep -rnE '\benum Trigger\b|\b(MachineAvailable|MachineOrder|event_driven|with_machine_order|trigger_mode)\b' \
    crates src tests examples benchmark/src --include='*.rs'); then
    fail "a retired loop knob (the event trigger, a machine visit order) is back:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'ablate[-_](trigger|order)' crates src tests examples scripts .github |
    grep -v '^scripts/api_surface.sh:'); then
    fail "a retired loop-knob ablation is back:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'allow_secondary|primary_only|secondary_availability|fn gate_version|ablate[-_]secondary' \
    crates src tests examples scripts .github | grep -v '^scripts/api_surface.sh:'); then
    fail "the retired primary-only gate is back (SLRH has one version rule):"$'\n'"$hits"
fi

if hits=$(grep -n 'criterion' Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml); then
    fail "criterion is a dependency again:"$'\n'"$hits"
fi
hits=$(find crates -type d -name benches; grep -n '^\[\[bench\]\]' crates/*/Cargo.toml || true)
if [ -n "$hits" ]; then
    fail "a criterion-style bench target is back under crates/:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'kernel_append|bench_ratchet' crates src scripts/*.sh .github Cargo.toml |
    grep -v '^scripts/api_surface.sh:'); then
    fail "a second perf-history writer or the cross-host ratchet is back:"$'\n'"$hits"
fi

if hits=$(grep -n 'HashMap' crates/sim/src/ledger.rs); then
    fail "the energy ledger hashes again:"$'\n'"$hits"
fi
if hits=$(grep -nE 'HashMap<\(TaskId, *TaskId\)' crates/sim/src/validate.rs); then
    fail "the validator indexes transfers in a (TaskId, TaskId) hash map again:"$'\n'"$hits"
fi
# Non-test code only: each file is read up to its `#[cfg(test)]` module.
for f in $(find crates/sim/src crates/core/src -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /\.edge\(&/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "a position-search edge lookup is back on the product path:"$'\n'"$hits"
    fi
done
for f in $(find crates/sim/src -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /retain_transfers/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "the whole-list transfer rebuild is back on the product path:"$'\n'"$hits"
    fi
done
if hits=$(grep -rn 'out_offsets' crates src tests examples --include='*.rs'); then
    fail "out_offsets is back:"$'\n'"$hits"
fi

if [ -e crates/sweep/src/replicate.rs ]; then
    fail "crates/sweep/src/replicate.rs is back"
fi
if hits=$(grep -rnwE 'replicated_tuned_t100|ReplicationConfig|t_critical_95' crates src tests examples --include='*.rs'); then
    fail "the replication sweep is back:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'fn (filter_map|copied|cloned|reduce_with|for_each|count|into_par_iter)\b' crates/compat/rayon/src); then
    fail "the rayon shim grew an adaptor nothing calls:"$'\n'"$hits"
fi
if hits=$(grep -n 'Atomic' crates/sim/src/state.rs); then
    fail "SimState holds atomics again:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'ParentCost|ptuple' crates/core/src); then
    fail "the frontier's parent-cost tuple cache is back:"$'\n'"$hits"
fi

for f in crates/stress/src/wire.rs crates/stress/tests/wire_fuzz.rs; do
    if [ -e "$f" ]; then
        fail "$f is back"
    fi
done
if hits=$(grep -rnE 'fuzz_wire|WireReport|STREAM_WIRE|--wire-seeds' crates scripts .github |
    grep -v '^scripts/api_surface.sh:'); then
    fail "the stress harness's wire fuzzer is back:"$'\n'"$hits"
fi
if hits=$(grep -nE 'grid-broker|grid-sweep|rayon' crates/stress/Cargo.toml); then
    fail "stress depends on more than what it fuzzes:"$'\n'"$hits"
fi
if hits=$(grep -rn 'par_iter' crates/stress); then
    fail "the stress harness runs a thread-pool arm again:"$'\n'"$hits"
fi

if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /state\.plan\(|PlanScratch::default\(\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
               END { exit !found }' crates/baselines/src/maxmax.rs); then
    fail "Max-Max plans candidate triplets outside its reference scan again:"$'\n'"$hits"
fi

if hits=$(awk '/^#\[cfg\(test\)\]/ { exit }
               /^fn map</ || /^impl Scan \{/ { body = 1 }
               body && /(DowngradeGuard|Statics|Prepared)::new\(|sort_unstable_by|compute_energy/ {
                   print FILENAME ":" FNR ": " $0; found = 1 }
               body && /^}/ { body = 0 }
               END { exit !found }' crates/baselines/src/maxmax.rs); then
    fail "a Max-Max run builds the scenario's statics itself again:"$'\n'"$hits"
fi

for f in $(find crates/core/src crates/baselines/src crates/sim/src -name '*.rs' | sort); do
    [ "$f" = crates/core/src/pool.rs ] && continue
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /ObjectiveInputs \{/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "the objective's fractions are built outside pool::totals_objective:"$'\n'"$hits"
    fi
done

if hits=$(grep -rnw 'fn freeze' crates/core/src/frontier); then
    fail "the frontier's private SLRH-2 pipeline is back:"$'\n'"$hits"
fi
if hits=$(grep -rn 'collect_startable(' crates src tests examples --include='*.rs' |
    grep -vE '^crates/core/src/frontier/(membership|view)\.rs:'); then
    fail "the list's from-scratch filter is called outside the resort scan:"$'\n'"$hits"
fi

for f in $(find crates/core/src/frontier -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /swap_remove/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "the frontier keeps a ready set of its own again:"$'\n'"$hits"
    fi
done
if hits=$(grep -n 'fn recycle(&mut self, delta' crates/sim/src/state.rs); then
    fail "SimState takes a delta back again:"$'\n'"$hits"
fi

for f in crates/lagrange/src/multipliers.rs crates/lagrange/src/subgradient.rs; do
    if [ -e "$f" ]; then
        fail "$f is back"
    fi
done
if hits=$(grep -rn '\.step(' crates src tests examples --include='*.rs' |
    grep -v '^crates/lagrange/src/step.rs:'); then
    fail "a projected multiplier update is spelled outside StepRule::ascend:"$'\n'"$hits"
fi

if hits=$(grep -rnw 'fn armed' crates src --include='*.rs'); then
    fail "the warm start's armed copy is back:"$'\n'"$hits"
fi
if hits=$(grep -rnE 'adapt_(amin|lmax|warm)' crates src tests examples scripts .github |
    grep -v '^scripts/api_surface.sh:'); then
    fail "a retired adaptation corpus key is back:"$'\n'"$hits"
fi
# The flags in scripts, CI and non-test Rust code: the CLI's rejection
# test names them on purpose.
if hits=$(grep -rnE -- '--adapt-(amin|lmax|warm)' scripts .github | grep -v '^scripts/api_surface.sh:'); then
    fail "a retired adaptation flag is back:"$'\n'"$hits"
fi
for f in $(find crates/*/src src -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /--adapt-(amin|lmax|warm)/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "a retired adaptation flag is back:"$'\n'"$hits"
    fi
done

if [ -e crates/sim/src/outcome.rs ]; then
    fail "crates/sim/src/outcome.rs is back"
fi
if hits=$(grep -rnw 'MappingOutcome' crates src tests examples benchmark/src --include='*.rs'); then
    fail "the outcome trait is back (read the final SimState):"$'\n'"$hits"
fi
if hits=$(grep -rnw 'fn buffers_mut' crates src tests examples --include='*.rs'); then
    fail "the context's raw-buffer accessor is back (map on RunContext):"$'\n'"$hits"
fi
for f in $(find crates/baselines/src -name '*.rs' | sort); do
    if hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /StateBuffers/ { print FILENAME ":" FNR ": " $0; found = 1 }
                   END { exit !found }' "$f"); then
        fail "a baseline takes raw state buffers again (map on RunContext):"$'\n'"$hits"
    fi
done

[ "$status" -eq 0 ] && echo "api_surface: ok"
exit "$status"
