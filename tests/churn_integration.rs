//! Heavier churn integration: sequences of arrivals and losses against
//! every SLRH variant, with full validation after each run.

use lrh_grid::grid::{Dur, GridCase, MachineId, Scenario, ScenarioParams, Time};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::trace::Trace;
use lrh_grid::sim::validate::validate;
use lrh_grid::slrh::{
    run_slrh_churn, MachineArrivalEvent, MachineLossEvent, SlrhConfig, SlrhVariant,
};

fn scenario(tasks: usize) -> Scenario {
    Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
}

fn config(variant: SlrhVariant) -> SlrhConfig {
    SlrhConfig::paper(variant, Weights::new(0.5, 0.3).unwrap())
}

#[test]
fn staged_churn_all_variants() {
    let sc = scenario(96);
    let tau = sc.tau;
    let arrivals = [
        MachineArrivalEvent {
            machine: MachineId(1),
            at: Time(tau.0 / 5),
        },
        MachineArrivalEvent {
            machine: MachineId(3),
            at: Time(2 * tau.0 / 5),
        },
    ];
    let losses = [MachineLossEvent {
        machine: MachineId(2),
        at: Time(3 * tau.0 / 5),
    }];
    for variant in SlrhVariant::ALL {
        let out = run_slrh_churn(&sc, &config(variant), &losses, &arrivals);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{variant}: {errs:?}");
        assert!(
            out.metrics().mapped > 0,
            "{variant} mapped nothing through churn"
        );
    }
}

#[test]
fn double_loss_survives_and_remaps() {
    let sc = scenario(64);
    let losses = [
        MachineLossEvent {
            machine: MachineId(0),
            at: Time(sc.tau.0 / 6),
        },
        MachineLossEvent {
            machine: MachineId(2),
            at: Time(sc.tau.0 / 3),
        },
    ];
    let out = run_slrh_churn(&sc, &config(SlrhVariant::V1), &losses, &[]);
    let errs = validate(&out.state);
    assert!(errs.is_empty(), "{errs:?}");
    // All surviving work sits on the two remaining machines.
    for a in out.state.schedule().assignments() {
        if a.machine == MachineId(0) || a.machine == MachineId(2) {
            assert!(a.finish() <= out.state.lost_at(a.machine).unwrap());
        }
    }
    assert_eq!(out.disruptions.len(), 2);
}

#[test]
fn arrival_only_grid_matches_blocked_capacity() {
    // A machine arriving at t has exactly [t, tau) of usable timeline.
    let sc = scenario(64);
    let at = Time(sc.tau.0 / 2);
    let arrivals = [MachineArrivalEvent {
        machine: MachineId(0),
        at,
    }];
    let out = run_slrh_churn(&sc, &config(SlrhVariant::V1), &[], &arrivals);
    assert!(validate(&out.state).is_empty());
    let trace = Trace::from_state(&out.state);
    // The arriving machine's compute-busy time can never exceed its
    // post-arrival window (the pre-arrival block is not an assignment, so
    // the trace only counts real work).
    let s = &trace.machine_summaries()[0];
    let window = out.metrics().aet.since(at);
    assert!(
        s.busy <= window,
        "m0 busy {} exceeds its post-arrival window {}",
        s.busy,
        window
    );
}

#[test]
fn churn_is_deterministic() {
    let sc = scenario(48);
    let arrivals = [MachineArrivalEvent {
        machine: MachineId(1),
        at: Time(sc.tau.0 / 4),
    }];
    let losses = [MachineLossEvent {
        machine: MachineId(3),
        at: Time(sc.tau.0 / 2),
    }];
    let a = run_slrh_churn(&sc, &config(SlrhVariant::V1), &losses, &arrivals);
    let b = run_slrh_churn(&sc, &config(SlrhVariant::V1), &losses, &arrivals);
    assert_eq!(a.metrics(), b.metrics());
    assert_eq!(a.disruptions, b.disruptions);
}

#[test]
fn loss_during_inflight_transfer_into_machine() {
    // A 1-tick clock puts commits (and therefore transfers) on every
    // tick, so a loss can be timed to land strictly inside a transfer's
    // [start, finish) window. Run once churn-free to find a real
    // cross-machine transfer, then kill its *receiving* machine
    // mid-flight: determinism guarantees the prefix up to the loss tick
    // is identical, so the transfer is genuinely in flight when the
    // machine vanishes.
    let sc = scenario(48);
    let cfg = config(SlrhVariant::V1).with_dt(Dur(1));
    let baseline = run_slrh_churn(&sc, &cfg, &[], &[]);
    let tr = *baseline
        .state
        .schedule()
        .transfers()
        .iter()
        .filter(|tr| tr.dur.0 >= 2)
        .min_by_key(|tr| tr.start.0)
        .expect("a 48-task Case A run ships data between machines");
    let mid = Time(tr.start.0 + 1);
    assert!(mid < tr.finish());

    let losses = [MachineLossEvent {
        machine: tr.to,
        at: mid,
    }];
    let out = run_slrh_churn(&sc, &cfg, &losses, &[]);
    let errs = validate(&out.state);
    assert!(errs.is_empty(), "{errs:?}");
    // The receiving subtask's work was disrupted: at minimum the child
    // (and transitively its dependents) came off the lost machine.
    assert_eq!(out.disruptions.len(), 1);
    assert!(
        out.disruptions[0].1 >= 1,
        "loss at {mid} inside transfer {}->{} invalidated nothing",
        tr.parent,
        tr.child
    );
    // No surviving transfer still touches the lost machine in or after
    // the loss instant.
    for tr2 in out.state.schedule().transfers() {
        if tr2.from == tr.to || tr2.to == tr.to {
            assert!(tr2.finish() <= mid, "in-flight transfer survived the loss");
        }
    }
}

#[test]
fn loss_and_arrival_on_the_same_tick() {
    // Machine 1 dies on the very tick machine 3 becomes usable. The
    // driver applies the arrival block up front and the loss at the
    // stopped clock tick; both windows must hold simultaneously and
    // the arriving machine must actually pick up work.
    let sc = scenario(96);
    let at = Time(sc.tau.0 / 3);
    let losses = [MachineLossEvent {
        machine: MachineId(1),
        at,
    }];
    let arrivals = [MachineArrivalEvent {
        machine: MachineId(3),
        at,
    }];
    for variant in SlrhVariant::ALL {
        let out = run_slrh_churn(&sc, &config(variant), &losses, &arrivals);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{variant}: {errs:?}");
        assert!(out.metrics().mapped > 0, "{variant}");
        // When mapping is still in progress at the churn tick, the
        // newcomer takes over capacity the loss removed. (SLRH-3 can
        // finish all 96 subtasks before τ/3 — then there is legitimately
        // nothing left for the arriving machine to do.)
        let work_after_churn = out.state.schedule().assignments().any(|a| a.start >= at);
        let newcomer_used = out
            .state
            .schedule()
            .assignments()
            .any(|a| a.machine == MachineId(3));
        assert_eq!(
            newcomer_used, work_after_churn,
            "{variant}: arriving machine participation should track post-churn work"
        );
    }
}

#[test]
fn losing_every_machine_but_one_strands_unmappable_subtasks() {
    // Three of Case A's four machines disappear early, in sequence. Any
    // subtask whose remaining feasible machine set empties out must end
    // up (and stay) unmapped — a clean partial mapping, with nothing
    // dangling on the dead machines and the survivor doing all the work
    // after the last loss.
    let sc = scenario(64);
    let losses = [
        MachineLossEvent {
            machine: MachineId(1),
            at: Time(sc.tau.0 / 10),
        },
        MachineLossEvent {
            machine: MachineId(2),
            at: Time(sc.tau.0 / 8),
        },
        MachineLossEvent {
            machine: MachineId(3),
            at: Time(sc.tau.0 / 6),
        },
    ];
    let out = run_slrh_churn(&sc, &config(SlrhVariant::V1), &losses, &[]);
    let errs = validate(&out.state);
    assert!(errs.is_empty(), "{errs:?}");
    assert_eq!(out.disruptions.len(), 3);

    let m = out.metrics();
    assert!(m.mapped > 0, "the survivor mapped nothing");
    // The survivor keeps its full battery constraint: whatever could not
    // be re-placed within energy and the deadline stays unmapped rather
    // than over-committing machine 0.
    let ledger = out.state.ledger();
    assert!(ledger.check_invariants().is_ok());
    let last_loss = out.disruptions.last().unwrap().0;
    for a in out.state.schedule().assignments() {
        if a.finish() > last_loss {
            assert_eq!(
                a.machine,
                MachineId(0),
                "{} still runs on a dead machine after {last_loss}",
                a.task
            );
        }
    }
    // Unmapped subtasks are genuinely stranded, not forgotten: each has
    // no assignment and is not executable on the survivor within what
    // remains of its feasibility window.
    if !m.fully_mapped() {
        let unmapped = sc.dag.tasks().filter(|&t| !out.state.is_mapped(t)).count();
        assert_eq!(unmapped, m.tasks - m.mapped);
    }
}
