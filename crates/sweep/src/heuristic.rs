//! A uniform registry over every mapper in the workspace.

use std::time::{Duration, Instant};

use adhoc_grid::workload::Scenario;
use grid_baselines::maxmax::{self, run_maxmax_floored};
use grid_baselines::{run_dbc_in, run_greedy_in, run_lr_list_in, run_maxmax_in};
use gridsim::metrics::Metrics;
use gridsim::{validate, ScenarioTables, SimState};
use lagrange::weights::{Objective, Weights};
use slrh::mapper::run_slrh_floored;
use slrh::{run_slrh_with, Churn, RunContext, SlrhConfig, SlrhVariant};

/// One scenario prepared for a weight search: what every run of the
/// search reads and none writes, built once ([`Heuristic::prepare`]) and
/// lent to each run ([`Heuristic::score_in`]).
pub(crate) enum Prepared<'a> {
    /// An SLRH variant's: the scenario's static §IV tables.
    Slrh(ScenarioTables<'a>),
    /// Max-Max's: the tables plus its guard and machine orders.
    MaxMax(maxmax::Prepared<'a>),
    /// Every other heuristic builds its state per run.
    PerRun(&'a Scenario),
}

/// Every heuristic the harness can run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Heuristic {
    /// SLRH variant 1 (baseline dynamic heuristic).
    Slrh1,
    /// SLRH variant 2 (same-pool repetition).
    Slrh2,
    /// SLRH variant 3 (pool re-evaluation).
    Slrh3,
    /// The paper's static Max-Max baseline.
    MaxMax,
    /// Greedy minimum-completion-time (the τ-calibration heuristic).
    Greedy,
    /// Static Lagrangian relaxation + list scheduling.
    LrList,
    /// Deadline-and-budget-constrained cost optimization (Buyya et al.):
    /// cheapest placement that still meets τ.
    DbcCost,
}

impl Heuristic {
    /// The heuristics of the paper's study (§V).
    pub const STUDY: [Heuristic; 4] = [
        Heuristic::Slrh1,
        Heuristic::Slrh2,
        Heuristic::Slrh3,
        Heuristic::MaxMax,
    ];

    /// The heuristics reported in Figures 4–7 (SLRH-2 was dropped after
    /// failing to produce constraint-compliant mappings).
    pub const REPORTED: [Heuristic; 3] = [Heuristic::Slrh1, Heuristic::Slrh3, Heuristic::MaxMax];

    /// Every heuristic in the workspace.
    pub const ALL: [Heuristic; 7] = [
        Heuristic::Slrh1,
        Heuristic::Slrh2,
        Heuristic::Slrh3,
        Heuristic::MaxMax,
        Heuristic::Greedy,
        Heuristic::LrList,
        Heuristic::DbcCost,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::Slrh1 => "SLRH-1",
            Heuristic::Slrh2 => "SLRH-2",
            Heuristic::Slrh3 => "SLRH-3",
            Heuristic::MaxMax => "Max-Max",
            Heuristic::Greedy => "Greedy",
            Heuristic::LrList => "LR-List",
            Heuristic::DbcCost => "DBC-Cost",
        }
    }

    /// Terse, flag-friendly spelling of the name — what the CLI's
    /// `--heuristic` flag takes and what usage text lists.
    pub fn flag_name(self) -> &'static str {
        match self {
            Heuristic::Slrh1 => "slrh1",
            Heuristic::Slrh2 => "slrh2",
            Heuristic::Slrh3 => "slrh3",
            Heuristic::MaxMax => "maxmax",
            Heuristic::Greedy => "greedy",
            Heuristic::LrList => "lrlist",
            Heuristic::DbcCost => "dbccost",
        }
    }

    /// True when the heuristic prices machine time in grid-dollars —
    /// its campaign rows carry a mean-cost column.
    pub fn prices_cost(self) -> bool {
        matches!(self, Heuristic::DbcCost)
    }

    /// The SLRH variant behind the heuristic, when there is one.
    pub fn slrh_variant(self) -> Option<SlrhVariant> {
        match self {
            Heuristic::Slrh1 => Some(SlrhVariant::V1),
            Heuristic::Slrh2 => Some(SlrhVariant::V2),
            Heuristic::Slrh3 => Some(SlrhVariant::V3),
            _ => None,
        }
    }

    /// True when the heuristic's behaviour depends on the objective
    /// weights (and therefore needs the Figure 3 weight search).
    pub fn uses_weights(self) -> bool {
        matches!(
            self,
            Heuristic::Slrh1
                | Heuristic::Slrh2
                | Heuristic::Slrh3
                | Heuristic::MaxMax
                | Heuristic::LrList
        )
    }

    /// Run the heuristic on `scenario` with `weights`, timing the mapping
    /// itself (validation happens outside the timed section).
    pub fn run(self, scenario: &Scenario, weights: Weights) -> RunResult {
        self.run_in(scenario, weights, &mut RunContext::new())
    }

    /// [`Heuristic::run`] on a reusable [`RunContext`]: the run's
    /// simulation state (and, for SLRH, the candidate frontier) is built on the
    /// context's recycled buffers and reclaimed before returning, so
    /// consecutive calls through one context allocate almost nothing.
    /// Results are bit-identical to [`Heuristic::run`] — the context
    /// carries capacity, never content.
    pub fn run_in(self, scenario: &Scenario, weights: Weights, ctx: &mut RunContext) -> RunResult {
        let start = Instant::now();
        self.map_in(scenario, weights, ctx, |state, work| {
            let mut result = snapshot(state, work, start);
            if self.prices_cost() {
                result.cost = Some(gridsim::cost::schedule_cost(scenario, state.schedule()));
            }
            result
        })
    }

    /// `scenario` prepared for this heuristic's weight search: the
    /// static tables its runs share, when it has search-only runs.
    pub(crate) fn prepare(self, scenario: &Scenario) -> Prepared<'_> {
        match self {
            Heuristic::Slrh1 | Heuristic::Slrh2 | Heuristic::Slrh3 => {
                Prepared::Slrh(ScenarioTables::new(scenario))
            }
            Heuristic::MaxMax => Prepared::MaxMax(maxmax::Prepared::new(scenario)),
            Heuristic::Greedy | Heuristic::LrList | Heuristic::DbcCost => {
                Prepared::PerRun(scenario)
            }
        }
    }

    /// The weight search's score of one run on `prepared` (this
    /// heuristic's [`Heuristic::prepare`]): its `T100` when it mapped
    /// every subtask within both constraints and validated, `None`
    /// otherwise. SLRH and Max-Max run through their search-only entry
    /// points, which read the shared tables and stop a run, or drop a
    /// finished one, once its `T100` is out of `floor`'s reach; such a
    /// run is `None` too. A run is validated only when it met both
    /// constraints.
    pub(crate) fn score_in(
        self,
        prepared: &Prepared<'_>,
        weights: Weights,
        ctx: &mut RunContext,
        floor: usize,
    ) -> Option<usize> {
        let score = |state: &SimState<'_>| {
            let m = state.metrics();
            (m.constraints_met() && validate(state).is_empty()).then_some(m.t100)
        };
        match prepared {
            Prepared::Slrh(tables) => {
                let variant = self.slrh_variant().expect("prepared for an SLRH variant");
                let config = SlrhConfig::paper(variant, weights);
                let out = run_slrh_floored(tables, &config, ctx, floor)?;
                let result = score(&out.state);
                ctx.reclaim(out.state);
                result
            }
            Prepared::MaxMax(prepared) => {
                let objective = Objective::paper(weights);
                let out = run_maxmax_floored(prepared, &objective, ctx, floor)?;
                let result = score(&out.state);
                ctx.reclaim(out.state);
                result
            }
            Prepared::PerRun(scenario) => self.map_in(scenario, weights, ctx, |st, _| score(st)),
        }
    }

    /// Map `scenario` on `ctx` through the heuristic's ordinary entry
    /// point, hand the final state and the candidates evaluated to
    /// `read`, and reclaim the state.
    fn map_in<R>(
        self,
        scenario: &Scenario,
        weights: Weights,
        ctx: &mut RunContext,
        read: impl FnOnce(&SimState<'_>, u64) -> R,
    ) -> R {
        let (state, work) = if let Some(variant) = self.slrh_variant() {
            let config = SlrhConfig::paper(variant, weights);
            let out = run_slrh_with(scenario, &config, &Churn::default(), ctx, None);
            (out.state, out.stats.candidates_evaluated)
        } else {
            let out = match self {
                Heuristic::MaxMax => run_maxmax_in(scenario, &Objective::paper(weights), ctx),
                Heuristic::Greedy => run_greedy_in(scenario, ctx),
                Heuristic::LrList => run_lr_list_in(scenario, &weights, ctx),
                Heuristic::DbcCost => run_dbc_in(scenario, ctx),
                Heuristic::Slrh1 | Heuristic::Slrh2 | Heuristic::Slrh3 => {
                    unreachable!("the SLRH variants took the branch above")
                }
            };
            (out.state, out.candidates_evaluated)
        };
        let result = read(&state, work);
        ctx.reclaim(state);
        result
    }
}

/// Snapshot a finished run's state and work count into a [`RunResult`]
/// (no cost), stopping the wall clock first so validation stays outside
/// the timed section (matching [`Heuristic::run`]'s historical contract).
fn snapshot(state: &SimState<'_>, work: u64, start: Instant) -> RunResult {
    let wall = start.elapsed();
    RunResult {
        metrics: state.metrics(),
        wall,
        work,
        valid: validate(state).is_empty(),
        cost: None,
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The list schedulers the workspace once ran, by flag and display
/// name. At the paper's scale none of them met τ on a single scenario
/// (EXPERIMENTS.md, "Context baselines"). Their schedules differed from
/// every remaining heuristic's, so a name from this list is refused, not
/// run as something else (DESIGN.md §14, "Versioning rules").
const RETIRED: [(&str, &str); 4] = [
    ("olb", "OLB"),
    ("minmin", "Min-Min"),
    ("heft", "HEFT"),
    ("dbctime", "DBC-Time"),
];

impl std::str::FromStr for Heuristic {
    type Err = String;

    /// Parse a heuristic name. Accepts the canonical [`Heuristic::name`]
    /// form (so `h.to_string().parse()` always round-trips) and the terse
    /// [`Heuristic::flag_name`] form, both case-insensitively — the CLI,
    /// the broker wire protocol and checkpoint files all go through this
    /// one parser. A retired heuristic's name is an error that says so.
    fn from_str(s: &str) -> Result<Heuristic, String> {
        let key = s.trim().to_ascii_lowercase();
        let named = |flag: &str, name: &str| key == flag || key == name.to_ascii_lowercase();
        if let Some(h) = Heuristic::ALL
            .into_iter()
            .find(|h| named(h.flag_name(), h.name()))
        {
            return Ok(h);
        }
        let known: Vec<&str> = Heuristic::ALL.iter().map(|h| h.flag_name()).collect();
        let known = known.join("|");
        match RETIRED.iter().find(|(flag, name)| named(flag, name)) {
            Some((_, name)) => Err(format!(
                "{s:?} names a retired heuristic: {name} was retired because it met τ on no \
                 scenario at the paper's scale (expected one of {known})"
            )),
            None => Err(format!("unknown heuristic {s:?} (expected one of {known})")),
        }
    }
}

/// One validated, timed heuristic run.
#[derive(Copy, Clone, Debug)]
pub struct RunResult {
    /// The run's metrics.
    pub metrics: Metrics,
    /// Wall-clock time of the mapping itself.
    pub wall: Duration,
    /// Host-independent work counter (candidates evaluated).
    pub work: u64,
    /// True when the independent validator accepted the schedule.
    pub valid: bool,
    /// Total schedule cost in grid-dollars — `Some` only for the
    /// cost-pricing heuristics ([`Heuristic::prices_cost`]), so legacy
    /// rows and fingerprints stay byte-identical.
    pub cost: Option<f64>,
}

impl RunResult {
    /// The Figure 7 metric: `T100` per second of heuristic execution.
    pub fn t100_per_second(&self) -> f64 {
        self.metrics.t100 as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;

    #[test]
    fn every_heuristic_runs_and_validates() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0);
        let w = Weights::new(0.5, 0.3).unwrap();
        for h in Heuristic::ALL {
            let r = h.run(&sc, w);
            assert!(r.valid, "{h} failed validation");
            assert!(r.metrics.mapped > 0, "{h} mapped nothing");
            assert!(r.wall > Duration::ZERO);
        }
    }

    #[test]
    fn registry_metadata() {
        assert_eq!(Heuristic::STUDY.len(), 4);
        assert_eq!(Heuristic::REPORTED.len(), 3);
        assert!(Heuristic::Slrh1.uses_weights());
        assert!(!Heuristic::Greedy.uses_weights());
        assert_eq!(Heuristic::MaxMax.to_string(), "Max-Max");
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for h in Heuristic::ALL {
            assert_eq!(h.to_string().parse::<Heuristic>().unwrap(), h);
            assert_eq!(h.flag_name().parse::<Heuristic>().unwrap(), h);
            assert_eq!(h.name().to_uppercase().parse::<Heuristic>().unwrap(), h);
        }
        let e = "quantum".parse::<Heuristic>().unwrap_err();
        assert!(e.contains("slrh1") && e.contains("lrlist"), "{e}");
        for (retired, name) in [
            ("olb", "OLB"),
            ("Min-Min", "Min-Min"),
            (" HEFT ", "HEFT"),
            ("dbctime", "DBC-Time"),
        ] {
            let e = retired.parse::<Heuristic>().unwrap_err();
            assert!(
                e.contains(&format!("{name} was retired")),
                "{retired:?}: {e}"
            );
        }
    }

    #[test]
    fn t100_per_second_positive() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
        let r = Heuristic::Slrh1.run(&sc, Weights::new(0.5, 0.3).unwrap());
        assert!(r.t100_per_second() >= 0.0);
    }
}
