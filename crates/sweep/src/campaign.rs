//! The full evaluation campaign behind Figures 4–7.
//!
//! For every (heuristic, case, scenario): find the optimal (α, β) pair
//! (Figure 3 search; a heuristic that ignores the weights runs once),
//! then run the heuristic once more with those weights on a dedicated
//! single-threaded timing pass, and compare its `T100` against the §VI
//! upper bound. A scenario counts only when its run met both of §VII's
//! constraints; aggregates are means over those scenarios, as the paper
//! averages "the outcomes from all 100 ETC/DAG combinations".

use std::time::Duration;

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::ScenarioSet;
use grid_bounds::upper_bound;
use rayon::prelude::*;

use slrh::RunContext;

use crate::heuristic::Heuristic;
use crate::weight_search::optimal_weights_with_steps_in;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The scenario suite (ETC × DAG cross product).
    pub set: ScenarioSet,
    /// Heuristics to evaluate (default: the paper's reported three).
    pub heuristics: Vec<Heuristic>,
    /// Cases to evaluate.
    pub cases: Vec<GridCase>,
    /// Coarse weight-search step (paper: 0.1): the first stage of the
    /// Figure 3 grid search.
    pub coarse: f64,
    /// Fine weight-search step (paper: 0.02): the second stage, around
    /// the coarse winner.
    pub fine: f64,
}

impl CampaignConfig {
    /// The paper's campaign on the given suite.
    pub fn paper(set: ScenarioSet) -> CampaignConfig {
        CampaignConfig {
            set,
            heuristics: Heuristic::REPORTED.to_vec(),
            cases: GridCase::ALL.to_vec(),
            coarse: 0.1,
            fine: 0.02,
        }
    }

    /// A cheaper search grid for reduced-scale runs.
    pub fn with_steps(mut self, coarse: f64, fine: f64) -> CampaignConfig {
        self.coarse = coarse;
        self.fine = fine;
        self
    }
}

/// Canonical serialization of a whole campaign: one [`CaseRow::canonical`]
/// line per row. Two runs of the same campaign produce byte-identical
/// canonical reports regardless of thread count — the determinism
/// differential tests (`tests/differential_determinism.rs`) assert
/// exactly that.
pub fn canonical_report(rows: &[CaseRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.canonical());
        out.push('\n');
    }
    out
}

/// One aggregated row: a heuristic's performance on a case.
#[derive(Clone, Debug)]
pub struct CaseRow {
    /// Which heuristic.
    pub heuristic: Heuristic,
    /// Which case.
    pub case: GridCase,
    /// Mean `T100` over compliant scenarios (Figure 4).
    pub mean_t100: f64,
    /// Mean `T100 / upper bound` over compliant scenarios (Figure 5).
    pub mean_ub_fraction: f64,
    /// Mean heuristic wall-clock time (Figure 6).
    pub mean_wall: Duration,
    /// Mean `T100` per second of heuristic execution (Figure 7).
    pub mean_t100_per_second: f64,
    /// Scenarios whose run met both constraints (for a weighted
    /// heuristic: with compliant weights) / total scenarios.
    pub feasible: usize,
    /// Total scenarios attempted.
    pub total: usize,
    /// Mean schedule cost in grid-dollars over compliant scenarios —
    /// `Some` only for the cost-pricing heuristics
    /// ([`Heuristic::prices_cost`]), so legacy rows stay byte-identical.
    pub mean_cost: Option<f64>,
}

impl CaseRow {
    /// Deterministic one-line serialization of the row: every field
    /// except `mean_wall` and `mean_t100_per_second`, which derive from
    /// host wall-clock and vary run to run even at fixed seeds. `{:?}`
    /// on the `f64` fields is shortest-roundtrip, so equal values render
    /// to equal bytes.
    pub fn canonical(&self) -> String {
        let mut line = format!(
            "{}|{}|t100={:?}|ub_frac={:?}|feasible={}/{}",
            self.heuristic,
            self.case,
            self.mean_t100,
            self.mean_ub_fraction,
            self.feasible,
            self.total
        );
        // Cost-pricing heuristics carry a trailing cost column; every
        // other row keeps the legacy five-field form byte for byte.
        if let Some(c) = self.mean_cost {
            line.push_str(&format!("|cost={c:?}"));
        }
        line
    }

    /// Parse a [`CaseRow::canonical`] line back into a row — the inverse
    /// the broker's batch-job checkpoints need to resume a campaign
    /// without re-running completed units. The two wall-clock-derived
    /// fields are not part of the canonical form and come back zero;
    /// `parsed.canonical()` reproduces the input byte for byte.
    pub fn parse_canonical(line: &str) -> Result<CaseRow, String> {
        let mut parts = line.trim().split('|');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("canonical row {line:?} missing {what}"))
        };
        let heuristic: Heuristic = next("heuristic")?.parse()?;
        let case: GridCase = next("case")?.parse()?;
        let field = |part: &str, key: &str| -> Result<String, String> {
            part.strip_prefix(key)
                .and_then(|r| r.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| format!("expected {key}=... in canonical row, got {part:?}"))
        };
        let mean_t100: f64 = field(next("t100")?, "t100")?
            .parse()
            .map_err(|e| format!("bad t100: {e}"))?;
        let mean_ub_fraction: f64 = field(next("ub_frac")?, "ub_frac")?
            .parse()
            .map_err(|e| format!("bad ub_frac: {e}"))?;
        let feas = field(next("feasible")?, "feasible")?;
        let (feasible, total) = feas
            .split_once('/')
            .ok_or_else(|| format!("bad feasible field {feas:?}"))?;
        // The optional trailing cost column (cost-pricing heuristics
        // only — its presence must match the heuristic or canonical()
        // would not round-trip).
        let mean_cost = match parts.next() {
            None => None,
            Some(part) => Some(
                field(part, "cost")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad cost: {e}"))?,
            ),
        };
        if mean_cost.is_some() != heuristic.prices_cost() {
            return Err(format!(
                "cost column mismatch for {heuristic} in canonical row {line:?}"
            ));
        }
        if parts.next().is_some() {
            return Err(format!("trailing fields in canonical row {line:?}"));
        }
        let feasible: usize = feasible.parse().map_err(|e| format!("bad feasible: {e}"))?;
        let total: usize = total.parse().map_err(|e| format!("bad total: {e}"))?;
        if feasible > total {
            return Err(format!(
                "canonical row {line:?} counts {feasible} feasible of {total}"
            ));
        }
        // A mean of non-negative finite samples is non-negative and finite.
        for (key, v) in [("t100", mean_t100), ("ub_frac", mean_ub_fraction)]
            .into_iter()
            .chain(mean_cost.map(|c| ("cost", c)))
        {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("bad {key}: {v:?} is not a mean of compliant runs"));
            }
        }
        Ok(CaseRow {
            heuristic,
            case,
            mean_t100,
            mean_ub_fraction,
            mean_wall: Duration::ZERO,
            mean_t100_per_second: 0.0,
            feasible,
            total,
            mean_cost,
        })
    }
}

/// Run the campaign. Weight searches run rayon-parallel across scenarios;
/// the timed measurement runs are strictly sequential afterwards so the
/// Figure 6/7 wall-clock numbers are not distorted by core contention.
///
/// The timing pass (phase 2) must **stay** a plain sequential loop on
/// the calling thread: EXPERIMENTS.md's Figure 6/7 numbers were taken
/// under that regime, and running it inside a parallel worker would both
/// contend for cores and (under the executor's nested-inline policy)
/// silently serialize phase 1. The assert below pins the contract.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<CaseRow> {
    assert!(
        rayon::current_thread_index().is_none(),
        "run_campaign must not be called from inside a parallel worker: \
         its timing pass needs an uncontended thread"
    );
    let mut rows = Vec::new();
    // One context for every sequential timing run in the campaign: after
    // the first run its buffers are warm, so the Figure 6/7 wall-clock
    // numbers measure the mapping, not the allocator.
    let mut timing_ctx = RunContext::new();

    for &h in &cfg.heuristics {
        for &case in &cfg.cases {
            rows.push(run_case_unit(cfg, h, case, &mut timing_ctx));
        }
    }
    rows
}

/// One campaign unit: evaluate `h` on `case` over the whole scenario
/// suite. This is the checkpointable quantum of work — the broker's
/// batch jobs run the (heuristic × case) grid one unit at a time and
/// record the resulting canonical row after each, so a restarted daemon
/// resumes at the first unit without a row.
///
/// Callers own the sequencing contract that [`run_campaign`] documents:
/// call from an uncontended, non-worker thread, one unit at a time, with
/// a single `timing_ctx` shared across the units of a campaign (warm
/// buffers keep the Figure 6/7 wall-clock numbers honest).
pub fn run_case_unit(
    cfg: &CampaignConfig,
    h: Heuristic,
    case: GridCase,
    timing_ctx: &mut RunContext,
) -> CaseRow {
    let ids: Vec<(usize, usize)> = cfg.set.ids().collect();

    // Phase 1 (parallel): tune weights per scenario. Each
    // executor chunk carries one RunContext, so every heuristic
    // run in a chunk's searches recycles the same buffers.
    // A scenario without compliant weights (for a weightless heuristic:
    // whose one run broke a constraint) is not counted.
    let tuned: Vec<Option<lagrange::weights::Weights>> = ids
        .par_iter()
        .map_init(RunContext::new, |ctx, &(e, d)| {
            let sc = cfg.set.scenario(case, e, d);
            optimal_weights_with_steps_in(h, &sc, cfg.coarse, cfg.fine, ctx).map(|o| o.weights)
        })
        .collect();

    // Phase 2 (sequential): timed, validated measurement runs.
    let mut t100s = Vec::new();
    let mut ub_fracs = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut costs = Vec::new();
    for (&(e, d), weights) in ids.iter().zip(&tuned) {
        let Some(w) = weights else { continue };
        let sc = cfg.set.scenario(case, e, d);
        let r = h.run_in(&sc, *w, timing_ctx);
        // The search already scored this run: it must still score.
        assert!(r.valid, "{h} produced an invalid schedule on {case}");
        assert!(
            r.metrics.constraints_met(),
            "{h} broke a constraint at its searched weights on {case}"
        );
        let ub = upper_bound(&sc.etc, &sc.grid, sc.tau);
        t100s.push(r.metrics.t100 as f64);
        ub_fracs.push(r.metrics.t100 as f64 / ub.t100.max(1) as f64);
        walls.push(r.wall);
        rates.push(r.t100_per_second());
        if let Some(c) = r.cost {
            costs.push(c);
        }
    }

    let n = t100s.len();
    // A row with no compliant run reads 0.0 in every mean (an empty f64
    // sum may be -0.0, which would render differently).
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    CaseRow {
        heuristic: h,
        case,
        mean_t100: mean(&t100s),
        mean_ub_fraction: mean(&ub_fracs),
        mean_wall: walls.iter().sum::<Duration>() / n.max(1) as u32,
        mean_t100_per_second: mean(&rates),
        feasible: n,
        total: ids.len(),
        mean_cost: h.prices_cost().then(|| mean(&costs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::workload::ScenarioParams;

    /// A miniature end-to-end campaign: 2 scenarios, 2 heuristics,
    /// 2 cases, coarse-only search. Exercises the full Figures 4–7
    /// pipeline at test scale.
    #[test]
    fn mini_campaign_produces_rows() {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 1, 2);
        let cfg = CampaignConfig {
            set,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A, GridCase::C],
            coarse: 0.25,
            fine: 0.25,
        };
        let rows = run_campaign(&cfg);
        assert_eq!(rows.len(), 4);

        // Unit extraction: replaying the grid one unit at a time with a
        // shared timing context reproduces the campaign's canonical
        // report byte for byte — the broker's checkpoint resume hinges
        // on this.
        let mut timing_ctx = RunContext::new();
        let mut unit_rows = Vec::new();
        for &h in &cfg.heuristics {
            for &case in &cfg.cases {
                unit_rows.push(run_case_unit(&cfg, h, case, &mut timing_ctx));
            }
        }
        assert_eq!(canonical_report(&rows), canonical_report(&unit_rows));

        for row in &rows {
            assert_eq!(row.total, 2);
            assert!(
                row.feasible > 0,
                "{} {} infeasible",
                row.heuristic,
                row.case
            );
            assert!(row.mean_t100 > 0.0);
            // Note: at reduced scale the paper's §VI bound can be exceeded
            // when cycles bind (see grid-bounds docs), so only positivity
            // is asserted here.
            assert!(row.mean_ub_fraction > 0.0);
            assert!(row.mean_wall > Duration::ZERO);
            assert!(row.mean_t100_per_second > 0.0);

            // Canonical rows parse back and re-serialize identically.
            let line = row.canonical();
            let parsed = CaseRow::parse_canonical(&line).expect("canonical row parses");
            assert_eq!(parsed.canonical(), line);
            assert_eq!(parsed.heuristic, row.heuristic);
            assert_eq!(parsed.case, row.case);
            assert_eq!(parsed.mean_t100.to_bits(), row.mean_t100.to_bits());
            assert_eq!(
                parsed.mean_ub_fraction.to_bits(),
                row.mean_ub_fraction.to_bits()
            );
            assert_eq!((parsed.feasible, parsed.total), (row.feasible, row.total));
        }
    }

    #[test]
    fn parse_canonical_rejects_malformed_rows() {
        for bad in [
            "",
            "SLRH-1",
            "SLRH-1|Case A",
            "SLRH-1|Case A|t100=1.0",
            "SLRH-1|Case A|t100=1.0|ub_frac=0.5",
            "SLRH-1|Case A|t100=1.0|ub_frac=0.5|feasible=2-2",
            "SLRH-1|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|extra",
            "SLRH-1|Case A|ub_frac=0.5|t100=1.0|feasible=2/2",
            "NOSUCH|Case A|t100=1.0|ub_frac=0.5|feasible=2/2",
            "SLRH-1|Case Z|t100=1.0|ub_frac=0.5|feasible=2/2",
            "SLRH-1|Case A|t100=nope|ub_frac=0.5|feasible=2/2",
            // What a torn or hand-edited checkpoint could hold: more
            // feasible scenarios than the suite, or a mean no set of
            // runs can have.
            "SLRH-1|Case A|t100=1.0|ub_frac=0.5|feasible=5/2",
            "SLRH-1|Case A|t100=NaN|ub_frac=0.5|feasible=2/2",
            "SLRH-1|Case A|t100=1.0|ub_frac=-3|feasible=2/2",
            "SLRH-1|Case A|t100=NaN|ub_frac=-3|feasible=2/2",
            "SLRH-1|Case A|t100=inf|ub_frac=0.5|feasible=2/2",
            "SLRH-1|Case A|t100=-1.0|ub_frac=0.5|feasible=2/2",
            "DBC-Cost|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|cost=-1.0",
            "DBC-Cost|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|cost=inf",
            // The cost column belongs to cost-pricing heuristics only,
            // and they must always carry it.
            "SLRH-1|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|cost=3.0",
            "DBC-Cost|Case A|t100=1.0|ub_frac=0.5|feasible=2/2",
            "DBC-Cost|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|cost=3.0|extra",
            "DBC-Cost|Case A|t100=1.0|ub_frac=0.5|feasible=2/2|cost=nope",
        ] {
            assert!(CaseRow::parse_canonical(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Cost-pricing heuristics produce rows with the trailing cost
    /// column; the column round-trips through the canonical codec. On
    /// this 4-subtask Case B suite DBC-Cost meets both constraints on
    /// both scenarios, and the row's cost is the mean over them.
    #[test]
    fn dbc_rows_carry_the_cost_column() {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(4), 2, 1);
        let cfg = CampaignConfig {
            set,
            heuristics: vec![Heuristic::DbcCost],
            cases: vec![GridCase::B],
            coarse: 0.25,
            fine: 0.25,
        };
        let rows = run_campaign(&cfg);
        let counts: Vec<_> = rows.iter().map(|r| (r.feasible, r.total)).collect();
        assert_eq!(counts, [(2, 2)]);
        for row in &rows {
            let cost = row.mean_cost.expect("DBC rows price cost");
            assert!(cost > 0.0, "{}", row.heuristic);
            let line = row.canonical();
            assert!(line.contains("|cost="), "{line}");
            let parsed = CaseRow::parse_canonical(&line).expect("parses");
            assert_eq!(parsed.canonical(), line);
            assert_eq!(parsed.mean_cost.unwrap().to_bits(), cost.to_bits());
        }
    }

    /// A weightless heuristic's row counts a scenario only when its one
    /// run met both constraints, and its means are over those runs:
    /// Greedy and DBC-Cost break τ on every 256-subtask Case B scenario
    /// of the 3 × 3 suite, so both rows are empty.
    #[test]
    fn weightless_rows_count_only_compliant_runs() {
        let cfg = CampaignConfig {
            set: ScenarioSet::new(ScenarioParams::paper_scaled(256), 3, 3),
            heuristics: vec![Heuristic::Greedy, Heuristic::DbcCost],
            cases: vec![GridCase::B],
            coarse: 0.25,
            fine: 0.25,
        };
        assert_eq!(
            canonical_report(&run_campaign(&cfg)),
            "Greedy|Case B|t100=0.0|ub_frac=0.0|feasible=0/9\n\
             DBC-Cost|Case B|t100=0.0|ub_frac=0.0|feasible=0/9|cost=0.0\n"
        );
    }
}
