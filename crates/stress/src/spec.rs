//! The fuzz case specification and its corpus codec.
//!
//! A [`CaseSpec`] is everything one fuzz case needs: the scenario
//! coordinates (task count, grid case, ETC/DAG suite ids, master seed,
//! deadline), the SLRH knobs (ΔT, horizon, objective weights) and the
//! churn trace (losses and arrivals). Specs are plain data — generation
//! lives in [`crate::gen`], execution in [`crate::runner`].
//!
//! The codec is a line-oriented `key=value` text format so reproducers
//! under `corpus/` diff cleanly in review. Floats are stored as exact
//! `f64` bit patterns (hex), so a decoded spec re-runs bit-identically.

use adhoc_grid::arrival::{BackgroundParams, JobArrival, OpenParams};
use adhoc_grid::config::{GridCase, GridConfig};
use adhoc_grid::io::kv;
use adhoc_grid::units::{Dur, Time};
use adhoc_grid::workload::{Scenario, ScenarioParams};
use lagrange::weights::Weights;
use slrh::{Adaptation, Churn, ChurnError, SlrhConfig, SlrhVariant};

/// One churn event: machine `machine` at tick `at`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChurnEvent {
    /// Machine index within the scenario's grid.
    pub machine: usize,
    /// Event time, in ticks.
    pub at: u64,
}

/// The open-system portion of a fuzz case: a job-arrival trace plus a
/// background-load model, scheduled on the spec's grid case under the
/// spec's churn trace and SLRH knobs.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenSpec {
    /// The job-arrival trace, in arrival order.
    pub jobs: Vec<JobArrival>,
    /// The background-load model.
    pub bg: BackgroundParams,
}

/// A fully-specified fuzz case.
#[derive(Clone, PartialEq, Debug)]
pub struct CaseSpec {
    /// The fuzz seed the case was generated from (0 for hand-written
    /// corpus cases).
    pub seed: u64,
    /// Number of subtasks `|T|`.
    pub tasks: usize,
    /// Grid case (machine mix envelope).
    pub case: GridCase,
    /// ETC suite member.
    pub etc_id: usize,
    /// DAG suite member.
    pub dag_id: usize,
    /// Master seed for the workload generators.
    pub master_seed: u64,
    /// Deadline τ, in ticks.
    pub tau: u64,
    /// Clock step ΔT, in ticks.
    pub dt: u64,
    /// Receding horizon H, in ticks.
    pub horizon: u64,
    /// Objective weight α.
    pub alpha: f64,
    /// Objective weight β.
    pub beta: f64,
    /// Machine losses.
    pub losses: Vec<ChurnEvent>,
    /// Machine arrivals.
    pub arrivals: Vec<ChurnEvent>,
    /// Online weight adaptation, when the case runs the adaptive mode.
    /// `None` (and absent from the corpus encoding, so pre-existing
    /// reproducers decode unchanged) runs the legacy fixed-weight path.
    pub adaptation: Option<Adaptation>,
    /// Open-system block, when the case streams a job trace through the
    /// shared grid. `None` (and absent from the corpus encoding, so
    /// pre-existing reproducers decode unchanged) keeps the case
    /// closed-system.
    pub open: Option<OpenSpec>,
}

impl CaseSpec {
    /// Generate the case's scenario. Deterministic in the spec.
    pub fn scenario(&self) -> Scenario {
        let params = ScenarioParams::paper_scaled(self.tasks)
            .with_seed(self.master_seed)
            .with_tau(Time(self.tau));
        Scenario::generate(&params, self.case, self.etc_id, self.dag_id)
    }

    /// The case's objective weights.
    pub fn weights(&self) -> Weights {
        Weights::new(self.alpha, self.beta).expect("spec carries valid weights")
    }

    /// The SLRH configuration for `variant`, including the case's
    /// adaptation block when one was sampled.
    pub fn config(&self, variant: SlrhVariant) -> SlrhConfig {
        let mut cfg = SlrhConfig::paper(variant, self.weights())
            .with_dt(Dur(self.dt))
            .with_horizon(Dur(self.horizon));
        cfg.adaptation = self.adaptation;
        cfg
    }

    /// The legacy fixed-weight configuration, with any adaptation block
    /// stripped — the reference arm for the inert-adaptation oracle.
    pub fn legacy_config(&self, variant: SlrhVariant) -> SlrhConfig {
        let mut cfg = self.config(variant);
        cfg.adaptation = None;
        cfg
    }

    /// The case's churn trace, checked against its grid case.
    pub fn churn(&self) -> Result<Churn, ChurnError> {
        fn pairs(events: &[ChurnEvent]) -> impl Iterator<Item = (usize, u64)> + '_ {
            events.iter().map(|e| (e.machine, e.at))
        }
        Churn::from_pairs(
            pairs(&self.losses),
            pairs(&self.arrivals),
            GridConfig::case(self.case).len(),
        )
    }

    /// The open-system instance the case names, when it carries one.
    /// Shares the spec's grid case and master seed, so each job's
    /// scenario artifacts derive from the same streams as the closed
    /// system's.
    pub fn open_params(&self) -> Option<OpenParams> {
        self.open.as_ref().map(|o| OpenParams {
            case: self.case,
            master_seed: self.master_seed,
            jobs: o.jobs.clone(),
            bg: o.bg,
        })
    }

    /// Serialize to the corpus text format.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        s.push_str("# stress corpus case (key=value; floats are f64 bit patterns)\n");
        s.push_str("version=1\n");
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("tasks={}\n", self.tasks));
        s.push_str(&format!("case={}\n", self.case.letter()));
        s.push_str(&format!("etc_id={}\n", self.etc_id));
        s.push_str(&format!("dag_id={}\n", self.dag_id));
        s.push_str(&format!("master_seed={:#018x}\n", self.master_seed));
        s.push_str(&format!("tau={}\n", self.tau));
        s.push_str(&format!("dt={}\n", self.dt));
        s.push_str(&format!("horizon={}\n", self.horizon));
        s.push_str(&format!(
            "alpha={} # {}\n",
            kv::format_f64_bits(self.alpha),
            self.alpha
        ));
        s.push_str(&format!(
            "beta={} # {}\n",
            kv::format_f64_bits(self.beta),
            self.beta
        ));
        for e in &self.losses {
            s.push_str(&format!("loss={}@{}\n", e.machine, e.at));
        }
        for e in &self.arrivals {
            s.push_str(&format!("arrival={}@{}\n", e.machine, e.at));
        }
        if let Some(ad) = &self.adaptation {
            // The rule rides its canonical Display form (Rust float
            // `{:?}` output round-trips bit-exactly).
            s.push_str(&format!("adapt_rule={}\n", ad.rule));
            s.push_str(&format!("adapt_every={}\n", ad.every));
        }
        if let Some(open) = &self.open {
            // Jobs and background ride their own one-line codecs
            // (budgets as exact f64 bit patterns), one `open_job=` per
            // job plus exactly one `open_bg=` closing the block.
            for j in &open.jobs {
                s.push_str(&format!("open_job={}\n", j.encode()));
            }
            s.push_str(&format!("open_bg={}\n", open.bg.encode()));
        }
        s
    }

    /// Parse the corpus text format. Built on the shared
    /// [`adhoc_grid::io::kv`] codec; this method only decides which keys
    /// exist and which are required.
    pub fn decode(text: &str) -> Result<CaseSpec, String> {
        let mut seed = None;
        let mut tasks = None;
        let mut case = None;
        let mut etc_id = None;
        let mut dag_id = None;
        let mut master_seed = None;
        let mut tau = None;
        let mut dt = None;
        let mut horizon = None;
        let mut alpha = None;
        let mut beta = None;
        let mut losses = Vec::new();
        let mut arrivals = Vec::new();
        let mut adapt_rule = None;
        let mut adapt_every = None;
        let mut open_jobs = Vec::new();
        let mut open_bg = None;

        for (no, line) in kv::Lines::new(text) {
            let (key, value) = kv::split_pair(no, line).map_err(|e| e.to_string())?;
            let ctx = |e: String| format!("line {no}: {key}: {e}");
            let event =
                |s: &str| kv::parse_at_pair(s).map(|(machine, at)| ChurnEvent { machine, at });
            match key {
                "version" => {
                    if value != "1" {
                        return Err(format!("unsupported corpus version {value}"));
                    }
                }
                "seed" => seed = Some(kv::parse_u64(value).map_err(ctx)?),
                "tasks" => tasks = Some(kv::parse_usize(value).map_err(ctx)?),
                "case" => case = Some(value.parse::<GridCase>().map_err(ctx)?),
                "etc_id" => etc_id = Some(kv::parse_usize(value).map_err(ctx)?),
                "dag_id" => dag_id = Some(kv::parse_usize(value).map_err(ctx)?),
                "master_seed" => master_seed = Some(kv::parse_u64(value).map_err(ctx)?),
                "tau" => tau = Some(kv::parse_u64(value).map_err(ctx)?),
                "dt" => dt = Some(kv::parse_u64(value).map_err(ctx)?),
                "horizon" => horizon = Some(kv::parse_u64(value).map_err(ctx)?),
                "alpha" => alpha = Some(kv::parse_f64_bits(value).map_err(ctx)?),
                "beta" => beta = Some(kv::parse_f64_bits(value).map_err(ctx)?),
                "loss" => losses.push(event(value).map_err(ctx)?),
                "arrival" => arrivals.push(event(value).map_err(ctx)?),
                "adapt_rule" => {
                    adapt_rule = Some(value.parse::<lagrange::step::StepRule>().map_err(ctx)?)
                }
                "adapt_every" => adapt_every = Some(kv::parse_u64(value).map_err(ctx)?),
                "open_job" => open_jobs.push(JobArrival::decode(value).map_err(ctx)?),
                "open_bg" => open_bg = Some(BackgroundParams::decode(value).map_err(ctx)?),
                other => return Err(format!("line {no}: unknown key {other:?}")),
            }
        }

        fn req<T>(name: &str, v: Option<T>) -> Result<T, String> {
            v.ok_or_else(|| format!("missing {name}"))
        }
        let adaptation = Adaptation::from_parts(adapt_rule, adapt_every)
            .map_err(|e| format!("adaptation: {e}"))?;
        let open = match (open_jobs.is_empty(), open_bg) {
            (false, Some(bg)) => Some(OpenSpec {
                jobs: open_jobs,
                bg,
            }),
            (true, None) => None,
            (false, None) => return Err("open_job lines require open_bg".into()),
            (true, Some(_)) => return Err("open_bg requires open_job lines".into()),
        };
        Ok(CaseSpec {
            seed: req("seed", seed)?,
            tasks: req("tasks", tasks)?,
            case: req("case", case)?,
            etc_id: req("etc_id", etc_id)?,
            dag_id: req("dag_id", dag_id)?,
            master_seed: req("master_seed", master_seed)?,
            tau: req("tau", tau)?,
            dt: req("dt", dt)?,
            horizon: req("horizon", horizon)?,
            alpha: req("alpha", alpha)?,
            beta: req("beta", beta)?,
            losses,
            arrivals,
            adaptation,
            open,
        })
    }

    /// Check the spec against every precondition of the APIs it drives,
    /// each by calling the rule's owner, so corpus edits fail with a
    /// message instead of a panic mid-run.
    pub fn check(&self) -> Result<(), String> {
        if self.tasks == 0 {
            return Err("tasks must be positive".into());
        }
        let weights = Weights::new(self.alpha, self.beta)
            .map_err(|_| format!("invalid weights ({}, {})", self.alpha, self.beta))?;
        let config = SlrhConfig {
            dt: Dur(self.dt),
            horizon: Dur(self.horizon),
            adaptation: self.adaptation,
            ..SlrhConfig::paper(SlrhVariant::V1, weights)
        };
        config.check().map_err(|e| format!("config: {e}"))?;
        if let Some(params) = self.open_params() {
            params.check().map_err(|e| format!("open: {e}"))?;
        }
        self.churn().map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CaseSpec {
        CaseSpec {
            seed: 7,
            tasks: 16,
            case: GridCase::B,
            etc_id: 2,
            dag_id: 1,
            master_seed: 0xDEAD_BEEF_1234_5678,
            tau: 5_000,
            dt: 5,
            horizon: 100,
            alpha: 0.55,
            beta: 0.2,
            losses: vec![ChurnEvent {
                machine: 1,
                at: 333,
            }],
            arrivals: vec![ChurnEvent {
                machine: 2,
                at: 333,
            }],
            adaptation: None,
            open: None,
        }
    }

    fn sample_open() -> OpenSpec {
        use adhoc_grid::arrival::JobKind;
        OpenSpec {
            jobs: vec![
                JobArrival {
                    id: 0,
                    at: Time(40),
                    kind: JobKind::Dag,
                    tasks: 6,
                    deadline: Dur(9_000),
                    budget: Some(0.1 + 0.2),
                },
                JobArrival {
                    id: 1,
                    at: Time(512),
                    kind: JobKind::Bag,
                    tasks: 4,
                    deadline: Dur(7_500),
                    budget: None,
                },
            ],
            bg: BackgroundParams {
                max_offset: 64,
                max_util_eighths: 3,
                seed: 0x0B5E_55ED,
            },
        }
    }

    #[test]
    fn codec_round_trips_exactly() {
        let spec = sample();
        let decoded = CaseSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.alpha.to_bits(), spec.alpha.to_bits());
    }

    #[test]
    fn adaptive_codec_round_trips_exactly() {
        use lagrange::step::StepRule;
        let mut spec = sample();
        spec.adaptation = Some(Adaptation {
            rule: StepRule::Polyak {
                target: 0.1 + 0.2,
                max_step: 0.25,
            },
            every: 3,
        });
        let decoded = CaseSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(decoded, spec);
        let ad = decoded.adaptation.unwrap();
        // The rule's floats ride the Display form and still round-trip
        // bit-exactly (0.1 + 0.2 is not representable as a short literal).
        assert_eq!(
            ad.rule,
            StepRule::Polyak {
                target: 0.1 + 0.2,
                max_step: 0.25
            }
        );
        // The adaptation reaches the config; the legacy config strips it.
        assert!(decoded.config(SlrhVariant::V1).adaptation.is_some());
        assert_eq!(decoded.legacy_config(SlrhVariant::V1).adaptation, None);
    }

    #[test]
    fn orphan_adaptation_keys_are_rejected() {
        let spec = sample();
        let text = format!("{}adapt_every=3\n", spec.encode());
        assert!(CaseSpec::decode(&text)
            .unwrap_err()
            .contains("requires an adaptation rule"));
        let mut bad = sample();
        bad.adaptation = Some(Adaptation {
            every: 0,
            ..Adaptation::default()
        });
        assert!(bad.check().unwrap_err().contains("adaptation"));
    }

    #[test]
    fn open_codec_round_trips_exactly() {
        let mut spec = sample();
        spec.open = Some(sample_open());
        let decoded = CaseSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(decoded, spec);
        // The budget rides as an exact bit pattern (0.1 + 0.2 is not
        // representable as a short literal).
        let open = decoded.open.unwrap();
        assert_eq!(
            open.jobs[0].budget.unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(open.bg.seed, 0x0B5E_55ED);
        // And the spec names a runnable open-system instance.
        let params = spec.open_params().unwrap();
        assert_eq!(params.case, spec.case);
        assert_eq!(params.jobs.len(), 2);
    }

    #[test]
    fn orphan_open_keys_are_rejected() {
        let spec = sample();
        let jobs_only = format!("{}open_job=0@5;dag;4;100;-\n", spec.encode());
        assert!(CaseSpec::decode(&jobs_only)
            .unwrap_err()
            .contains("require open_bg"));
        let bg_only = format!("{}open_bg=0;0;0x0000000000000000\n", spec.encode());
        assert!(CaseSpec::decode(&bg_only)
            .unwrap_err()
            .contains("requires open_job"));
    }

    #[test]
    fn check_catches_open_preconditions() {
        let mut spec = sample();
        spec.open = Some(sample_open());
        assert_eq!(spec.check(), Ok(()));
        let mut dup = spec.clone();
        dup.open.as_mut().unwrap().jobs[1].id = 0;
        assert!(dup.check().unwrap_err().contains("open: duplicate job id"));
        let mut empty = spec.clone();
        empty.open.as_mut().unwrap().jobs.clear();
        assert!(empty.check().unwrap_err().contains("at least one job"));
        let mut zero = spec.clone();
        zero.open.as_mut().unwrap().jobs[0].deadline = Dur(0);
        assert!(zero.check().unwrap_err().contains("zero deadline"));
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(CaseSpec::decode("tasks=abc").is_err());
        assert!(CaseSpec::decode("nonsense\n").is_err());
        assert!(CaseSpec::decode("unknown_key=1\n").is_err());
        // Missing required keys.
        assert!(CaseSpec::decode("seed=1\n")
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn check_catches_api_preconditions() {
        let mut spec = sample();
        assert_eq!(spec.check(), Ok(()));
        spec.losses = vec![
            ChurnEvent { machine: 0, at: 1 },
            ChurnEvent { machine: 1, at: 2 },
            ChurnEvent { machine: 2, at: 3 },
        ];
        assert!(spec.check().unwrap_err().contains("every machine"));
        let mut spec = sample();
        spec.arrivals = vec![ChurnEvent {
            machine: 1,
            at: 400,
        }];
        assert!(spec.check().unwrap_err().contains("before arriving"));
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let spec = sample();
        let a = spec.scenario();
        let b = spec.scenario();
        assert_eq!(a.etc, b.etc);
        assert_eq!(a.dag, b.dag);
        assert_eq!(a.data, b.data);
        assert_eq!(a.tau, Time(5_000));
        assert_eq!(a.grid.len(), 3);
    }
}
