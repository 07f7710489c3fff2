//! Property tests: every typed wire message round-trips through its
//! frame *and* through the encoded wire text —
//! `from_frame(decode(encode(to_frame(m)))) == m` — over generated
//! message values, not just the unit tests' samples. Floats (the
//! weights inside a config, a campaign's search steps) must survive bit
//! for bit.

use adhoc_grid::config::GridCase;
use adhoc_grid::io::wire::Frame;
use adhoc_grid::units::Dur;
use grid_broker::proto::{
    CampaignRequest, CampaignResponse, ErrorResponse, Event, MapRequest, MapResponse, Request,
    ScenarioSpec, ServerMsg, StatusResponse,
};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::SearcherKind;
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use proptest::prelude::*;
use slrh::{Adaptation, SlrhConfig, SlrhVariant};

fn cases() -> impl Strategy<Value = GridCase> {
    prop::sample::select(&[GridCase::A, GridCase::B, GridCase::C][..])
}

fn heuristics() -> impl Strategy<Value = Heuristic> {
    prop::sample::select(&Heuristic::ALL[..])
}

fn names() -> impl Strategy<Value = String> {
    prop::sample::select(&["cli", "alice", "bob-2", "smoke", "x"][..]).prop_map(str::to_string)
}

fn weights() -> impl Strategy<Value = Weights> {
    (0.0f64..=1.0, 0.0f64..=1.0)
        .prop_map(|(a, b)| Weights::new(a, b * (1.0 - a)).expect("on simplex"))
}

fn step_rules() -> impl Strategy<Value = StepRule> {
    (0usize..3, 0.01f64..2.0, 0.0f64..4.0).prop_map(|(tag, a, target)| match tag {
        0 => StepRule::Constant { a },
        1 => StepRule::Diminishing { a },
        _ => StepRule::Polyak { target, max_step: a },
    })
}

fn adaptations() -> impl Strategy<Value = Option<Adaptation>> {
    (
        (any::<bool>(), any::<bool>()),
        step_rules(),
        1u64..16,
        0.0f64..0.2,
        1.0f64..32.0,
        weights(),
    )
        .prop_map(
            |((on, warm), rule, every, min_alpha, max_multiplier, w)| {
                on.then_some(Adaptation {
                    rule,
                    every,
                    min_alpha,
                    max_multiplier,
                    warm_start: warm.then_some(w),
                })
            },
        )
}

fn configs() -> impl Strategy<Value = SlrhConfig> {
    (
        prop::sample::select(&[SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3][..]),
        weights(),
        (1u64..500, 1u64..2000),
        (any::<bool>(), 1u32..9, 0u64..32),
        adaptations(),
    )
        .prop_map(|(variant, w, (dt, h), (secondary, clusters, spill_after), adaptation)| {
            let mut cfg = SlrhConfig::paper(variant, w);
            cfg.dt = Dur(dt);
            cfg.horizon = Dur(h);
            cfg.allow_secondary = secondary;
            cfg.scale = slrh::ScaleMode { clusters, spill_after };
            cfg.adaptation = adaptation;
            cfg
        })
}

fn searchers() -> impl Strategy<Value = SearcherKind> {
    (any::<bool>(), any::<u64>(), 1u32..256).prop_map(|(grid, seed, iterations)| {
        if grid {
            SearcherKind::Grid
        } else {
            SearcherKind::Anneal { seed, iterations }
        }
    })
}

fn churn() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..8, 1u64..100_000), 0..4)
}

fn scenario_specs() -> impl Strategy<Value = ScenarioSpec> {
    (
        1usize..2000,
        cases(),
        0usize..10,
        0usize..10,
        (any::<bool>(), 0u64..u64::MAX),
        (any::<bool>(), 1u64..1_000_000),
    )
        .prop_map(
            |(tasks, case, etc, dag, (with_seed, seed), (with_tau, tau))| {
                ScenarioSpec::Generate {
                    tasks,
                    case,
                    etc,
                    dag,
                    seed: with_seed.then_some(seed),
                    tau: with_tau.then_some(tau),
                }
            },
        )
}

fn map_requests() -> impl Strategy<Value = MapRequest> {
    (
        (names(), names(), heuristics(), configs(), scenario_specs()),
        (churn(), churn()),
    )
        .prop_map(
            |((client, label, heuristic, config, scenario), (losses, arrivals))| MapRequest {
                client,
                label,
                heuristic,
                config,
                scenario,
                losses,
                arrivals,
            },
        )
}

fn campaign_requests() -> impl Strategy<Value = CampaignRequest> {
    (
        (names(), 1usize..5000, 1usize..11, 1usize..11),
        (
            prop::collection::vec(heuristics(), 1..4),
            prop::collection::vec(cases(), 1..4),
            0.01f64..0.5,
            0.01f64..0.5,
            searchers(),
            (
                any::<bool>(),
                prop::sample::select(&["/tmp/cp.txt", "sweep.ckpt", "runs/a-b_c.d"][..]),
            ),
        ),
    )
        .prop_map(
            |(
                (client, tasks, etc_count, dag_count),
                (heuristics, cases, coarse, fine, searcher, (with_cp, cp)),
            )| CampaignRequest {
                client,
                label: "sweep".into(),
                tasks,
                etc_count,
                dag_count,
                heuristics,
                cases,
                coarse,
                fine,
                searcher,
                checkpoint: with_cp.then(|| cp.to_string()),
            },
        )
}

fn events() -> impl Strategy<Value = Event> {
    (
        (0usize..6, 1u64..1_000_000),
        (0u64..1_000_000, 1u64..100_000, 0usize..10_000, 0u64..100),
        (0usize..100, 1usize..100, heuristics(), cases(), 0.0f64..1e6),
    )
        .prop_map(
            |((tag, job), (clock, tick, mapped, commits), (index, extra, h, c, t100))| match tag {
                0 => Event::Queued { job },
                1 => Event::Started { job },
                2 => Event::Tick {
                    job,
                    clock,
                    tick,
                    mapped,
                    commits,
                },
                3 => Event::Disruption {
                    job,
                    at: clock,
                    invalidated: mapped,
                },
                4 => Event::Unit {
                    job,
                    index,
                    total: index + extra,
                    // A realistic canonical row as the payload.
                    row: format!("{h}|{c}|t100={t100:?}|ub_frac=0.5|feasible=2/2"),
                },
                _ => Event::Done { job },
            },
        )
}

fn reports() -> impl Strategy<Value = String> {
    prop::sample::select(
        &[
            "",
            "lrh-grid report v1\nmapped=2/2\n",
            "SLRH-1|Case A|t100=25.0|ub_frac=0.78125|feasible=2/2\n",
            "line one\nline two\nline three\n",
        ][..],
    )
    .prop_map(str::to_string)
}

/// Round-trip helper: typed → frame → text → frame → typed.
fn wire_round_trip<T, F>(msg: &T, from_frame: F, frame: Frame) -> T
where
    F: Fn(&Frame) -> Result<T, adhoc_grid::io::kv::KvError>,
    T: std::fmt::Debug,
{
    let text = frame.encode();
    let decoded = Frame::decode(&text)
        .unwrap_or_else(|e| panic!("frame for {msg:?} does not re-parse: {e}"));
    assert_eq!(decoded.encode(), text, "encode is not a fixpoint");
    from_frame(&decoded).unwrap_or_else(|e| panic!("typed decode of {msg:?} failed: {e}"))
}

proptest! {
    #[test]
    fn map_requests_round_trip(req in map_requests()) {
        let back = wire_round_trip(&req, MapRequest::from_frame, req.to_frame());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn campaign_requests_round_trip(req in campaign_requests()) {
        let back = wire_round_trip(&req, CampaignRequest::from_frame, req.to_frame());
        // Float fields must survive bit for bit.
        prop_assert_eq!(back.coarse.to_bits(), req.coarse.to_bits());
        prop_assert_eq!(back.fine.to_bits(), req.fine.to_bits());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn events_round_trip(event in events()) {
        let back = wire_round_trip(&event, Event::from_frame, event.to_frame());
        prop_assert_eq!(back, event);
    }

    #[test]
    fn responses_round_trip(
        job in 1u64..1_000_000,
        resumed in 0usize..100,
        report in reports(),
        queued in 0usize..100,
        running in 0usize..8,
        completed in 0u64..10_000,
    ) {
        let map = MapResponse { job, report: report.clone() };
        prop_assert_eq!(wire_round_trip(&map, MapResponse::from_frame, map.to_frame()), map.clone());

        let campaign = CampaignResponse { job, resumed, report };
        prop_assert_eq!(
            wire_round_trip(&campaign, CampaignResponse::from_frame, campaign.to_frame()),
            campaign.clone()
        );

        let status = StatusResponse { queued, running, completed, workers: running.max(1) };
        prop_assert_eq!(
            wire_round_trip(&status, StatusResponse::from_frame, status.to_frame()),
            status
        );
    }

    #[test]
    fn errors_round_trip(
        with_job in any::<bool>(),
        job in 1u64..1_000_000,
        message in prop::sample::select(
            &["bad integer \"x\"", "cannot lose every machine", "line 3: tasks: bad value"][..]
        ),
    ) {
        let err = ErrorResponse { job: with_job.then_some(job), message: message.to_string() };
        prop_assert_eq!(
            wire_round_trip(&err, ErrorResponse::from_frame, err.to_frame()),
            err.clone()
        );
    }

    #[test]
    fn request_envelope_dispatches(req in map_requests()) {
        let envelope = Request::Map(req);
        let back = wire_round_trip(&envelope, Request::from_frame, envelope.to_frame());
        prop_assert_eq!(back, envelope);
    }

    #[test]
    fn server_envelope_dispatches(event in events()) {
        let envelope = ServerMsg::Event(event);
        let back = wire_round_trip(&envelope, ServerMsg::from_frame, envelope.to_frame());
        prop_assert_eq!(back, envelope);
    }
}
