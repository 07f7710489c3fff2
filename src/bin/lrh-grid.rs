//! `lrh-grid` — the command-line interface to the resource manager.
//!
//! Arguments are parsed by the typed layer in [`lrh_grid::cli`]; run
//! `lrh-grid` with no arguments for the full usage text. The mapping
//! commands (`run`, `replay`, `churn`, `submit`, `watch`) all build the
//! same [`MapRequest`] and execute it through `grid_broker::execute`,
//! so a submitted job's stdout is byte-identical to a local run of the
//! same flags: the deterministic report goes to stdout, timing and
//! progress chatter to stderr.

use std::process::exit;
use std::time::Instant;

use lrh_grid::broker::proto::{Event, MapRequest};
use lrh_grid::broker::server::{serve, BrokerConfig};
use lrh_grid::broker::{execute_map_counted, execute_open, Connection};
use lrh_grid::cli::{self, Addr, Command, Export, Job, OpenJob, Remote, RemoteJob, Serve, Tune};
use lrh_grid::grid::io;
use lrh_grid::sim::trace::Trace;
use lrh_grid::slrh::{run_slrh_with, RunContext, SlrhConfig};
use lrh_grid::sweep::weight_search::optimal_weights_with_steps;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&argv) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            exit(2);
        }
    };
    let code = match command {
        Command::Run(job) | Command::Replay(job) | Command::Churn(job) => run_local(&job),
        Command::Open(job) => run_open_local(&job),
        Command::Tune(tune) => run_tune(&tune),
        Command::Export(export) => run_export(&export),
        Command::Serve(serve) => run_serve(&serve),
        Command::Submit(remote) => run_submit(&remote, false),
        Command::Watch(remote) => run_submit(&remote, true),
        Command::Status(addr) => run_status(&addr),
        Command::Stop(addr) => run_stop(&addr),
    };
    exit(code);
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

/// Execute a mapping job locally through the same code path the daemon
/// runs submitted jobs on. The deterministic report is the only stdout.
fn run_local(job: &Job) -> i32 {
    let started = Instant::now();
    let mut ctx = RunContext::new();
    let mut ticks = 0u64;
    let mut invalidated = 0usize;
    let outcome = execute_map_counted(0, &job.request, &mut ctx, &mut |event| match event {
        // A tick frame stands for itself and the idle ticks before it.
        Event::Tick { idle, .. } => ticks += 1 + idle,
        Event::Disruption { invalidated: n, .. } => invalidated += n,
        _ => {}
    });
    match outcome {
        Ok((resp, stats)) => {
            print!("{}", resp.report);
            eprintln!(
                "mapped in {:?} ({ticks} clock ticks, {} sweeps elided, {invalidated} mappings \
                 invalidated)",
                started.elapsed(),
                stats.sweeps_elided
            );
            if job.gantt {
                render_gantt(&job.request);
            }
            0
        }
        Err(msg) => fail(&msg),
    }
}

/// Execute an open-system streaming job locally through the same code
/// path the daemon runs submitted jobs on.
fn run_open_local(job: &OpenJob) -> i32 {
    let started = Instant::now();
    let mut ctx = RunContext::new();
    let mut jobs = 0usize;
    let mut invalidated = 0usize;
    let outcome = execute_open(0, &job.request, &mut ctx, &mut |event| match event {
        Event::Job { .. } => jobs += 1,
        Event::Disruption { invalidated: n, .. } => invalidated += n,
        _ => {}
    });
    match outcome {
        Ok(resp) => {
            print!("{}", resp.report);
            eprintln!(
                "scheduled {jobs} jobs in {:?} ({invalidated} mappings invalidated)",
                started.elapsed()
            );
            0
        }
        Err(msg) => fail(&msg),
    }
}

/// Render a Gantt chart to stderr. The chart needs the final simulator
/// state, which the executor recycles, so the SLRH run is repeated; the
/// report on stdout is untouched either way.
fn render_gantt(request: &MapRequest) {
    let Some(variant) = request.heuristic.slrh_variant() else {
        eprintln!("(--gantt is available for the SLRH heuristics)");
        return;
    };
    let scenario = match request.scenario.build() {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("(--gantt skipped: {e})");
            return;
        }
    };
    let config = SlrhConfig {
        variant,
        ..request.config
    };
    let churn = match request.churn(scenario.grid.len()) {
        Ok(churn) => churn,
        Err(e) => {
            eprintln!("(--gantt skipped: {e})");
            return;
        }
    };
    let state = run_slrh_with(&scenario, &config, &churn, &mut RunContext::new(), None).state;
    let trace = Trace::from_state(&state);
    eprint!("{}", trace.render_gantt(state.schedule(), 64));
}

fn run_tune(tune: &Tune) -> i32 {
    let scenario = match tune.scenario.build() {
        Ok(scenario) => scenario,
        Err(e) => return fail(&e),
    };
    match optimal_weights_with_steps(tune.heuristic, &scenario, tune.coarse, tune.fine) {
        Some(o) => {
            println!(
                "{} on {}: best compliant weights {} -> T100 = {} ({} runs searched)",
                tune.heuristic, scenario.case, o.weights, o.t100, o.evaluations
            );
            0
        }
        None => {
            println!(
                "{} on {}: no compliant (alpha, beta) pair found",
                tune.heuristic, scenario.case
            );
            0
        }
    }
}

fn run_export(export: &Export) -> i32 {
    let scenario = match export.scenario.build() {
        Ok(scenario) => scenario,
        Err(e) => return fail(&e),
    };
    if let Err(e) = std::fs::write(&export.out, io::write(&scenario)) {
        return fail(&format!("writing {}: {e}", export.out));
    }
    println!(
        "wrote {} ({} tasks, {} machines, case {})",
        export.out,
        scenario.tasks(),
        scenario.grid.len(),
        scenario.case
    );
    0
}

fn run_serve(opts: &Serve) -> i32 {
    let handle = match serve(&BrokerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
    }) {
        Ok(handle) => handle,
        Err(e) => return fail(&format!("binding {}: {e}", opts.addr)),
    };
    eprintln!(
        "lrh-grid broker listening on {} ({} execution slots)",
        handle.addr(),
        opts.workers
    );
    handle.join();
    eprintln!("lrh-grid broker stopped");
    0
}

fn run_submit(remote: &Remote, narrate: bool) -> i32 {
    let mut conn = match Connection::connect(&remote.addr) {
        Ok(conn) => conn,
        Err(e) => return fail(&format!("connecting to {}: {e}", remote.addr)),
    };
    let started = Instant::now();
    let mut on_event = |event: &Event| {
        if narrate {
            narrate_event(event);
        }
    };
    let outcome = match &remote.job {
        RemoteJob::Map(job) => conn.submit_map(&job.request, &mut on_event),
        RemoteJob::Open(job) => conn.submit_open(&job.request, &mut on_event),
    };
    match outcome {
        Ok(resp) => {
            print!("{}", resp.report);
            eprintln!("job {} completed in {:?}", resp.job, started.elapsed());
            0
        }
        Err(msg) => fail(&msg),
    }
}

/// One human-readable stderr line per streamed event.
fn narrate_event(event: &Event) {
    match event {
        Event::Queued { job } => eprintln!("[job {job}] queued"),
        Event::Started { job } => eprintln!("[job {job}] started"),
        Event::Tick {
            job,
            clock,
            tick,
            mapped,
            commits,
            idle,
        } => eprintln!(
            "[job {job}] tick {tick} at clock {clock}: {mapped} mapped (+{commits}) after {idle} \
             idle ticks"
        ),
        Event::Disruption {
            job,
            at,
            invalidated,
        } => eprintln!("[job {job}] disruption at clock {at}: {invalidated} mappings invalidated"),
        Event::Job {
            job,
            id,
            mapped,
            tasks,
            hit,
            cost,
        } => eprintln!(
            "[job {job}] arrival {id}: {mapped}/{tasks} mapped, deadline {}, cost {cost}",
            if *hit { "hit" } else { "missed" }
        ),
        Event::Unit {
            job, index, total, ..
        } => eprintln!("[job {job}] campaign unit {}/{total} done", index + 1),
        Event::Done { job } => eprintln!("[job {job}] done"),
    }
}

fn run_status(addr: &Addr) -> i32 {
    let mut conn = match Connection::connect(&addr.addr) {
        Ok(conn) => conn,
        Err(e) => return fail(&format!("connecting to {}: {e}", addr.addr)),
    };
    match conn.status() {
        Ok(s) => {
            println!(
                "queued={} running={} completed={} workers={}",
                s.queued, s.running, s.completed, s.workers
            );
            0
        }
        Err(msg) => fail(&msg),
    }
}

fn run_stop(addr: &Addr) -> i32 {
    let mut conn = match Connection::connect(&addr.addr) {
        Ok(conn) => conn,
        Err(e) => return fail(&format!("connecting to {}: {e}", addr.addr)),
    };
    match conn.shutdown() {
        Ok(()) => {
            eprintln!("daemon at {} is shutting down", addr.addr);
            0
        }
        Err(msg) => fail(&msg),
    }
}
