//! Scenario export/import in a simple versioned text format.
//!
//! Although every workload is reproducible from its seed, an open-source
//! release needs inspectable, exchangeable artifacts: the exact ETC
//! matrix, DAG and data sizes a result was produced from. This module
//! round-trips a [`Scenario`] through a line-oriented UTF-8 format:
//!
//! ```text
//! lrh-grid-scenario v1
//! case A
//! tau 340750
//! etc <etc_id> <tasks> <machines>
//! <row of ETC seconds, space-separated, one line per task>
//! ...
//! machines <count>
//! machine <class> <battery> <compute_power> <comm_power> <bandwidth>
//! ...
//! dag <dag_id> <tasks> <edges>
//! edge <parent> <child> <megabits>
//! ...
//! end
//! ```
//!
//! Floats are printed with enough precision (`{:.17e}`) to round-trip
//! `f64` exactly, so `read(&write(sc))` reproduces the scenario bit for
//! bit (verified by tests and used by the example round-trip).

use std::fmt::Write as _;
use std::str::FromStr;

pub mod kv;
pub mod wire;

use crate::config::{GridCase, GridConfig, MachineId};
use crate::dag::Dag;
use crate::data::DataSizes;
use crate::etc::EtcMatrix;
use crate::machine::{MachineClass, MachineSpec};
use crate::task::TaskId;
use crate::units::{check_input_tasks, Energy, Megabits, Time};
use crate::workload::Scenario;

/// Errors from parsing a scenario file. An alias of the shared
/// [`kv::KvError`]: every text format in the workspace (scenario files,
/// the stress corpus, the broker wire protocol) reports parse failures
/// the same way — a 1-based line number plus a message.
pub type ParseError = kv::KvError;

use kv::err;

/// Serialize a scenario to the v1 text format.
///
/// ```
/// use adhoc_grid::workload::{Scenario, ScenarioParams};
/// use adhoc_grid::config::GridCase;
/// use adhoc_grid::io;
///
/// let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::B, 0, 0);
/// let text = io::write(&sc);
/// let back = io::read(&text).unwrap();
/// assert_eq!(back.etc, sc.etc);
/// assert_eq!(back.dag, sc.dag);
/// ```
pub fn write(sc: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "lrh-grid-scenario v1");
    let _ = writeln!(out, "case {}", sc.case.letter());
    let _ = writeln!(out, "tau {}", sc.tau.0);
    let _ = writeln!(
        out,
        "etc {} {} {}",
        sc.etc_id,
        sc.etc.tasks(),
        sc.etc.machines()
    );
    for i in 0..sc.etc.tasks() {
        let row: Vec<String> = (0..sc.etc.machines())
            .map(|j| format!("{:.17e}", sc.etc.seconds(TaskId(i), MachineId(j))))
            .collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    let _ = writeln!(out, "machines {}", sc.grid.len());
    for (_, spec) in sc.grid.iter() {
        let _ = writeln!(
            out,
            "machine {} {:.17e} {:.17e} {:.17e} {:.17e}",
            match spec.class {
                MachineClass::Fast => "fast",
                MachineClass::Slow => "slow",
            },
            spec.battery.units(),
            spec.compute_power,
            spec.comm_power,
            spec.bandwidth_mbps
        );
    }
    let _ = writeln!(
        out,
        "dag {} {} {}",
        sc.dag_id,
        sc.dag.len(),
        sc.dag.edge_count()
    );
    for (u, v) in sc.dag.edges() {
        let g = sc.data.edge(&sc.dag, u, v);
        let _ = writeln!(out, "edge {} {} {:.17e}", u.0, v.0, g.value());
    }
    let _ = writeln!(out, "end");
    out
}

/// Parse a scenario from the v1 text format.
pub fn read(text: &str) -> Result<Scenario, ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let mut next = |what: &str| -> Result<(usize, &str), ParseError> {
        lines
            .next()
            .ok_or(ParseError {
                line: 0,
                message: format!("unexpected end of input, expected {what}"),
            })
            .and_then(|(n, l)| {
                if l.is_empty() {
                    err(n, format!("blank line where {what} expected"))
                } else {
                    Ok((n, l))
                }
            })
    };

    let (n, header) = next("header")?;
    if header != "lrh-grid-scenario v1" {
        return err(n, format!("bad header {header:?}"));
    }

    let (n, case_line) = next("case")?;
    let case = match case_line.strip_prefix("case ") {
        Some("A") => GridCase::A,
        Some("B") => GridCase::B,
        Some("C") => GridCase::C,
        _ => return err(n, format!("bad case line {case_line:?}")),
    };

    let (n, tau_line) = next("tau")?;
    let tau = tau_line
        .strip_prefix("tau ")
        .and_then(|v| u64::from_str(v).ok())
        .map(Time)
        .ok_or(ParseError {
            line: n,
            message: format!("bad tau line {tau_line:?}"),
        })?;

    // ETC block.
    let (n, etc_line) = next("etc header")?;
    let parts: Vec<&str> = etc_line.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "etc" {
        return err(n, format!("bad etc header {etc_line:?}"));
    }
    let etc_id: usize = parse_num(n, parts[1])?;
    let tasks: usize = parse_num(n, parts[2])?;
    check_input_tasks(tasks).map_err(|message| ParseError { line: n, message })?;
    let machines: usize = parse_num(n, parts[3])?;
    // Capacities read off a header are capped by the input's length:
    // every counted item takes at least one byte of it, so a forged
    // count cannot size an allocation.
    let hint = |count: usize| count.min(text.len());
    let mut secs = Vec::with_capacity(hint(tasks.saturating_mul(machines)));
    for _ in 0..tasks {
        let (n, row) = next("etc row")?;
        let vals: Vec<&str> = row.split_whitespace().collect();
        if vals.len() != machines {
            return err(
                n,
                format!("etc row has {} entries, expected {machines}", vals.len()),
            );
        }
        for v in vals {
            secs.push(parse_num::<f64>(n, v)?);
        }
    }
    let etc = EtcMatrix::from_rows(tasks, machines, secs);

    // Machines block.
    let (n, m_line) = next("machines header")?;
    let count: usize = m_line
        .strip_prefix("machines ")
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError {
            line: n,
            message: format!("bad machines header {m_line:?}"),
        })?;
    if count != machines {
        return err(
            n,
            format!("machine count {count} != etc columns {machines}"),
        );
    }
    let mut specs = Vec::with_capacity(hint(count));
    for _ in 0..count {
        let (n, line) = next("machine")?;
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() != 6 || p[0] != "machine" {
            return err(n, format!("bad machine line {line:?}"));
        }
        let class = match p[1] {
            "fast" => MachineClass::Fast,
            "slow" => MachineClass::Slow,
            other => return err(n, format!("unknown machine class {other:?}")),
        };
        specs.push(MachineSpec {
            class,
            battery: Energy(parse_num(n, p[2])?),
            compute_power: parse_num(n, p[3])?,
            comm_power: parse_num(n, p[4])?,
            bandwidth_mbps: parse_num(n, p[5])?,
        });
    }
    let grid = GridConfig::from_machines(specs);

    // DAG block.
    let (n, d_line) = next("dag header")?;
    let p: Vec<&str> = d_line.split_whitespace().collect();
    if p.len() != 4 || p[0] != "dag" {
        return err(n, format!("bad dag header {d_line:?}"));
    }
    let dag_id: usize = parse_num(n, p[1])?;
    let dag_tasks: usize = parse_num(n, p[2])?;
    if dag_tasks != tasks {
        return err(n, format!("dag task count {dag_tasks} != etc rows {tasks}"));
    }
    let edge_count: usize = parse_num(n, p[3])?;
    let mut edges = Vec::with_capacity(hint(edge_count));
    let mut sizes = Vec::with_capacity(hint(edge_count));
    for _ in 0..edge_count {
        let (n, line) = next("edge")?;
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() != 4 || p[0] != "edge" {
            return err(n, format!("bad edge line {line:?}"));
        }
        let u = TaskId(parse_num(n, p[1])?);
        let v = TaskId(parse_num(n, p[2])?);
        edges.push((u, v));
        sizes.push((u, v, Megabits(parse_num(n, p[3])?)));
    }
    let dag = Dag::from_edges(tasks, &edges).map_err(|m| ParseError {
        line: n,
        message: m,
    })?;
    let data = DataSizes::from_edge_list(&dag, &sizes).map_err(|m| ParseError {
        line: n,
        message: m,
    })?;

    let (n, end) = next("end")?;
    if end != "end" {
        return err(n, format!("expected end, got {end:?}"));
    }

    Ok(Scenario {
        case,
        grid,
        etc,
        dag,
        data,
        tau,
        etc_id,
        dag_id,
    })
}

fn parse_num<T: FromStr>(line: usize, s: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError {
        line,
        message: format!("bad number {s:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ScenarioParams;

    fn scenario() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 1, 2)
    }

    #[test]
    fn roundtrip_is_exact() {
        let sc = scenario();
        let text = write(&sc);
        let back = read(&text).expect("parse");
        assert_eq!(back.case, sc.case);
        assert_eq!(back.tau, sc.tau);
        assert_eq!(back.etc, sc.etc, "ETC must round-trip bit-exactly");
        assert_eq!(back.dag, sc.dag);
        assert_eq!(back.data, sc.data);
        assert_eq!(back.grid, sc.grid);
        assert_eq!((back.etc_id, back.dag_id), (1, 2));
        // And writing again is a fixpoint.
        assert_eq!(write(&back), text);
    }

    #[test]
    fn rejects_bad_header() {
        let e = read("not a scenario\n").unwrap_err();
        assert!(e.message.contains("bad header"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_truncation() {
        let sc = scenario();
        let text = write(&sc);
        let cut = &text[..text.len() / 2];
        assert!(read(cut).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let sc = scenario();
        let text = write(&sc).replace(
            &format!("etc 1 {} {}", sc.etc.tasks(), sc.etc.machines()),
            &format!("etc 1 {} {}", sc.etc.tasks(), sc.etc.machines() + 1),
        );
        assert!(read(&text).is_err());
    }

    #[test]
    fn rejects_corrupt_edge() {
        let sc = scenario();
        let text = write(&sc);
        // Find an edge line and break its parent id.
        let bad = text.replacen("edge ", "edge x", 1);
        assert!(read(&bad).is_err());
    }

    #[test]
    fn forged_header_counts_size_no_allocation() {
        use crate::units::MAX_INPUT_TASKS;
        let head = "lrh-grid-scenario v1\ncase A\ntau 100\n";
        let e = read(&format!("{head}etc 0 {} 4\n", MAX_INPUT_TASKS + 1)).unwrap_err();
        assert_eq!(
            (e.line, e.message),
            (4, format!("tasks must be at most {MAX_INPUT_TASKS}"))
        );
        // At the cap the header passes and the missing rows are the error.
        let e = read(&format!("{head}etc 0 {MAX_INPUT_TASKS} 4\n")).unwrap_err();
        assert!(e.message.contains("expected etc row"), "{e}");
        // Forged machine and edge counts fail on the text, not an allocation.
        let e = read(&format!("{head}etc 0 2 {}\n1 2\n", 1u64 << 60)).unwrap_err();
        assert!(e.message.contains("entries, expected"), "{e}");
        let text = write(&scenario());
        let dag = text.lines().find(|l| l.starts_with("dag ")).unwrap();
        let forged = format!("dag 2 24 {}", 1u64 << 60);
        let e = read(&text.replace(dag, &forged)).unwrap_err();
        assert!(
            e.message.contains("bad edge line") || e.message.contains("expected edge"),
            "{e}"
        );
    }

    #[test]
    fn parse_error_displays_line() {
        let e = read("lrh-grid-scenario v1\nnope\n").unwrap_err();
        assert!(e.to_string().starts_with("line 2:"));
    }
}
