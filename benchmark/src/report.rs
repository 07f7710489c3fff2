//! Reads the counts the harness needs out of report text. Reports are the
//! program's stable output (`key=value` lines, pinned by the workspace's
//! golden fixtures), so counts are parsed from them rather than read from
//! `RunStats` fields a refactor may rename.

/// The counts of one report. Absent lines read as zero.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Counts {
    pub tasks: u64,
    pub mapped: u64,
    pub t100: u64,
    pub clock_steps: u64,
    pub commits: u64,
    pub candidates: u64,
    pub disruptions: u64,
    pub invalidated: u64,
    pub weight_updates: u64,
    pub constraints_met: bool,
    pub valid: bool,
    /// Open reports: stream jobs, how many were mapped in full and how
    /// many met their deadline.
    pub stream_jobs: u64,
    pub completed: u64,
    pub deadline_hits: u64,
}

fn value<'a>(report: &'a str, key: &str) -> Option<&'a str> {
    report
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn count(report: &str, key: &str) -> u64 {
    value(report, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// `a/b` → `(a, b)`.
fn ratio(report: &str, key: &str) -> (u64, u64) {
    value(report, key)
        .and_then(|v| v.split_once('/'))
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .unwrap_or((0, 0))
}

pub fn parse(report: &str) -> Counts {
    let (mapped, tasks) = ratio(report, "mapped");
    Counts {
        tasks,
        mapped,
        t100: count(report, "t100"),
        clock_steps: count(report, "clock-steps"),
        commits: count(report, "commits"),
        candidates: count(report, "candidates"),
        disruptions: count(report, "disruptions"),
        invalidated: count(report, "invalidated"),
        weight_updates: count(report, "weight-updates"),
        constraints_met: value(report, "constraints") == Some("met"),
        valid: value(report, "valid") == Some("yes"),
        stream_jobs: count(report, "jobs"),
        completed: ratio(report, "completed").0,
        deadline_hits: count(report, "deadline-hits"),
    }
}

/// One canonical campaign row: `heuristic|case|t100=x|ub_frac=y|feasible=a/b`.
/// Returns `(mean t100, feasible, total)`.
pub fn parse_campaign_row(row: &str) -> Option<(f64, u64, u64)> {
    let field = |key: &str| {
        row.split('|')
            .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    };
    let t100 = field("t100")?.parse().ok()?;
    let (a, b) = field("feasible")?.split_once('/')?;
    Some((t100, a.parse().ok()?, b.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOSED: &str = "lrh-grid report v1\nlabel=job\nheuristic=slrh1\ncase=A\ntasks=64\n\
        tau=21300\nmapped=60/64\nt100=41\naet=20110\ntec=12.5\ntse=40\nconstraints=violated\n\
        valid=yes\nclock-steps=2130\ncommits=75\ncandidates=9000\ndisruptions=2\n\
        invalidated=11\nweight-updates=213\nfinal-weights=0.4,0.3\n";

    #[test]
    fn closed_report_lines_parse() {
        let c = parse(CLOSED);
        assert_eq!(
            c,
            Counts {
                tasks: 64,
                mapped: 60,
                t100: 41,
                clock_steps: 2130,
                commits: 75,
                candidates: 9000,
                disruptions: 2,
                invalidated: 11,
                weight_updates: 213,
                constraints_met: false,
                valid: true,
                stream_jobs: 0,
                completed: 0,
                deadline_hits: 0,
            }
        );
    }

    #[test]
    fn absent_lines_read_as_zero_and_prefixes_do_not_collide() {
        // `tasks=` must not be read out of `tasks-min=`, nor `t100` out
        // of a longer key.
        let c = parse("tasks-min=9\nt1000=5\nmapped=3/3\nconstraints=met\nvalid=no\n");
        assert_eq!(c.tasks, 3);
        assert_eq!(c.t100, 0);
        assert_eq!(c.weight_updates, 0);
        assert!(c.constraints_met);
        assert!(!c.valid);
    }

    #[test]
    fn open_report_lines_parse() {
        let c = parse(
            "lrh-grid open report v1\njobs=32\ncompleted=30/32\ndeadline-hits=12\n\
             hit-rate=0.375\nvalid=yes\nclock-steps=5\ncommits=6\ncandidates=7\n\
             job=0 at=10 kind=dag mapped=16/16 finish=900 deadline=2000 hit=yes cost=1 budget=-\n",
        );
        assert_eq!((c.stream_jobs, c.completed, c.deadline_hits), (32, 30, 12));
        assert!(c.valid);
        assert_eq!(c.commits, 6);
    }

    #[test]
    fn campaign_rows_parse() {
        assert_eq!(
            parse_campaign_row("slrh1|A|t100=41.5|ub_frac=0.5|feasible=3/4"),
            Some((41.5, 3, 4))
        );
        assert_eq!(
            parse_campaign_row("dbc-cost|C|t100=0.0|ub_frac=0.0|feasible=0/4|cost=12.5"),
            Some((0.0, 0, 4))
        );
        assert_eq!(parse_campaign_row("garbage"), None);
    }
}
