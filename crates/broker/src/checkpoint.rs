//! Campaign batch-job checkpoints.
//!
//! A campaign is a grid of independent (heuristic, case) units
//! ([`grid_sweep::campaign::run_case_unit`]); the checkpoint records one
//! `row=` line per completed unit, appended and flushed as each unit
//! finishes. A daemon killed mid-campaign therefore loses at most the
//! unit it was executing: on resubmission the checkpoint restores the
//! recorded rows and execution continues at the first unit without one.
//!
//! Format (the workspace's shared `key=value` conventions,
//! [`adhoc_grid::io::kv`]):
//!
//! ```text
//! lrh-grid-checkpoint v1
//! campaign=<fingerprint>
//! row=<CaseRow::canonical line>
//! ...
//! ```
//!
//! The fingerprint ([`crate::proto::CampaignRequest::fingerprint`])
//! pins the checkpoint to the exact campaign parameters that wrote it;
//! a mismatch is an error, never a silent partial resume.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

use adhoc_grid::io::kv;
use grid_sweep::campaign::CaseRow;

const HEADER: &str = "lrh-grid-checkpoint v1";

/// An open checkpoint file.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    rows: Vec<CaseRow>,
}

impl Checkpoint {
    /// Open (or create) the checkpoint at `path` for the campaign named
    /// by `fingerprint`. An existing file must carry the same
    /// fingerprint; its recorded rows become [`Checkpoint::rows`].
    pub fn open(path: &str, fingerprint: &str) -> Result<Checkpoint, String> {
        assert!(
            !fingerprint.contains('\n') && !fingerprint.contains('#'),
            "fingerprint must be a single comment-free line"
        );
        let path = PathBuf::from(path);
        if !path.exists() {
            let text = format!("{HEADER}\ncampaign={fingerprint}\n");
            std::fs::write(&path, text)
                .map_err(|e| format!("creating checkpoint {}: {e}", path.display()))?;
            return Ok(Checkpoint {
                path,
                rows: Vec::new(),
            });
        }

        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
        let mut lines = kv::Lines::new(&text);
        match lines.next() {
            Some((_, line)) if line == HEADER => {}
            other => {
                return Err(format!(
                    "{} is not a checkpoint (first line {:?})",
                    path.display(),
                    other.map(|(_, l)| l)
                ))
            }
        }
        let mut rows = Vec::new();
        let mut seen_fingerprint = false;
        for (no, line) in lines {
            let (key, value) = kv::split_pair(no, line).map_err(|e| e.to_string())?;
            match key {
                "campaign" => {
                    if value != fingerprint {
                        return Err(format!(
                            "checkpoint {} belongs to a different campaign\n  recorded:  {value}\n  requested: {fingerprint}",
                            path.display()
                        ));
                    }
                    seen_fingerprint = true;
                }
                "row" => rows.push(
                    CaseRow::parse_canonical(value)
                        .map_err(|e| format!("checkpoint line {no}: {e}"))?,
                ),
                other => return Err(format!("checkpoint line {no}: unknown key {other:?}")),
            }
        }
        if !seen_fingerprint {
            return Err(format!("checkpoint {} names no campaign", path.display()));
        }
        Ok(Checkpoint { path, rows })
    }

    /// Rows recorded so far, in unit order.
    pub fn rows(&self) -> &[CaseRow] {
        &self.rows
    }

    /// Record a completed unit: append its canonical row and flush, so
    /// the row survives a kill immediately after this call returns.
    pub fn record(&mut self, row: &CaseRow) -> Result<(), String> {
        let mut file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("opening checkpoint {}: {e}", self.path.display()))?;
        writeln!(file, "row={}", row.canonical())
            .and_then(|_| file.sync_all())
            .map_err(|e| format!("recording to {}: {e}", self.path.display()))?;
        self.rows.push(row.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use grid_sweep::heuristic::Heuristic;
    use std::time::Duration;

    fn row(t100: f64) -> CaseRow {
        CaseRow {
            heuristic: Heuristic::Slrh1,
            case: GridCase::A,
            mean_t100: t100,
            mean_ub_fraction: 0.5,
            mean_wall: Duration::ZERO,
            mean_t100_per_second: 0.0,
            feasible: 2,
            total: 2,
            mean_cost: None,
        }
    }

    fn temp_path(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("lrh-checkpoint-{}-{name}", std::process::id()));
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn records_survive_reopen() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut cp = Checkpoint::open(&path, "fp-1").unwrap();
            assert!(cp.rows().is_empty());
            cp.record(&row(10.0)).unwrap();
            cp.record(&row(20.0)).unwrap();
        }
        let cp = Checkpoint::open(&path, "fp-1").unwrap();
        assert_eq!(cp.rows().len(), 2);
        assert_eq!(cp.rows()[0].canonical(), row(10.0).canonical());
        assert_eq!(cp.rows()[1].canonical(), row(20.0).canonical());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_an_error() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(Checkpoint::open(&path, "fp-a").unwrap());
        let err = Checkpoint::open(&path, "fp-b").unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_files_are_rejected() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(Checkpoint::open(&path, "fp").is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
