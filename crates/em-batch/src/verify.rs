//! `em-batch verify`: audit a run directory against its manifest.
//!
//! Recomputes every committed shard file's content hash and checks it
//! against the manifest, checks line counts against the planned shard
//! ranges and the manifest's entries against shard order (a resumed
//! manifest is byte-identical to an uninterrupted one only because shards
//! commit in increasing id order), and reports shards that are planned but
//! not yet committed.
//! Verification is strictly read-only: the manifest is read with the
//! non-repairing [`manifest::load`], so a torn final line (the normal
//! artifact of a crash mid-append) is *reported* — never truncated —
//! and auditing a crashed run directory leaves every byte in place for
//! `em-batch resume` to heal.

use std::path::Path;

use crate::error::BatchError;
use crate::hash;
use crate::manifest;
use crate::plan::{RunPlan, MANIFEST_FILE};

/// The result of auditing a run directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Shards whose file exists and matches its manifest entry.
    pub shards_ok: usize,
    /// Planned shards with no manifest entry yet (an incomplete run is
    /// not corrupt — it just needs `resume`).
    pub shards_pending: Vec<usize>,
    /// Integrity violations: hash mismatches, wrong line counts, missing
    /// files, manifest entries out of shard order. Empty means every
    /// committed shard checks out.
    pub problems: Vec<String>,
    /// Bytes of a torn final manifest append (`0` = clean). Benign — the
    /// expected trace of a crash mid-append, healed by the next
    /// `resume` — but the run is not complete while it is present.
    pub torn_manifest_bytes: usize,
}

impl VerifyReport {
    /// `true` when every committed shard is intact *and* the run is
    /// complete.
    pub fn is_complete_and_ok(&self) -> bool {
        self.problems.is_empty() && self.shards_pending.is_empty() && self.torn_manifest_bytes == 0
    }
}

/// Audits `run_dir`. Errors only on unreadable plan/manifest; integrity
/// findings land in the report.
pub fn verify_run(run_dir: &Path) -> Result<VerifyReport, BatchError> {
    let plan = RunPlan::load(run_dir)?;
    let loaded = manifest::load(&run_dir.join(MANIFEST_FILE))?;
    let entries = loaded.entries;

    let mut report = VerifyReport {
        shards_ok: 0,
        shards_pending: Vec::new(),
        problems: Vec::new(),
        torn_manifest_bytes: loaded.torn_bytes,
    };
    for shard in 0..plan.shards {
        let Some(entry) = entries.iter().find(|e| e.shard == shard) else {
            report.shards_pending.push(shard);
            continue;
        };
        let expected_records = plan.shard_range(shard).len();
        if entry.records != expected_records {
            report.problems.push(format!(
                "shard {shard}: manifest says {} records, plan range has {expected_records}",
                entry.records
            ));
            continue;
        }
        let path = plan.shard_path(run_dir, shard);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                report
                    .problems
                    .push(format!("shard {shard}: {}: {e}", path.display()));
                continue;
            }
        };
        let actual_hash = hash::content_hash(&bytes);
        if actual_hash != entry.hash {
            report.problems.push(format!(
                "shard {shard}: content hash {actual_hash} does not match manifest {}",
                entry.hash
            ));
            continue;
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        if lines != entry.records {
            report.problems.push(format!(
                "shard {shard}: file has {lines} lines, manifest says {} records",
                entry.records
            ));
            continue;
        }
        report.shards_ok += 1;
    }
    for entry in &entries {
        if entry.shard >= plan.shards {
            report.problems.push(format!(
                "manifest entry for shard {} but plan has only {} shards",
                entry.shard, plan.shards
            ));
        }
    }
    for pair in entries.windows(2) {
        if pair[1].shard <= pair[0].shard {
            report.problems.push(format!(
                "manifest lists shard {} after shard {}: shards commit in increasing order",
                pair[1].shard, pair[0].shard
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ManifestEntry;
    use crate::plan::PLAN_FILE;
    use landmark_core::ExplainerKind;

    /// A run directory `name` under the system's temporary directory:
    /// a two-record, two-shard plan and the given shard files, each
    /// with a manifest line whose hash matches its bytes and which says
    /// one record. Returns the directory and the manifest lines, one per
    /// shard file.
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory: the path never reaches an output byte"
    )]
    fn two_shard_run(name: &str, shard_files: &[&str]) -> (std::path::PathBuf, Vec<String>) {
        let run_dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&run_dir);
        std::fs::create_dir_all(run_dir.join(crate::plan::SHARD_DIR)).unwrap();
        let plan = RunPlan {
            dataset: "t".into(),
            input: "t.csv".into(),
            input_hash: "fnv1a64:0000000000000000".into(),
            records: 2,
            shards: 2,
            seed: 0,
            explainer: ExplainerKind::Landmark,
            n_samples: 16,
            threads: 1,
            schema: vec!["name".into()],
        };
        std::fs::write(run_dir.join(PLAN_FILE), plan.to_json()).unwrap();
        let lines = shard_files
            .iter()
            .enumerate()
            .map(|(shard, bytes)| {
                std::fs::write(plan.shard_path(&run_dir, shard), bytes).unwrap();
                ManifestEntry {
                    shard,
                    records: 1,
                    hash: hash::content_hash(bytes.as_bytes()),
                }
                .to_line()
            })
            .collect();
        (run_dir, lines)
    }

    #[test]
    fn manifest_entries_out_of_shard_order_are_a_problem() {
        // Two intact shards, each one line, and an entry for a third
        // shard the plan does not have.
        let (run_dir, mut lines) = two_shard_run(
            "em-batch-verify-order",
            &["{\"index\":0}\n", "{\"index\":1}\n"],
        );
        lines.push(
            ManifestEntry {
                shard: 2,
                records: 1,
                hash: hash::content_hash(b"{\"index\":2}\n"),
            }
            .to_line(),
        );
        // Shard 1 recorded before shard 0, shard 0 recorded again after
        // shard 1, and shard 2 recorded after both.
        for (order, problem) in [
            (
                [1, 0].as_slice(),
                "manifest lists shard 0 after shard 1: shards commit in increasing order",
            ),
            (
                [0, 1, 0].as_slice(),
                "manifest lists shard 0 after shard 1: shards commit in increasing order",
            ),
            (
                [0, 1, 2].as_slice(),
                "manifest entry for shard 2 but plan has only 2 shards",
            ),
        ] {
            let manifest: String = order.iter().map(|&shard| lines[shard].as_str()).collect();
            std::fs::write(run_dir.join(MANIFEST_FILE), manifest).unwrap();

            let report = verify_run(&run_dir).unwrap();
            assert_eq!(report.shards_ok, 2, "{order:?}");
            assert!(report.shards_pending.is_empty(), "{order:?}");
            assert_eq!(report.problems, vec![problem.to_string()], "{order:?}");
            assert!(!report.is_complete_and_ok(), "{order:?}");
        }
    }

    #[test]
    fn a_shard_file_with_more_lines_than_its_entry_is_a_problem() {
        // The entry's hash matches the file, and its one record matches
        // the plan's range; only the file's line count gives it away.
        let (run_dir, lines) = two_shard_run(
            "em-batch-verify-lines",
            &["{\"index\":0}\n{\"index\":0}\n", "{\"index\":1}\n"],
        );
        std::fs::write(run_dir.join(MANIFEST_FILE), lines.concat()).unwrap();

        let report = verify_run(&run_dir).unwrap();
        assert_eq!(report.shards_ok, 1);
        assert!(report.shards_pending.is_empty());
        assert_eq!(
            report.problems,
            vec!["shard 0: file has 2 lines, manifest says 1 records".to_string()]
        );
    }
}
