//! Append-only, crash-safe completion manifest.
//!
//! One JSON line per committed shard: `{"shard":N,"records":N,"hash":…}`.
//! An entry is appended (and fsynced) only *after* the shard file is
//! atomically in place, so manifest-says-done implies file-is-complete.
//! The converse doesn't hold — a crash between rename and append leaves a
//! complete shard file with no entry — and resume handles that by simply
//! recomputing the shard, which rewrites identical bytes.
//!
//! Crash tolerance on load: a torn final line (the only kind of tear an
//! append-only file can have) is detected, and — on the run/resume path
//! ([`load_and_repair`]) — **truncated away** before the run continues,
//! so a resumed manifest ends up byte-identical to an uninterrupted one.
//! [`load`] is the strictly read-only variant: it reports the torn tail
//! instead of healing it, which is what `em-batch verify` uses so that
//! auditing a crashed run directory never mutates it. A torn line
//! anywhere else, or two entries for the same shard that disagree, means
//! outside interference and is a hard error; an identical repeat is kept
//! in file order, where `verify` reports it as out of shard order.
//!
//! Only the holder of the run directory's [`RunLock`] appends, and only
//! for a shard file [`crate::atomic::rename_durable`] has put in place.

use std::io::Write;
use std::path::Path;

use em_codec::json::Value;

use crate::atomic::Published;
use crate::error::BatchError;

/// The exclusive OS lock (`flock`) on a run directory's lock file: one
/// run/resume process per run directory, so two can never interleave
/// manifest appends. The OS releases it when the process exits, clean or
/// not, so a crashed run never wedges a later resume.
#[derive(Debug)]
pub struct RunLock {
    _file: std::fs::File,
}

impl RunLock {
    /// Takes the lock on `path` without waiting, creating the file if
    /// needed; [`BatchError::Locked`] when another process holds it.
    pub fn try_lock(path: &Path) -> Result<RunLock, BatchError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| BatchError::io(path, e))?;
        match file.try_lock() {
            Ok(()) => Ok(RunLock { _file: file }),
            Err(std::fs::TryLockError::WouldBlock) => Err(BatchError::Locked {
                path: path.display().to_string(),
            }),
            Err(std::fs::TryLockError::Error(e)) => Err(BatchError::io(path, e)),
        }
    }
}

/// One committed shard, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Shard id.
    pub shard: usize,
    /// Number of record lines in the shard file.
    pub records: usize,
    /// Content hash of the shard file bytes (`fnv1a64:…`).
    pub hash: String,
}

impl ManifestEntry {
    /// The manifest line for this entry, newline-terminated.
    pub fn to_line(&self) -> String {
        let mut line = Value::object(vec![
            ("shard", self.shard.into()),
            ("records", self.records.into()),
            ("hash", Value::string(self.hash.as_str())),
        ])
        .to_json();
        line.push('\n');
        line
    }

    /// Parses one manifest line.
    pub fn parse(line: &str) -> Option<ManifestEntry> {
        let root = Value::parse(line).ok()?;
        Some(ManifestEntry {
            shard: root.get("shard")?.as_u64()? as usize,
            records: root.get("records")?.as_u64()? as usize,
            hash: root.get("hash")?.as_str()?.to_string(),
        })
    }
}

/// A manifest as read straight off disk, before any repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedManifest {
    /// Complete, parsed entries in file order.
    pub entries: Vec<ManifestEntry>,
    /// Byte length of the valid prefix (every complete line).
    pub valid_bytes: usize,
    /// Trailing bytes of a torn final append after the valid prefix —
    /// `0` for a clean file. A torn tail is the expected artifact of a
    /// crash mid-append, not corruption.
    pub torn_bytes: usize,
}

/// Reads the manifest without touching the file (a torn final line is
/// reported, not truncated).
///
/// Returns the entries in file order. A missing file is an empty
/// manifest. Identical duplicate entries are returned as they stand;
/// conflicting duplicates are a [`BatchError::Manifest`].
pub fn load(path: &Path) -> Result<LoadedManifest, BatchError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedManifest {
                entries: Vec::new(),
                valid_bytes: 0,
                torn_bytes: 0,
            })
        }
        Err(e) => return Err(BatchError::io(path, e)),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut entries: Vec<ManifestEntry> = Vec::new();
    let mut keep_bytes = 0usize;
    let mut offset = 0usize;
    for piece in text.split_inclusive('\n') {
        let complete = piece.ends_with('\n');
        match ManifestEntry::parse(piece.trim_end_matches(['\n', '\r'])) {
            Some(entry) if complete => {
                if entries
                    .iter()
                    .any(|e| e.shard == entry.shard && *e != entry)
                {
                    return Err(BatchError::Manifest(format!(
                        "conflicting entries for shard {}",
                        entry.shard
                    )));
                }
                entries.push(entry);
                offset += piece.len();
                keep_bytes = offset;
            }
            _ if !complete => {
                // Torn final append: stop here and report it;
                // `load_and_repair` truncates it so a healed manifest
                // matches an uninterrupted run byte for byte.
                break;
            }
            _ => {
                return Err(BatchError::Manifest(format!(
                    "unparseable entry at byte {offset}: {:?}",
                    piece.trim_end()
                )));
            }
        }
    }
    Ok(LoadedManifest {
        entries,
        valid_bytes: keep_bytes,
        torn_bytes: bytes.len() - keep_bytes,
    })
}

/// Loads the manifest, repairing a torn final line by truncating it (the
/// run/resume path; `verify` uses the read-only [`load`] instead).
pub fn load_and_repair(path: &Path) -> Result<Vec<ManifestEntry>, BatchError> {
    let loaded = load(path)?;
    if loaded.torn_bytes > 0 {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| BatchError::io(path, e))?;
        file.set_len(loaded.valid_bytes as u64)
            .map_err(|e| BatchError::io(path, e))?;
        file.sync_all().map_err(|e| BatchError::io(path, e))?;
    }
    Ok(loaded.entries)
}

/// Appends one entry durably: write, flush, fsync. After this returns the
/// shard's completion survives any crash. `_shard_file` is the proof that
/// the entry's shard file is already in place.
pub fn append(
    path: &Path,
    _lock: &RunLock,
    _shard_file: Published,
    entry: &ManifestEntry,
) -> Result<(), BatchError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| BatchError::io(path, e))?;
    file.write_all(entry.to_line().as_bytes())
        .map_err(|e| BatchError::io(path, e))?;
    file.flush().map_err(|e| BatchError::io(path, e))?;
    file.sync_all().map_err(|e| BatchError::io(path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory: the path never reaches an output byte"
    )]
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("em-batch-manifest-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("manifest.jsonl")
    }

    /// Appends through the commit types: the real run-directory lock and
    /// a shard file taken as published.
    fn append_entry(path: &Path, entry: &ManifestEntry) {
        let lock = RunLock::try_lock(&path.with_file_name("run.lock")).unwrap();
        append(path, &lock, Published::assumed(), entry).unwrap();
    }

    fn entry(shard: usize) -> ManifestEntry {
        ManifestEntry {
            shard,
            records: 10 + shard,
            hash: format!("fnv1a64:{shard:016x}"),
        }
    }

    #[test]
    fn lines_roundtrip() {
        let e = entry(3);
        assert_eq!(ManifestEntry::parse(e.to_line().trim_end()), Some(e));
    }

    #[test]
    fn missing_file_is_empty() {
        let path = scratch("missing");
        assert_eq!(load_and_repair(&path).unwrap(), Vec::new());
    }

    #[test]
    fn append_then_load_preserves_order() {
        let path = scratch("order");
        for s in 0..3 {
            append_entry(&path, &entry(s));
        }
        let loaded = load_and_repair(&path).unwrap();
        assert_eq!(loaded, vec![entry(0), entry(1), entry(2)]);
    }

    #[test]
    fn torn_final_line_is_truncated_away() {
        let path = scratch("torn");
        append_entry(&path, &entry(0));
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&entry(1).to_line().as_bytes()[..9]);
        std::fs::write(&path, &torn).unwrap();

        assert_eq!(load_and_repair(&path).unwrap(), vec![entry(0)]);
        // The repair physically removed the torn bytes.
        assert_eq!(std::fs::read(&path).unwrap(), full);
    }

    #[test]
    fn load_reports_a_torn_tail_without_mutating_the_file() {
        let path = scratch("readonly");
        append_entry(&path, &entry(0));
        let clean_len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(&entry(1).to_line().as_bytes()[..9]);
        std::fs::write(&path, &torn).unwrap();

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries, vec![entry(0)]);
        assert_eq!(loaded.valid_bytes, clean_len);
        assert_eq!(loaded.torn_bytes, 9);
        // Strictly read-only: the torn bytes are still on disk.
        assert_eq!(std::fs::read(&path).unwrap(), torn);
    }

    #[test]
    fn torn_line_then_reappend_matches_uninterrupted_bytes() {
        let uninterrupted = scratch("ref");
        append_entry(&uninterrupted, &entry(0));
        append_entry(&uninterrupted, &entry(1));

        let crashed = scratch("crashed");
        append_entry(&crashed, &entry(0));
        let mut bytes = std::fs::read(&crashed).unwrap();
        bytes.extend_from_slice(&entry(1).to_line().as_bytes()[..5]);
        std::fs::write(&crashed, &bytes).unwrap();
        let _ = load_and_repair(&crashed).unwrap();
        append_entry(&crashed, &entry(1));

        assert_eq!(
            std::fs::read(&crashed).unwrap(),
            std::fs::read(&uninterrupted).unwrap()
        );
    }

    #[test]
    fn conflicting_duplicate_is_an_error() {
        let path = scratch("conflict");
        append_entry(&path, &entry(0));
        let mut other = entry(0);
        other.hash = "fnv1a64:ffffffffffffffff".into();
        append_entry(&path, &other);
        assert!(matches!(
            load_and_repair(&path),
            Err(BatchError::Manifest(_))
        ));
    }

    #[test]
    fn garbage_in_the_middle_is_an_error() {
        let path = scratch("garbage");
        append_entry(&path, &entry(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not json\n");
        std::fs::write(&path, &bytes).unwrap();
        append_entry(&path, &entry(1));
        assert!(matches!(
            load_and_repair(&path),
            Err(BatchError::Manifest(_))
        ));
    }
}
