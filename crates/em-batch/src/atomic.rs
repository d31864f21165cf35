//! Durable file commits: write-to-tmp, fsync, atomic rename.
//!
//! Every file the pipeline publishes (shard outputs, plan, summary)
//! appears atomically: readers — including a resumed run — either see the
//! complete previous content or the complete new content, never a torn
//! write. The tmp file lives in the same directory as its target so the
//! rename stays within one filesystem. Directory fsync after rename is
//! best-effort: on filesystems where it fails the rename is still atomic,
//! only its durability after power loss is weaker, and the manifest (the
//! source of truth for completion) does its own sync.
//!
//! The commit order is a type-state (DESIGN.md §12): [`write_sync`] is
//! the only source of a [`Staged`] file, [`rename_durable`] the only
//! consumer of one and the only source of a [`Published`] one, and
//! [`crate::manifest::append`] records a shard only on a [`Published`]
//! file and the run directory's [`crate::manifest::RunLock`]. The shipped
//! order compiles:
//!
//! ```
//! use std::path::Path;
//! use em_batch::manifest::{self, ManifestEntry, RunLock};
//! use em_batch::{atomic, BatchError};
//!
//! fn commit(
//!     lock: &RunLock,
//!     manifest_path: &Path,
//!     shard: &Path,
//!     bytes: &[u8],
//!     entry: &ManifestEntry,
//! ) -> Result<(), BatchError> {
//!     let staged = atomic::write_sync(shard, bytes).map_err(|e| BatchError::io(shard, e))?;
//!     let published = atomic::rename_durable(staged).map_err(|e| BatchError::io(shard, e))?;
//!     manifest::append(manifest_path, lock, published, entry)
//! }
//! ```
//!
//! The same steps with the write and the rename swapped do not, because
//! nothing but a staged file can be renamed into place:
//!
//! ```compile_fail
//! use std::path::Path;
//! use em_batch::manifest::{self, ManifestEntry, RunLock};
//! use em_batch::{atomic, BatchError};
//!
//! fn commit(
//!     lock: &RunLock,
//!     manifest_path: &Path,
//!     shard: &Path,
//!     bytes: &[u8],
//!     entry: &ManifestEntry,
//! ) -> Result<(), BatchError> {
//!     let published = atomic::rename_durable(shard).map_err(|e| BatchError::io(shard, e))?;
//!     let _staged = atomic::write_sync(shard, bytes).map_err(|e| BatchError::io(shard, e))?;
//!     manifest::append(manifest_path, lock, published, entry)
//! }
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};

/// A file written and fsynced under its tmp name, not yet visible under
/// its own: only [`rename_durable`] publishes it.
#[derive(Debug)]
#[must_use = "a staged file is invisible until `rename_durable` publishes it"]
pub struct Staged {
    tmp: PathBuf,
    dst: PathBuf,
}

/// A file in place under its own name, its rename synced: what
/// [`crate::manifest::append`] takes as proof that a shard is complete.
#[derive(Debug)]
#[must_use = "a published shard counts as done only once the manifest records it"]
pub struct Published(());

#[cfg(test)]
impl Published {
    /// A proof with no file behind it, for tests of the manifest alone.
    pub(crate) fn assumed() -> Published {
        Published(())
    }
}

/// The tmp-file path a commit of `path` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes `bytes` to `dst`'s [`tmp_path`] and fsyncs the file (no
/// rename — the caller controls when the data becomes visible).
pub fn write_sync(dst: &Path, bytes: &[u8]) -> std::io::Result<Staged> {
    let tmp = tmp_path(dst);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(Staged {
        tmp,
        dst: dst.to_path_buf(),
    })
}

/// Renames the staged tmp file onto its target and best-effort-fsyncs
/// the parent directory so the rename itself is durable.
pub fn rename_durable(staged: Staged) -> std::io::Result<Published> {
    std::fs::rename(&staged.tmp, &staged.dst)?;
    if let Some(parent) = staged.dst.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(Published(()))
}

/// Full atomic commit: stage `bytes` in the tmp file, fsync, rename into
/// place.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    rename_durable(write_sync(path, bytes)?).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory: the path never reaches an output byte"
    )]
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("em-batch-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/x/shard-0.jsonl")),
            PathBuf::from("/x/shard-0.jsonl.tmp")
        );
    }

    #[test]
    fn write_atomic_replaces_content_and_removes_tmp() {
        let path = scratch("commit.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists());
    }
}
