//! Checkpointed, sharded offline batch-explanation pipeline.
//!
//! `em-batch` takes a Magellan-style CSV, a trained matcher, and an
//! explainer config, and produces one JSONL file of explanations per
//! shard. The pipeline is built around two guarantees:
//!
//! 1. **Determinism.** Every output byte is a pure function of
//!    `(plan, input file, model file)`. Record seeds derive from the plan
//!    seed and the record's global index (DESIGN.md §7), each record runs
//!    through the same [`em_codec::explain::run_explain`] encoder
//!    as the online server, and shard boundaries are fixed at plan time —
//!    so the concatenated shard outputs are byte-identical at any thread
//!    count and any shard count.
//! 2. **Crash safety.** Shard files commit via write-to-tmp +
//!    `fsync` + atomic rename, and completion is recorded in an
//!    append-only manifest whose lines are flushed and synced
//!    individually. A run killed at *any* point can be resumed with
//!    `em-batch resume`: finished shards are skipped, the interrupted
//!    shard is recomputed (producing identical bytes), and the final run
//!    directory — shard files *and* manifest — is byte-identical to an
//!    uninterrupted run. An exclusive `flock` on the run directory keeps
//!    concurrent run/resume processes from interleaving manifest
//!    appends; it dies with the process, so a kill never wedges a later
//!    resume. DESIGN.md §12 spells out the argument.
//!
//! The crate ships a CLI binary (`em-batch`) with `plan` / `run` /
//! `resume` / `verify` subcommands plus a `gen` helper for synthetic
//! inputs, and injectable failpoints ([`failpoint`]) that the
//! kill/resume test sweep and the CI smoke job use to crash the pipeline
//! at every commit-protocol site.
//!
//! Timing note: this crate never reads the clock (clippy's
//! `disallowed_methods` refuses it, DESIGN.md §9). All timings in the
//! summary JSON come from `em-obs` spans recorded inside the explainers,
//! whose one clock read carries the workspace's only sanctioned
//! `#[expect]` for observability. The summary is an observability
//! artifact and is deliberately *outside* the byte-identity claim.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
// A staged or published shard dropped before the manifest records it is
// a commit left half done (DESIGN.md §12).
#![deny(unused_must_use)]

pub mod atomic;
pub mod error;
pub mod failpoint;
pub mod gen;
pub mod hash;
pub mod manifest;
pub mod plan;
pub mod runner;
pub mod summary;
pub mod verify;

pub use error::BatchError;
pub use failpoint::{FailAt, FailSite};
pub use manifest::ManifestEntry;
pub use plan::{PlanConfig, RunPlan};
pub use runner::{execute, RunMode, RunOutcome};
pub use verify::{verify_run, VerifyReport};
