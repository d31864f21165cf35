//! Shard execution: explain, commit, record.
//!
//! One run-wide pipeline ([`em_par::par_stream`]) explains every pending
//! record: its workers start once per `run`/`resume` and take records one
//! at a time, in global index order, across shard boundaries. The calling
//! thread gets the lines back in index order and commits each shard as
//! soon as its last line arrives, while the workers go on with the next
//! one — never more than one shard's records ahead, so at most two
//! shards' lines are held at once. Shards still commit strictly in
//! shard-id order, so manifest entries always append in increasing shard
//! order — which is what makes a resumed manifest byte-identical to an
//! uninterrupted one. [`execute`] also holds an exclusive OS lock
//! (`flock`) on the run directory's `run.lock` for its whole duration, so
//! two concurrent run/resume processes can never interleave manifest
//! appends; the lock dies with the process, so a crashed run never wedges
//! a later resume. Records are the only fork level: each is explained on
//! one batch worker, like every explanation. Record outputs depend only on
//! `(plan, input, model, global index)`, never on the worker that computed
//! them.

use std::path::Path;

use em_codec::explain::{encode_pair, run_explain, ExplainRequest};
use em_codec::json::Value;
use em_entity::{LabeledPair, Schema};
use em_lime::ExplainConfig;
use em_matchers::{load_logistic_file, FeatureExtractor, LogisticMatcher};
use em_obs::Tracer;
use em_par::par_stream;

use crate::atomic;
use crate::error::BatchError;
use crate::failpoint::{FailAt, FailSite};
use crate::hash;
use crate::manifest::{self, ManifestEntry, RunLock};
use crate::plan::{self, RunPlan};

/// Whether this invocation is a fresh `run` or a `resume`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Fails if the manifest already records completed shards.
    Fresh,
    /// Skips shards the manifest records as complete.
    Resume,
}

/// What one `run` / `resume` invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total shards in the plan.
    pub shards_total: usize,
    /// Shard ids this invocation computed and committed.
    pub shards_run: Vec<usize>,
    /// Shards skipped because the manifest already had them.
    pub shards_skipped: usize,
    /// Records explained by this invocation.
    pub records_explained: usize,
}

/// Encodes one output record line (newline-terminated).
///
/// The `response` field is the exact [`Value`] tree `em-serve` would
/// return for the same pair, explainer, and seed — serialized by the same
/// shortest-roundtrip writer, so the bytes match a served response body.
/// `seed` is recorded so a reader can replay any single record against
/// the server (`"config": {"seed": …}`) and diff the bytes; it is always
/// below [`em_codec::explain::SEED_LIMIT`] (`record_seed` masks it
/// there), so the `as f64` conversion below is exact and the recorded
/// seed equals the seed the explainer consumed.
fn encode_record_line(
    schema: &Schema,
    index: usize,
    seed: u64,
    record: &LabeledPair,
    response: Value,
) -> String {
    let mut line = Value::object(vec![
        ("index", index.into()),
        ("label", record.label.into()),
        ("seed", Value::Number(seed as f64)),
        ("pair", encode_pair(schema, &record.pair)),
        ("response", response),
    ])
    .to_json();
    line.push('\n');
    line
}

/// Explains record `index` and encodes its output line.
fn explain_record(
    plan: &RunPlan,
    dataset: &em_entity::EmDataset,
    model: &LogisticMatcher,
    index: usize,
    tracer: &dyn Tracer,
) -> String {
    let record = &dataset.records()[index];
    let schema = dataset.schema();
    let seed = plan.record_seed(index);
    let request = ExplainRequest {
        pair: record.pair.clone(),
        explainer: plan.explainer,
        config: ExplainConfig {
            n_samples: plan.n_samples,
            seed,
            ..ExplainConfig::default()
        },
    };
    let response = run_explain(model, schema, &request, tracer);
    encode_record_line(schema, index, seed, record, response)
}

/// Loads the persisted matcher and re-attaches its feature extractor.
///
/// The extractor is re-fit on the (hash-pinned) input dataset, which is
/// deterministic, so run and resume score with bit-identical models.
fn load_model(
    run_dir: &Path,
    dataset: &em_entity::EmDataset,
) -> Result<LogisticMatcher, BatchError> {
    let path = run_dir.join(plan::MODEL_FILE);
    let model = load_logistic_file(&path, dataset.schema())
        .map_err(|e| BatchError::Model(format!("{}: {e}", path.display())))?;
    Ok(LogisticMatcher::from_parts(
        FeatureExtractor::fit(dataset),
        model,
    ))
}

/// Runs (or resumes) every incomplete shard of a planned run directory.
///
/// `threads` overrides the plan's worker-thread default when `Some`; any
/// value yields byte-identical outputs. `failpoint` crashes the commit at
/// one site of one shard (`None` in production). Stage timings and
/// counters from the explainers accumulate into `tracer` (pass an
/// [`em_obs::Collector`] to collect them, [`em_obs::noop()`] otherwise).
pub fn execute(
    run_dir: &Path,
    mode: RunMode,
    threads: Option<usize>,
    failpoint: Option<FailAt>,
    tracer: &dyn Tracer,
) -> Result<RunOutcome, BatchError> {
    let plan = RunPlan::load(run_dir)?;

    // One run/resume process per run directory: a concurrent invocation
    // would interleave manifest appends and break the manifest's
    // byte-identity claim. flock is advisory, but `manifest::append`
    // takes the lock guard, and the OS releases it on process exit (clean
    // or not). Held until `execute` returns.
    let lock = RunLock::try_lock(&run_dir.join(plan::LOCK_FILE))?;

    let input = Path::new(&plan.input);
    let actual_hash = hash::hash_file(input).map_err(|e| BatchError::io(input, e))?;
    if actual_hash != plan.input_hash {
        return Err(BatchError::InputChanged {
            expected: plan.input_hash.clone(),
            actual: actual_hash,
        });
    }
    let dataset = plan::read_input(input)?;
    if dataset.len() != plan.records {
        return Err(BatchError::Plan(format!(
            "input has {} records, plan says {}",
            dataset.len(),
            plan.records
        )));
    }
    let schema = dataset.schema();
    let names: Vec<String> = (0..schema.len())
        .map(|i| schema.name(i).to_string())
        .collect();
    if names != plan.schema {
        return Err(BatchError::Plan(format!(
            "input schema {names:?} does not match plan schema {:?}",
            plan.schema
        )));
    }
    let model = load_model(run_dir, &dataset)?;

    let manifest_path = run_dir.join(plan::MANIFEST_FILE);
    let done = manifest::load_and_repair(&manifest_path)?;
    if let Some(bad) = done.iter().find(|e| e.shard >= plan.shards) {
        return Err(BatchError::Manifest(format!(
            "entry for shard {} but plan has only {} shards",
            bad.shard, plan.shards
        )));
    }
    if mode == RunMode::Fresh && !done.is_empty() {
        return Err(BatchError::Plan(format!(
            "{} shard(s) already committed — use `em-batch resume`",
            done.len()
        )));
    }

    let shard_dir = run_dir.join(plan::SHARD_DIR);
    std::fs::create_dir_all(&shard_dir).map_err(|e| BatchError::io(&shard_dir, e))?;

    let pending: Vec<usize> = (0..plan.shards)
        .filter(|&shard| !done.iter().any(|e| e.shard == shard))
        .collect();
    // Every pending record, in global index order, with its shard.
    let work: Vec<(usize, usize)> = pending
        .iter()
        .flat_map(|&shard| plan.shard_range(shard).map(move |index| (shard, index)))
        .collect();
    let mut outcome = RunOutcome {
        shards_total: plan.shards,
        shards_run: Vec::new(),
        shards_skipped: plan.shards - pending.len(),
        records_explained: 0,
    };
    // The shard being assembled or committed is one shard's lines; the
    // workers may hold one more (the first shard is the largest).
    let ahead = plan.shard_range(0).len();
    let mut shard_bytes = Vec::new();
    par_stream(
        threads.unwrap_or(plan.threads),
        &work,
        ahead,
        |_, &(_, index)| explain_record(&plan, &dataset, &model, index, tracer),
        |k, line: String| -> Result<(), BatchError> {
            shard_bytes.extend_from_slice(line.as_bytes());
            let (shard, index) = work[k];
            let range = plan.shard_range(shard);
            if index + 1 < range.end {
                return Ok(());
            }
            let dst = plan.shard_path(run_dir, shard);
            let tmp = atomic::tmp_path(&dst);
            let fail = |site: FailSite| -> Result<(), BatchError> {
                if failpoint == Some(FailAt { site, shard }) {
                    Err(BatchError::Failpoint { site, shard })
                } else {
                    Ok(())
                }
            };
            fail(FailSite::BeforeWrite)?;
            let staged =
                atomic::write_sync(&dst, &shard_bytes).map_err(|e| BatchError::io(&tmp, e))?;
            fail(FailSite::BeforeRename)?;
            let published = atomic::rename_durable(staged).map_err(|e| BatchError::io(&dst, e))?;
            fail(FailSite::BeforeManifest)?;
            manifest::append(
                &manifest_path,
                &lock,
                published,
                &ManifestEntry {
                    shard,
                    records: range.len(),
                    hash: hash::content_hash(&shard_bytes),
                },
            )?;
            fail(FailSite::AfterManifest)?;
            shard_bytes.clear();

            outcome.shards_run.push(shard);
            outcome.records_explained += range.len();
            eprintln!(
                "em-batch: shard {}/{} committed ({} records)",
                shard + 1,
                plan.shards,
                range.len()
            );
            Ok(())
        },
    )?;
    Ok(outcome)
}
