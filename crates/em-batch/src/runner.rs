//! Shard execution: explain, commit, record.
//!
//! Shards run strictly in shard-id order (parallelism lives *inside* a
//! shard, across its records), so manifest entries always append in
//! increasing shard order — which is what makes a resumed manifest
//! byte-identical to an uninterrupted one. [`execute`] also holds an
//! exclusive OS lock (`flock`) on the run directory's `run.lock` for its
//! whole duration, so two concurrent run/resume processes can never
//! interleave manifest appends; the lock dies with the process, so a
//! crashed run never wedges a later resume. Per-record work fans out with
//! `em_par::par_map` over the shard's records, the only fork level: each
//! record is explained on one batch worker, like every explanation.
//! Record outputs depend only on `(plan, input, model, global index)`,
//! never on the worker that computed them.

use std::path::Path;

use em_codec::explain::{encode_pair, run_explain, ExplainRequest};
use em_codec::json::Value;
use em_entity::{LabeledPair, Schema};
use em_lime::ExplainConfig;
use em_matchers::{load_logistic_file, FeatureExtractor, LogisticMatcher};
use em_obs::Tracer;
use em_par::par_map;

use crate::atomic;
use crate::error::BatchError;
use crate::failpoint::{FailSite, FailpointHook};
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

/// Computes the full byte content of one shard file.
fn compute_shard(
    plan: &RunPlan,
    shard: usize,
    dataset: &em_entity::EmDataset,
    model: &LogisticMatcher,
    threads: usize,
    tracer: &dyn Tracer,
) -> Vec<u8> {
    let range = plan.shard_range(shard);
    let offset = range.start;
    let records = &dataset.records()[range];
    let schema = dataset.schema();
    let lines: Vec<String> = par_map(threads, records, |i, record| {
        let index = offset + i;
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
    });
    lines.concat().into_bytes()
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
/// value yields byte-identical outputs. Stage timings and counters from
/// the explainers accumulate into `tracer` (pass an
/// [`em_obs::Collector`] to collect them, [`em_obs::noop()`] otherwise).
pub fn execute(
    run_dir: &Path,
    mode: RunMode,
    threads: Option<usize>,
    hook: &dyn FailpointHook,
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

    let threads = threads.unwrap_or(plan.threads);
    let mut outcome = RunOutcome {
        shards_total: plan.shards,
        shards_run: Vec::new(),
        shards_skipped: 0,
        records_explained: 0,
    };
    for shard in 0..plan.shards {
        if done.iter().any(|e| e.shard == shard) {
            outcome.shards_skipped += 1;
            continue;
        }
        let bytes = compute_shard(&plan, shard, &dataset, &model, threads, tracer);
        let n_records = plan.shard_range(shard).len();
        let dst = plan.shard_path(run_dir, shard);
        let tmp = atomic::tmp_path(&dst);

        let fail = |site: FailSite| -> Result<(), BatchError> {
            if hook.should_fail(site, shard) {
                Err(BatchError::Failpoint { site, shard })
            } else {
                Ok(())
            }
        };
        fail(FailSite::BeforeWrite)?;
        let staged = atomic::write_sync(&dst, &bytes).map_err(|e| BatchError::io(&tmp, e))?;
        fail(FailSite::BeforeRename)?;
        let published = atomic::rename_durable(staged).map_err(|e| BatchError::io(&dst, e))?;
        fail(FailSite::BeforeManifest)?;
        manifest::append(
            &manifest_path,
            &lock,
            published,
            &ManifestEntry {
                shard,
                records: n_records,
                hash: hash::content_hash(&bytes),
            },
        )?;
        fail(FailSite::AfterManifest)?;

        outcome.shards_run.push(shard);
        outcome.records_explained += n_records;
        eprintln!(
            "em-batch: shard {}/{} committed ({n_records} records)",
            shard + 1,
            plan.shards
        );
    }
    Ok(outcome)
}
