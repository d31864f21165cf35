//! Run planning: fix every determinism-relevant decision up front.
//!
//! `em-batch plan` reads the input CSV once (streaming), trains the
//! logistic matcher, persists its coefficients, and writes `plan.json`
//! recording the input content hash, record count, shard count, base
//! seed, and explainer config. Everything `run` / `resume` does later is
//! a pure function of this file plus the (hash-pinned) input and model —
//! which is the whole determinism argument: a resumed run reads the same
//! plan, so it recomputes exactly the same bytes. Shard boundaries are
//! balanced contiguous ranges derived from `(records, shards)` alone (the
//! first `records % shards` shards get one more record), so they never
//! depend on thread count or timing. A loaded plan is held to the same
//! limits `plan` enforces, so a hand-edited `plan.json` cannot run an
//! empty shard.

use std::ops::Range;
use std::path::{Path, PathBuf};

use em_codec::explain::{N_SAMPLES_RANGE, SEED_LIMIT};
use em_codec::json::Value;
use em_entity::{dataset_from_reader, EmDataset};
use em_lime::ExplainConfig;
use em_matchers::{save_logistic_file, LogisticMatcher};
use landmark_core::ExplainerKind;

use crate::atomic;
use crate::error::BatchError;
use crate::hash;

/// File name of the plan inside a run directory.
pub const PLAN_FILE: &str = "plan.json";
/// File name of the persisted matcher coefficients.
pub const MODEL_FILE: &str = "model.txt";
/// File name of the append-only completion manifest.
pub const MANIFEST_FILE: &str = "manifest.jsonl";
/// Subdirectory holding the per-shard JSONL outputs.
pub const SHARD_DIR: &str = "shards";
/// File name of the post-run metrics summary.
pub const SUMMARY_FILE: &str = "summary.json";
/// File name of the run-directory exclusive lock (`runner::execute`
/// flocks it so only one run/resume process can append to the manifest).
pub const LOCK_FILE: &str = "run.lock";

/// Multiplier mixing the record index into its seed (DESIGN.md §7).
const SEED_MIX: u64 = 0x9E37_79B9;

/// Everything a run needs to know, fixed at plan time.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Dataset name (carried into outputs for provenance).
    pub dataset: String,
    /// Path of the input CSV as given to `plan`.
    pub input: String,
    /// Content hash of the input at plan time; `run` refuses to start if
    /// the file on disk no longer matches.
    pub input_hash: String,
    /// Total labeled pairs in the input.
    pub records: usize,
    /// Number of output shards.
    pub shards: usize,
    /// Base seed; each record derives its own seed from this and its
    /// global index.
    pub seed: u64,
    /// Which explainer runs on every pair.
    pub explainer: ExplainerKind,
    /// Perturbation samples per surrogate fit, in
    /// [`N_SAMPLES_RANGE`] like a request's.
    pub n_samples: usize,
    /// Worker threads explaining the run's records (`0` auto, `1`
    /// serial). Not part of any output byte — recorded only as the
    /// default for `run`.
    pub threads: usize,
    /// Schema attribute names, in order, for validation at load time.
    pub schema: Vec<String>,
}

/// User-tunable knobs for `em-batch plan`.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Number of output shards (≥ 1).
    pub shards: usize,
    /// Base seed.
    pub seed: u64,
    /// Explainer to run.
    pub explainer: ExplainerKind,
    /// Samples per surrogate fit.
    pub n_samples: usize,
    /// Default worker threads for `run`.
    pub threads: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            shards: 4,
            seed: 0,
            explainer: ExplainerKind::Landmark,
            n_samples: ExplainConfig::default().n_samples,
            threads: 0,
        }
    }
}

impl RunPlan {
    /// The global record range shard `shard` covers: balanced contiguous
    /// chunks, the first `records % shards` shards one record larger.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        let base = self.records / self.shards;
        let extra = self.records % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }

    /// The seed record `index` explains with — a function of the base
    /// seed and the *global* index only, so shard and thread layout can
    /// never change it. Masked below [`SEED_LIMIT`] because the seed is
    /// written to the output line as a JSON number and replayed against
    /// `em-serve`: the unmasked product routinely exceeds 2^53, which
    /// f64 would silently round, recording a seed the explainer never
    /// used.
    pub fn record_seed(&self, index: usize) -> u64 {
        self.seed.wrapping_add(index as u64).wrapping_mul(SEED_MIX) & (SEED_LIMIT - 1)
    }

    /// The shard output file name, zero-padded so lexicographic order is
    /// shard order.
    pub fn shard_file_name(shard: usize) -> String {
        format!("shard-{shard:05}.jsonl")
    }

    /// Absolute path of shard `shard`'s committed output.
    pub fn shard_path(&self, run_dir: &Path, shard: usize) -> PathBuf {
        run_dir.join(SHARD_DIR).join(Self::shard_file_name(shard))
    }

    /// Serializes the plan to its JSON file form.
    pub fn to_json(&self) -> String {
        let mut text = Value::object(vec![
            ("version", 1usize.into()),
            ("dataset", Value::string(self.dataset.as_str())),
            ("input", Value::string(self.input.as_str())),
            ("input_hash", Value::string(self.input_hash.as_str())),
            ("records", self.records.into()),
            ("shards", self.shards.into()),
            // Seeds ride the JSON number type (f64), exact for integers
            // below 2^53: `plan` bounds the base seed at creation and
            // `record_seed` masks derived seeds below `SEED_LIMIT`.
            ("seed", Value::Number(self.seed as f64)),
            ("explainer", Value::string(self.explainer.name())),
            ("n_samples", self.n_samples.into()),
            ("threads", self.threads.into()),
            (
                "schema",
                Value::Array(self.schema.iter().map(Value::string).collect()),
            ),
        ])
        .to_json();
        text.push('\n');
        text
    }

    /// Parses a plan from its JSON file form.
    pub fn from_json(text: &str) -> Result<RunPlan, BatchError> {
        let bad = |msg: &str| BatchError::Plan(msg.to_string());
        let root = Value::parse(text).map_err(|e| BatchError::Plan(e.to_string()))?;
        let str_field = |key: &str| -> Result<String, BatchError> {
            Ok(root
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| BatchError::Plan(format!("missing string field {key:?}")))?
                .to_string())
        };
        let usize_field = |key: &str| -> Result<usize, BatchError> {
            Ok(root
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| BatchError::Plan(format!("missing integer field {key:?}")))?
                as usize)
        };
        if usize_field("version")? != 1 {
            return Err(bad("unsupported plan version"));
        }
        let explainer_name = str_field("explainer")?;
        let explainer = ExplainerKind::parse(&explainer_name).map_err(BatchError::Plan)?;
        let schema = root
            .get("schema")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("missing array field \"schema\""))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("schema entries must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let plan = RunPlan {
            dataset: str_field("dataset")?,
            input: str_field("input")?,
            input_hash: str_field("input_hash")?,
            records: usize_field("records")?,
            shards: usize_field("shards")?,
            seed: root
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("missing integer field \"seed\""))?,
            explainer,
            n_samples: usize_field("n_samples")?,
            threads: usize_field("threads")?,
            schema,
        };
        // A plan file edited by hand gets no further than `create_plan`
        // would have let it.
        check_layout(plan.records, plan.shards)?;
        check_seed(plan.seed)?;
        check_n_samples(plan.n_samples)?;
        Ok(plan)
    }

    /// Loads the plan from a run directory.
    pub fn load(run_dir: &Path) -> Result<RunPlan, BatchError> {
        let path = run_dir.join(PLAN_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| BatchError::io(&path, e))?;
        RunPlan::from_json(&text)
    }
}

/// Refuses a shard layout with an empty shard: no records, no shards, or
/// more shards than records.
fn check_layout(records: usize, shards: usize) -> Result<(), BatchError> {
    if shards == 0 {
        return Err(BatchError::Plan("shard count must be at least 1".into()));
    }
    if records == 0 {
        return Err(BatchError::Plan("input has no records".into()));
    }
    if shards > records {
        return Err(BatchError::Plan(format!(
            "shard count {shards} exceeds record count {records}"
        )));
    }
    Ok(())
}

/// Refuses an input the matcher cannot be trained on: the logistic fit
/// needs at least one record of each label.
fn check_labels(dataset: &EmDataset) -> Result<(), BatchError> {
    let matches = dataset.match_count();
    if matches == 0 || matches == dataset.len() {
        return Err(BatchError::Plan(format!(
            "every one of the {} records is labeled {}; training the matcher needs both labels",
            dataset.len(),
            u8::from(matches > 0)
        )));
    }
    Ok(())
}

/// Refuses a base seed JSON's number type cannot carry exactly.
fn check_seed(seed: u64) -> Result<(), BatchError> {
    if seed < SEED_LIMIT {
        Ok(())
    } else {
        Err(BatchError::Plan(
            "seed must fit in 53 bits (JSON number precision)".into(),
        ))
    }
}

/// Refuses a sample count no request may ask for: every batch line must
/// replay against `em-serve` as a request.
fn check_n_samples(n_samples: usize) -> Result<(), BatchError> {
    if N_SAMPLES_RANGE.contains(&n_samples) {
        Ok(())
    } else {
        Err(BatchError::Plan(format!(
            "n_samples must be in {N_SAMPLES_RANGE:?}"
        )))
    }
}

/// Reads the input dataset with the streaming CSV importer.
pub fn read_input(path: &Path) -> Result<EmDataset, BatchError> {
    let file = std::fs::File::open(path).map_err(|e| BatchError::io(path, e))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "input".to_string());
    let reader = std::io::BufReader::new(file);
    Ok(dataset_from_reader(&name, reader)?)
}

/// Creates a run directory: trains the matcher on the input, persists its
/// coefficients, and writes `plan.json`. Fails if the directory already
/// holds a plan (plans are immutable; make a new run directory instead).
pub fn create_plan(
    input: &Path,
    run_dir: &Path,
    config: &PlanConfig,
) -> Result<RunPlan, BatchError> {
    if config.shards == 0 {
        return Err(BatchError::Plan("shard count must be at least 1".into()));
    }
    check_seed(config.seed)?;
    check_n_samples(config.n_samples)?;
    let plan_path = run_dir.join(PLAN_FILE);
    if plan_path.exists() {
        return Err(BatchError::Plan(format!(
            "{} already exists; plans are immutable — use a fresh run directory",
            plan_path.display()
        )));
    }
    let dataset = read_input(input)?;
    check_layout(dataset.len(), config.shards)?;
    check_labels(&dataset)?;
    let input_hash = hash::hash_file(input).map_err(|e| BatchError::io(input, e))?;

    std::fs::create_dir_all(run_dir.join(SHARD_DIR)).map_err(|e| BatchError::io(run_dir, e))?;

    let matcher = LogisticMatcher::train(&dataset);
    let model_path = run_dir.join(MODEL_FILE);
    save_logistic_file(&model_path, matcher.model(), dataset.schema())
        .map_err(|e| BatchError::Model(e.to_string()))?;

    let schema = dataset.schema();
    let plan = RunPlan {
        dataset: dataset.name().to_string(),
        input: input.display().to_string(),
        input_hash,
        records: dataset.len(),
        shards: config.shards,
        seed: config.seed,
        explainer: config.explainer,
        n_samples: config.n_samples,
        threads: config.threads,
        schema: (0..schema.len())
            .map(|i| schema.name(i).to_string())
            .collect(),
    };
    atomic::write_atomic(&plan_path, plan.to_json().as_bytes())
        .map_err(|e| BatchError::io(&plan_path, e))?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(records: usize, shards: usize) -> RunPlan {
        RunPlan {
            dataset: "t".into(),
            input: "t.csv".into(),
            input_hash: "fnv1a64:0000000000000000".into(),
            records,
            shards,
            seed: 42,
            explainer: ExplainerKind::Landmark,
            n_samples: 64,
            threads: 2,
            schema: vec!["name".into()],
        }
    }

    #[test]
    fn shard_ranges_partition_the_records() {
        for (records, shards) in [(10, 3), (7, 7), (100, 1), (5, 4)] {
            let p = plan(records, shards);
            let mut covered = Vec::new();
            for s in 0..shards {
                let r = p.shard_range(s);
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..records).collect::<Vec<_>>(),
                "{records}/{shards}"
            );
        }
    }

    #[test]
    fn first_shards_take_the_remainder() {
        let p = plan(10, 3);
        assert_eq!(p.shard_range(0), 0..4);
        assert_eq!(p.shard_range(1), 4..7);
        assert_eq!(p.shard_range(2), 7..10);
    }

    #[test]
    fn record_seed_depends_only_on_global_index() {
        let a = plan(10, 2);
        let b = plan(10, 5);
        for i in 0..10 {
            assert_eq!(a.record_seed(i), b.record_seed(i));
        }
        assert_ne!(a.record_seed(0), a.record_seed(1));
    }

    #[test]
    fn record_seeds_survive_json_f64_roundtrip() {
        for base in [0, 42, 1 << 22, 1_754_600_000_000, SEED_LIMIT - 1] {
            let mut p = plan(10, 2);
            p.seed = base;
            for i in 0..10 {
                let s = p.record_seed(i);
                assert!(s < SEED_LIMIT, "base {base}, record {i}");
                assert_eq!(s as f64 as u64, s, "base {base}, record {i}");
            }
        }
        // The mask is load-bearing for realistic seeds: a
        // timestamp-scale base's unmasked product overflows 2^53.
        let mut p = plan(10, 2);
        p.seed = 1_754_600_000_000;
        let unmasked = p.seed.wrapping_add(3).wrapping_mul(SEED_MIX);
        assert!(unmasked >= SEED_LIMIT);
        assert_eq!(p.record_seed(3), unmasked & (SEED_LIMIT - 1));
    }

    #[test]
    fn oversized_base_seed_is_rejected_before_any_io() {
        let config = PlanConfig {
            seed: SEED_LIMIT,
            ..PlanConfig::default()
        };
        assert!(matches!(
            create_plan(Path::new("no-such.csv"), Path::new("no-such-dir"), &config),
            Err(BatchError::Plan(_))
        ));
    }

    #[test]
    fn sample_counts_the_wire_refuses_are_rejected_before_any_io() {
        for n_samples in [0, N_SAMPLES_RANGE.end() + 1] {
            let config = PlanConfig {
                n_samples,
                ..PlanConfig::default()
            };
            match create_plan(Path::new("no-such.csv"), Path::new("no-such-dir"), &config) {
                Err(BatchError::Plan(msg)) => assert_eq!(msg, "n_samples must be in 1..=1000000"),
                other => panic!("{n_samples}: {other:?}"),
            }
        }
    }

    #[test]
    fn plan_files_with_a_sample_count_the_wire_refuses_are_rejected() {
        let text = plan(10, 3).to_json();
        assert!(text.contains(r#""n_samples":64"#), "{text}");
        for n_samples in ["0", "1000001"] {
            let edited = text.replace(r#""n_samples":64"#, &format!(r#""n_samples":{n_samples}"#));
            assert!(
                matches!(RunPlan::from_json(&edited), Err(BatchError::Plan(m)) if m.contains("n_samples")),
                "{edited}"
            );
        }
    }

    #[test]
    fn plan_files_with_a_layout_create_plan_refuses_are_rejected() {
        let text = plan(10, 3).to_json();
        for (from, to, refusal) in [
            (r#""records":10"#, r#""records":0"#, "no records"),
            (r#""records":10"#, r#""records":2"#, "exceeds record count"),
            (r#""shards":3"#, r#""shards":11"#, "exceeds record count"),
            (r#""seed":42"#, r#""seed":9007199254740992"#, "53 bits"),
        ] {
            assert!(text.contains(from), "{text}");
            let edited = text.replace(from, to);
            assert!(
                matches!(RunPlan::from_json(&edited), Err(BatchError::Plan(m)) if m.contains(refusal)),
                "{edited}"
            );
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let p = plan(10, 3);
        let back = RunPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "not json",
            "{}",
            r#"{"version": 2}"#,
            &plan(10, 3).to_json().replace("landmark", "shap"),
        ] {
            assert!(
                matches!(RunPlan::from_json(bad), Err(BatchError::Plan(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn shard_file_names_sort_in_shard_order() {
        assert_eq!(RunPlan::shard_file_name(3), "shard-00003.jsonl");
        assert!(RunPlan::shard_file_name(9) < RunPlan::shard_file_name(10));
    }
}
