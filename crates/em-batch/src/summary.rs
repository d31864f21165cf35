//! Post-run progress/metrics summary.
//!
//! `run` / `resume` finish by writing `summary.json`: what the invocation
//! did plus the `em-obs` stage timings and counters accumulated across
//! every explanation. This is an **observability artifact** — timings
//! vary run to run, so the summary sits deliberately outside the
//! byte-identity claim, which covers shard files and the manifest only.
//! `em-batch` itself never reads the clock; all nanosecond figures here
//! were measured by `em-obs` spans inside the explainers.

use std::path::Path;

use em_codec::json::Value;
use em_obs::{Collector, Counter, Stage};

use crate::atomic;
use crate::error::BatchError;
use crate::plan::{RunPlan, SUMMARY_FILE};
use crate::runner::RunOutcome;

/// Builds the summary JSON tree.
pub fn summary_value(plan: &RunPlan, outcome: &RunOutcome, collector: &Collector) -> Value {
    let stages = Stage::all()
        .into_iter()
        .map(|stage| {
            Value::object(vec![
                ("stage", Value::string(stage.label())),
                ("nanos", Value::Number(collector.stage_nanos(stage) as f64)),
                (
                    "entries",
                    Value::Number(collector.stage_entries(stage) as f64),
                ),
            ])
        })
        .collect();
    let counters = Counter::all()
        .into_iter()
        .map(|counter| {
            Value::object(vec![
                ("counter", Value::string(counter.label())),
                ("value", Value::Number(collector.counter(counter) as f64)),
            ])
        })
        .collect();
    Value::object(vec![
        ("dataset", Value::string(plan.dataset.as_str())),
        ("explainer", Value::string(plan.explainer.name())),
        ("n_samples", plan.n_samples.into()),
        ("records", plan.records.into()),
        ("shards_total", outcome.shards_total.into()),
        (
            "shards_run",
            Value::Array(outcome.shards_run.iter().map(|&s| s.into()).collect()),
        ),
        ("shards_skipped", outcome.shards_skipped.into()),
        ("records_explained", outcome.records_explained.into()),
        ("stages", Value::Array(stages)),
        ("counters", Value::Array(counters)),
    ])
}

/// Atomically writes `summary.json` into the run directory.
pub fn write_summary(
    run_dir: &Path,
    plan: &RunPlan,
    outcome: &RunOutcome,
    collector: &Collector,
) -> Result<(), BatchError> {
    let path = run_dir.join(SUMMARY_FILE);
    let mut text = summary_value(plan, outcome, collector).to_json();
    text.push('\n');
    atomic::write_atomic(&path, text.as_bytes()).map_err(|e| BatchError::io(&path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use landmark_core::ExplainerKind;

    #[test]
    fn summary_reports_stages_counters_and_progress() {
        let plan = RunPlan {
            dataset: "t".into(),
            input: "t.csv".into(),
            input_hash: "fnv1a64:0000000000000000".into(),
            records: 10,
            shards: 2,
            seed: 0,
            explainer: ExplainerKind::Landmark,
            n_samples: 64,
            threads: 1,
            schema: vec!["name".into()],
        };
        let outcome = RunOutcome {
            shards_total: 2,
            shards_run: vec![1],
            shards_skipped: 1,
            records_explained: 5,
        };
        let collector = Collector::new();
        let v = summary_value(&plan, &outcome, &collector);
        assert_eq!(v.get("shards_skipped").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("records_explained").and_then(Value::as_u64), Some(5));
        let stages = v.get("stages").and_then(Value::as_array).unwrap();
        assert_eq!(stages.len(), em_obs::N_STAGES);
        let counters = v.get("counters").and_then(Value::as_array).unwrap();
        assert_eq!(counters.len(), em_obs::N_COUNTERS);
    }
}
