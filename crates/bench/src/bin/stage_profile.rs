//! Per-stage latency profile of the explanation pipeline.
//!
//! Trains a matcher on one benchmark dataset, then runs each explainer
//! (landmark, lime, mojito-copy) over the same records with an
//! [`em_obs::Collector`] attached, and emits a JSON report: end-to-end
//! wall-clock, per-stage time and entry counts, throughput counters, and
//! the *coverage* — the fraction of end-to-end time the stage spans
//! account for. Coverage below 0.9 fails the run: it would mean a
//! meaningful chunk of explanation latency is invisible to tracing.
//!
//! Reads the shared `SCALE`/`RECORDS`/`SAMPLES`/`DATASETS` variables.
//! Every explanation runs on one thread, so each explainer is one cell.
//!
//! Run with: `cargo run --release -p bench --bin stage_profile`

use std::time::Instant;

use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, Schema};
use em_lime::ExplainConfig;
use em_matchers::LogisticMatcher;
use em_obs::{Collector, Counter, Stage};
use landmark_core::ExplainerKind;

/// The coverage floor: stage spans must explain at least this fraction of
/// end-to-end explanation wall-clock.
const MIN_COVERAGE: f64 = 0.9;

/// Explains every pair once with the selected explainer, filling `trace`.
fn run_cell(
    explainer: ExplainerKind,
    model: &LogisticMatcher,
    schema: &Schema,
    pairs: &[&EntityPair],
    n_samples: usize,
    trace: &Collector,
) {
    let config = ExplainConfig {
        n_samples,
        ..Default::default()
    };
    for pair in pairs {
        explainer.explain(model, schema, pair, &config, trace);
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "a measurement tool: it is configured from the environment and times with the clock, and no output of the explainers depends on either"
)]
fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];

    let dataset = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset);
    let records = dataset.records();
    let pairs: Vec<&EntityPair> = records
        .iter()
        .take(base.n_records_per_label.max(1))
        .map(|r| &r.pair)
        .collect();

    eprintln!(
        "# stage_profile — dataset={}, records={}, samples={}",
        id.short_name(),
        pairs.len(),
        base.n_samples
    );

    let mut cells = Vec::new();
    let mut min_coverage = f64::INFINITY;
    for explainer in [
        ExplainerKind::Landmark,
        ExplainerKind::Lime,
        ExplainerKind::MojitoCopy,
    ] {
        let trace = Collector::new();
        let start = Instant::now();
        run_cell(explainer, &matcher, &schema, &pairs, base.n_samples, &trace);
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let coverage = trace.total_stage_nanos() as f64 / wall_ns as f64;
        min_coverage = min_coverage.min(coverage);

        let stages: Vec<(String, Value)> = Stage::all()
            .iter()
            .filter(|s| trace.stage_entries(**s) > 0)
            .map(|s| {
                (
                    s.label().to_string(),
                    Value::object(vec![
                        ("us", Value::Number((trace.stage_nanos(*s) / 1_000) as f64)),
                        ("entries", Value::Number(trace.stage_entries(*s) as f64)),
                    ]),
                )
            })
            .collect();
        cells.push(Value::object(vec![
            ("explainer", Value::string(explainer.name())),
            ("records", pairs.len().into()),
            ("end_to_end_us", Value::Number((wall_ns / 1_000) as f64)),
            ("stage_coverage", coverage.into()),
            ("stages", Value::Object(stages)),
            (
                "samples_scored",
                Value::Number(trace.counter(Counter::SamplesScored) as f64),
            ),
            (
                "features",
                Value::Number(trace.counter(Counter::Features) as f64),
            ),
        ]));
    }

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("n_samples", base.n_samples.into()),
        ("min_stage_coverage", min_coverage.into()),
        ("cells", Value::Array(cells)),
    ]);
    bench::outln!("{}", report.to_json());
    assert!(
        min_coverage >= MIN_COVERAGE,
        "stage spans cover only {min_coverage:.3} of end-to-end latency (floor {MIN_COVERAGE})"
    );
}
