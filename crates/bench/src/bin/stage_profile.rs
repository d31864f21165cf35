//! Per-stage latency profile of the explanation pipeline.
//!
//! Trains a matcher on one benchmark dataset, then runs each explainer
//! (landmark, lime, mojito-copy) at each requested thread count with an
//! [`em_obs::Collector`] attached, and emits a JSON report: end-to-end
//! wall-clock, per-stage time and entry counts, throughput counters, and
//! the *coverage* — the fraction of end-to-end time the stage spans
//! account for. Coverage below 0.9 fails the run: it would mean a
//! meaningful chunk of explanation latency is invisible to tracing.
//!
//! Reads the shared `SCALE`/`RECORDS`/`SAMPLES`/`DATASETS` variables plus
//! `THREAD_COUNTS` (comma-separated scoring thread counts, `0` = auto;
//! default `1,0`).
//!
//! Run with: `cargo run --release -p bench --bin stage_profile`

use std::time::Instant;

use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, Schema};
use em_lime::{ExplainConfig, LimeExplainer, MojitoCopyExplainer};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_obs::{Collector, Counter, Stage};
use em_par::ParallelismConfig;
use landmark_core::LandmarkExplainer;

/// The coverage floor: stage spans must explain at least this fraction of
/// end-to-end explanation wall-clock.
const MIN_COVERAGE: f64 = 0.9;

/// Explains every pair once with the selected explainer, filling `trace`.
fn run_cell(
    explainer: &str,
    model: &LogisticMatcher,
    schema: &Schema,
    pairs: &[&EntityPair],
    n_samples: usize,
    threads: usize,
    trace: &Collector,
) {
    let config = ExplainConfig {
        n_samples,
        parallelism: ParallelismConfig::with_threads(threads),
        ..Default::default()
    };
    for pair in pairs {
        match explainer {
            "landmark" => {
                LandmarkExplainer::new(config, Default::default())
                    .explain(model, schema, pair, trace);
            }
            "lime" => {
                LimeExplainer::new(config).explain(model, schema, pair, trace);
            }
            "mojito-copy" => {
                MojitoCopyExplainer::new(config).explain(model, schema, pair, trace);
            }
            other => unreachable!("unknown explainer {other}"),
        }
    }
}

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let thread_counts: Vec<usize> = std::env::var("THREAD_COUNTS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 0]);

    let dataset = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let records = dataset.records();
    let pairs: Vec<&EntityPair> = records
        .iter()
        .take(base.n_records_per_label.max(1))
        .map(|r| &r.pair)
        .collect();

    eprintln!(
        "# stage_profile — dataset={}, records={}, samples={}, threads={:?}",
        id.short_name(),
        pairs.len(),
        base.n_samples,
        thread_counts
    );

    let mut cells = Vec::new();
    let mut min_coverage = f64::INFINITY;
    for explainer in ["landmark", "lime", "mojito-copy"] {
        for &threads in &thread_counts {
            let trace = Collector::new();
            let start = Instant::now();
            run_cell(
                explainer,
                &matcher,
                &schema,
                &pairs,
                base.n_samples,
                threads,
                &trace,
            );
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
                ("explainer", Value::string(explainer)),
                ("threads", threads.into()),
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
    }

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("n_samples", base.n_samples.into()),
        ("min_stage_coverage", min_coverage.into()),
        ("cells", Value::Array(cells)),
    ]);
    println!("{}", report.to_json());
    assert!(
        min_coverage >= MIN_COVERAGE,
        "stage spans cover only {min_coverage:.3} of end-to-end latency (floor {MIN_COVERAGE})"
    );
}
