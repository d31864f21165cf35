//! Serial-vs-parallel speedup report for explaining records.
//!
//! Explains the same records twice — once on one thread and once with
//! one worker per core — the way the eval harness and `em-batch` fork:
//! across records, each explained on one thread and seeded from the base
//! seed and its record index.
//!
//! Both runs must be bit-identical (the report compares every float of
//! both views by its bits, via `bench::bit_identical`); only wall-clock
//! differs. On a single-core host the speedup is ~1.0 by
//! construction.
//!
//! Run with: `cargo run --release -p bench --bin par_speedup`

use std::time::Instant;

use em_datagen::MagellanBenchmark;
use em_entity::EntityPair;
use em_eval::technique::record_seed;
use em_lime::ExplainConfig;
use em_matchers::LogisticMatcher;
use em_par::par_map;
use landmark_core::{GenerationStrategy, LandmarkExplainer};

#[expect(
    clippy::disallowed_methods,
    reason = "a measurement tool: it is configured from the environment and times with the clock, and no output of the explainers depends on either"
)]
fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let threads = em_par::worker_count(0);
    bench::outln!(
        "# Parallel record-explanation speedup (dataset {})",
        id.short_name()
    );
    bench::outln!("# cores detected: {threads}\n");

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(42);
    let matcher = LogisticMatcher::train(&train);
    let schema = dataset.schema();

    // At least one record per label: a 0-record run would only time noise.
    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<EntityPair> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .map(|r| r.pair.clone())
        .collect();

    let explain_all = |threads: usize| {
        let start = Instant::now();
        let duals = par_map(threads, &records, |i, pair| {
            let config = ExplainConfig {
                n_samples: base.n_samples,
                seed: record_seed(base.seed, i),
                ..Default::default()
            };
            LandmarkExplainer::new(config, GenerationStrategy::DoubleEntity).explain(
                &matcher,
                schema,
                pair,
                em_obs::noop(),
            )
        });
        (start.elapsed(), duals)
    };
    let (t_serial, serial) = explain_all(1);
    let (t_parallel, parallel) = explain_all(threads);
    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| bench::bit_identical(a, b));
    bench::outln!(
        "## across-record explanation ({} records, {} samples)",
        records.len(),
        base.n_samples
    );
    let (serial_s, parallel_s) = (t_serial.as_secs_f64(), t_parallel.as_secs_f64());
    bench::outln!("  serial:   {serial_s:>8.3} s");
    bench::outln!("  parallel: {parallel_s:>8.3} s");
    bench::outln!("  speedup:  {:>8.2}x", serial_s / parallel_s.max(1e-9));
    bench::outln!(
        "  bit-identical results: {}",
        if identical { "yes" } else { "NO" }
    );

    if !identical {
        eprintln!("\nERROR: serial and parallel runs diverged");
        std::process::exit(1);
    }
}
