//! Serial-vs-parallel speedup report for the perturbation-scoring pipeline.
//!
//! Explains the same records twice — once with `ParallelismConfig::serial()`
//! and once with one worker per core — at both parallel levels:
//!
//! 1. **within one explanation**: the record's perturbation masks fan out
//!    across threads inside `MatchModel::par_score_masks`;
//! 2. **across records**: the eval harness explains records concurrently,
//!    each seeded from the base seed and its record index.
//!
//! Both runs must be bit-identical (the report compares every float of
//! both views by its bits, via `bench::bit_identical`); only wall-clock
//! differs. On a single-core host the speedup is ~1.0 by
//! construction.
//!
//! Run with: `cargo run --release -p bench --bin par_speedup`

use std::time::Instant;

use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, SplitConfig};
use em_eval::technique::explain_record;
use em_eval::Technique;
use em_lime::ExplainConfig;
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::{par_map, ParallelismConfig};
use landmark_core::LandmarkExplainer;

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# Parallel perturbation-scoring speedup (dataset {})",
        id.short_name()
    );
    println!("# cores detected: {threads}\n");

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
    let schema = dataset.schema();

    // At least one record per label: a 0-record run would only time noise.
    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<EntityPair> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .map(|r| r.pair.clone())
        .collect();

    // Level 1: perturbation scoring inside one explanation.
    let explain_all = |parallelism: ParallelismConfig| {
        let config = ExplainConfig {
            n_samples: base.n_samples,
            parallelism,
            ..Default::default()
        };
        let explainer = LandmarkExplainer::new(config, Default::default());
        let start = Instant::now();
        let duals: Vec<_> = records
            .iter()
            .map(|pair| explainer.explain(&matcher, schema, pair, em_obs::noop()))
            .collect();
        (start.elapsed(), duals)
    };
    let (t_serial, serial) = explain_all(ParallelismConfig::serial());
    let (t_parallel, parallel) = explain_all(ParallelismConfig::with_threads(threads));
    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| bench::bit_identical(a, b));
    println!(
        "## within-explanation scoring ({} records, {} samples)",
        records.len(),
        base.n_samples
    );
    report(t_serial.as_secs_f64(), t_parallel.as_secs_f64(), identical);

    // Level 2: per-record explanation fan-out (the eval harness loop).
    let run_level2 = |parallelism: ParallelismConfig| {
        let start = Instant::now();
        let views = par_map(&parallelism, &records, |i, pair| {
            let record_seed = base.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            explain_record(
                Technique::LandmarkDouble,
                &matcher,
                schema,
                pair,
                base.n_samples,
                record_seed,
            )
        });
        (start.elapsed(), views)
    };
    let (t2_serial, v_serial) = run_level2(ParallelismConfig::serial());
    let (t2_parallel, v_parallel) = run_level2(ParallelismConfig::with_threads(threads));
    let identical2 = v_serial.iter().zip(&v_parallel).all(|(a, b)| {
        a.iter().zip(b).all(|(x, y)| {
            x.base_prediction.to_bits() == y.base_prediction.to_bits()
                && x.removable.len() == y.removable.len()
                && x.removable
                    .iter()
                    .zip(&y.removable)
                    .all(|(s, t)| (s.0, &s.1, s.2.to_bits()) == (t.0, &t.1, t.2.to_bits()))
        })
    });
    println!("\n## across-record explanation ({} records)", records.len());
    report(
        t2_serial.as_secs_f64(),
        t2_parallel.as_secs_f64(),
        identical2,
    );

    if !(identical && identical2) {
        eprintln!("\nERROR: serial and parallel runs diverged");
        std::process::exit(1);
    }
}

fn report(serial_s: f64, parallel_s: f64, identical: bool) {
    println!("  serial:   {serial_s:>8.3} s");
    println!("  parallel: {parallel_s:>8.3} s");
    println!("  speedup:  {:>8.2}x", serial_s / parallel_s.max(1e-9));
    println!(
        "  bit-identical results: {}",
        if identical { "yes" } else { "NO" }
    );
}
