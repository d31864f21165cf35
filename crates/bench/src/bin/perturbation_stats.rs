//! Empirical verification of the paper's Section 1 motivation.
//!
//! For each dataset, measures the perturbation *neighborhood* each
//! technique generates around non-matching records:
//!
//! * the fraction of neighborhood samples the model classifies as match
//!   (LIME's neighborhoods should be match-starved; double-entity
//!   injection should fix this);
//! * the fraction of LIME samples containing a *null perturbation* (the
//!   same token text removed from both entities).
//!
//! Run with: `cargo run --release -p bench --bin perturbation_stats`

use em_datagen::MagellanBenchmark;
use em_entity::EntityPair;
use em_eval::neighborhood_stats;
use em_matchers::LogisticMatcher;
use landmark_core::ExplainerKind;

/// The report's columns, in print order.
const COLUMNS: [ExplainerKind; 4] = [
    ExplainerKind::Lime,
    ExplainerKind::LandmarkSingle,
    ExplainerKind::LandmarkDouble,
    ExplainerKind::MojitoCopy,
];

fn main() {
    let config = bench::config_from_env();
    let datasets = bench::datasets_from_env();
    bench::print_banner(
        "Perturbation-neighborhood statistics (Section 1)",
        &config,
        &datasets,
    );

    bench::outln!(
        "{:<8} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "Dataset",
        "LIME match%",
        "Single match%",
        "Double match%",
        "Copy match%",
        "LIME null%"
    );
    let benchmark = MagellanBenchmark {
        scale: config.scale,
        ..Default::default()
    };
    for id in datasets {
        let dataset = benchmark.generate(id);
        let (train, _) = dataset.train_test_split(42);
        let matcher = LogisticMatcher::train(&train);
        let records: Vec<&EntityPair> = dataset
            .sample_by_label(false, config.n_records_per_label.min(20), 5)
            .into_iter()
            .map(|r| &r.pair)
            .collect();
        let mut sums = [0.0f64; 4];
        let mut null_sum = 0.0;
        for (i, pair) in records.iter().enumerate() {
            for (k, technique) in COLUMNS.into_iter().enumerate() {
                let s = neighborhood_stats(
                    &matcher,
                    dataset.schema(),
                    pair,
                    technique,
                    config.n_samples,
                    i as u64,
                );
                sums[k] += s.match_fraction;
                if technique == ExplainerKind::Lime {
                    null_sum += s.null_perturbation_fraction;
                }
            }
        }
        let n = records.len().max(1) as f64;
        bench::outln!(
            "{:<8} {:>13.1}% {:>13.1}% {:>13.1}% {:>13.1}% {:>11.1}%",
            id.short_name(),
            100.0 * sums[0] / n,
            100.0 * sums[1] / n,
            100.0 * sums[2] / n,
            100.0 * sums[3] / n,
            100.0 * null_sum / n,
        );
    }
    bench::outln!("\nExpected: LIME/Single neighborhoods of non-matching records contain almost");
    bench::outln!("no match-class samples; Double injects landmark tokens and restores balance.");
}
