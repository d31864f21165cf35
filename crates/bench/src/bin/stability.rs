//! Stability of explanations across RNG seeds (not in the paper; a
//! robustness check DESIGN.md calls for).
//!
//! For one dataset, measures how reproducible each technique's top-5
//! token ranking and coefficients are across 4 seeds, at the default
//! perturbation budget.
//!
//! Run with: `cargo run --release -p bench --bin stability`

use em_datagen::MagellanBenchmark;
use em_eval::{explanation_stability, TECHNIQUES};
use em_matchers::LogisticMatcher;

fn main() {
    let config = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    bench::outln!(
        "# Explanation stability across seeds (dataset {})\n",
        id.short_name()
    );

    let benchmark = MagellanBenchmark {
        scale: config.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(42);
    let matcher = LogisticMatcher::train(&train);
    let seeds = [11, 22, 33, 44];

    bench::outln!(
        "{:<14} {:>8} {:>14} {:>12}",
        "technique",
        "samples",
        "top5 jaccard",
        "weight cv"
    );
    for n_samples in [100usize, config.n_samples] {
        for technique in TECHNIQUES {
            let mut jac = 0.0;
            let mut cv = 0.0;
            let records = dataset.sample_by_label(false, 5, 3);
            for r in &records {
                let rep = explanation_stability(
                    &matcher,
                    dataset.schema(),
                    &r.pair,
                    technique,
                    n_samples,
                    5,
                    &seeds,
                );
                jac += rep.top_k_jaccard;
                cv += rep.weight_cv;
            }
            let n = records.len() as f64;
            bench::outln!(
                "{:<14} {:>8} {:>14.3} {:>12.3}",
                technique.label(),
                n_samples,
                jac / n,
                cv / n
            );
        }
        bench::outln!();
    }
    bench::outln!("Expected: stability improves with the perturbation budget; the landmark");
    bench::outln!("techniques are at least as stable as LIME at equal budget (fewer features");
    bench::outln!("per surrogate: only the varying entity's tokens).");
}
