//! Ablation: kernel width of the exponential proximity kernel.
//!
//! DESIGN.md §5(1): LIME's default width (0.25 over cosine distances in
//! [0, 1]) concentrates the surrogate on light perturbations. Sweeping the
//! width trades locality against sample efficiency; this binary reports,
//! per width, the surrogate's mean R² and the token-based MAE of Table 2
//! (em-eval's `token_eval`, the removal rule `report` runs), from one
//! LIME explanation of each record.
//!
//! Run with: `cargo run --release -p bench --bin ablation_kernel`

use em_datagen::MagellanBenchmark;
use em_entity::EntityPair;
use em_eval::technique::explained_records;
use em_eval::token_eval::{token_eval, TokenEvalConfig};
use em_lime::{ExplainConfig, LimeExplainer};
use em_matchers::LogisticMatcher;
use landmark_core::Explanation;

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    bench::outln!(
        "# Ablation: kernel width (dataset {}, LIME surrogate fidelity)\n",
        id.short_name()
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(42);
    let matcher = LogisticMatcher::train(&train);
    let schema = dataset.schema();

    let records: Vec<&EntityPair> = dataset
        .sample_by_label(true, base.n_records_per_label.min(20), 3)
        .into_iter()
        .map(|r| &r.pair)
        .chain(
            dataset
                .sample_by_label(false, base.n_records_per_label.min(20), 3)
                .into_iter()
                .map(|r| &r.pair),
        )
        .collect();

    let removal = TokenEvalConfig {
        threshold: base.threshold,
        seed: base.seed,
    };
    bench::outln!("{:>8} {:>10} {:>10}", "width", "mean_r2", "mae");
    for width in [0.05, 0.1, 0.25, 0.5, 1.0, 5.0] {
        let explainer = LimeExplainer::new(ExplainConfig {
            n_samples: base.n_samples,
            kernel_width: width,
            seed: 7,
        });
        let mut r2_sum = 0.0;
        let mut views = Vec::with_capacity(records.len());
        for pair in &records {
            let e = explainer.explain(&matcher, schema, pair, em_obs::noop());
            r2_sum += e.surrogate_r2;
            views.push(explained_records(
                &matcher,
                schema,
                pair,
                &Explanation::Pair(e),
            ));
        }
        let mae = token_eval(&matcher, schema, &views, &removal).mae;
        bench::outln!(
            "{:>8.2} {:>10.3} {:>10.3}",
            width,
            r2_sum / records.len() as f64,
            mae
        );
    }
}
