//! Ablation: kernel width of the exponential proximity kernel.
//!
//! DESIGN.md §5(1): LIME's default width (0.25 over cosine distances in
//! [0, 1]) concentrates the surrogate on light perturbations. Sweeping the
//! width trades locality against sample efficiency; this binary reports
//! the token-based fidelity per width.
//!
//! Run with: `cargo run --release -p bench --bin ablation_kernel`

use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, MatchModel, SplitConfig};
use em_eval::removal::remove_tokens;
use em_lime::surrogate::SurrogateConfig;
use em_lime::{ExplainConfig, LimeExplainer};
use em_matchers::{LogisticMatcher, MatcherConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    println!(
        "# Ablation: kernel width (dataset {}, LIME surrogate fidelity)\n",
        id.short_name()
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
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

    println!("{:>8} {:>10} {:>10}", "width", "mean_r2", "mae");
    for width in [0.05, 0.1, 0.25, 0.5, 1.0, 5.0] {
        let cfg = ExplainConfig {
            n_samples: base.n_samples,
            surrogate: SurrogateConfig {
                kernel_width: width,
                lambda: 1.0,
            },
            seed: 7,
            parallelism: base.parallelism,
        };
        let explainer = LimeExplainer::new(cfg);
        let mut r2_sum = 0.0;
        let mut errs: Vec<f64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        for pair in &records {
            let e = explainer.explain(&matcher, schema, pair, em_obs::noop());
            r2_sum += e.surrogate_r2;
            if e.token_weights.is_empty() {
                continue;
            }
            // One 25% removal draw per record.
            let mut idx: Vec<usize> = (0..e.token_weights.len()).collect();
            idx.shuffle(&mut rng);
            let k = (e.token_weights.len() / 4).max(1);
            let removed: Vec<(em_entity::EntitySide, em_entity::Token)> = idx[..k]
                .iter()
                .map(|&i| (e.token_weights[i].side, e.token_weights[i].token.clone()))
                .collect();
            let weight_sum: f64 = idx[..k].iter().map(|&i| e.token_weights[i].weight).sum();
            let refs: Vec<&(em_entity::EntitySide, em_entity::Token)> = removed.iter().collect();
            let modified = remove_tokens(pair, schema, &refs);
            let actual = matcher.predict_proba(schema, &modified);
            errs.push((actual - (e.model_prediction - weight_sum)).abs());
        }
        let mae = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!(
            "{:>8.2} {:>10.3} {:>10.3}",
            width,
            r2_sum / records.len() as f64,
            mae
        );
    }
    println!("\nExpected: very narrow widths overweight near-identity samples (noisy fit);");
    println!("very wide widths avering over heavy perturbations (less local). The default");
    println!("0.25 sits in the flat middle of the fidelity curve.");
}
