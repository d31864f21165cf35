//! Global model interpretation via explanation summaries.
//!
//! The paper's future work (Section 5) proposes summarizing local
//! explanations to interpret the EM model as a whole. This example
//! explains a sample of records from one dataset and aggregates the
//! explanations: mean attribute importance and the most consistently
//! match-supporting / match-blocking tokens.
//!
//! Run with: `cargo run --release --example global_summary`

use landmark_explanation::landmark::summarize;
use landmark_explanation::prelude::*;

fn main() {
    let dataset = MagellanBenchmark::scaled(0.2).generate(DatasetId::SIa);
    let schema = dataset.schema().clone();
    println!("Training the EM model on {} records...", dataset.len());
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    let config = ExplainConfig {
        n_samples: 300,
        ..Default::default()
    };
    let explainer = LandmarkExplainer::new(config, GenerationStrategy::Auto);

    println!("Explaining 20 records per label...");
    let mut explanations = Vec::new();
    for label in [true, false] {
        for record in dataset.sample_by_label(label, 20, 7) {
            explanations.push(explainer.explain(&matcher, &schema, &record.pair, noop()));
        }
    }
    let views: Vec<_> = explanations.iter().flat_map(|d| d.both()).collect();
    let summary = summarize(&schema, &views, 3);

    println!(
        "\nAggregated over {} landmark explanations.\n",
        summary.n_explanations
    );

    println!("Mean attribute importance (|surrogate weight| per token):");
    let mut attrs: Vec<(usize, f64)> = summary
        .attribute_importance
        .iter()
        .copied()
        .enumerate()
        .collect();
    attrs.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (idx, imp) in attrs {
        println!("   {:<18} {:.4}", schema.name(idx), imp);
    }

    println!("\nAttribute weights of the logistic-regression model itself:");
    for (idx, w) in matcher.attribute_weights().iter().enumerate() {
        println!("   {:<18} {:+.4}", schema.name(idx), w);
    }

    println!("\nTokens most consistently supporting MATCH:");
    for t in summary.match_tokens.iter().take(8) {
        println!(
            "   {:<28} mean {:+.4} (seen {}x)",
            t.key, t.mean_weight, t.count
        );
    }
    println!("\nTokens most consistently supporting NON-MATCH:");
    for t in summary.non_match_tokens.iter().take(8) {
        println!(
            "   {:<28} mean {:+.4} (seen {}x)",
            t.key, t.mean_weight, t.count
        );
    }
}
