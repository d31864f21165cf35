//! Quickstart — the paper's Figure 1 / Examples 1.1-1.2 walked end to end.
//!
//! Builds the camera-vs-leather-case record from the paper, trains the
//! logistic-regression EM model on a synthetic product dataset, and prints
//! the two landmark explanations with their top-3 tokens.
//!
//! Run with: `cargo run --release --example quickstart`

use landmark_explanation::prelude::*;

fn main() {
    // A product dataset in the same domain as the record we explain.
    let dataset = MagellanBenchmark::scaled(0.2).generate(DatasetId::TAb);
    let schema = dataset.schema().clone();
    println!(
        "Training the EM model (logistic regression) on {} records...",
        dataset.len()
    );
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // The record of Figure 1: a digital camera vs a leather case.
    let record = EntityPair::new(
        Entity::new(vec![
            "sonix digital camera with lens kit dslra200w",
            "sonix alpha digital slr camera with lens kit dslra200w 10.2 megapixels",
            "849.99",
        ]),
        Entity::new(vec![
            "nikor digital camera leather case 5811",
            "leather black",
            "7.99",
        ]),
    );

    let p = matcher.predict_proba(&schema, &record);
    println!("\nRecord to explain:\n{}", record.display_with(&schema));
    println!(
        "EM model match probability: {p:.3} -> {}",
        if p >= 0.5 { "MATCH" } else { "NON-MATCH" }
    );

    // Landmark Explanation: two explanations, one per landmark.
    let explainer = LandmarkExplainer::default();
    let dual = explainer.explain(&matcher, &schema, &record, noop());

    for le in dual.both() {
        println!(
            "\n=== Landmark: {} entity (perturbing the {} entity, {:?} generation) ===",
            le.landmark, le.varying, le.strategy
        );
        println!("{}", le.explanation.render_top_k(&schema, 3));
        let injected = le.injected_token_weights();
        if !injected.is_empty() {
            println!("-- injected landmark tokens that would push towards match:");
            let mut best: Vec<_> = injected.into_iter().filter(|t| t.weight > 0.0).collect();
            best.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            for tw in best.into_iter().take(3) {
                println!(
                    "   {}/{}: {:+.4}",
                    schema.name(tw.token.attribute),
                    tw.token.text,
                    tw.weight
                );
            }
        }
    }

    println!(
        "\nInterpretation: positive weights support MATCH, negative weights support NON-MATCH."
    );
}
