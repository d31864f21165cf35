//! Counterfactual records: "what would have to change for this pair to
//! match?"
//!
//! Section 4.3 of the paper argues that the interesting tokens of a
//! non-matching record are those that would flip the model's decision if
//! shared. This example turns a landmark explanation into an explicit
//! minimal edit: tokens to remove from / add to the varying entity such
//! that the EM model changes its mind.
//!
//! Run with: `cargo run --release --example counterfactuals`

use landmark_explanation::landmark::{counterfactual, CounterfactualConfig, Edit};
use landmark_explanation::prelude::*;

fn main() {
    let dataset = MagellanBenchmark::scaled(0.2).generate(DatasetId::SWa);
    let schema = dataset.schema().clone();
    println!("Training the EM model on {} records...", dataset.len());
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // A hard non-match: predicted non-matching, but with shared tokens.
    let record = dataset
        .records()
        .iter()
        .filter(|r| !r.label)
        .map(|r| (matcher.predict_proba(&schema, &r.pair), r.pair.clone()))
        .filter(|(p, _)| *p < 0.5)
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-match exists")
        .1;

    println!("\nRecord:\n{}", record.display_with(&schema));
    println!(
        "Model probability: {:.3} -> NON-MATCH",
        matcher.predict_proba(&schema, &record)
    );

    let explainer =
        LandmarkExplainer::new(ExplainConfig::default(), GenerationStrategy::DoubleEntity);
    let dual = explainer.explain(&matcher, &schema, &record, noop());
    let le = dual.with_landmark(EntitySide::Left);
    let cf = counterfactual(
        &matcher,
        &schema,
        &record,
        le,
        &CounterfactualConfig {
            max_edits: 12,
            ..Default::default()
        },
    );

    println!("\nCounterfactual edits to the RIGHT entity (left is the landmark):");
    for edit in &cf.edits {
        match edit {
            Edit::Add(t) => println!("   + add    {}/{:?}", schema.name(t.attribute), t.text),
            Edit::Remove(t) => println!("   - remove {}/{:?}", schema.name(t.attribute), t.text),
        }
    }
    println!(
        "\nEdited record probability: {:.3} -> {}",
        cf.probability,
        if cf.probability >= 0.5 {
            "MATCH"
        } else {
            "NON-MATCH"
        }
    );
    println!("Flipped: {}", cf.flipped);
    println!(
        "\nEdited right entity: {}",
        cf.record.right.display_with(&schema)
    );
}
