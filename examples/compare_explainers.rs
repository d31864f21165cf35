//! Compares all four explanation techniques on the same record.
//!
//! The paper's Tables 2-4 compare Landmark Explanation (Single / Double)
//! against LIME / Mojito Drop and Mojito Copy. This example makes the
//! comparison tangible on a single non-matching record: LIME spreads
//! weight across both entities, Mojito Copy assigns one weight per
//! attribute, and Landmark Explanation separates the two perspectives.
//!
//! Run with: `cargo run --release --example compare_explainers`

use landmark_explanation::eval::{ExplainedRecord, TECHNIQUES};
use landmark_explanation::prelude::*;

fn show(schema: &Schema, label: &str, views: &[ExplainedRecord]) {
    println!("\n=== {label} ===");
    for (i, view) in views.iter().enumerate() {
        if views.len() > 1 {
            println!(
                "-- view {} (landmark = {})",
                i + 1,
                if i == 0 { "left" } else { "right" }
            );
        }
        let mut ranked: Vec<_> = view.removable.iter().collect();
        ranked.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        for (side, token, weight) in ranked.into_iter().take(5) {
            println!(
                "   {}_{}/{}: {:+.4}",
                side.prefix(),
                schema.name(token.attribute),
                token.text,
                weight
            );
        }
    }
}

fn main() {
    let dataset = MagellanBenchmark::scaled(0.2).generate(DatasetId::SWa);
    let schema = dataset.schema().clone();
    println!("Training the EM model on {} records...", dataset.len());
    let matcher = LogisticMatcher::train(&dataset);

    // Pick a non-matching record with some shared tokens (a hard negative).
    let record = dataset
        .records()
        .iter()
        .filter(|r| !r.label)
        .find(|r| {
            use std::collections::BTreeSet;
            let a: BTreeSet<&str> = r
                .pair
                .left
                .values()
                .flat_map(str::split_whitespace)
                .collect();
            let b: BTreeSet<&str> = r
                .pair
                .right
                .values()
                .flat_map(str::split_whitespace)
                .collect();
            a.intersection(&b).count() >= 2
        })
        .expect("hard negative exists")
        .pair
        .clone();

    println!("\nRecord:\n{}", record.display_with(&schema));
    println!(
        "Model probability: {:.3}",
        matcher.predict_proba(&schema, &record)
    );

    for technique in TECHNIQUES {
        let views = landmark_explanation::eval::technique::explain_record(
            technique, &matcher, &schema, &record, 500, 0,
        );
        show(&schema, technique.label(), &views);
    }

    println!(
        "\nNote how Mojito Copy gives every token of an attribute the same weight\n\
         (attribute-atomic perturbation), while the landmark techniques rank\n\
         individual tokens of the varying entity."
    );
}
