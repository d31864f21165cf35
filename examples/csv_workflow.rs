//! Using the library on your own data: the CSV workflow.
//!
//! The real Magellan datasets ship as CSV with `left_*` / `right_*`
//! column pairs and a `label` column. This example writes a synthetic
//! dataset out in that layout, reads it back (the path you would take
//! with real data), trains the matcher, and explains a record — the full
//! downstream-user workflow without any synthetic-generator coupling.
//!
//! Run with: `cargo run --release --example csv_workflow`

use landmark_explanation::entity::{dataset_from_csv, dataset_to_csv};
use landmark_explanation::prelude::*;

fn main() {
    // Stand-in for "your dataset": serialize a small benchmark dataset.
    let original = MagellanBenchmark::scaled(0.2).generate(DatasetId::SFz);
    let csv = dataset_to_csv(&original);
    println!(
        "Serialized {} records to CSV ({} bytes).",
        original.len(),
        csv.len()
    );
    println!(
        "First lines:\n{}",
        csv.lines().take(3).collect::<Vec<_>>().join("\n")
    );

    // The part you would run on real data: parse, train, explain.
    let dataset = dataset_from_csv("my-restaurants", &csv).expect("well-formed CSV");
    assert_eq!(dataset.len(), original.len());
    println!(
        "\nParsed back: {} records, {} attributes, {:.1}% match.",
        dataset.len(),
        dataset.schema().len(),
        dataset.match_percentage()
    );

    let matcher = LogisticMatcher::train(&dataset);
    let record = &dataset.records()[0].pair;
    let dual = LandmarkExplainer::default().explain(&matcher, dataset.schema(), record, noop());

    println!("\nRecord:\n{}", record.display_with(dataset.schema()));
    for le in dual.both() {
        println!(
            "landmark={} -> top tokens:\n{}\n",
            le.landmark,
            le.explanation.render_top_k(dataset.schema(), 3)
        );
    }
}
