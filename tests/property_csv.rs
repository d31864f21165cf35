//! Property-based tests for the CSV import/export layer, read back
//! through `dataset_from_reader`, the path `em-batch` reads its input
//! with.

use landmark_explanation::entity::{
    dataset_from_reader, dataset_to_csv, CsvRecords, EmDataset, Entity, EntityPair, LabeledPair,
    Schema,
};
use proptest::prelude::*;

/// Arbitrary cell content, including CSV-hostile characters.
fn cell() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("a".to_string()),
            Just("b,".to_string()),
            Just("\"q\"".to_string()),
            Just("nl\n".to_string()),
            Just("sony camera".to_string()),
            Just("849.99".to_string()),
            Just(String::new()),
        ],
        0..3,
    )
    .prop_map(|parts| parts.join(" "))
}

fn dataset() -> impl Strategy<Value = EmDataset> {
    let record = (
        prop::collection::vec(cell(), 2),
        prop::collection::vec(cell(), 2),
        any::<bool>(),
    );
    prop::collection::vec(record, 0..8).prop_map(|rows| {
        let schema = Schema::from_names(vec!["name", "price"]);
        let records = rows
            .into_iter()
            .map(|(l, r, label)| {
                LabeledPair::new(EntityPair::new(Entity::new(l), Entity::new(r)), label)
            })
            .collect();
        EmDataset::new("prop", schema, records)
    })
}

proptest! {
    #[test]
    fn csv_roundtrip_preserves_records(d in dataset()) {
        let csv = dataset_to_csv(&d);
        let back = dataset_from_reader("prop", csv.as_bytes()).expect("roundtrip parse");
        prop_assert_eq!(back.schema(), d.schema());
        prop_assert_eq!(back.len(), d.len());
        for (a, b) in d.records().iter().zip(back.records()) {
            prop_assert_eq!(a.label, b.label);
            // Values may differ in *internal whitespace collapse*? No —
            // the writer quotes verbatim, so values must be identical.
            prop_assert_eq!(&a.pair, &b.pair);
        }
    }

    #[test]
    fn csv_output_has_one_line_per_record_plus_header(d in dataset()) {
        let csv = dataset_to_csv(&d);
        // Quoted newlines inflate raw line counts; count records instead.
        prop_assert_eq!(CsvRecords::new(csv.as_bytes()).count(), d.len() + 1);
    }

    #[test]
    fn label_column_is_first_and_binary(d in dataset()) {
        let csv = dataset_to_csv(&d);
        let parsed: Vec<Vec<String>> = CsvRecords::new(csv.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(parsed[0][0].as_str(), "label");
        for row in &parsed[1..] {
            prop_assert!(row[0] == "0" || row[0] == "1");
        }
    }
}
