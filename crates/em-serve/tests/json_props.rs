//! Property tests for the em-serve JSON layer: every value the writer can
//! emit must survive encode → decode unchanged, and the parser must never
//! panic on garbage.

use em_codec::Value;
use proptest::prelude::*;

/// Strings mixing JSON-hostile fragments: quotes, backslashes, control
/// characters, non-ASCII, and plain text.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("\"".to_string()),
            Just("\\".to_string()),
            Just("\n\t\r".to_string()),
            Just("\u{0}".to_string()),
            Just("\u{1f}".to_string()),
            Just("é ü ß".to_string()),
            Just("🦀".to_string()),
            Just("날씨".to_string()),
            Just("/".to_string()),
            Just("sony alpha".to_string()),
            Just(String::new()),
            "[a-z0-9 ]{0,8}".prop_map(|s| s),
        ],
        0..6,
    )
    .prop_map(|parts| parts.concat())
}

/// Finite numbers, including negatives, tiny magnitudes, and integers.
fn arb_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.5),
        Just(1e-12),
        Just(-849.99),
        (-1.0e9..1.0e9).prop_map(|f| f),
        (0u32..1_000_000).prop_map(f64::from),
    ]
}

fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        arb_number().prop_map(Value::from),
        arb_string().prop_map(Value::String),
    ]
}

/// Nested values: up to `depth` levels of arrays/objects over the leaves.
fn arb_value_depth(depth: usize) -> Box<dyn Strategy<Value = Value>> {
    if depth == 0 {
        return Box::new(arb_leaf());
    }
    Box::new(prop_oneof![
        arb_value_depth(depth - 1),
        prop::collection::vec(arb_value_depth(depth - 1), 0..4).prop_map(Value::Array),
        prop::collection::vec((arb_string(), arb_value_depth(depth - 1)), 0..4)
            .prop_map(Value::Object),
    ])
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_value_depth(3)
}

proptest! {
    #[test]
    fn strings_roundtrip(s in arb_string()) {
        let encoded = Value::String(s.clone()).to_json();
        let decoded = Value::parse(&encoded).expect("writer output must parse");
        prop_assert_eq!(decoded.as_str(), Some(s.as_str()));
    }

    #[test]
    fn numbers_roundtrip_bit_exact(n in arb_number()) {
        let encoded = Value::from(n).to_json();
        let decoded = Value::parse(&encoded).expect("writer output must parse");
        // Shortest-roundtrip formatting makes f64 → text → f64 exact.
        prop_assert_eq!(decoded.as_f64().unwrap().to_bits(), n.to_bits());
    }

    #[test]
    fn nested_values_roundtrip(v in arb_value()) {
        let encoded = v.to_json();
        let decoded = Value::parse(&encoded).expect("writer output must parse");
        prop_assert_eq!(&decoded, &v);
        // And encoding is deterministic / idempotent through a round-trip.
        prop_assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn parser_never_panics_on_garbage(s in "[\\[\\]{}\",:a-z0-9.eE+\\- \\\\]{0,32}") {
        // Ok or Err are both fine; panicking is not.
        let _ = Value::parse(&s);
    }

    #[test]
    fn truncations_of_valid_json_error_cleanly(v in arb_value(), cut in 0usize..64) {
        let encoded = v.to_json();
        if cut < encoded.len() {
            // Cut on a char boundary to keep the input valid UTF-8.
            let mut at = cut;
            while !encoded.is_char_boundary(at) {
                at -= 1;
            }
            if at > 0 {
                let _ = Value::parse(&encoded[..at]);
            }
        }
    }
}
