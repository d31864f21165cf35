//! Serving-layer check for the prepared scoring kernel.
//!
//! The server holds its model as `Box<dyn MatchModel + Send + Sync>`. The
//! blanket `MatchModel for Box<M>` impl must forward `prepare_scorer` to
//! the boxed matcher — otherwise the serving path would silently fall
//! back to the naive reconstruct-then-extract scorer and the kernel would
//! never run in production. These tests pin both halves of that contract:
//! the boxed path produces byte-identical response bodies to the naive
//! fallback (correctness), through every served explainer kind.

use em_codec::explain::{decode_explain_request, run_explain};
use em_codec::ExplainOptions;
use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, MatchModel, Schema};
use em_matchers::{LogisticMatcher, MatcherConfig};

/// Forwards only `predict_proba`: the default `prepare_scorer` kicks in,
/// so every mask is scored by reconstructing the pair from scratch.
struct NaiveOnly(LogisticMatcher);

impl MatchModel for NaiveOnly {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        self.0.predict_proba(schema, pair)
    }
}

fn request_body(schema: &Schema, pair: &EntityPair, explainer: &str) -> String {
    let entity = |e: &em_entity::Entity| {
        Value::Object(
            (0..schema.len())
                .map(|i| (schema.name(i).to_string(), Value::string(e.value(i))))
                .collect(),
        )
    };
    Value::object(vec![
        (
            "pair",
            Value::object(vec![
                ("left", entity(&pair.left)),
                ("right", entity(&pair.right)),
            ]),
        ),
        ("explainer", Value::string(explainer)),
        (
            "config",
            Value::object(vec![("n_samples", 64usize.into()), ("seed", 7usize.into())]),
        ),
    ])
    .to_json()
}

#[test]
fn boxed_model_serves_bit_identical_to_naive_fallback() {
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    // The exact type the server stores (server.rs `AppState::model`).
    let boxed: Box<dyn MatchModel + Send + Sync> = Box::new(matcher.clone());
    let naive = NaiveOnly(matcher);

    for explainer in [
        "landmark",
        "landmark-single",
        "landmark-double",
        "lime",
        "mojito-copy",
    ] {
        for record in dataset.records().iter().take(3) {
            let body = request_body(&schema, &record.pair, explainer);
            let decoded = decode_explain_request(&body, &schema, &ExplainOptions::default())
                .expect("request decodes");
            let served = run_explain(&boxed, &schema, &decoded, em_obs::noop()).to_json();
            let reference = run_explain(&naive, &schema, &decoded, em_obs::noop()).to_json();
            assert_eq!(
                served, reference,
                "served ({explainer}) body diverged from the naive scorer"
            );
        }
    }
}
