//! Typed encode/decode between the JSON layer and the workspace types.
//!
//! Decoding turns a request body into an `em-entity` pair, a
//! [`ExplainerKind`] and em-lime's [`ExplainConfig`] (every failure is a
//! message the server maps to a 400); encoding walks the typed
//! [`Explanation`] the kind's dispatch returns into a deterministic
//! [`Value`] tree. Both the online server (`em-serve`) and the offline
//! batch pipeline (`em-batch`) run explanations through [`run_explain`],
//! which is what makes a batch-written record bit-identical to a served
//! response for the same `(pair, explainer, config, seed)`.
//!
//! The pair's wire form is owned here in both directions: [`decode_pair`]
//! reads `{"left": {attr: value, ...}, "right": {...}}` and
//! [`encode_pair`] writes it, for em-batch's record lines and for every
//! client that builds a request body.
//!
//! So are the two routing keys. [`cache_key`] is the JSON of the
//! *resolved* request — explainer, every config field that affects the
//! explanation, and the schema-ordered pair values. [`predict_key`] is
//! the same pair values alone. em-serve keys its cache
//! by the first, and em-route places both kinds of request on its ring by
//! hashing them, so their bytes are pinned.
//!
//! What a request means is decided here and by the body alone, the same
//! on every path. Its `"config"` may set `n_samples` (in
//! [`N_SAMPLES_RANGE`]) and `seed` (below [`SEED_LIMIT`]); any other field
//! is refused, and a field the body leaves out takes
//! [`ExplainConfig::default`]'s value. No server or router setting
//! changes that resolution, so one body has one cache key on every tier.
//! The surrogate's kernel width and ridge penalty are not on the wire:
//! every served explanation uses the default
//! [`ExplainConfig::kernel_width`] and [`em_lime::RIDGE_LAMBDA`].
//! Neither is a thread count: one explanation always runs on one thread
//! (DESIGN.md §7).

use std::ops::RangeInclusive;

use em_entity::{EntityPair, EntitySide, Schema};
use em_lime::{ExplainConfig, PairExplanation};
use landmark_core::strategy::ResolvedStrategy;
use landmark_core::{ExplainerKind, Explanation};

use crate::json::Value;

/// Upper bound (exclusive) on any seed that crosses a JSON boundary.
///
/// JSON numbers are f64, exact only for integers below 2^53: a larger
/// seed would round to a neighbour and the explanation would run under a
/// seed nobody sent. Decoding refuses a wire seed at or above this limit,
/// and `em-batch` bounds its base seed and masks every derived record
/// seed below it.
pub const SEED_LIMIT: u64 = 1 << 53;

/// The perturbation sample counts an explanation may ask for. Decoding
/// refuses a wire `n_samples` outside it, and `em-batch` refuses to plan
/// one, so every batch line can be replayed as a request.
pub const N_SAMPLES_RANGE: RangeInclusive<usize> = 1..=1_000_000;

/// A decoded `POST /explain` body.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The record to explain.
    pub pair: EntityPair,
    /// Which explainer runs.
    pub explainer: ExplainerKind,
    /// Resolved settings: [`ExplainConfig::default`] with the body's
    /// `n_samples` and `seed`.
    pub config: ExplainConfig,
}

/// Encodes a pair as the object [`decode_pair`] reads from a `"pair"`
/// field: `{"left": {attr: value, ...}, "right": {...}}`, every attribute
/// of both entities in schema order.
pub fn encode_pair(schema: &Schema, pair: &EntityPair) -> Value {
    let entity = |side: EntitySide| {
        Value::object(
            (0..schema.len())
                .map(|i| (schema.name(i), Value::string(pair.entity(side).value(i))))
                .collect(),
        )
    };
    Value::object(vec![
        ("left", entity(EntitySide::Left)),
        ("right", entity(EntitySide::Right)),
    ])
}

/// Decodes the `"pair"` field: `{"left": {attr: value, ...}, "right": ...}`.
pub fn decode_pair(body: &Value, schema: &Schema) -> Result<EntityPair, String> {
    let pair = body.get("pair").ok_or("missing field \"pair\"")?;
    let left = decode_entity_values(pair.get("left").ok_or("missing field \"pair.left\"")?)?;
    let right = decode_entity_values(pair.get("right").ok_or("missing field \"pair.right\"")?)?;
    EntityPair::from_named_values(
        schema,
        left.iter().map(|(k, v)| (*k, *v)),
        right.iter().map(|(k, v)| (*k, *v)),
    )
    .map_err(|e| e.to_string())
}

fn decode_entity_values(v: &Value) -> Result<Vec<(&str, &str)>, String> {
    let fields = v.as_object().ok_or("entity must be a JSON object")?;
    fields
        .iter()
        .map(|(k, v)| match v.as_str() {
            Some(s) => Ok((k.as_str(), s)),
            None => Err(format!("attribute {k:?} must be a string")),
        })
        .collect()
}

/// Decodes a full `POST /explain` body against the schema. A field the
/// body leaves out takes [`ExplainConfig::default`]'s value.
pub fn decode_explain_request(body: &str, schema: &Schema) -> Result<ExplainRequest, String> {
    let root = Value::parse(body).map_err(|e| e.to_string())?;
    let pair = decode_pair(&root, schema)?;
    let explainer = match root.get("explainer") {
        None => ExplainerKind::Landmark,
        Some(v) => {
            let name = v.as_str().ok_or("\"explainer\" must be a string")?;
            ExplainerKind::parse(name)?
        }
    };
    let mut config = ExplainConfig::default();
    if let Some(wire) = root.get("config") {
        let Some(entries) = wire.as_object() else {
            return Err("\"config\" must be an object".into());
        };
        for (key, value) in entries {
            match key.as_str() {
                "n_samples" => {
                    config.n_samples = value
                        .as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .filter(|n| N_SAMPLES_RANGE.contains(n))
                        .ok_or_else(|| {
                            format!("\"n_samples\" must be an integer in {N_SAMPLES_RANGE:?}")
                        })?;
                }
                "seed" => {
                    config.seed = value
                        .as_u64()
                        .filter(|&seed| seed < SEED_LIMIT)
                        .ok_or("\"seed\" must be a non-negative integer below 2^53")?;
                }
                other => return Err(format!("unknown config field {other:?}")),
            }
        }
    }
    Ok(ExplainRequest {
        pair,
        explainer,
        config,
    })
}

/// The canonical cache key for a resolved request (see module docs). The
/// kernel width comes from the resolved config, which a decoded request
/// always leaves at the library default, and the ridge penalty is
/// [`em_lime::RIDGE_LAMBDA`]; writing both keeps every key's bytes, ring
/// placement and cache entry unchanged.
pub fn cache_key(schema: &Schema, request: &ExplainRequest) -> String {
    let config = &request.config;
    Value::object(vec![
        ("explainer", Value::string(request.explainer.name())),
        ("n_samples", config.n_samples.into()),
        ("seed", Value::Number(config.seed as f64)),
        ("kernel_width", config.kernel_width.into()),
        // Only ridge remains; the field keeps every key's bytes unchanged.
        ("solver", Value::string("ridge")),
        ("lambda", em_lime::RIDGE_LAMBDA.into()),
        ("left", values(schema, &request.pair, EntitySide::Left)),
        ("right", values(schema, &request.pair, EntitySide::Right)),
    ])
    .to_json()
}

/// The routing key of a `POST /predict`: the `left`/`right` value arrays
/// [`cache_key`] embeds, without the explainer fields (a prediction has
/// no explainer config), so both kinds of traffic for one pair land on
/// the same backend.
pub fn predict_key(schema: &Schema, pair: &EntityPair) -> String {
    Value::object(vec![
        ("left", values(schema, pair, EntitySide::Left)),
        ("right", values(schema, pair, EntitySide::Right)),
    ])
    .to_json()
}

/// One side's attribute values in schema order, as both routing keys
/// write them.
fn values(schema: &Schema, pair: &EntityPair, side: EntitySide) -> Value {
    Value::Array(
        (0..schema.len())
            .map(|i| Value::string(pair.entity(side).value(i)))
            .collect(),
    )
}

/// Runs the selected explainer and encodes the response body, recording
/// per-stage timings into `tracer` ([`em_obs::noop`] records nothing).
/// Tracing only observes: traced and untraced response bodies are
/// byte-identical (DESIGN.md §10).
pub fn run_explain<M: em_entity::MatchModel>(
    model: &M,
    schema: &Schema,
    request: &ExplainRequest,
    tracer: &dyn em_obs::Tracer,
) -> Value {
    let explanation =
        request
            .explainer
            .explain(model, schema, &request.pair, &request.config, tracer);
    let views: Vec<Value> = match &explanation {
        Explanation::Dual(dual) => dual
            .both()
            .iter()
            .map(|view| {
                encode_view(
                    schema,
                    Some(view.landmark),
                    view.varying,
                    Some(view.strategy),
                    &view.explanation,
                    Some(&view.injected),
                )
            })
            .collect(),
        Explanation::Pair(explanation) => vec![encode_view(
            schema,
            None,
            EntitySide::Right,
            None,
            explanation,
            None,
        )],
    };

    let model_prediction = views
        .first()
        .and_then(|v| v.get("model_prediction"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    Value::object(vec![
        ("explainer", Value::string(request.explainer.name())),
        ("model_prediction", model_prediction.into()),
        ("explanations", Value::Array(views)),
    ])
}

/// Encodes one explanation view. For LIME/Mojito (no landmark) `landmark`,
/// `strategy`, and `injected` are absent/null; `varying` is only
/// meaningful for landmark views.
fn encode_view(
    schema: &Schema,
    landmark: Option<EntitySide>,
    varying: EntitySide,
    strategy: Option<ResolvedStrategy>,
    explanation: &PairExplanation,
    injected: Option<&[bool]>,
) -> Value {
    let token_weights: Vec<Value> = explanation
        .iter()
        .enumerate()
        .map(|(i, tw)| {
            Value::object(vec![
                ("side", Value::string(tw.side.prefix())),
                ("attribute", Value::string(schema.name(tw.token.attribute))),
                ("occurrence", tw.token.occurrence.into()),
                ("text", Value::string(tw.token.text.as_str())),
                ("weight", tw.weight.into()),
                (
                    "injected",
                    injected
                        .and_then(|inj| inj.get(i))
                        .copied()
                        .unwrap_or(false)
                        .into(),
                ),
            ])
        })
        .collect();
    Value::object(vec![
        (
            "landmark",
            landmark.map_or(Value::Null, |s| Value::string(s.prefix())),
        ),
        ("varying", Value::string(varying.prefix())),
        (
            "strategy",
            match strategy {
                Some(ResolvedStrategy::SingleEntity) => Value::string("single_entity"),
                Some(ResolvedStrategy::DoubleEntity) => Value::string("double_entity"),
                None => Value::Null,
            },
        ),
        ("model_prediction", explanation.model_prediction.into()),
        (
            "surrogate_prediction",
            explanation.surrogate_prediction.into(),
        ),
        ("surrogate_r2", explanation.surrogate_r2.into()),
        ("intercept", explanation.intercept.into()),
        ("all_finite", explanation.all_finite().into()),
        ("token_weights", Value::Array(token_weights)),
    ])
}

/// Encodes the `POST /predict` response.
pub fn encode_prediction(probability: f64, threshold: f64) -> Value {
    Value::object(vec![
        ("probability", probability.into()),
        ("match", (probability >= threshold).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_datagen::{DatasetId, Domain};
    use em_entity::{Entity, MatchModel};
    use landmark_core::{GenerationStrategy, LandmarkExplainer};
    use proptest::prelude::*;

    struct OverlapModel;
    impl MatchModel for OverlapModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            use std::collections::BTreeSet;
            let collect = |e: &Entity| -> BTreeSet<String> {
                (0..schema.len())
                    .flat_map(|i| e.value(i).split_whitespace().map(str::to_string))
                    .collect()
            };
            let a = collect(&pair.left);
            let b = collect(&pair.right);
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            a.intersection(&b).count() as f64 / a.union(&b).count() as f64
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "price"])
    }

    const BODY: &str = r#"{
        "pair": {
            "left": {"name": "sony alpha camera", "price": "849.99"},
            "right": {"name": "sony alpha camera kit", "price": "849.99"}
        },
        "explainer": "landmark-single",
        "config": {"n_samples": 64, "seed": 7}
    }"#;

    #[test]
    fn decodes_a_full_request() {
        let req = decode_explain_request(BODY, &schema()).unwrap();
        assert_eq!(req.explainer, ExplainerKind::LandmarkSingle);
        assert_eq!(req.config.n_samples, 64);
        assert_eq!(req.config.seed, 7);
        assert_eq!(req.pair.left.value(0), "sony alpha camera");
        assert_eq!(req.pair.right.value(1), "849.99");
    }

    #[test]
    fn defaults_apply_when_fields_are_absent() {
        let body = r#"{"pair": {"left": {"name": "a"}, "right": {"name": "b"}}}"#;
        let req = decode_explain_request(body, &schema()).unwrap();
        let defaults = ExplainConfig::default();
        assert_eq!(req.explainer, ExplainerKind::Landmark);
        assert_eq!(req.config.n_samples, defaults.n_samples);
        assert_eq!(req.config.seed, defaults.seed);
        // Missing attributes decode as empty values.
        assert_eq!(req.pair.left.value(1), "");
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        let s = schema();
        let config = |fields: &str| {
            format!(
                r#"{{"pair": {{"left": {{"name": "alpha"}}, "right": {{"name": "beta"}}}},
                     "explainer": "lime", "config": {{{fields}}}}}"#
            )
        };
        let mut cases: Vec<(String, &str)> = [
            ("not json", "json error"),
            ("{}", "missing field \"pair\""),
            (r#"{"pair": {"left": {}}}"#, "pair.right"),
            (
                r#"{"pair": {"left": {"brand": "x"}, "right": {}}}"#,
                "unknown attribute",
            ),
            (
                r#"{"pair": {"left": {"name": 3}, "right": {}}}"#,
                "must be a string",
            ),
            (
                r#"{"pair": {"left": {}, "right": {}}, "explainer": "shap"}"#,
                "unknown explainer \"shap\" (expected one of landmark, landmark-single, landmark-double, lime, mojito-copy)",
            ),
        ]
        .into_iter()
        .map(|(body, needle)| (body.to_string(), needle))
        .collect();
        let samples = "\"n_samples\" must be an integer in 1..=1000000";
        let seed = "\"seed\" must be a non-negative integer below 2^53";
        let width = "unknown config field \"kernel_width\"";
        let solver = "unknown config field \"solver\"";
        for (fields, needle) in [
            (r#""n_samples": 0"#, samples),
            (r#""n_samples": 1000001"#, samples),
            (r#""n_samples": 2.5"#, samples),
            (r#""wat": 1"#, "unknown config field"),
            // JSON numbers are f64: 2^53 + 1 parses as 2^53, and 2^64 is
            // outside u64 altogether.
            (r#""seed": 9007199254740992"#, seed),
            (r#""seed": 9007199254740993"#, seed),
            (r#""seed": 18446744073709551616"#, seed),
            (r#""seed": -1"#, seed),
            // The surrogate's settings are not on the wire, whatever the
            // value: every width, including the ones that broke the fit.
            (r#""kernel_width": 1e-150"#, width),
            (r#""kernel_width": 9.99e-7"#, width),
            (r#""kernel_width": 0"#, width),
            (r#""kernel_width": 0.25"#, width),
            (r#""kernel_width": "0.25""#, width),
            (r#""solver": "ridge""#, solver),
            (r#""solver": "lasso""#, solver),
            (r#""solver": null"#, solver),
            (r#""lambda": 0.25"#, "unknown config field \"lambda\""),
            // One explanation runs on one thread whatever the body asks.
            (r#""threads": 1"#, "unknown config field \"threads\""),
        ] {
            cases.push((config(fields), needle));
        }
        for (body, needle) in cases {
            let err = decode_explain_request(&body, &s).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
        // The largest seed JSON carries exactly decodes to exactly itself.
        let req = decode_explain_request(&config(r#""seed": 9007199254740991"#), &s).unwrap();
        assert_eq!(req.config.seed, SEED_LIMIT - 1);
        // Both ends of the sample range decode.
        for n in [N_SAMPLES_RANGE.start(), N_SAMPLES_RANGE.end()] {
            let req = decode_explain_request(&config(&format!(r#""n_samples": {n}"#)), &s).unwrap();
            assert_eq!(req.config.n_samples, *n);
        }
    }

    #[test]
    fn cache_key_is_canonical_and_ignores_threads() {
        let s = schema();
        let a = decode_explain_request(BODY, &s).unwrap();
        // Same request with reordered JSON fields must produce the same
        // key, and no key names a thread count.
        let reordered = r#"{
            "config": {"seed": 7, "n_samples": 64},
            "explainer": "landmark-single",
            "pair": {
                "right": {"price": "849.99", "name": "sony alpha camera kit"},
                "left": {"price": "849.99", "name": "sony alpha camera"}
            }
        }"#;
        let b = decode_explain_request(reordered, &s).unwrap();
        assert_eq!(cache_key(&s, &a), cache_key(&s, &b));
        assert!(!cache_key(&s, &a).contains("threads"));

        // A body that leaves the config out has exactly the key of the
        // same body spelling the defaults out: em-route places both on
        // the backend that cached either.
        let pair = r#""pair": {"left": {"name": "sony"}, "right": {"name": "sony kit"}}"#;
        let implicit = decode_explain_request(&format!("{{{pair}}}"), &s).unwrap();
        let explicit = decode_explain_request(
            &format!(r#"{{{pair}, "config": {{"n_samples": 500, "seed": 0}}}}"#),
            &s,
        )
        .unwrap();
        assert_eq!(cache_key(&s, &implicit), cache_key(&s, &explicit));

        // A different seed must change the key.
        let mut c = a.clone();
        c.config.seed = 8;
        assert_ne!(cache_key(&s, &a), cache_key(&s, &c));
    }

    #[test]
    fn cache_key_bytes_are_pinned() {
        // em-route places a request on its ring by hashing these bytes and
        // every cache entry is stored under them: a change here silently
        // moves every key to a new backend and empties every cache.
        let s = schema();
        let body = r#"{"pair": {"left": {"name": "sony alpha"}, "right": {"name": "sony kit", "price": "9.5"}}}"#;
        let request = decode_explain_request(body, &s).unwrap();
        assert_eq!(
            cache_key(&s, &request),
            r#"{"explainer":"landmark","n_samples":500,"seed":0,"kernel_width":0.25,"solver":"ridge","lambda":1,"left":["sony alpha",""],"right":["sony kit","9.5"]}"#
        );
    }

    /// A pair whose values need escaping, keep their spacing as sent, and
    /// include an empty value.
    fn awkward_pair() -> (Schema, EntityPair) {
        let schema = Schema::from_names(vec!["name", "addr", "phone"]);
        let pair = EntityPair::new(
            Entity::new(vec!["Caffè \"Roma\"", "  12  via  Po ", ""]),
            Entity::new(vec!["caffe roma\\ bar", "日本\ttab", "555-0101"]),
        );
        (schema, pair)
    }

    #[test]
    fn encode_pair_bytes_are_pinned() {
        // em-batch writes this object into every record line, so a change
        // here changes every shard. The bytes are the ones em-batch wrote
        // before the encoder moved here.
        let (s, p) = awkward_pair();
        assert_eq!(
            encode_pair(&s, &p).to_json(),
            r#"{"left":{"name":"Caffè \"Roma\"","addr":"  12  via  Po ","phone":""},"right":{"name":"caffe roma\\ bar","addr":"日本\ttab","phone":"555-0101"}}"#
        );
    }

    #[test]
    fn predict_key_bytes_are_pinned() {
        // em-route places a `/predict` on its ring by hashing these bytes.
        // They are the ones em-route's own key function wrote before the
        // key moved here.
        let (s, p) = awkward_pair();
        assert_eq!(
            predict_key(&s, &p),
            r#"{"left":["Caffè \"Roma\"","  12  via  Po ",""],"right":["caffe roma\\ bar","日本\ttab","555-0101"]}"#
        );
    }

    /// An attribute value a client may send: Unicode, quotes and
    /// backslashes, runs of spaces (leading, doubled, trailing), or
    /// nothing at all.
    fn wire_value() -> impl Strategy<Value = String> {
        let word = "[a-zé日\"\\\t]{0,4}";
        (" {0,2}", word, " {0,2}", word, " {0,2}").prop_map(|(a, b, c, d, e)| a + &b + &c + &d + &e)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn decode_pair_reads_back_what_encode_pair_writes(
            left in prop::collection::vec(wire_value(), 16),
            right in prop::collection::vec(wire_value(), 16),
        ) {
            for id in DatasetId::all() {
                let schema = Domain::new(id.spec().domain).schema();
                let n = schema.len();
                prop_assert!(n <= left.len(), "{} has {n} attributes", id.short_name());
                let pair = EntityPair::new(
                    Entity::new(left[..n].to_vec()),
                    Entity::new(right[..n].to_vec()),
                );
                let body = Value::object(vec![("pair", encode_pair(&schema, &pair))]).to_json();
                let root = Value::parse(&body).map_err(|e| e.to_string())?;
                prop_assert_eq!(decode_pair(&root, &schema), Ok(pair.clone()));
            }
        }
    }

    #[test]
    fn run_explain_encodes_weights_bit_identical_to_direct_call() {
        let s = schema();
        let req = decode_explain_request(BODY, &s).unwrap();
        let response = run_explain(&OverlapModel, &s, &req, em_obs::noop());

        let config = ExplainConfig {
            n_samples: 64,
            seed: 7,
            ..Default::default()
        };
        let direct = LandmarkExplainer::new(config, GenerationStrategy::SingleEntity).explain(
            &OverlapModel,
            &s,
            &req.pair,
            em_obs::noop(),
        );

        let views = response.get("explanations").unwrap().as_array().unwrap();
        assert_eq!(views.len(), 2);
        // Round-trip the encoded weights through JSON text and compare
        // bit-for-bit with the direct explanation.
        let text = response.to_json();
        let decoded = Value::parse(&text).unwrap();
        for (view, direct_view) in decoded
            .get("explanations")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(direct.both())
        {
            let weights = view.get("token_weights").unwrap().as_array().unwrap();
            assert_eq!(weights.len(), direct_view.explanation.len());
            for (w, tw) in weights.iter().zip(direct_view.explanation.iter()) {
                assert_eq!(w.get("weight").unwrap().as_f64().unwrap(), tw.weight);
                assert_eq!(
                    w.get("text").unwrap().as_str().unwrap(),
                    tw.token.text.as_str()
                );
            }
        }
    }

    #[test]
    fn traced_and_untraced_responses_are_byte_identical() {
        // The tracing acceptance bar: attaching a Collector must never
        // change a single output byte, for every explainer.
        let s = schema();
        for explainer in ["landmark", "landmark-single", "lime", "mojito-copy"] {
            let body = format!(
                r#"{{"pair": {{"left": {{"name": "sony camera"}}, "right": {{"name": "sony kit"}}}},
                     "explainer": "{explainer}", "config": {{"n_samples": 32}}}}"#
            );
            let req = decode_explain_request(&body, &s).unwrap();
            let untraced = run_explain(&OverlapModel, &s, &req, em_obs::noop()).to_json();
            let trace = em_obs::Collector::new();
            let traced = run_explain(&OverlapModel, &s, &req, &trace).to_json();
            assert_eq!(untraced, traced, "{explainer}");
            assert!(
                trace.counter(em_obs::Counter::SamplesScored) > 0,
                "{explainer} recorded nothing"
            );
        }
    }

    #[test]
    fn lime_and_mojito_produce_single_views() {
        let s = schema();
        for explainer in ["lime", "mojito-copy"] {
            let body = format!(
                r#"{{"pair": {{"left": {{"name": "sony camera"}}, "right": {{"name": "sony kit"}}}},
                     "explainer": "{explainer}", "config": {{"n_samples": 32}}}}"#
            );
            let req = decode_explain_request(&body, &s).unwrap();
            let response = run_explain(&OverlapModel, &s, &req, em_obs::noop());
            let views = response.get("explanations").unwrap().as_array().unwrap();
            assert_eq!(views.len(), 1, "{explainer}");
            assert_eq!(views[0].get("landmark"), Some(&Value::Null));
        }
    }

    #[test]
    fn prediction_encodes_probability_and_decision() {
        let v = encode_prediction(0.75, 0.5);
        assert_eq!(v.get("probability").unwrap().as_f64(), Some(0.75));
        assert_eq!(v.get("match").unwrap().as_bool(), Some(true));
        assert_eq!(
            encode_prediction(0.2, 0.5).get("match").unwrap().as_bool(),
            Some(false)
        );
    }
}
