//! Typed encode/decode between the JSON layer and the workspace types.
//!
//! Decoding turns a request body into `em-entity` pairs and explainer
//! configs (every failure is a message the server maps to a 400); encoding
//! walks `PairExplanation` / `DualExplanation` into a deterministic
//! [`Value`] tree. Both the online server (`em-serve`) and the offline
//! batch pipeline (`em-batch`) run explanations through
//! [`run_explain`], which is what makes a batch-written record
//! bit-identical to a served response for the same
//! `(pair, explainer, config, seed)`. The canonical cache key
//! is also built here: the JSON of the *resolved* request — schema-ordered
//! pair values, explainer, and every config field that affects the
//! explanation. `threads` is deliberately excluded: any thread count
//! yields bit-identical weights (DESIGN.md §7), so including it would only
//! fragment the cache.

use em_entity::{EntityPair, EntitySide, Schema};
use em_lime::{
    ExplainConfig, LimeExplainer, MojitoCopyExplainer, PairExplanation, SurrogateConfig,
    SurrogateSolver, MIN_KERNEL_WIDTH,
};
use em_par::ParallelismConfig;
use landmark_core::strategy::ResolvedStrategy;
use landmark_core::{GenerationStrategy, LandmarkExplainer};

use crate::json::Value;

/// Which explainer a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainerKind {
    /// Landmark with `Auto` strategy resolution (the paper's default).
    Landmark,
    /// Landmark, single-entity generation forced.
    LandmarkSingle,
    /// Landmark, double-entity generation forced.
    LandmarkDouble,
    /// LIME / Mojito Drop over both entities.
    Lime,
    /// Mojito Copy (attribute-level copy perturbations).
    MojitoCopy,
}

impl ExplainerKind {
    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<ExplainerKind> {
        match s {
            "landmark" => Some(ExplainerKind::Landmark),
            "landmark-single" => Some(ExplainerKind::LandmarkSingle),
            "landmark-double" => Some(ExplainerKind::LandmarkDouble),
            "lime" => Some(ExplainerKind::Lime),
            "mojito-copy" => Some(ExplainerKind::MojitoCopy),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ExplainerKind::Landmark => "landmark",
            ExplainerKind::LandmarkSingle => "landmark-single",
            ExplainerKind::LandmarkDouble => "landmark-double",
            ExplainerKind::Lime => "lime",
            ExplainerKind::MojitoCopy => "mojito-copy",
        }
    }
}

/// Per-request explainer settings (defaults overridable via `"config"`).
#[derive(Debug, Clone, Copy)]
pub struct ExplainOptions {
    /// Perturbation samples per surrogate fit.
    pub n_samples: usize,
    /// RNG seed (part of the cache key — same seed, same bytes).
    pub seed: u64,
    /// Scoring threads within one request (`0` auto, `1` serial). Not part
    /// of the cache key; see the module docs.
    pub threads: usize,
    /// Proximity-kernel width; a request may not go below
    /// [`MIN_KERNEL_WIDTH`].
    pub kernel_width: f64,
    /// Surrogate solver.
    pub solver: SurrogateSolver,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        let surrogate = SurrogateConfig::default();
        ExplainOptions {
            n_samples: 500,
            seed: 0,
            threads: 1,
            kernel_width: surrogate.kernel_width,
            solver: surrogate.solver,
        }
    }
}

impl ExplainOptions {
    /// The explainer settings these options select.
    fn config(&self) -> ExplainConfig {
        ExplainConfig {
            n_samples: self.n_samples,
            surrogate: SurrogateConfig {
                kernel_width: self.kernel_width,
                solver: self.solver,
            },
            seed: self.seed,
            parallelism: match self.threads {
                1 => ParallelismConfig::serial(),
                n => ParallelismConfig::with_threads(n),
            },
        }
    }

    fn solver_fields(&self) -> (&'static str, f64) {
        match self.solver {
            SurrogateSolver::Ridge { lambda } => ("ridge", lambda),
            SurrogateSolver::Lasso { lambda } => ("lasso", lambda),
        }
    }
}

/// A decoded `POST /explain` body.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The record to explain.
    pub pair: EntityPair,
    /// Which explainer runs.
    pub explainer: ExplainerKind,
    /// Resolved settings (defaults + overrides).
    pub options: ExplainOptions,
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

/// Decodes a full `POST /explain` body against the schema and defaults.
pub fn decode_explain_request(
    body: &str,
    schema: &Schema,
    defaults: &ExplainOptions,
) -> Result<ExplainRequest, String> {
    let root = Value::parse(body).map_err(|e| e.to_string())?;
    let pair = decode_pair(&root, schema)?;
    let explainer = match root.get("explainer") {
        None => ExplainerKind::Landmark,
        Some(v) => {
            let name = v.as_str().ok_or("\"explainer\" must be a string")?;
            ExplainerKind::parse(name)
                .ok_or_else(|| format!("unknown explainer {name:?} (expected one of landmark, landmark-single, landmark-double, lime, mojito-copy)"))?
        }
    };
    let mut options = *defaults;
    if let Some(config) = root.get("config") {
        let Some(entries) = config.as_object() else {
            return Err("\"config\" must be an object".into());
        };
        for (key, value) in entries {
            match key.as_str() {
                "n_samples" => {
                    let n = value
                        .as_u64()
                        .filter(|&n| (1..=1_000_000).contains(&n))
                        .ok_or("\"n_samples\" must be an integer in 1..=1000000")?;
                    options.n_samples = n as usize;
                }
                "seed" => {
                    options.seed = value
                        .as_u64()
                        .ok_or("\"seed\" must be a non-negative integer")?;
                }
                "threads" => {
                    let n = value
                        .as_u64()
                        .filter(|&n| n <= 1024)
                        .ok_or("\"threads\" must be an integer in 0..=1024")?;
                    options.threads = n as usize;
                }
                "kernel_width" => {
                    // Narrower widths underflow the kernel: the fit turns
                    // non-finite instead of explaining (MIN_KERNEL_WIDTH).
                    let w = value
                        .as_f64()
                        .filter(|w| *w >= MIN_KERNEL_WIDTH)
                        .ok_or_else(|| {
                            format!("\"kernel_width\" must be a number >= {MIN_KERNEL_WIDTH:e}")
                        })?;
                    options.kernel_width = w;
                }
                "solver" => {
                    let name = value
                        .as_str()
                        .ok_or("\"solver\" must be \"ridge\" or \"lasso\"")?;
                    let lambda = options.solver_fields().1;
                    options.solver = match name {
                        "ridge" => SurrogateSolver::Ridge { lambda },
                        "lasso" => SurrogateSolver::Lasso { lambda },
                        _ => return Err(format!("unknown solver {name:?}")),
                    };
                }
                "lambda" => {
                    let lambda = value
                        .as_f64()
                        .filter(|l| *l >= 0.0)
                        .ok_or("\"lambda\" must be a non-negative number")?;
                    options.solver = match options.solver {
                        SurrogateSolver::Ridge { .. } => SurrogateSolver::Ridge { lambda },
                        SurrogateSolver::Lasso { .. } => SurrogateSolver::Lasso { lambda },
                    };
                }
                other => return Err(format!("unknown config field {other:?}")),
            }
        }
    }
    Ok(ExplainRequest {
        pair,
        explainer,
        options,
    })
}

/// The canonical cache key for a resolved request (see module docs).
pub fn cache_key(schema: &Schema, request: &ExplainRequest) -> String {
    let values = |side: EntitySide| -> Value {
        Value::Array(
            (0..schema.len())
                .map(|i| Value::string(request.pair.entity(side).value(i)))
                .collect(),
        )
    };
    let (solver, lambda) = request.options.solver_fields();
    Value::object(vec![
        ("explainer", Value::string(request.explainer.name())),
        ("n_samples", request.options.n_samples.into()),
        ("seed", Value::Number(request.options.seed as f64)),
        ("kernel_width", request.options.kernel_width.into()),
        ("solver", Value::string(solver)),
        ("lambda", lambda.into()),
        ("left", values(EntitySide::Left)),
        ("right", values(EntitySide::Right)),
    ])
    .to_json()
}

/// Runs the selected explainer and encodes the response body, recording
/// per-stage timings into `tracer` ([`em_obs::noop`] records nothing).
/// Tracing only observes: traced and untraced response bodies are
/// byte-identical (DESIGN.md §10).
pub fn run_explain<M: em_entity::MatchModel + Sync>(
    model: &M,
    schema: &Schema,
    request: &ExplainRequest,
    tracer: &dyn em_obs::Tracer,
) -> Value {
    let config = request.options.config();
    let pair = &request.pair;
    let views: Vec<Value> = match request.explainer {
        ExplainerKind::Landmark | ExplainerKind::LandmarkSingle | ExplainerKind::LandmarkDouble => {
            let strategy = match request.explainer {
                ExplainerKind::LandmarkSingle => GenerationStrategy::SingleEntity,
                ExplainerKind::LandmarkDouble => GenerationStrategy::DoubleEntity,
                _ => GenerationStrategy::Auto,
            };
            let dual =
                LandmarkExplainer::new(config, strategy).explain(model, schema, pair, tracer);
            dual.both()
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
                .collect()
        }
        ExplainerKind::Lime | ExplainerKind::MojitoCopy => {
            let explanation = if request.explainer == ExplainerKind::Lime {
                LimeExplainer::new(config).explain(model, schema, pair, tracer)
            } else {
                MojitoCopyExplainer::new(config).explain(model, schema, pair, tracer)
            };
            vec![encode_view(
                schema,
                None,
                EntitySide::Right,
                None,
                &explanation,
                None,
            )]
        }
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
    use em_entity::{Entity, MatchModel};

    struct OverlapModel;
    impl MatchModel for OverlapModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            use std::collections::HashSet;
            let collect = |e: &Entity| -> HashSet<String> {
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
        let req = decode_explain_request(BODY, &schema(), &ExplainOptions::default()).unwrap();
        assert_eq!(req.explainer, ExplainerKind::LandmarkSingle);
        assert_eq!(req.options.n_samples, 64);
        assert_eq!(req.options.seed, 7);
        assert_eq!(req.pair.left.value(0), "sony alpha camera");
        assert_eq!(req.pair.right.value(1), "849.99");
    }

    #[test]
    fn defaults_apply_when_fields_are_absent() {
        let body = r#"{"pair": {"left": {"name": "a"}, "right": {"name": "b"}}}"#;
        let req = decode_explain_request(body, &schema(), &ExplainOptions::default()).unwrap();
        assert_eq!(req.explainer, ExplainerKind::Landmark);
        assert_eq!(req.options.n_samples, 500);
        // Missing attributes decode as empty values.
        assert_eq!(req.pair.left.value(1), "");
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        let s = schema();
        let d = ExplainOptions::default();
        for (body, needle) in [
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
                "unknown explainer",
            ),
            (
                r#"{"pair": {"left": {}, "right": {}}, "config": {"n_samples": 0}}"#,
                "n_samples",
            ),
            (
                r#"{"pair": {"left": {}, "right": {}}, "config": {"wat": 1}}"#,
                "unknown config field",
            ),
        ] {
            let err = decode_explain_request(body, &s, &d).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn kernel_widths_below_the_floor_are_rejected() {
        let s = schema();
        let d = ExplainOptions::default();
        let body = |width: &str| {
            format!(
                r#"{{"pair": {{"left": {{"name": "alpha"}}, "right": {{"name": "beta"}}}},
                     "explainer": "lime", "config": {{"kernel_width": {width}}}}}"#
            )
        };
        for width in ["1e-150", "1e-17", "9.99e-7", "0", "-0.25", "\"0.25\""] {
            let err = decode_explain_request(&body(width), &s, &d).unwrap_err();
            assert_eq!(err, "\"kernel_width\" must be a number >= 1e-6", "{width}");
        }
        for (width, expected) in [("1e-6", MIN_KERNEL_WIDTH), ("0.25", 0.25), ("5", 5.0)] {
            let req = decode_explain_request(&body(width), &s, &d).unwrap();
            assert_eq!(req.options.kernel_width, expected, "{width}");
        }
    }

    #[test]
    fn solver_and_lambda_compose() {
        let body = r#"{"pair": {"left": {}, "right": {}},
                       "config": {"solver": "lasso", "lambda": 0.25}}"#;
        let req = decode_explain_request(body, &schema(), &ExplainOptions::default()).unwrap();
        assert_eq!(req.options.solver, SurrogateSolver::Lasso { lambda: 0.25 });
    }

    #[test]
    fn cache_key_is_canonical_and_ignores_threads() {
        let d = ExplainOptions::default();
        let s = schema();
        let a = decode_explain_request(BODY, &s, &d).unwrap();
        // Same request with reordered JSON fields and a different thread
        // count must produce the same key.
        let reordered = r#"{
            "config": {"seed": 7, "threads": 4, "n_samples": 64},
            "explainer": "landmark-single",
            "pair": {
                "right": {"price": "849.99", "name": "sony alpha camera kit"},
                "left": {"price": "849.99", "name": "sony alpha camera"}
            }
        }"#;
        let b = decode_explain_request(reordered, &s, &d).unwrap();
        assert_eq!(cache_key(&s, &a), cache_key(&s, &b));

        // A different seed must change the key.
        let mut c = a.clone();
        c.options.seed = 8;
        assert_ne!(cache_key(&s, &a), cache_key(&s, &c));
    }

    #[test]
    fn run_explain_encodes_weights_bit_identical_to_direct_call() {
        let s = schema();
        let req = decode_explain_request(BODY, &s, &ExplainOptions::default()).unwrap();
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
        let d = ExplainOptions {
            n_samples: 32,
            ..Default::default()
        };
        for explainer in ["landmark", "landmark-single", "lime", "mojito-copy"] {
            let body = format!(
                r#"{{"pair": {{"left": {{"name": "sony camera"}}, "right": {{"name": "sony kit"}}}},
                     "explainer": "{explainer}"}}"#
            );
            let req = decode_explain_request(&body, &s, &d).unwrap();
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
        let d = ExplainOptions {
            n_samples: 32,
            ..Default::default()
        };
        for explainer in ["lime", "mojito-copy"] {
            let body = format!(
                r#"{{"pair": {{"left": {{"name": "sony camera"}}, "right": {{"name": "sony kit"}}}},
                     "explainer": "{explainer}"}}"#
            );
            let req = decode_explain_request(&body, &s, &d).unwrap();
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
