//! The four explanation techniques the paper compares, as
//! [`ExplainerKind`]s, and their explanations normalized for the
//! evaluations.

use em_entity::{EntityPair, EntitySide, MatchModel, Schema, Token};
use em_lime::ExplainConfig;
use landmark_core::{ExplainerKind, Explanation};

/// The techniques compared in Tables 2-4, in the paper's column order.
pub const TECHNIQUES: [ExplainerKind; 4] = [
    ExplainerKind::LandmarkSingle,
    ExplainerKind::LandmarkDouble,
    ExplainerKind::Lime,
    ExplainerKind::MojitoCopy,
];

/// The parts of an explanation the evaluations need, normalized across
/// techniques. A landmark technique produces **two** of these per record
/// (one per landmark side); LIME and Mojito Copy produce one.
///
/// Removal-based evaluations operate in the explainer's *interpretable
/// space*: the record whose tokens carry coefficients. For LIME, Mojito
/// Copy, and single-entity generation that is the raw record; for
/// double-entity generation it is the **concatenated** record — the
/// varying entity holds both its own tokens and the tokens injected from
/// the landmark, exactly what the surrogate's all-ones vector denotes.
#[derive(Debug, Clone)]
pub struct ExplainedRecord {
    /// The record token removals apply to (see above).
    pub base: EntityPair,
    /// Black-box probability of `base`.
    pub base_prediction: f64,
    /// Black-box probability of the raw (unmodified) record.
    pub original_prediction: f64,
    /// Tokens of `base` that carry a coefficient and can be removed by the
    /// token-removal evaluations, with their weights.
    pub removable: Vec<(EntitySide, Token, f64)>,
    /// Sum of `|token weight|` per schema attribute.
    pub attribute_importance: Vec<f64>,
}

/// The explanation seed of the record at `index` in an evaluation seeded
/// with `base`. Every record's seed depends only on its index, so serial
/// and parallel runs explain each record identically.
pub fn record_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(index as u64).wrapping_mul(0x9E37_79B9)
}

/// Produces the explained record(s) for a technique.
///
/// `n_samples` is the perturbation budget per explanation; `seed` drives
/// mask sampling. Like every explanation it runs on the calling thread;
/// the evaluation harness parallelizes *across* records.
pub fn explain_record<M: MatchModel>(
    technique: ExplainerKind,
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    n_samples: usize,
    seed: u64,
) -> Vec<ExplainedRecord> {
    let config = ExplainConfig {
        n_samples,
        seed,
        ..Default::default()
    };
    match technique.explain(model, schema, pair, &config, em_obs::noop()) {
        Explanation::Dual(dual) => dual
            .both()
            .into_iter()
            .map(|le| {
                let removable: Vec<(EntitySide, Token, f64)> = le
                    .explanation
                    .token_weights
                    .iter()
                    .map(|tw| (tw.side, tw.token.clone(), tw.weight))
                    .collect();
                // The interpretable-space record: the raw record for
                // single-entity generation (the view's tokens are the
                // varying entity's own), the concatenated record for
                // double-entity generation.
                let varying_tokens: Vec<Token> =
                    removable.iter().map(|(_, t, _)| t.clone()).collect();
                let base = pair.with_entity(
                    le.varying,
                    em_entity::detokenize(&varying_tokens, schema.len()),
                );
                let base_prediction = model.predict_proba(schema, &base);
                ExplainedRecord {
                    base,
                    base_prediction,
                    original_prediction: le.explanation.model_prediction,
                    removable,
                    attribute_importance: le.explanation.attribute_importance(schema),
                }
            })
            .collect(),
        Explanation::Pair(e) => vec![ExplainedRecord {
            base: pair.clone(),
            base_prediction: e.model_prediction,
            original_prediction: e.model_prediction,
            removable: e
                .token_weights
                .iter()
                .map(|tw| (tw.side, tw.token.clone(), tw.weight))
                .collect(),
            attribute_importance: e.attribute_importance(schema),
        }],
    }
}

/// Normalization caveat: the *Single* technique, with the varying entity's
/// tokens only, explains tokens of one side per landmark. For removal-based
/// evaluations the paper removes tokens "from the record to explain"; we
/// therefore remove only tokens the technique actually weighted.
#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    struct OverlapModel;
    impl MatchModel for OverlapModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            use std::collections::BTreeSet;
            let grab = |e: &Entity| -> BTreeSet<String> {
                (0..schema.len())
                    .flat_map(|i| {
                        e.value(i)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let a = grab(&pair.left);
            let b = grab(&pair.right);
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            a.intersection(&b).count() as f64 / a.union(&b).count() as f64
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "price"])
    }

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony alpha camera", "849.99"]),
            Entity::new(vec!["nikon leather case", "7.99"]),
        )
    }

    #[test]
    fn landmark_techniques_produce_two_views() {
        for t in [
            ExplainerKind::Landmark,
            ExplainerKind::LandmarkSingle,
            ExplainerKind::LandmarkDouble,
        ] {
            let views = explain_record(t, &OverlapModel, &schema(), &pair(), 100, 0);
            assert_eq!(views.len(), 2, "{t:?}");
        }
    }

    #[test]
    fn flat_techniques_produce_one_view() {
        for t in [ExplainerKind::Lime, ExplainerKind::MojitoCopy] {
            let views = explain_record(t, &OverlapModel, &schema(), &pair(), 100, 0);
            assert_eq!(views.len(), 1, "{t:?}");
        }
    }

    #[test]
    fn lime_removable_covers_all_record_tokens() {
        let views = explain_record(
            ExplainerKind::Lime,
            &OverlapModel,
            &schema(),
            &pair(),
            100,
            0,
        );
        assert_eq!(views[0].removable.len(), 8);
    }

    #[test]
    fn single_removable_covers_one_side_per_view() {
        let views = explain_record(
            ExplainerKind::LandmarkSingle,
            &OverlapModel,
            &schema(),
            &pair(),
            100,
            0,
        );
        // View 0: landmark = Left, so removable tokens are on the Right.
        assert!(views[0]
            .removable
            .iter()
            .all(|(s, _, _)| *s == EntitySide::Right));
        assert_eq!(views[0].removable.len(), 4);
        assert!(views[1]
            .removable
            .iter()
            .all(|(s, _, _)| *s == EntitySide::Left));
    }

    #[test]
    fn double_removable_includes_injected_tokens() {
        let views = explain_record(
            ExplainerKind::LandmarkDouble,
            &OverlapModel,
            &schema(),
            &pair(),
            100,
            0,
        );
        // The interpretable space is the concatenated record: 4 original
        // varying tokens + 4 injected tokens are all removable.
        assert_eq!(views[0].removable.len(), 8);
        assert_eq!(views[0].attribute_importance.len(), 2);
    }

    #[test]
    fn double_base_is_the_concatenated_record() {
        let views = explain_record(
            ExplainerKind::LandmarkDouble,
            &OverlapModel,
            &schema(),
            &pair(),
            100,
            0,
        );
        // View 0: landmark = Left, varying = Right; the base's right entity
        // holds its own tokens plus the left entity's tokens.
        let base = &views[0].base;
        assert_eq!(base.left, pair().left);
        assert_eq!(base.right.value(0), "nikon leather case sony alpha camera");
        assert_eq!(base.right.value(1), "7.99 849.99");
        // The base prediction is the model's output on that record, which
        // is pushed towards match relative to the raw record.
        let expected = OverlapModel.predict_proba(&schema(), base);
        assert!((views[0].base_prediction - expected).abs() < 1e-12);
        assert!(views[0].base_prediction > views[0].original_prediction);
    }

    #[test]
    fn single_base_is_the_raw_record() {
        for t in [
            ExplainerKind::LandmarkSingle,
            ExplainerKind::Lime,
            ExplainerKind::MojitoCopy,
        ] {
            for v in explain_record(t, &OverlapModel, &schema(), &pair(), 100, 0) {
                assert_eq!(v.base, pair(), "{t:?}");
                assert_eq!(v.base_prediction, v.original_prediction, "{t:?}");
            }
        }
    }

    #[test]
    fn original_prediction_is_consistent_across_techniques() {
        let expected = OverlapModel.predict_proba(&schema(), &pair());
        for t in TECHNIQUES {
            for v in explain_record(t, &OverlapModel, &schema(), &pair(), 100, 0) {
                assert!((v.original_prediction - expected).abs() < 1e-12, "{t:?}");
            }
        }
    }

    #[test]
    fn labels_match_paper_columns() {
        let labels = TECHNIQUES.map(ExplainerKind::label);
        assert_eq!(labels, ["Single", "Double", "LIME", "Mojito Copy"]);
    }
}
