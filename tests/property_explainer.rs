//! Property-based tests for the explanation pipeline: arbitrary records
//! never panic, weights are finite, and structural invariants hold.

use landmark_explanation::entity::{Entity, EntityPair, EntitySide, MatchModel, Schema};
use landmark_explanation::landmark::strategy::ResolvedStrategy;
use landmark_explanation::landmark::{
    generate_view, reconstruct_with_landmark, GenerationStrategy, LandmarkExplainer,
};
use landmark_explanation::lime::{ExplainConfig, LimeExplainer};
use landmark_explanation::prelude::noop;
use proptest::prelude::*;

/// Cheap deterministic model: token-overlap Jaccard.
struct Overlap;
impl MatchModel for Overlap {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        use std::collections::HashSet;
        let g = |e: &Entity| -> HashSet<String> {
            (0..schema.len())
                .flat_map(|i| {
                    e.value(i)
                        .split_whitespace()
                        .map(str::to_string)
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let a = g(&pair.left);
        let b = g(&pair.right);
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        a.intersection(&b).count() as f64 / a.union(&b).count() as f64
    }
}

fn attr_value() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z]{1,5}", 0..5).prop_map(|w| w.join(" "))
}

fn pair(n_attrs: usize) -> impl Strategy<Value = EntityPair> {
    (
        prop::collection::vec(attr_value(), n_attrs),
        prop::collection::vec(attr_value(), n_attrs),
    )
        .prop_map(|(l, r)| EntityPair::new(Entity::new(l), Entity::new(r)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn landmark_explainer_never_panics_and_weights_are_finite(p in pair(3), seed in 0u64..1000) {
        let schema = Schema::from_names(vec!["a", "b", "c"]);
        let cfg = ExplainConfig { n_samples: 40, seed, ..Default::default() };
        let dual = LandmarkExplainer::new(cfg, GenerationStrategy::Auto).explain(&Overlap, &schema, &p, noop());
        for le in dual.both() {
            prop_assert_eq!(le.explanation.token_weights.len(), le.injected.len());
            for tw in &le.explanation.token_weights {
                prop_assert!(tw.weight.is_finite());
                prop_assert_eq!(tw.side, le.varying);
            }
            let p_model = le.explanation.model_prediction;
            prop_assert!((0.0..=1.0).contains(&p_model));
        }
    }

    #[test]
    fn lime_weight_count_equals_token_count(p in pair(2), seed in 0u64..1000) {
        let schema = Schema::from_names(vec!["a", "b"]);
        let cfg = ExplainConfig { n_samples: 40, seed, ..Default::default() };
        let e = LimeExplainer::new(cfg).explain(&Overlap, &schema, &p, noop());
        let expected = p.left.token_count() + p.right.token_count();
        prop_assert_eq!(e.token_weights.len(), expected);
    }

    #[test]
    fn reconstruction_never_touches_the_landmark(p in pair(3), mask_bits in prop::collection::vec(any::<bool>(), 64)) {
        for landmark in EntitySide::both() {
            for strategy in [ResolvedStrategy::SingleEntity, ResolvedStrategy::DoubleEntity] {
                let view = generate_view(&p, landmark, strategy);
                let mask: Vec<bool> =
                    (0..view.tokens.len()).map(|i| mask_bits.get(i).copied().unwrap_or(true)).collect();
                let rec = reconstruct_with_landmark(&p, &view, &mask, 3);
                prop_assert_eq!(rec.entity(landmark), p.entity(landmark));
            }
        }
    }

    #[test]
    fn double_view_token_count_is_sum_of_sides(p in pair(3)) {
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::DoubleEntity);
        prop_assert_eq!(view.tokens.len(), p.left.token_count() + p.right.token_count());
        prop_assert_eq!(view.injected_count(), p.left.token_count());
    }

    #[test]
    fn auto_strategy_matches_model_prediction(p in pair(2)) {
        let schema = Schema::from_names(vec!["a", "b"]);
        let cfg = ExplainConfig { n_samples: 30, ..Default::default() };
        let dual = LandmarkExplainer::new(cfg, GenerationStrategy::Auto).explain(&Overlap, &schema, &p, noop());
        let prob = Overlap.predict_proba(&schema, &p);
        let expected = if prob >= 0.5 {
            ResolvedStrategy::SingleEntity
        } else {
            ResolvedStrategy::DoubleEntity
        };
        prop_assert_eq!(dual.left_landmark.strategy, expected);
        prop_assert_eq!(dual.right_landmark.strategy, expected);
    }
}
