//! Token-based reliability evaluation (paper Section 4.2.1, Table 2).
//!
//! For each explained record: select 25% of the explained tokens at
//! random, remove them from the record, and compare
//!
//! * the black-box probability of the **modified** record, against
//! * the original probability **minus the sum of the removed tokens'
//!   coefficients** (what the surrogate predicts the removal does).
//!
//! If the surrogate represents the model faithfully the two numbers are
//! close. Reported per dataset/label/technique: mean absolute error of the
//! two probabilities, and accuracy of the predicted class (both
//! probabilities thresholded, default 0.5).

use em_entity::{MatchModel, Schema};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::removal::remove_tokens;
use crate::technique::{record_seed, ExplainedRecord};

/// Fraction of a view's explained tokens each record's draw removes
/// (paper: 25%, Table 2), rounded and at least one token.
const REMOVAL_FRACTION: f64 = 0.25;

/// Result of the token-based evaluation on a set of records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenEvalResult {
    /// Fraction of evaluations where the estimated and actual classes
    /// agree.
    pub accuracy: f64,
    /// Mean absolute error between estimated and actual probability.
    pub mae: f64,
    /// Number of evaluations performed.
    pub n: usize,
}

impl TokenEvalResult {
    /// Aggregates per-record errors.
    fn from_errors(errors: &[(f64, bool)]) -> TokenEvalResult {
        if errors.is_empty() {
            return TokenEvalResult {
                accuracy: 0.0,
                mae: 0.0,
                n: 0,
            };
        }
        let mae = errors.iter().map(|(e, _)| e).sum::<f64>() / errors.len() as f64;
        let accuracy = errors.iter().filter(|(_, ok)| *ok).count() as f64 / errors.len() as f64;
        TokenEvalResult {
            accuracy,
            mae,
            n: errors.len(),
        }
    }
}

/// Configuration for the token-based evaluation.
#[derive(Debug, Clone, Copy)]
pub struct TokenEvalConfig {
    /// Decision threshold (paper: 0.5, with a 0.4 sensitivity note).
    pub threshold: f64,
    /// Base seed: record `i`'s removal draw is seeded from
    /// [`record_seed`]`(seed, i)`.
    pub seed: u64,
}

impl Default for TokenEvalConfig {
    fn default() -> Self {
        TokenEvalConfig {
            threshold: 0.5,
            seed: 0,
        }
    }
}

/// Runs the token-based evaluation over explained records (one inner vec
/// of views per record, as [`explain_record`](crate::technique::explain_record)
/// returns them), so one explanation serves every evaluation.
pub fn token_eval<M: MatchModel>(
    model: &M,
    schema: &Schema,
    views_per_record: &[Vec<ExplainedRecord>],
    config: &TokenEvalConfig,
) -> TokenEvalResult {
    let mut errors: Vec<(f64, bool)> = Vec::new();
    for (i, views) in views_per_record.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(record_seed(config.seed, i) ^ 0xABCD);
        for view in views {
            if view.removable.is_empty() {
                continue;
            }
            let k = ((view.removable.len() as f64 * REMOVAL_FRACTION).round() as usize)
                .clamp(1, view.removable.len());
            let mut indices: Vec<usize> = (0..view.removable.len()).collect();
            indices.shuffle(&mut rng);
            let chosen = &indices[..k];
            let removed_weight: f64 = chosen.iter().map(|&i| view.removable[i].2).sum();
            let sided: Vec<(em_entity::EntitySide, em_entity::Token)> = chosen
                .iter()
                .map(|&i| (view.removable[i].0, view.removable[i].1.clone()))
                .collect();
            let refs: Vec<&(em_entity::EntitySide, em_entity::Token)> = sided.iter().collect();
            let modified = remove_tokens(&view.base, schema, &refs);
            let actual = model.predict_proba(schema, &modified);
            let estimated = view.base_prediction - removed_weight;
            let err = (actual - estimated).abs();
            let class_ok = (actual >= config.threshold) == (estimated >= config.threshold);
            errors.push((err, class_ok));
        }
    }
    TokenEvalResult::from_errors(&errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::explain_record;
    use em_entity::{Entity, EntityPair};
    use em_lime::ExplainConfig;
    use landmark_core::ExplainerKind;

    /// Fully linear model: probability = (# tokens in left entity) / 20,
    /// capped at 1. A faithful surrogate can represent this exactly, so
    /// the token-based evaluation should report near-zero MAE.
    struct LinearTokenModel;
    impl MatchModel for LinearTokenModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            let count: usize = (0..schema.len())
                .map(|i| pair.left.value(i).split_whitespace().count())
                .sum();
            (count as f64 / 20.0).min(1.0)
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    /// Explains `pair` as the evaluation's only record, then evaluates it.
    fn evaluate<M: MatchModel>(
        model: &M,
        pair: &EntityPair,
        technique: ExplainerKind,
        n_samples: usize,
    ) -> TokenEvalResult {
        let config = ExplainConfig {
            n_samples,
            ..Default::default()
        };
        let views = explain_record(technique, model, &schema(), pair, &config);
        token_eval(model, &schema(), &[views], &TokenEvalConfig::default())
    }

    #[test]
    fn faithful_surrogate_scores_near_zero_mae_with_lime() {
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f g h"]),
            Entity::new(vec!["x y z"]),
        );
        let r = evaluate(&LinearTokenModel, &pair, ExplainerKind::Lime, 600);
        assert!(r.mae < 0.05, "mae = {}", r.mae);
        assert_eq!(r.n, 1);
    }

    #[test]
    fn right_landmark_view_is_faithful_for_left_only_model() {
        // With landmark = Right the varying (perturbed) entity is Left,
        // which is all the model looks at: that view should be faithful.
        let pair = EntityPair::new(Entity::new(vec!["a b c d e f"]), Entity::new(vec!["x y"]));
        let r = evaluate(&LinearTokenModel, &pair, ExplainerKind::LandmarkSingle, 600);
        // Two views are averaged; the left-landmark view removes right
        // tokens which the model ignores (weights ~0, estimate = original,
        // actual = original: also accurate). So overall MAE stays small.
        assert!(r.mae < 0.05, "mae = {}", r.mae);
        assert_eq!(r.n, 2);
    }

    #[test]
    fn accuracy_is_one_when_probabilities_stay_on_one_side() {
        struct AlwaysLow;
        impl MatchModel for AlwaysLow {
            fn predict_proba(&self, _: &Schema, _: &EntityPair) -> f64 {
                0.1
            }
        }
        let pair = EntityPair::new(Entity::new(vec!["a b c d"]), Entity::new(vec!["x"]));
        let r = evaluate(&AlwaysLow, &pair, ExplainerKind::Lime, 500);
        assert_eq!(r.accuracy, 1.0);
        assert!(r.mae < 1e-6);
    }

    #[test]
    fn empty_record_list_gives_empty_result() {
        let r = token_eval(
            &LinearTokenModel,
            &schema(),
            &[],
            &TokenEvalConfig::default(),
        );
        assert_eq!(r.n, 0);
        assert_eq!(r.accuracy, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let pair = EntityPair::new(Entity::new(vec!["a b c d e"]), Entity::new(vec!["x y z w"]));
        let a = evaluate(&LinearTokenModel, &pair, ExplainerKind::Lime, 200);
        let b = evaluate(&LinearTokenModel, &pair, ExplainerKind::Lime, 200);
        assert_eq!(a, b);
    }

    #[test]
    fn mojito_copy_misestimates_token_removal() {
        // Copy-based coefficients do not model token removal; on a model
        // driven by token counts the estimate should be visibly worse than
        // LIME's.
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f"]),
            Entity::new(vec!["a b c x y z"]),
        );
        struct Overlap;
        impl MatchModel for Overlap {
            fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
                use std::collections::BTreeSet;
                let g = |e: &Entity| -> BTreeSet<String> {
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
        let lime = evaluate(&Overlap, &pair, ExplainerKind::Lime, 400);
        let copy = evaluate(&Overlap, &pair, ExplainerKind::MojitoCopy, 400);
        assert!(
            copy.mae >= lime.mae,
            "copy {} vs lime {}",
            copy.mae,
            lime.mae
        );
    }
}
