//! Counterfactual records derived from landmark explanations.
//!
//! Section 4.3 of the paper defines an *interesting* explanation for a
//! non-matching record as one that surfaces "the tokens that, if shared by
//! the second entity, would make the record classified as matching". This
//! module makes that actionable: starting from a [`LandmarkExplanation`],
//! it greedily edits the varying entity — removing its most match-blocking
//! tokens and (for double-entity explanations) adding the most
//! match-supporting injected tokens — until the model's prediction flips,
//! returning the minimal edit found.

use em_entity::{detokenize, EntityPair, MatchModel, Schema, Token};

use crate::explainer::LandmarkExplanation;

/// One edit applied to the varying entity.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Remove this token from the varying entity.
    Remove(Token),
    /// Add this (landmark-injected) token to the varying entity.
    Add(Token),
}

/// The result of a counterfactual search.
#[derive(Debug, Clone)]
pub struct Counterfactual {
    /// Edits in application order.
    pub edits: Vec<Edit>,
    /// The edited record.
    pub record: EntityPair,
    /// Model probability of the edited record.
    pub probability: f64,
    /// Whether the predicted class actually flipped.
    pub flipped: bool,
}

/// Configuration for [`counterfactual`].
#[derive(Debug, Clone, Copy)]
pub struct CounterfactualConfig {
    /// Decision threshold.
    pub threshold: f64,
    /// Maximum number of edits to try.
    pub max_edits: usize,
}

impl Default for CounterfactualConfig {
    fn default() -> Self {
        CounterfactualConfig {
            threshold: 0.5,
            max_edits: 10,
        }
    }
}

/// Greedily searches for a minimal token edit of the varying entity that
/// flips the model's prediction on the record.
///
/// Candidate edits are ordered by the explanation's coefficients: when the
/// record is predicted *match* the search removes the most positive
/// (match-supporting) original tokens; when predicted *non-match* it adds
/// the most positive injected tokens and removes the most negative
/// original ones, interleaved by |weight|.
pub fn counterfactual<M: MatchModel>(
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    explanation: &LandmarkExplanation,
    config: &CounterfactualConfig,
) -> Counterfactual {
    let start_prob = explanation.explanation.model_prediction;
    let start_class = start_prob >= config.threshold;

    // Current token multiset of the varying entity: original tokens on.
    // Injected tokens start off.
    struct Slot {
        token: Token,
        weight: f64,
        present: bool,
    }
    let mut slots: Vec<Slot> = explanation
        .explanation
        .token_weights
        .iter()
        .zip(&explanation.injected)
        .map(|(tw, &inj)| Slot {
            token: tw.token.clone(),
            weight: tw.weight,
            present: !inj,
        })
        .collect();

    // Candidate edits, best-first.
    let mut order: Vec<usize> = (0..slots.len())
        .filter(|&i| {
            let s = &slots[i];
            if start_class {
                // Flip match -> non-match: remove positive original tokens.
                s.present && s.weight > 0.0
            } else {
                // Flip non-match -> match: add positive injected tokens or
                // remove negative original tokens.
                (!s.present && s.weight > 0.0) || (s.present && s.weight < 0.0)
            }
        })
        .collect();
    order.sort_by(|&a, &b| slots[b].weight.abs().total_cmp(&slots[a].weight.abs()));

    let rebuild = |slots: &[Slot]| -> EntityPair {
        let kept: Vec<Token> = slots
            .iter()
            .filter(|s| s.present)
            .map(|s| s.token.clone())
            .collect();
        pair.with_entity(explanation.varying, detokenize(&kept, schema.len()))
    };

    let mut edits = Vec::new();
    let mut record = rebuild(&slots);
    let mut probability = model.predict_proba(schema, &record);
    for &i in order.iter().take(config.max_edits) {
        if (probability >= config.threshold) != start_class {
            break; // already flipped
        }
        let edit = if slots[i].present {
            slots[i].present = false;
            Edit::Remove(slots[i].token.clone())
        } else {
            slots[i].present = true;
            Edit::Add(slots[i].token.clone())
        };
        let candidate = rebuild(&slots);
        let p = model.predict_proba(schema, &candidate);
        // Keep the edit only if it moves the probability the right way.
        let improves = if start_class {
            p < probability
        } else {
            p > probability
        };
        if improves {
            edits.push(edit);
            record = candidate;
            probability = p;
        } else {
            // Revert.
            slots[i].present = !slots[i].present;
        }
    }

    let flipped = (probability >= config.threshold) != start_class;
    Counterfactual {
        edits,
        record,
        probability,
        flipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explainer::LandmarkExplainer;
    use crate::strategy::GenerationStrategy;
    use em_entity::{Entity, EntitySide};
    use em_lime::ExplainConfig;
    use std::collections::HashSet;

    struct Overlap;
    impl MatchModel for Overlap {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
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

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    /// The left-landmark explanation of `pair` under `strategy`.
    fn left_view(
        strategy: GenerationStrategy,
        n_samples: usize,
        pair: &EntityPair,
    ) -> LandmarkExplanation {
        let config = ExplainConfig {
            n_samples,
            ..Default::default()
        };
        LandmarkExplainer::new(config, strategy)
            .explain(&Overlap, &schema(), pair, em_obs::noop())
            .left_landmark
    }

    #[test]
    fn flips_a_non_match_by_adding_injected_tokens() {
        let pair = EntityPair::new(
            Entity::new(vec!["alpha beta gamma delta"]),
            Entity::new(vec!["epsilon zeta"]),
        );
        let le = left_view(GenerationStrategy::DoubleEntity, 400, &pair);
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.flipped, "{cf:?}");
        assert!(!cf.edits.is_empty());
        assert!(cf.probability >= 0.5);
        // The landmark side must be untouched.
        assert_eq!(cf.record.left, pair.left);
    }

    #[test]
    fn flips_a_match_by_removing_shared_tokens() {
        let pair = EntityPair::new(Entity::new(vec!["a b c d"]), Entity::new(vec!["a b c e"]));
        let le = left_view(GenerationStrategy::SingleEntity, 400, &pair);
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.flipped, "{cf:?}");
        assert!(cf.probability < 0.5);
        assert!(cf.edits.iter().all(|e| matches!(e, Edit::Remove(_))));
    }

    #[test]
    fn respects_max_edits() {
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f g h"]),
            Entity::new(vec!["x y z w v u t s"]),
        );
        let le = left_view(GenerationStrategy::DoubleEntity, 200, &pair);
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig {
                max_edits: 2,
                ..Default::default()
            },
        );
        assert!(cf.edits.len() <= 2);
    }

    #[test]
    fn already_flipped_record_needs_no_edits() {
        // Identical pair explained as a match; counterfactual towards
        // non-match needs edits, but a record already past the threshold in
        // the start class direction terminates cleanly either way.
        let pair = EntityPair::new(Entity::new(vec!["q"]), Entity::new(vec!["q"]));
        let le = left_view(GenerationStrategy::SingleEntity, 100, &pair);
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        // Removing the only shared token flips it.
        assert!(cf.flipped);
        assert_eq!(cf.edits.len(), 1);
    }

    #[test]
    fn nan_weights_do_not_panic() {
        // Regression: the candidate ordering used partial_cmp().expect(),
        // which panicked when an explanation carried a NaN coefficient
        // (e.g. from a degenerate surrogate fit).
        use crate::strategy::ResolvedStrategy;
        use em_entity::Token;
        use em_lime::explanation::{PairExplanation, TokenWeight};

        let pair = EntityPair::new(Entity::new(vec!["a b"]), Entity::new(vec!["a c"]));
        let token_weights = vec![
            TokenWeight {
                side: EntitySide::Right,
                token: Token::new(0, 0, "a"),
                weight: f64::NAN,
            },
            TokenWeight {
                side: EntitySide::Right,
                token: Token::new(0, 1, "c"),
                weight: 0.4,
            },
        ];
        let le = LandmarkExplanation {
            landmark: EntitySide::Left,
            varying: EntitySide::Right,
            strategy: ResolvedStrategy::SingleEntity,
            explanation: PairExplanation {
                token_weights,
                intercept: 0.0,
                model_prediction: 0.9,
                surrogate_prediction: 0.9,
                surrogate_r2: 1.0,
            },
            injected: vec![false, false],
        };
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.probability.is_finite());
    }
}
