//! LIME applied to an EM record — the paper's *LIME / Mojito Drop* baseline.
//!
//! The record's interpretable representation is the union of the prefixed
//! tokens of **both** entities. Perturbation drops random token subsets —
//! from either side indiscriminately, which is exactly the weakness the
//! paper identifies (random removals hit both entities and produce *null
//! perturbations*), and which Landmark Explanation fixes one crate up.

#[cfg(test)]
use em_entity::{detokenize, Token};
use em_entity::{tokenize_pair, EntityPair, EntitySide, MatchModel, PerturbSpec, Schema, SideSpec};
use em_obs::{Span, Stage, Tracer};

use crate::engine::{perturb_and_fit, ExplainConfig};
use crate::explanation::{PairExplanation, TokenWeight};

/// The generic token-dropping explainer (LIME; called *Mojito Drop* in the
/// paper when applied to EM records).
#[derive(Debug, Clone, Default)]
pub struct LimeExplainer {
    /// Explainer configuration.
    pub config: ExplainConfig,
}

impl LimeExplainer {
    /// Creates an explainer with the given configuration.
    pub fn new(config: ExplainConfig) -> Self {
        LimeExplainer { config }
    }

    /// Explains one record: perturbs tokens of both entities, scores the
    /// reconstructions with `model`, and fits the surrogate. Per-stage
    /// timings go to `tracer` ([`em_obs::noop`] records nothing); tracing
    /// only observes (DESIGN.md §10).
    pub fn explain<M: MatchModel + Sync>(
        &self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        tracer: &dyn Tracer,
    ) -> PairExplanation {
        let (left_tokens, right_tokens) = {
            let _span = Span::enter(tracer, Stage::Tokenize);
            tokenize_pair(pair)
        };
        // LIME's mask layout is left tokens then right tokens — exactly the
        // layout `PerturbSpec::TokenDrop` uses with two varying sides.
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&left_tokens),
            right: SideSpec::Varying(&right_tokens),
        };
        let (probs, fit) =
            perturb_and_fit(model, schema, &spec, self.config.seed, &self.config, tracer);

        let token_weights = left_tokens
            .into_iter()
            .map(|t| (EntitySide::Left, t))
            .chain(right_tokens.into_iter().map(|t| (EntitySide::Right, t)))
            .zip(&fit.coefficients)
            .map(|((side, token), &weight)| TokenWeight {
                side,
                token,
                weight,
            })
            .collect();
        let model_prediction = probs.first().copied().unwrap_or(0.0);
        let surrogate_prediction = fit.intercept + fit.coefficients.iter().sum::<f64>();
        PairExplanation {
            token_weights,
            intercept: fit.intercept,
            model_prediction,
            surrogate_prediction,
            surrogate_r2: fit.r2,
        }
    }
}

/// Rebuilds an [`EntityPair`] from the kept tokens of a mask — the
/// reference implementation the prepared kernel is checked against in
/// tests (production scoring goes through `PerturbSpec::TokenDrop`).
///
/// # Panics
/// Panics if `mask.len() != features.len()` — a real assert, because a
/// short mask would silently truncate the perturbation via `zip` and keep
/// every unmasked trailing token in release builds.
#[cfg(test)]
pub(crate) fn reconstruct_pair(
    features: &[(EntitySide, Token)],
    mask: &[bool],
    n_attributes: usize,
) -> EntityPair {
    assert_eq!(
        features.len(),
        mask.len(),
        "perturbation mask length must equal the feature count"
    );
    let mut left_kept: Vec<Token> = Vec::new();
    let mut right_kept: Vec<Token> = Vec::new();
    for ((side, token), &keep) in features.iter().zip(mask) {
        if keep {
            match side {
                EntitySide::Left => left_kept.push(token.clone()),
                EntitySide::Right => right_kept.push(token.clone()),
            }
        }
    }
    EntityPair::new(
        detokenize(&left_kept, n_attributes),
        detokenize(&right_kept, n_attributes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    /// Deterministic toy model: probability = Jaccard over all tokens of
    /// the two entities.
    struct JaccardModel;

    impl MatchModel for JaccardModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            use std::collections::HashSet;
            let collect = |e: &Entity| -> HashSet<String> {
                (0..schema.len())
                    .flat_map(|i| {
                        e.value(i)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let a = collect(&pair.left);
            let b = collect(&pair.right);
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            let inter = a.intersection(&b).count() as f64;
            let union = a.union(&b).count() as f64;
            inter / union
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "price"])
    }

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony digital camera", "849.99"]),
            Entity::new(vec!["sony camera kit", "7.99"]),
        )
    }

    #[test]
    fn produces_one_weight_per_token() {
        let e = LimeExplainer::default().explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        // 4 left tokens + 4 right tokens
        assert_eq!(e.token_weights.len(), 8);
    }

    #[test]
    fn model_prediction_matches_black_box() {
        let e = LimeExplainer::default().explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        let expected = JaccardModel.predict_proba(&schema(), &pair());
        assert!((e.model_prediction - expected).abs() < 1e-12);
    }

    #[test]
    fn shared_tokens_get_positive_weight() {
        let e = LimeExplainer::new(ExplainConfig {
            n_samples: 1000,
            ..Default::default()
        })
        .explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        // "sony" and "camera" appear on both sides: dropping them lowers
        // Jaccard, so their weights should be positive.
        for tw in &e.token_weights {
            if tw.text_is("sony") || tw.text_is("camera") {
                assert!(tw.weight > 0.0, "{tw:?}");
            }
        }
    }

    #[test]
    fn unshared_tokens_get_negative_weight() {
        let e = LimeExplainer::new(ExplainConfig {
            n_samples: 1000,
            ..Default::default()
        })
        .explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        for tw in &e.token_weights {
            if tw.text_is("digital") || tw.text_is("849.99") || tw.text_is("kit") {
                assert!(tw.weight < 0.0, "{tw:?}");
            }
        }
    }

    #[test]
    fn explanation_is_deterministic_per_seed() {
        let a = LimeExplainer::default().explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        let b = LimeExplainer::default().explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        assert_eq!(a.token_weights, b.token_weights);
    }

    #[test]
    fn different_seed_changes_weights_slightly() {
        let a = LimeExplainer::new(ExplainConfig {
            seed: 1,
            ..Default::default()
        })
        .explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        let b = LimeExplainer::new(ExplainConfig {
            seed: 2,
            ..Default::default()
        })
        .explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        assert_ne!(a.token_weights, b.token_weights);
    }

    #[test]
    fn reconstruct_pair_keeps_only_masked_tokens() {
        let features = vec![
            (EntitySide::Left, Token::new(0, 0, "a")),
            (EntitySide::Left, Token::new(0, 1, "b")),
            (EntitySide::Right, Token::new(0, 0, "c")),
        ];
        let p = reconstruct_pair(&features, &[true, false, true], 1);
        assert_eq!(p.left, Entity::new(vec!["a"]));
        assert_eq!(p.right, Entity::new(vec!["c"]));
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn short_mask_panics_instead_of_truncating() {
        let features = vec![
            (EntitySide::Left, Token::new(0, 0, "a")),
            (EntitySide::Right, Token::new(0, 0, "b")),
        ];
        reconstruct_pair(&features, &[true], 1);
    }

    #[test]
    fn empty_record_explains_without_panicking() {
        let p = EntityPair::new(Entity::new(vec!["", ""]), Entity::new(vec!["", ""]));
        let e = LimeExplainer::default().explain(&JaccardModel, &schema(), &p, em_obs::noop());
        assert!(e.token_weights.is_empty());
    }

    #[test]
    fn surrogate_r2_is_reasonable_for_smooth_model() {
        let e = LimeExplainer::new(ExplainConfig {
            n_samples: 800,
            ..Default::default()
        })
        .explain(&JaccardModel, &schema(), &pair(), em_obs::noop());
        assert!(e.surrogate_r2 > 0.5, "r2 = {}", e.surrogate_r2);
    }

    impl TokenWeight {
        fn text_is(&self, s: &str) -> bool {
            self.token.text == s
        }
    }
}
