//! The Landmark Explanation entry point.

use em_entity::prepared::{PerturbSpec, SideSpec};
use em_entity::{EntityPair, EntitySide, MatchModel, Schema};
use em_lime::engine::{perturb_and_fit, ExplainConfig};
use em_lime::explanation::{PairExplanation, TokenWeight};
use em_obs::{Span, Stage, Tracer};

use crate::generation::generate_view;
use crate::strategy::{GenerationStrategy, ResolvedStrategy};

/// One landmark-side explanation: the varying entity's (possibly injected)
/// tokens with their surrogate coefficients.
#[derive(Debug, Clone)]
pub struct LandmarkExplanation {
    /// The frozen entity.
    pub landmark: EntitySide,
    /// The perturbed entity (`landmark.other()`); all token weights refer
    /// to tokens *placed in* this entity.
    pub varying: EntitySide,
    /// The strategy that actually ran (after `Auto` resolution).
    pub strategy: ResolvedStrategy,
    /// Linear explanation over the varying view's tokens.
    pub explanation: PairExplanation,
    /// `injected[i]` is true iff `explanation.token_weights[i]` is a token
    /// injected from the landmark (double-entity generation) rather than a
    /// token of the original record.
    pub injected: Vec<bool>,
}

impl LandmarkExplanation {
    /// Weights of injected (landmark-origin) tokens. Positive weights here
    /// are the "interesting" tokens of the paper's Example 1.2: tokens
    /// that, if used to describe the varying entity, would push the model
    /// towards match.
    pub fn injected_token_weights(&self) -> Vec<&TokenWeight> {
        self.explanation
            .token_weights
            .iter()
            .zip(&self.injected)
            .filter(|(_, &inj)| inj)
            .map(|(t, _)| t)
            .collect()
    }
}

/// The pair of explanations Landmark Explanation produces for one record —
/// one per landmark choice.
#[derive(Debug, Clone)]
pub struct DualExplanation {
    /// Left entity frozen, right entity perturbed.
    pub left_landmark: LandmarkExplanation,
    /// Right entity frozen, left entity perturbed.
    pub right_landmark: LandmarkExplanation,
}

impl DualExplanation {
    /// Both explanations, in `[left_landmark, right_landmark]` order.
    pub fn both(&self) -> [&LandmarkExplanation; 2] {
        [&self.left_landmark, &self.right_landmark]
    }

    /// The explanation whose landmark is `side`.
    pub fn with_landmark(&self, side: EntitySide) -> &LandmarkExplanation {
        match side {
            EntitySide::Left => &self.left_landmark,
            EntitySide::Right => &self.right_landmark,
        }
    }
}

/// The Landmark Explanation explainer (paper Section 3).
#[derive(Debug, Clone, Default)]
pub struct LandmarkExplainer {
    /// Sampling, surrogate and scoring settings shared with every
    /// explainer. `config.n_samples` is per landmark view.
    pub config: ExplainConfig,
    /// Single / double / auto generation.
    pub strategy: GenerationStrategy,
}

impl LandmarkExplainer {
    /// Creates an explainer with the given configuration and strategy.
    pub fn new(config: ExplainConfig, strategy: GenerationStrategy) -> Self {
        LandmarkExplainer { config, strategy }
    }

    /// Produces the two landmark explanations for a record, recording
    /// per-stage timings into `tracer` ([`em_obs::noop`] records nothing;
    /// tracing only observes, DESIGN.md §10). The record's own prediction
    /// is computed once and shared by both landmark views.
    ///
    /// Each view depends only on its landmark side and the record, so
    /// `explain(..).with_landmark(side)` is the single-view explanation.
    pub fn explain<M: MatchModel + Sync>(
        &self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        tracer: &dyn Tracer,
    ) -> DualExplanation {
        let model_prediction = model.predict_proba(schema, pair);
        let view =
            |landmark| self.explain_view(model, schema, pair, landmark, model_prediction, tracer);
        DualExplanation {
            left_landmark: view(EntitySide::Left),
            right_landmark: view(EntitySide::Right),
        }
    }

    /// One landmark view, given the model's prediction for the unperturbed
    /// record (which resolves `Auto` and is reported as-is).
    fn explain_view<M: MatchModel + Sync>(
        &self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        landmark: EntitySide,
        model_prediction: f64,
        tracer: &dyn Tracer,
    ) -> LandmarkExplanation {
        let strategy = self.strategy.resolve(model_prediction);
        let view = {
            // Landmark generation tokenizes both entities and (under
            // double-entity) injects the landmark's tokens, so this span
            // subsumes the tokenize stage for the landmark pipeline.
            let _span = Span::enter(tracer, Stage::LandmarkGeneration);
            generate_view(pair, landmark, strategy)
        };

        // Seed differs per landmark so the two explanations don't share
        // masks, matching two independent explainer runs.
        let seed = self.config.seed
            ^ match landmark {
                EntitySide::Left => 0x9E37_79B9_7F4A_7C15,
                EntitySide::Right => 0xD1B5_4A32_D192_ED03,
            };
        let (left, right) = match view.varying {
            EntitySide::Left => (SideSpec::Varying(&view.tokens[..]), SideSpec::Fixed),
            EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&view.tokens[..])),
        };
        let spec = PerturbSpec::TokenDrop { pair, left, right };
        let (_, fit) = perturb_and_fit(model, schema, &spec, seed, &self.config, tracer);

        let token_weights: Vec<TokenWeight> = view
            .tokens
            .iter()
            .zip(&fit.coefficients)
            .map(|(token, &weight)| TokenWeight {
                side: view.varying,
                token: token.clone(),
                weight,
            })
            .collect();
        let surrogate_prediction = match strategy {
            // The surrogate's "original record" is the all-ones mask only
            // under single-entity generation. Under double-entity the
            // original record has the injected tokens OFF.
            ResolvedStrategy::SingleEntity => fit.intercept + fit.coefficients.iter().sum::<f64>(),
            ResolvedStrategy::DoubleEntity => {
                fit.intercept
                    + token_weights
                        .iter()
                        .zip(&view.injected)
                        .filter(|(_, &inj)| !inj)
                        .map(|(t, _)| t.weight)
                        .sum::<f64>()
            }
        };

        // Note: under double-entity generation, probs[0] (all-ones mask) is
        // the fully-injected record, not the original; report the true
        // original prediction instead.
        LandmarkExplanation {
            landmark,
            varying: view.varying,
            strategy,
            explanation: PairExplanation {
                token_weights,
                intercept: fit.intercept,
                model_prediction,
                surrogate_prediction,
                surrogate_r2: fit.r2,
            },
            injected: view.injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;
    use std::collections::HashSet;

    /// Token-overlap model over all attributes (Jaccard).
    struct JaccardModel;
    impl MatchModel for JaccardModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
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

    fn matching_pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony alpha camera", "849.99"]),
            Entity::new(vec!["sony alpha camera kit", "849.99"]),
        )
    }

    fn non_matching_pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony alpha camera", "849.99"]),
            Entity::new(vec!["leather nikon case", "7.99"]),
        )
    }

    /// The left-landmark view of `pair` under `strategy`.
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
            .explain(&JaccardModel, &schema(), pair, em_obs::noop())
            .left_landmark
    }

    #[test]
    fn dual_explanation_has_both_landmarks() {
        let d = LandmarkExplainer::default().explain(
            &JaccardModel,
            &schema(),
            &matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(d.left_landmark.landmark, EntitySide::Left);
        assert_eq!(d.left_landmark.varying, EntitySide::Right);
        assert_eq!(d.right_landmark.landmark, EntitySide::Right);
        assert_eq!(d.with_landmark(EntitySide::Right).varying, EntitySide::Left);
    }

    #[test]
    fn auto_picks_single_for_matching_and_double_for_non_matching() {
        let ex = LandmarkExplainer::default();
        let m = ex.explain(&JaccardModel, &schema(), &matching_pair(), em_obs::noop());
        assert_eq!(m.left_landmark.strategy, ResolvedStrategy::SingleEntity);
        let n = ex.explain(
            &JaccardModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(n.left_landmark.strategy, ResolvedStrategy::DoubleEntity);
    }

    #[test]
    fn single_entity_weights_cover_only_varying_tokens() {
        let e = left_view(GenerationStrategy::SingleEntity, 500, &matching_pair());
        // Varying = right entity: 5 tokens.
        assert_eq!(e.explanation.token_weights.len(), 5);
        assert!(e.injected.iter().all(|&b| !b));
        assert!(e
            .explanation
            .token_weights
            .iter()
            .all(|t| t.side == EntitySide::Right));
    }

    #[test]
    fn shared_tokens_get_positive_weight_under_single_entity() {
        let e = left_view(GenerationStrategy::SingleEntity, 800, &matching_pair());
        for tw in &e.explanation.token_weights {
            match tw.token.text.as_str() {
                "sony" | "alpha" | "camera" | "849.99" => {
                    assert!(tw.weight > 0.0, "{tw:?}")
                }
                "kit" => assert!(tw.weight < 0.0, "{tw:?}"),
                other => panic!("unexpected token {other}"),
            }
        }
    }

    #[test]
    fn double_entity_marks_injected_tokens() {
        let e = left_view(GenerationStrategy::DoubleEntity, 500, &non_matching_pair());
        // Varying (right) has 4 tokens, injected (left) has 4.
        assert_eq!(e.explanation.token_weights.len(), 8);
        assert_eq!(e.injected.iter().filter(|&&b| b).count(), 4);
        assert_eq!(e.injected_token_weights().len(), 4);
    }

    #[test]
    fn injected_landmark_tokens_are_interesting_for_non_match() {
        // The paper's Example 1.2: with the left entity as landmark on a
        // non-matching record, injected tokens (copies of landmark tokens)
        // should carry positive weight — adding them to the varying entity
        // pushes the model towards match.
        let e = left_view(GenerationStrategy::DoubleEntity, 1000, &non_matching_pair());
        let injected = e.injected_token_weights();
        let mean_injected: f64 =
            injected.iter().map(|t| t.weight).sum::<f64>() / injected.len() as f64;
        assert!(
            mean_injected > 0.0,
            "injected tokens should push towards match"
        );
        // Original right-entity tokens dilute the overlap: mean weight below
        // the injected tokens'.
        let original: Vec<f64> = e
            .explanation
            .iter()
            .zip(&e.injected)
            .filter(|(_, &inj)| !inj)
            .map(|(t, _)| t.weight)
            .collect();
        let mean_original: f64 = original.iter().sum::<f64>() / original.len() as f64;
        assert!(mean_injected > mean_original);
    }

    #[test]
    fn model_prediction_is_for_the_original_record_even_under_double() {
        let pair = non_matching_pair();
        let e = left_view(GenerationStrategy::DoubleEntity, 500, &pair);
        let expected = JaccardModel.predict_proba(&schema(), &pair);
        assert!((e.explanation.model_prediction - expected).abs() < 1e-12);
    }

    #[test]
    fn two_landmarks_use_different_masks() {
        let d = LandmarkExplainer::default().explain(
            &JaccardModel,
            &schema(),
            &matching_pair(),
            em_obs::noop(),
        );
        // The two explanations are over different token sets but even their
        // weights should not be mirror-identical.
        assert_ne!(d.left_landmark.explanation.token_weights.len(), 0);
        assert_ne!(
            d.left_landmark.explanation.token_weights,
            d.right_landmark.explanation.token_weights
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ex = LandmarkExplainer::default();
        let a = ex.explain(
            &JaccardModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        let b = ex.explain(
            &JaccardModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(
            a.left_landmark.explanation.token_weights,
            b.left_landmark.explanation.token_weights
        );
        assert_eq!(
            a.right_landmark.explanation.token_weights,
            b.right_landmark.explanation.token_weights
        );
    }

    /// Counts `predict_proba` calls; its kernel scores masks without
    /// calling it, so the count is the explainer's own record predictions.
    struct CountingModel(std::sync::atomic::AtomicUsize);

    struct KeptFractionScorer;

    impl em_entity::PreparedScorer for KeptFractionScorer {
        fn score_mask(&mut self, mask: &[bool]) -> f64 {
            mask.iter().filter(|&&b| b).count() as f64 / mask.len().max(1) as f64
        }
    }

    impl MatchModel for CountingModel {
        fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            0.25
        }

        fn prepare_scorer<'a>(
            &'a self,
            _schema: &'a Schema,
            _spec: &'a PerturbSpec<'a>,
        ) -> Box<dyn em_entity::PreparedScorer + 'a> {
            Box::new(KeptFractionScorer)
        }
    }

    #[test]
    fn both_views_share_one_record_prediction() {
        let model = CountingModel(Default::default());
        let dual = LandmarkExplainer::default().explain(
            &model,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(model.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        for view in dual.both() {
            assert_eq!(view.explanation.model_prediction, 0.25);
            assert_eq!(view.strategy, ResolvedStrategy::DoubleEntity);
        }
    }

    #[test]
    fn empty_varying_side_does_not_panic() {
        let p = EntityPair::new(Entity::new(vec!["sony", "1"]), Entity::new(vec!["", ""]));
        let e = left_view(GenerationStrategy::SingleEntity, 500, &p);
        assert!(e.explanation.token_weights.is_empty());
    }
}
