//! The *Mojito Copy* baseline (Di Cicco et al., aiDM@SIGMOD 2019).
//!
//! Mojito adapts LIME to EM by perturbing at **attribute** granularity: a
//! perturbation copies the value of an attribute from one entity over the
//! corresponding attribute of the other, pushing non-matching records
//! towards the match class. The surrogate is fit over attribute-level
//! masks, and — as the paper notes — "Mojito treats attributes atomically,
//! distributing its impact equally to its constituent tokens", which is
//! exactly what [`MojitoCopyExplainer`] does to produce a comparable
//! [`PairExplanation`].

use em_entity::{tokenize_entity, EntityPair, EntitySide, MatchModel, PerturbSpec, Schema};
use em_obs::{Span, Stage, Tracer};

use crate::engine::{perturb_and_fit, ExplainConfig};
use crate::explanation::{PairExplanation, TokenWeight};

/// The side whose attribute values the copy overwrites; the source of the
/// copy is the opposite side.
const COPY_INTO: EntitySide = EntitySide::Right;

/// The attribute-copying explainer.
#[derive(Debug, Clone, Default)]
pub struct MojitoCopyExplainer {
    /// Explainer configuration.
    pub config: ExplainConfig,
}

impl MojitoCopyExplainer {
    /// Creates an explainer with the given configuration.
    pub fn new(config: ExplainConfig) -> Self {
        MojitoCopyExplainer { config }
    }

    /// Explains one record with attribute-copy perturbations, recording
    /// per-stage timings into `tracer` ([`em_obs::noop`] records nothing;
    /// tracing only observes, DESIGN.md §10).
    ///
    /// Mask semantics: bit `a` **on** keeps attribute `a` as-is; bit **off**
    /// overwrites the right entity's value with the left entity's value.
    /// A positive attribute coefficient therefore means "the original
    /// (differing) value supports the current prediction". As the paper
    /// notes, "Mojito treats attributes atomically, distributing its impact
    /// equally to its constituent tokens": the attribute coefficient is
    /// spread uniformly over the tokens of the *replaced* (right) side —
    /// the tokens the copy perturbation actually substitutes.
    pub fn explain<M: MatchModel + Sync>(
        &self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        tracer: &dyn Tracer,
    ) -> PairExplanation {
        let spec = PerturbSpec::AttrCopy {
            pair,
            copy_into: COPY_INTO,
        };
        let (probs, fit) =
            perturb_and_fit(model, schema, &spec, self.config.seed, &self.config, tracer);

        // Distribute each attribute's coefficient uniformly over the tokens
        // of the replaced side (the tokens the copy substitutes).
        let mut token_weights = Vec::new();
        let replaced_tokens = {
            let _span = Span::enter(tracer, Stage::Tokenize);
            tokenize_entity(pair.entity(COPY_INTO))
        };
        for (attr, &attr_weight) in fit.coefficients.iter().enumerate() {
            let attr_tokens: Vec<&em_entity::Token> = replaced_tokens
                .iter()
                .filter(|t| t.attribute == attr)
                .collect();
            if attr_tokens.is_empty() {
                continue;
            }
            let per_token = attr_weight / attr_tokens.len() as f64;
            for token in attr_tokens {
                token_weights.push(TokenWeight {
                    side: COPY_INTO,
                    token: token.clone(),
                    weight: per_token,
                });
            }
        }

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

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    /// Model: mean over attributes of [values are equal].
    struct ExactModel;
    impl MatchModel for ExactModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            let same = (0..schema.len())
                .filter(|&i| pair.left.value(i) == pair.right.value(i))
                .count();
            same as f64 / schema.len() as f64
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "description", "price"])
    }

    fn non_matching_pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera", "digital slr kit", "849.99"]),
            Entity::new(vec!["nikon case", "leather black", "7.99"]),
        )
    }

    #[test]
    fn copying_differing_attributes_raises_probability() {
        // Direct check of the perturbation semantics, not the surrogate:
        // with all attributes copied, the model must see a perfect match.
        let pair = non_matching_pair();
        let e =
            MojitoCopyExplainer::default().explain(&ExactModel, &schema(), &pair, em_obs::noop());
        // Original record: 0 equal attributes.
        assert_eq!(e.model_prediction, 0.0);
        // The intercept region (everything copied) approaches 1.0, so
        // coefficients for the differing attributes must be negative:
        // keeping the original value lowers the match probability.
        let imp = e.attribute_importance(&schema());
        assert!(imp.iter().all(|&w| w > 0.0), "{imp:?}");
        for tw in &e.token_weights {
            assert!(tw.weight < 0.0, "{tw:?}");
        }
    }

    #[test]
    fn token_weights_within_attribute_are_equal() {
        let e = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        // Attribute 0's replaced side (right) has 2 tokens: equal weights.
        let w: Vec<f64> = e
            .token_weights
            .iter()
            .filter(|t| t.token.attribute == 0)
            .map(|t| t.weight)
            .collect();
        assert_eq!(w.len(), 2);
        assert!((w[1] - w[0]).abs() < 1e-12);
        // All weights sit on the replaced (right) side.
        assert!(e.token_weights.iter().all(|t| t.side == EntitySide::Right));
    }

    #[test]
    fn attribute_importance_reflects_attribute_coefficient() {
        let e = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        let imp = e.attribute_importance(&schema());
        // Every attribute contributes 1/3 to the ExactModel, so importances
        // should be roughly equal.
        let max = imp.iter().cloned().fold(f64::MIN, f64::max);
        let min = imp.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.15, "{imp:?}");
    }

    #[test]
    fn matching_record_has_near_zero_weights() {
        let e_same = Entity::new(vec!["sony camera", "digital slr kit", "849.99"]);
        let pair = EntityPair::new(e_same.clone(), e_same);
        let e =
            MojitoCopyExplainer::default().explain(&ExactModel, &schema(), &pair, em_obs::noop());
        // Copying identical values changes nothing.
        for tw in &e.token_weights {
            assert!(tw.weight.abs() < 1e-9, "{tw:?}");
        }
        assert_eq!(e.model_prediction, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        let b = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(a.token_weights, b.token_weights);
    }
}
