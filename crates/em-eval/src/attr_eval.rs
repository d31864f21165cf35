//! Attribute-based reliability evaluation (paper Section 4.2.2, Table 3).
//!
//! The logistic-regression EM model has one coefficient per attribute; the
//! surrogate induces per-attribute importance by summing the absolute
//! weights of each attribute's tokens. If the surrogate is faithful, the
//! two attribute *rankings* should agree — measured with the weighted
//! Kendall tau.

use em_entity::Schema;

use crate::kendall::weighted_kendall_tau;
use crate::technique::ExplainedRecord;

/// Runs the attribute-based evaluation over explained records (one inner
/// vec of views per record, as
/// [`explain_record`](crate::technique::explain_record) returns them).
///
/// `model_attribute_weights` are the EM model's per-attribute coefficients
/// (absolute values are ranked). Per-record attribute importances are
/// averaged over all records (and both landmark views, for landmark
/// techniques) before ranking, yielding one correlation per
/// dataset/technique/label like the paper's Table 3.
pub fn attribute_eval(
    model_attribute_weights: &[f64],
    schema: &Schema,
    views_per_record: &[Vec<ExplainedRecord>],
) -> f64 {
    assert_eq!(
        model_attribute_weights.len(),
        schema.len(),
        "one model weight per attribute"
    );
    let mut total = vec![0.0; schema.len()];
    let mut n_views = 0usize;
    for views in views_per_record {
        for view in views {
            for (t, v) in total.iter_mut().zip(&view.attribute_importance) {
                *t += v;
            }
            n_views += 1;
        }
    }
    if n_views == 0 {
        return 0.0;
    }
    let mean_importance: Vec<f64> = total.into_iter().map(|t| t / n_views as f64).collect();
    let reference: Vec<f64> = model_attribute_weights.iter().map(|w| w.abs()).collect();
    weighted_kendall_tau(&reference, &mean_importance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::explain_record;
    use em_entity::{Entity, EntityPair, MatchModel};
    use em_lime::ExplainConfig;
    use landmark_core::ExplainerKind;

    /// Linear model over per-attribute token overlap with known weights:
    /// attribute 0 matters three times as much as attribute 1.
    struct WeightedOverlapModel;
    impl WeightedOverlapModel {
        const WEIGHTS: [f64; 2] = [0.6, 0.2];
        fn attr_overlap(pair: &EntityPair, idx: usize) -> f64 {
            use std::collections::BTreeSet;
            let a: BTreeSet<&str> = pair.left.value(idx).split_whitespace().collect();
            let b: BTreeSet<&str> = pair.right.value(idx).split_whitespace().collect();
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            a.intersection(&b).count() as f64 / a.union(&b).count().max(1) as f64
        }
    }
    impl MatchModel for WeightedOverlapModel {
        fn predict_proba(&self, _: &Schema, pair: &EntityPair) -> f64 {
            Self::WEIGHTS[0] * Self::attr_overlap(pair, 0)
                + Self::WEIGHTS[1] * Self::attr_overlap(pair, 1)
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "price"])
    }

    /// Explains the matching pair as the evaluation's only record, then
    /// evaluates it against `weights`.
    fn evaluate(weights: &[f64], technique: ExplainerKind, n_samples: usize, seed: u64) -> f64 {
        let views = explain_record(
            technique,
            &WeightedOverlapModel,
            &schema(),
            &matching_pair(),
            &ExplainConfig {
                n_samples,
                seed,
                ..Default::default()
            },
        );
        attribute_eval(weights, &schema(), &[views])
    }

    fn matching_pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony alpha camera", "849.99 usd"]),
            Entity::new(vec!["sony alpha camera kit", "849.99 euro"]),
        )
    }

    #[test]
    fn faithful_technique_recovers_the_attribute_ranking() {
        for technique in [ExplainerKind::Lime, ExplainerKind::LandmarkSingle] {
            let tau = evaluate(&WeightedOverlapModel::WEIGHTS, technique, 600, 0);
            assert!(tau > 0.9, "{technique:?}: tau = {tau}");
        }
    }

    #[test]
    fn reversed_reference_gives_negative_tau() {
        let reversed = [0.2, 0.6]; // wrong order on purpose
        let tau = evaluate(&reversed, ExplainerKind::Lime, 600, 0);
        assert!(tau < 0.0, "tau = {tau}");
    }

    #[test]
    fn empty_records_give_zero() {
        let tau = attribute_eval(&WeightedOverlapModel::WEIGHTS, &schema(), &[]);
        assert_eq!(tau, 0.0);
    }

    #[test]
    #[should_panic(expected = "one model weight per attribute")]
    fn weight_length_mismatch_panics() {
        evaluate(&[1.0], ExplainerKind::Lime, 100, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t1 = evaluate(
            &WeightedOverlapModel::WEIGHTS,
            ExplainerKind::LandmarkDouble,
            200,
            7,
        );
        let t2 = evaluate(
            &WeightedOverlapModel::WEIGHTS,
            ExplainerKind::LandmarkDouble,
            200,
            7,
        );
        assert_eq!(t1, t2);
    }
}
