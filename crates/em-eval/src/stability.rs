//! Explanation stability across RNG seeds.
//!
//! Perturbation-based explanations are stochastic: different mask samples
//! give (slightly) different coefficients. The paper reports single runs;
//! this module quantifies the variance, which matters for anyone acting
//! on the explanations:
//!
//! [`explanation_stability`] reports two metrics: the mean Jaccard overlap
//! of the top-k token sets across seeds (1.0 = the ranking is fully
//! reproducible), and the per-token weight standard deviation normalized
//! by the mean absolute weight (a scale-free noise-to-signal ratio).

use em_entity::{EntityPair, MatchModel, Schema};
use landmark_core::ExplainerKind;
use std::collections::BTreeSet;

use crate::technique::explain_record;

/// Stability metrics over repeated explanations of one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityReport {
    /// Mean pairwise Jaccard overlap of top-k token sets across seeds.
    pub top_k_jaccard: f64,
    /// Mean per-token weight std-dev divided by the mean |weight|
    /// (coefficient of variation; lower is more stable).
    pub weight_cv: f64,
    /// Number of seeds evaluated.
    pub n_seeds: usize,
}

/// Token identity for set comparison: (view index, side, attribute, occurrence).
type Key = (usize, em_entity::EntitySide, usize, usize);

fn explain_keys_and_weights<M: MatchModel>(
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    technique: ExplainerKind,
    n_samples: usize,
    seed: u64,
) -> Vec<(Key, f64)> {
    explain_record(technique, model, schema, pair, n_samples, seed)
        .into_iter()
        .enumerate()
        .flat_map(|(vi, view)| {
            view.removable
                .into_iter()
                .map(move |(side, token, w)| ((vi, side, token.attribute, token.occurrence), w))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Measures stability of a technique's explanation of `pair` across
/// `seeds`, looking at the top-`k` tokens by |weight|.
pub fn explanation_stability<M: MatchModel>(
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    technique: ExplainerKind,
    n_samples: usize,
    k: usize,
    seeds: &[u64],
) -> StabilityReport {
    assert!(
        seeds.len() >= 2,
        "need at least two seeds to measure stability"
    );
    let runs: Vec<Vec<(Key, f64)>> = seeds
        .iter()
        .map(|&s| explain_keys_and_weights(model, schema, pair, technique, n_samples, s))
        .collect();

    // Top-k sets per run.
    let top_sets: Vec<BTreeSet<Key>> = runs
        .iter()
        .map(|run| {
            let mut sorted: Vec<&(Key, f64)> = run.iter().collect();
            sorted.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
            sorted.into_iter().take(k).map(|(key, _)| *key).collect()
        })
        .collect();
    let mut jac_sum = 0.0;
    let mut jac_n = 0usize;
    for i in 0..top_sets.len() {
        for j in (i + 1)..top_sets.len() {
            let inter = top_sets[i].intersection(&top_sets[j]).count() as f64;
            let union = top_sets[i].union(&top_sets[j]).count() as f64;
            jac_sum += if union == 0.0 { 1.0 } else { inter / union };
            jac_n += 1;
        }
    }

    // Weight coefficient of variation per token, averaged. BTreeMap, not
    // HashMap: the float accumulations below run in iteration order, and
    // HashMap order is seeded per process — a BTreeMap keeps `weight_cv`
    // bit-identical across runs.
    let mut by_token: std::collections::BTreeMap<Key, Vec<f64>> = std::collections::BTreeMap::new();
    for run in &runs {
        for &(key, w) in run {
            by_token.entry(key).or_default().push(w);
        }
    }
    let mut cv_sum = 0.0;
    let mut cv_n = 0usize;
    let mut mean_abs = 0.0;
    for ws in by_token.values() {
        if ws.len() < 2 {
            continue;
        }
        let mean = ws.iter().sum::<f64>() / ws.len() as f64;
        let var = ws.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / ws.len() as f64;
        cv_sum += var.sqrt();
        mean_abs += mean.abs();
        cv_n += 1;
    }
    let weight_cv = if cv_n == 0 || mean_abs == 0.0 {
        0.0
    } else {
        cv_sum / mean_abs // Σσ / Σ|μ|: scale-free noise-to-signal ratio
    };

    StabilityReport {
        top_k_jaccard: if jac_n == 0 {
            1.0
        } else {
            jac_sum / jac_n as f64
        },
        weight_cv,
        n_seeds: seeds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    struct Overlap;
    impl MatchModel for Overlap {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
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

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["a b c d e f"]),
            Entity::new(vec!["a b c x y z"]),
        )
    }

    #[test]
    fn more_samples_give_more_stable_explanations() {
        let seeds = [1, 2, 3, 4];
        let low = explanation_stability(
            &Overlap,
            &schema(),
            &pair(),
            ExplainerKind::Lime,
            60,
            4,
            &seeds,
        );
        let high = explanation_stability(
            &Overlap,
            &schema(),
            &pair(),
            ExplainerKind::Lime,
            800,
            4,
            &seeds,
        );
        assert!(
            high.weight_cv <= low.weight_cv,
            "high-budget cv {} vs low-budget cv {}",
            high.weight_cv,
            low.weight_cv
        );
        assert!(high.top_k_jaccard >= low.top_k_jaccard - 0.2);
    }

    #[test]
    fn high_budget_weights_are_reproducible() {
        // With the symmetric Overlap model many tokens share the same
        // |weight|, so *set* membership of the top-k can flip on ties even
        // when the weights themselves are pinned down — assert on the
        // coefficient variation, the tie-free notion of reproducibility.
        let seeds = [10, 20, 30];
        let r = explanation_stability(
            &Overlap,
            &schema(),
            &pair(),
            ExplainerKind::LandmarkSingle,
            800,
            3,
            &seeds,
        );
        assert!(r.weight_cv < 0.1, "{r:?}");
        assert_eq!(r.n_seeds, 3);
    }

    #[test]
    fn bounded_metrics() {
        let r = explanation_stability(
            &Overlap,
            &schema(),
            &pair(),
            ExplainerKind::LandmarkDouble,
            100,
            5,
            &[1, 2],
        );
        assert!((0.0..=1.0).contains(&r.top_k_jaccard));
        assert!(r.weight_cv >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two seeds")]
    fn single_seed_is_rejected() {
        explanation_stability(
            &Overlap,
            &schema(),
            &pair(),
            ExplainerKind::Lime,
            50,
            3,
            &[1],
        );
    }

    #[test]
    fn nan_model_probabilities_do_not_panic() {
        // Regression: the top-k sort used partial_cmp().expect("finite"),
        // which panicked when a model emitted NaN probabilities and the
        // surrogate weights went NaN with them.
        struct NanModel;
        impl MatchModel for NanModel {
            fn predict_proba(&self, _: &Schema, _: &EntityPair) -> f64 {
                f64::NAN
            }
        }
        let r = explanation_stability(
            &NanModel,
            &schema(),
            &pair(),
            ExplainerKind::Lime,
            40,
            3,
            &[1, 2],
        );
        assert_eq!(r.n_seeds, 2);
    }
}
