//! Neighborhood diagnostics — quantifying the paper's Section 1 claims.
//!
//! The paper motivates Landmark Explanation with two observations about
//! applying vanilla LIME to EM records:
//!
//! 1. **null perturbations** — random removals hit both entities, so a
//!    shared token can disappear from both sides simultaneously, leaving
//!    the pair's agreement unchanged while the interpretable vector says
//!    two features were removed;
//! 2. **class starvation** — EM datasets are imbalanced and removals only
//!    destroy agreement, so the perturbation neighborhood of a
//!    non-matching record contains almost no match-class samples; the
//!    surrogate never sees the decision boundary.
//!
//! [`neighborhood_stats`] measures both quantities for each technique's
//! perturbation strategy, so the motivation can be verified empirically
//! (`cargo run --release -p bench --bin perturbation_stats`).

use std::collections::BTreeSet;

use em_entity::{
    EntityPair, EntitySide, MatchModel, PerturbSpec, PreparedRecord, Schema, SideSpec, Token,
};
use em_lime::engine::{perturb, ExplainConfig};
use landmark_core::strategy::ResolvedStrategy;
use landmark_core::{generate_view, perturb_spec, ExplainerKind, GenerationStrategy};

/// Statistics of one record's perturbation neighborhood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborhoodStats {
    /// Fraction of perturbation samples the model classifies as match
    /// (threshold 0.5).
    pub match_fraction: f64,
    /// Mean match probability over the neighborhood.
    pub mean_probability: f64,
    /// Fraction of samples containing at least one *null perturbation*: a
    /// token text removed simultaneously from both entities. Zero by
    /// construction for landmark strategies (only one side is perturbed).
    pub null_perturbation_fraction: f64,
    /// Number of samples measured.
    pub n_samples: usize,
}

/// Measures the perturbation neighborhood a technique would generate for
/// `pair`. Landmark techniques report the left-landmark neighborhood;
/// `Landmark` resolves its strategy from the record's prediction, as the
/// landmark explainer does. The record is prepared once, as every
/// explainer prepares it, and scores the prediction and the neighborhood.
pub fn neighborhood_stats<M: MatchModel>(
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    technique: ExplainerKind,
    n_samples: usize,
    seed: u64,
) -> NeighborhoodStats {
    let record = model.prepare_record(schema, pair);
    let record = &*record;
    let strategy = match technique {
        ExplainerKind::Lime => return lime_stats(record, schema, pair, n_samples, seed),
        ExplainerKind::MojitoCopy => return copy_stats(record, schema, pair, n_samples, seed),
        ExplainerKind::LandmarkSingle => ResolvedStrategy::SingleEntity,
        ExplainerKind::LandmarkDouble => ResolvedStrategy::DoubleEntity,
        ExplainerKind::Landmark => GenerationStrategy::Auto.resolve(record.predict()),
    };
    landmark_stats(record, schema, pair, strategy, n_samples, seed)
}

fn summarize(probs: &[f64], nulls: usize) -> NeighborhoodStats {
    let n = probs.len().max(1);
    NeighborhoodStats {
        match_fraction: probs.iter().filter(|&&p| p >= 0.5).count() as f64 / n as f64,
        mean_probability: probs.iter().sum::<f64>() / n as f64,
        null_perturbation_fraction: nulls as f64 / n as f64,
        n_samples: probs.len(),
    }
}

/// The masks and probabilities of `spec`'s neighborhood: the engine's own
/// sample and scores.
fn neighborhood(
    record: &dyn PreparedRecord,
    schema: &Schema,
    spec: &PerturbSpec<'_>,
    n_samples: usize,
    seed: u64,
) -> (em_entity::Masks, Vec<f64>) {
    let config = ExplainConfig {
        n_samples,
        ..Default::default()
    };
    perturb(record, schema, spec, seed, &config, em_obs::noop())
}

fn lime_stats(
    record: &dyn PreparedRecord,
    schema: &Schema,
    pair: &EntityPair,
    n_samples: usize,
    seed: u64,
) -> NeighborhoodStats {
    let (lt, rt) = em_entity::tokenize_pair(pair);
    let spec = PerturbSpec::TokenDrop {
        pair,
        left: SideSpec::Varying(&lt),
        right: SideSpec::Varying(&rt),
    };
    let (masks, probs) = neighborhood(record, schema, &spec, n_samples, seed);
    // The mask layout is left tokens then right tokens.
    let features: Vec<(EntitySide, &Token)> = lt
        .iter()
        .map(|t| (EntitySide::Left, t))
        .chain(rt.iter().map(|t| (EntitySide::Right, t)))
        .collect();
    let shared: BTreeSet<&str> = {
        let l: BTreeSet<&str> = lt.iter().map(|t| t.text.as_str()).collect();
        let r: BTreeSet<&str> = rt.iter().map(|t| t.text.as_str()).collect();
        l.intersection(&r).copied().collect()
    };
    let mut nulls = 0usize;
    for mask in masks.iter() {
        // Null perturbation: some shared text dropped from both sides.
        let mut dropped_left: BTreeSet<&str> = BTreeSet::new();
        let mut dropped_right: BTreeSet<&str> = BTreeSet::new();
        for ((side, token), &keep) in features.iter().zip(mask) {
            if !keep && shared.contains(token.text.as_str()) {
                match side {
                    EntitySide::Left => dropped_left.insert(token.text.as_str()),
                    EntitySide::Right => dropped_right.insert(token.text.as_str()),
                };
            }
        }
        if dropped_left.intersection(&dropped_right).next().is_some() {
            nulls += 1;
        }
    }
    summarize(&probs, nulls)
}

fn landmark_stats(
    record: &dyn PreparedRecord,
    schema: &Schema,
    pair: &EntityPair,
    strategy: ResolvedStrategy,
    n_samples: usize,
    seed: u64,
) -> NeighborhoodStats {
    // The left entity is the landmark, so the right side varies.
    let view = generate_view(pair, EntitySide::Left, strategy);
    let spec = perturb_spec(pair, &view);
    summarize(&neighborhood(record, schema, &spec, n_samples, seed).1, 0)
}

fn copy_stats(
    record: &dyn PreparedRecord,
    schema: &Schema,
    pair: &EntityPair,
    n_samples: usize,
    seed: u64,
) -> NeighborhoodStats {
    let spec = PerturbSpec::AttrCopy {
        pair,
        copy_into: EntitySide::Right,
    };
    summarize(&neighborhood(record, schema, &spec, n_samples, seed).1, 0)
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

    fn non_match() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["a b c d e"]),
            Entity::new(vec!["a v w x y"]),
        )
    }

    #[test]
    fn lime_produces_null_perturbations_on_shared_tokens() {
        let s = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::Lime,
            400,
            0,
        );
        // "a" is shared; a fair share of random masks drop it from both sides.
        assert!(s.null_perturbation_fraction > 0.05, "{s:?}");
    }

    #[test]
    fn landmark_strategies_have_zero_null_perturbations() {
        for t in [ExplainerKind::LandmarkSingle, ExplainerKind::LandmarkDouble] {
            let s = neighborhood_stats(&Overlap, &schema(), &non_match(), t, 200, 0);
            assert_eq!(s.null_perturbation_fraction, 0.0, "{t:?}");
        }
    }

    #[test]
    fn double_entity_neighborhood_is_richer_in_matches() {
        let single = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::LandmarkSingle,
            400,
            1,
        );
        let double = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::LandmarkDouble,
            400,
            1,
        );
        assert!(
            double.match_fraction > single.match_fraction,
            "double {:?} vs single {:?}",
            double,
            single
        );
        assert!(double.mean_probability > single.mean_probability);
    }

    #[test]
    fn lime_neighborhood_of_non_match_is_match_starved() {
        let s = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::Lime,
            400,
            2,
        );
        assert!(s.match_fraction < 0.2, "{s:?}");
    }

    #[test]
    fn copy_neighborhood_reaches_the_match_class() {
        let s = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::MojitoCopy,
            100,
            3,
        );
        // Copying the single attribute makes the pair identical.
        assert!(s.match_fraction > 0.3, "{s:?}");
    }

    #[test]
    fn landmark_resolves_its_strategy_from_the_prediction() {
        let stats = |pair: &EntityPair, t| neighborhood_stats(&Overlap, &schema(), pair, t, 200, 4);
        let non_match = non_match();
        assert_eq!(
            stats(&non_match, ExplainerKind::Landmark),
            stats(&non_match, ExplainerKind::LandmarkDouble)
        );
        let matching = EntityPair::new(
            Entity::new(vec!["a b c d e"]),
            Entity::new(vec!["a b c d e"]),
        );
        assert_eq!(
            stats(&matching, ExplainerKind::Landmark),
            stats(&matching, ExplainerKind::LandmarkSingle)
        );
    }

    #[test]
    fn stats_are_deterministic() {
        let a = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::Lime,
            100,
            9,
        );
        let b = neighborhood_stats(
            &Overlap,
            &schema(),
            &non_match(),
            ExplainerKind::Lime,
            100,
            9,
        );
        assert_eq!(a, b);
    }
}
