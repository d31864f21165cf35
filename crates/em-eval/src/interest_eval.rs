//! Explanation-quality ("interest") evaluation (paper Section 4.3,
//! Table 4).
//!
//! An interesting explanation points at tokens whose removal actually
//! changes the model's decision. Per record:
//!
//! * **matching label** — remove every positively-weighted token (the
//!   tokens supporting the match);
//! * **non-matching label** — remove every negatively-weighted token (the
//!   tokens blocking the match).
//!
//! The *interest* of a technique is the fraction of records whose
//! predicted class flips after the removal.

use em_entity::{EntityPair, MatchModel, Schema};
use landmark_core::ExplainerKind;

use crate::removal::remove_tokens;
use crate::technique::explain_record;

/// Configuration for the interest evaluation.
#[derive(Debug, Clone, Copy)]
pub struct InterestConfig {
    /// Decision threshold (paper: 0.5, with a 0.4 sensitivity note).
    pub threshold: f64,
    /// Perturbation samples per explanation.
    pub n_samples: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for InterestConfig {
    fn default() -> Self {
        InterestConfig {
            threshold: 0.5,
            n_samples: 500,
            seed: 0,
        }
    }
}

/// Runs the interest evaluation for one technique.
///
/// `remove_positive` selects the removal direction: `true` for records
/// labeled matching (remove match-supporting tokens), `false` for
/// non-matching (remove match-blocking tokens).
pub fn interest_eval<M: MatchModel + Sync>(
    model: &M,
    schema: &Schema,
    records: &[&EntityPair],
    technique: ExplainerKind,
    remove_positive: bool,
    config: &InterestConfig,
) -> f64 {
    let views_per_record: Vec<Vec<crate::technique::ExplainedRecord>> = records
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let record_seed = config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            explain_record(
                technique,
                model,
                schema,
                pair,
                config.n_samples,
                record_seed,
            )
        })
        .collect();
    interest_eval_views(model, schema, &views_per_record, remove_positive, config)
}

/// Interest evaluation over pre-computed explanations.
pub fn interest_eval_views<M: MatchModel + Sync>(
    model: &M,
    schema: &Schema,
    views_per_record: &[Vec<crate::technique::ExplainedRecord>],
    remove_positive: bool,
    config: &InterestConfig,
) -> f64 {
    if views_per_record.is_empty() {
        return 0.0;
    }
    let mut flips = 0usize;
    let mut n = 0usize;
    for views in views_per_record {
        for view in views {
            n += 1;
            let selected: Vec<(em_entity::EntitySide, em_entity::Token)> = view
                .removable
                .iter()
                .filter(|(_, _, w)| if remove_positive { *w > 0.0 } else { *w < 0.0 })
                .map(|(s, t, _)| (*s, t.clone()))
                .collect();
            if selected.is_empty() {
                continue; // nothing to remove: no flip possible
            }
            let refs: Vec<&(em_entity::EntitySide, em_entity::Token)> = selected.iter().collect();
            let modified = remove_tokens(&view.base, schema, &refs);
            // "Change in the label" is measured against the class the model
            // assigns to the *raw* record (for double-entity generation the
            // base is the concatenated record, whose class may differ).
            let before = view.original_prediction >= config.threshold;
            let after = model.predict_proba(schema, &modified) >= config.threshold;
            if before != after {
                flips += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        flips as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    /// Overlap model: probability = Jaccard over all tokens.
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

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    #[test]
    fn removing_positive_tokens_flips_a_match() {
        // Strong match: 5 of 6 tokens shared -> p = 5/7 ≈ 0.71 ≥ 0.5.
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f"]),
            Entity::new(vec!["a b c d e g"]),
        );
        let records = vec![&pair];
        let interest = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::Lime,
            true,
            &InterestConfig {
                n_samples: 600,
                ..Default::default()
            },
        );
        assert_eq!(interest, 1.0);
    }

    #[test]
    fn non_match_with_no_shared_tokens_rarely_flips_under_lime() {
        // Disjoint record: dropping tokens can never create overlap, so the
        // label cannot flip to match — the exact weakness the paper
        // describes for LIME / Mojito Drop on non-matching records.
        let pair = EntityPair::new(Entity::new(vec!["a b c"]), Entity::new(vec!["x y z"]));
        let records = vec![&pair];
        let interest = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::Lime,
            false,
            &InterestConfig::default(),
        );
        assert_eq!(interest, 0.0);
    }

    #[test]
    fn double_entity_flips_partial_non_match() {
        // Partial overlap non-match: 3 of 8 distinct tokens shared,
        // p = 3/8 = 0.375 < 0.5. Removing the blocking (negative) tokens
        // of the varying side raises the overlap above 0.5 in both landmark
        // views (3/6 and 3/5), flipping the record.
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f"]),
            Entity::new(vec!["a b c x y"]),
        );
        let records = vec![&pair];
        let double = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::LandmarkDouble,
            false,
            &InterestConfig {
                n_samples: 800,
                ..Default::default()
            },
        );
        assert!(double > 0.9, "double interest = {double}");
    }

    #[test]
    fn empty_records_give_zero() {
        let r = interest_eval(
            &Overlap,
            &schema(),
            &[],
            ExplainerKind::Lime,
            true,
            &InterestConfig::default(),
        );
        assert_eq!(r, 0.0);
    }

    #[test]
    fn threshold_changes_the_outcome() {
        // p = 3/5 = 0.6: a match at threshold 0.5 and also at 0.55; with a
        // lower threshold of 0.2 the removal must push further to flip.
        let pair = EntityPair::new(Entity::new(vec!["a b c d"]), Entity::new(vec!["a b c e"]));
        let records = vec![&pair];
        let strict = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::Lime,
            true,
            &InterestConfig {
                threshold: 0.05,
                ..Default::default()
            },
        );
        // At threshold 0.05 nearly any residual overlap keeps it a match:
        // flipping requires eliminating all overlap, which removing only
        // positive tokens achieves (shared tokens are positive).
        // The point is simply that the function respects the threshold and
        // stays in [0, 1].
        assert!((0.0..=1.0).contains(&strict));
    }

    #[test]
    fn deterministic_per_seed() {
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e"]),
            Entity::new(vec!["a b x y z"]),
        );
        let records = vec![&pair];
        let cfg = InterestConfig {
            n_samples: 300,
            ..Default::default()
        };
        let a = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::LandmarkDouble,
            false,
            &cfg,
        );
        let b = interest_eval(
            &Overlap,
            &schema(),
            &records,
            ExplainerKind::LandmarkDouble,
            false,
            &cfg,
        );
        assert_eq!(a, b);
    }
}
