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

use em_entity::{MatchModel, Schema};

use crate::removal::remove_tokens;
use crate::technique::ExplainedRecord;

/// Runs the interest evaluation over explained records (one inner vec of
/// views per record, as [`explain_record`](crate::technique::explain_record)
/// returns them) at the decision `threshold` (paper: 0.5, with a 0.4
/// sensitivity note).
///
/// `remove_positive` selects the removal direction: `true` for records
/// labeled matching (remove match-supporting tokens), `false` for
/// non-matching (remove match-blocking tokens).
pub fn interest_eval<M: MatchModel>(
    model: &M,
    schema: &Schema,
    views_per_record: &[Vec<ExplainedRecord>],
    remove_positive: bool,
    threshold: f64,
) -> f64 {
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
            let before = view.original_prediction >= threshold;
            let after = model.predict_proba(schema, &modified) >= threshold;
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
    use crate::technique::explain_record;
    use em_entity::{Entity, EntityPair};
    use landmark_core::ExplainerKind;

    /// Overlap model: probability = Jaccard over all tokens.
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

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    /// Explains `pair` as the evaluation's only record, then evaluates it.
    fn evaluate(
        pair: &EntityPair,
        technique: ExplainerKind,
        remove_positive: bool,
        n_samples: usize,
        threshold: f64,
    ) -> f64 {
        let views = explain_record(technique, &Overlap, &schema(), pair, n_samples, 0);
        interest_eval(&Overlap, &schema(), &[views], remove_positive, threshold)
    }

    #[test]
    fn removing_positive_tokens_flips_a_match() {
        // Strong match: 5 of 6 tokens shared -> p = 5/7 ≈ 0.71 ≥ 0.5.
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f"]),
            Entity::new(vec!["a b c d e g"]),
        );
        let interest = evaluate(&pair, ExplainerKind::Lime, true, 600, 0.5);
        assert_eq!(interest, 1.0);
    }

    #[test]
    fn non_match_with_no_shared_tokens_rarely_flips_under_lime() {
        // Disjoint record: dropping tokens can never create overlap, so the
        // label cannot flip to match — the exact weakness the paper
        // describes for LIME / Mojito Drop on non-matching records.
        let pair = EntityPair::new(Entity::new(vec!["a b c"]), Entity::new(vec!["x y z"]));
        let interest = evaluate(&pair, ExplainerKind::Lime, false, 500, 0.5);
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
        let double = evaluate(&pair, ExplainerKind::LandmarkDouble, false, 800, 0.5);
        assert!(double > 0.9, "double interest = {double}");
    }

    #[test]
    fn empty_records_give_zero() {
        let r = interest_eval(&Overlap, &schema(), &[], true, 0.5);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn threshold_changes_the_outcome() {
        // p = 3/5 = 0.6: a match at threshold 0.5 and also at 0.55; with a
        // lower threshold of 0.2 the removal must push further to flip.
        let pair = EntityPair::new(Entity::new(vec!["a b c d"]), Entity::new(vec!["a b c e"]));
        let strict = evaluate(&pair, ExplainerKind::Lime, true, 500, 0.05);
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
        let a = evaluate(&pair, ExplainerKind::LandmarkDouble, false, 300, 0.5);
        let b = evaluate(&pair, ExplainerKind::LandmarkDouble, false, 300, 0.5);
        assert_eq!(a, b);
    }
}
