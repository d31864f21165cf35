//! Prepared perturbation scoring: the spec + scorer interface of the
//! incremental kernel (DESIGN.md §11).
//!
//! Perturbation-based explainers (Landmark, LIME drop, Mojito copy) score
//! hundreds of masked variants of *one* record. The naive path rebuilds an
//! [`EntityPair`] per mask and re-extracts features from raw strings. A
//! [`PerturbSpec`] instead describes the whole perturbation family up
//! front, so a model can return a [`PreparedScorer`] that precomputes
//! per-record state once and scores each mask incrementally.
//!
//! The contract every implementation must honor: `score_mask(mask)` is
//! **bit-identical** to reconstructing the masked pair exactly as the
//! naive explainer would and calling
//! [`MatchModel::predict_proba`] on it.
//! [`FallbackScorer`] is that naive path, word for word; it both serves as
//! the default implementation for models without a kernel and as the
//! reference oracle in bit-identity tests.

use crate::pair::{EntityPair, EntitySide};
use crate::schema::Schema;
use crate::tokenizer::{detokenize, Token};
use crate::MatchModel;

/// How one side of a [`PerturbSpec::TokenDrop`] family behaves.
#[derive(Debug, Clone, Copy)]
pub enum SideSpec<'a> {
    /// The side is frozen at its original value for every mask (the
    /// landmark side of a landmark explanation).
    Fixed,
    /// The side is rebuilt per mask from this token list: mask bit `i`
    /// keeps or drops `tokens[i]` (tokens are pre-`renumber`ed, exactly
    /// what the naive path feeds `detokenize`).
    Varying(&'a [Token]),
}

impl SideSpec<'_> {
    /// Number of mask bits this side consumes.
    pub fn token_count(&self) -> usize {
        match self {
            SideSpec::Fixed => 0,
            SideSpec::Varying(tokens) => tokens.len(),
        }
    }
}

/// A family of perturbations of one record, described up front so models
/// can precompute shared state.
#[derive(Debug, Clone, Copy)]
pub enum PerturbSpec<'a> {
    /// Token-drop perturbations (Landmark, LIME): each mask keeps a
    /// subset of the varying side(s)' tokens. The mask layout is the left
    /// side's bits followed by the right side's bits (a [`SideSpec::Fixed`]
    /// side contributes zero bits).
    TokenDrop {
        /// The original, unperturbed record.
        pair: &'a EntityPair,
        /// Left-side behavior.
        left: SideSpec<'a>,
        /// Right-side behavior.
        right: SideSpec<'a>,
    },
    /// Attribute-copy perturbations (Mojito copy): mask bit `j` is per
    /// schema attribute; a cleared bit copies attribute `j` of the *other*
    /// side over `copy_into`'s original value.
    AttrCopy {
        /// The original, unperturbed record.
        pair: &'a EntityPair,
        /// The side whose attributes get overwritten.
        copy_into: EntitySide,
    },
}

impl PerturbSpec<'_> {
    /// The original record this family perturbs.
    pub fn pair(&self) -> &EntityPair {
        match self {
            PerturbSpec::TokenDrop { pair, .. } | PerturbSpec::AttrCopy { pair, .. } => pair,
        }
    }

    /// The exact mask length every `score_mask` call must pass.
    pub fn mask_len(&self, n_attributes: usize) -> usize {
        match self {
            PerturbSpec::TokenDrop { left, right, .. } => left.token_count() + right.token_count(),
            PerturbSpec::AttrCopy { .. } => n_attributes,
        }
    }

    /// Reconstructs the perturbed [`EntityPair`] for one mask, exactly as
    /// the naive explainer loops do (token-drop: keep-filter + detokenize;
    /// attr-copy: overwrite unmasked attributes from the other side).
    ///
    /// Panics if `mask.len() != self.mask_len(n_attributes)` — a short
    /// mask must never be silently truncated.
    pub fn reconstruct(&self, mask: &[bool], n_attributes: usize) -> EntityPair {
        assert_eq!(
            mask.len(),
            self.mask_len(n_attributes),
            "perturbation mask length must equal the spec's mask length"
        );
        match self {
            PerturbSpec::TokenDrop { pair, left, right } => {
                let (lmask, rmask) = mask.split_at(left.token_count());
                let left_entity =
                    reconstruct_side(pair, EntitySide::Left, left, lmask, n_attributes);
                let right_entity =
                    reconstruct_side(pair, EntitySide::Right, right, rmask, n_attributes);
                EntityPair::new(left_entity, right_entity)
            }
            PerturbSpec::AttrCopy { pair, copy_into } => {
                let mut perturbed = (*pair).clone();
                let source = copy_into.other();
                for (attr, &keep) in mask.iter().enumerate() {
                    if !keep {
                        let value = pair.entity(source).value(attr).to_string();
                        perturbed.entity_mut(*copy_into).set_value(attr, value);
                    }
                }
                perturbed
            }
        }
    }
}

fn reconstruct_side(
    pair: &EntityPair,
    side: EntitySide,
    spec: &SideSpec<'_>,
    mask: &[bool],
    n_attributes: usize,
) -> crate::entity::Entity {
    match spec {
        SideSpec::Fixed => pair.entity(side).clone(),
        SideSpec::Varying(tokens) => {
            let kept: Vec<Token> = tokens
                .iter()
                .zip(mask)
                .filter(|(_, &keep)| keep)
                .map(|(t, _)| t.clone())
                .collect();
            detokenize(&kept, n_attributes)
        }
    }
}

/// A scorer specialized to one perturbation family: `score_mask` returns
/// the model's match probability for the masked variant of the record.
///
/// Takes `&mut self` so implementations can reuse scratch buffers across
/// masks. Implementations must be pure in the mask: the same mask always
/// yields the same bits, regardless of call order — that is what keeps
/// serial, parallel, and cached scoring identical.
pub trait PreparedScorer {
    /// Match probability of the perturbation selected by `mask`.
    ///
    /// Must panic (not truncate) if the mask length does not equal
    /// [`PerturbSpec::mask_len`].
    fn score_mask(&mut self, mask: &[bool]) -> f64;
}

/// The naive reference scorer: reconstructs the perturbed pair per mask
/// and calls [`MatchModel::predict_proba`]. Every model gets this for free
/// via the default [`MatchModel::prepare_scorer`]; kernels must match its
/// output bit for bit.
#[derive(Debug)]
pub struct FallbackScorer<'a, M: ?Sized> {
    model: &'a M,
    schema: &'a Schema,
    spec: &'a PerturbSpec<'a>,
}

impl<'a, M: MatchModel + ?Sized> FallbackScorer<'a, M> {
    /// Wraps a model, schema, and spec into the naive per-mask scorer.
    pub fn new(model: &'a M, schema: &'a Schema, spec: &'a PerturbSpec<'a>) -> Self {
        Self {
            model,
            schema,
            spec,
        }
    }
}

impl<M: MatchModel + ?Sized> PreparedScorer for FallbackScorer<'_, M> {
    fn score_mask(&mut self, mask: &[bool]) -> f64 {
        let pair = self.spec.reconstruct(mask, self.schema.len());
        self.model.predict_proba(self.schema, &pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::tokenizer::tokenize_entity;

    struct EqualityModel;

    impl MatchModel for EqualityModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            if schema.is_empty() {
                return 0.0;
            }
            let same = (0..schema.len())
                .filter(|&i| pair.left.value(i) == pair.right.value(i))
                .count();
            same as f64 / schema.len() as f64
        }
    }

    fn setup() -> (Schema, EntityPair) {
        let s = Schema::from_names(vec!["a", "b"]);
        let p = EntityPair::new(Entity::new(vec!["x y", "z"]), Entity::new(vec!["x", "z"]));
        (s, p)
    }

    #[test]
    fn token_drop_all_true_mask_reproduces_the_pair() {
        let (s, p) = setup();
        let tokens = tokenize_entity(p.entity(EntitySide::Left));
        let spec = PerturbSpec::TokenDrop {
            pair: &p,
            left: SideSpec::Varying(&tokens),
            right: SideSpec::Fixed,
        };
        let mask = vec![true; spec.mask_len(s.len())];
        let rebuilt = spec.reconstruct(&mask, s.len());
        assert_eq!(
            rebuilt.left.values().collect::<Vec<_>>(),
            p.left.values().collect::<Vec<_>>()
        );
        assert_eq!(
            rebuilt.right.values().collect::<Vec<_>>(),
            p.right.values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn token_drop_dropping_tokens_changes_the_varying_side_only() {
        let (s, p) = setup();
        let tokens = tokenize_entity(p.entity(EntitySide::Left));
        let spec = PerturbSpec::TokenDrop {
            pair: &p,
            left: SideSpec::Varying(&tokens),
            right: SideSpec::Fixed,
        };
        let mut mask = vec![true; spec.mask_len(s.len())];
        mask[0] = false; // drop "x" from left "a"
        let rebuilt = spec.reconstruct(&mask, s.len());
        assert_eq!(rebuilt.left.value(0), "y");
        assert_eq!(
            rebuilt.right.values().collect::<Vec<_>>(),
            p.right.values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn attr_copy_clears_copy_attributes_from_the_other_side() {
        let (s, p) = setup();
        let spec = PerturbSpec::AttrCopy {
            pair: &p,
            copy_into: EntitySide::Right,
        };
        let rebuilt = spec.reconstruct(&[false, true], s.len());
        assert_eq!(rebuilt.right.value(0), "x y"); // copied from left
        assert_eq!(rebuilt.right.value(1), "z"); // kept
        assert_eq!(
            rebuilt.left.values().collect::<Vec<_>>(),
            p.left.values().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn short_masks_are_rejected_not_truncated() {
        let (s, p) = setup();
        let tokens = tokenize_entity(p.entity(EntitySide::Left));
        let spec = PerturbSpec::TokenDrop {
            pair: &p,
            left: SideSpec::Varying(&tokens),
            right: SideSpec::Fixed,
        };
        let short = vec![true; spec.mask_len(s.len()) - 1];
        spec.reconstruct(&short, s.len());
    }

    #[test]
    fn fallback_scorer_equals_reconstruct_then_predict() {
        let (s, p) = setup();
        let tokens = tokenize_entity(p.entity(EntitySide::Left));
        let spec = PerturbSpec::TokenDrop {
            pair: &p,
            left: SideSpec::Varying(&tokens),
            right: SideSpec::Fixed,
        };
        let mask = vec![true, false, true];
        let mut scorer = FallbackScorer::new(&EqualityModel, &s, &spec);
        let direct = EqualityModel.predict_proba(&s, &spec.reconstruct(&mask, s.len()));
        assert_eq!(scorer.score_mask(&mask).to_bits(), direct.to_bits());
    }
}
