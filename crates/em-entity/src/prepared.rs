//! Prepared perturbation scoring: the record + spec + scorer interface of
//! the incremental kernel (DESIGN.md §11).
//!
//! Perturbation-based explainers (Landmark, LIME drop, Mojito copy) score
//! hundreds of masked variants of *one* record. The naive path rebuilds an
//! [`EntityPair`] per mask and re-extracts features from raw strings. A
//! model instead prepares the record once ([`PreparedRecord`]), which
//! gives the record's own prediction and, for each [`PerturbSpec`] — a
//! whole perturbation family described up front — a [`PreparedScorer`]
//! that scores each mask incrementally from state shared by every family
//! of that record.
//!
//! The contract every implementation must honor: `score_mask(mask)` is
//! **bit-identical** to reconstructing the masked pair exactly as the
//! naive explainer would and calling
//! [`MatchModel::predict_proba`] on it, and [`PreparedRecord::predict`]
//! is bit-identical to `predict_proba` on the record itself.
//! [`FallbackRecord`] and [`FallbackScorer`] are that naive path, word for
//! word; they both serve as the default implementation for models without
//! a kernel and as the reference oracle in bit-identity tests.

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

    /// Panics unless this family perturbs `pair` itself — the same value,
    /// not an equal copy. A [`PreparedRecord`] checks it before handing out
    /// a scorer, so a family of another pair never reads its state.
    pub fn assert_perturbs(&self, pair: &EntityPair) {
        assert!(
            std::ptr::eq(self.pair(), pair),
            "a prepared record scores only perturbations of its own pair"
        );
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

/// One record prepared for scoring by a model: the record's own prediction
/// and a scorer for each perturbation family of it.
///
/// Everything a model can compute once per record — for the feature-based
/// matchers, the record's interned tokens, IDF values and Jaro-Winkler
/// values — lives here and is shared by [`PreparedRecord::predict`] and
/// every scorer it hands out. A prepared record belongs to the thread that
/// prepared it: an explanation runs on one thread (DESIGN.md §7).
pub trait PreparedRecord {
    /// The model's match probability for the record itself: the bits of
    /// [`MatchModel::predict_proba`] on the prepared pair.
    fn predict(&self) -> f64;

    /// A scorer for one perturbation family of this record.
    ///
    /// Panics when `spec.pair()` is not the prepared pair itself
    /// ([`PerturbSpec::assert_perturbs`]).
    fn scorer<'s>(&'s self, spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's>;
}

/// The naive reference record: [`MatchModel::predict_proba`] for the
/// prediction and a [`FallbackScorer`] per family. Every model gets it for
/// free via the default [`MatchModel::prepare_record`]; kernels must match
/// it bit for bit.
#[derive(Debug)]
pub struct FallbackRecord<'a, M: ?Sized> {
    model: &'a M,
    schema: &'a Schema,
    pair: &'a EntityPair,
}

impl<'a, M: MatchModel + ?Sized> FallbackRecord<'a, M> {
    /// Wraps a model, schema, and record into the naive prepared record.
    pub fn new(model: &'a M, schema: &'a Schema, pair: &'a EntityPair) -> Self {
        Self {
            model,
            schema,
            pair,
        }
    }
}

impl<M: MatchModel + ?Sized> PreparedRecord for FallbackRecord<'_, M> {
    fn predict(&self) -> f64 {
        self.model.predict_proba(self.schema, self.pair)
    }

    fn scorer<'s>(&'s self, spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's> {
        spec.assert_perturbs(self.pair);
        Box::new(FallbackScorer::new(self.model, self.schema, spec))
    }
}

/// The naive reference scorer: reconstructs the perturbed pair per mask
/// and calls [`MatchModel::predict_proba`]. Every model gets this for free
/// through [`FallbackRecord`]; kernels must match its output bit for bit.
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
    fn fallback_record_predicts_the_pair_and_scores_its_families() {
        let (s, p) = setup();
        let record = FallbackRecord::new(&EqualityModel, &s, &p);
        assert_eq!(
            record.predict().to_bits(),
            EqualityModel.predict_proba(&s, &p).to_bits()
        );
        let spec = PerturbSpec::AttrCopy {
            pair: &p,
            copy_into: EntitySide::Right,
        };
        let mut scorer = record.scorer(&spec);
        assert_eq!(scorer.score_mask(&[false, true]), 1.0);
    }

    #[test]
    #[should_panic(expected = "its own pair")]
    fn a_record_refuses_a_family_of_an_equal_copy_of_its_pair() {
        let (s, p) = setup();
        let copy = p.clone();
        let record = FallbackRecord::new(&EqualityModel, &s, &p);
        let spec = PerturbSpec::AttrCopy {
            pair: &copy,
            copy_into: EntitySide::Right,
        };
        let _ = record.scorer(&spec);
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
