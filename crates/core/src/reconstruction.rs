//! The *Pair reconstruction* component (paper Section 3.1), for landmark
//! views.
//!
//! A perturbation is a mask over the varying view's tokens, and it is
//! rebuilt into a well-formed [`EntityPair`] by em-entity's
//! [`PerturbSpec::reconstruct`], the workspace's one pair reconstruction:
//! the landmark side is copied verbatim, the varying side is detokenized
//! from the kept tokens. The attribute prefixes carried by
//! [`em_entity::Token`] are what makes this possible — and they are erased
//! in the output, which contains plain attribute values again.
//!
//! [`perturb_spec`] states a landmark view as that perturbation family.
//! The explainer scores masks through it, and the scoring kernel must
//! match its reconstruction bit for bit.

use em_entity::prepared::{PerturbSpec, SideSpec};
use em_entity::{EntityPair, EntitySide};

use crate::generation::VaryingView;

/// The token-drop family of one landmark view: the landmark side is
/// [`SideSpec::Fixed`], the varying side keeps or drops each of the
/// view's tokens.
pub fn perturb_spec<'a>(pair: &'a EntityPair, view: &'a VaryingView) -> PerturbSpec<'a> {
    let varying = SideSpec::Varying(&view.tokens);
    let (left, right) = match view.varying {
        EntitySide::Left => (varying, SideSpec::Fixed),
        EntitySide::Right => (SideSpec::Fixed, varying),
    };
    PerturbSpec::TokenDrop { pair, left, right }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::generate_view;
    use crate::strategy::ResolvedStrategy;
    use em_entity::Entity;

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera", "849.99"]),
            Entity::new(vec!["nikon case", "7.99"]),
        )
    }

    /// The record the explainer scores for `mask` over `view`.
    fn reconstruct(p: &EntityPair, view: &VaryingView, mask: &[bool]) -> EntityPair {
        perturb_spec(p, view).reconstruct(mask, 2)
    }

    #[test]
    fn full_mask_reproduces_the_record() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::SingleEntity);
        let mask = vec![true; view.tokens.len()];
        assert_eq!(reconstruct(&p, &view, &mask), p);
    }

    #[test]
    fn landmark_side_is_never_touched() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::DoubleEntity);
        let mask = vec![false; view.tokens.len()];
        let rec = reconstruct(&p, &view, &mask);
        assert_eq!(rec.left, p.left);
        assert_eq!(rec.right, Entity::empty(2));
    }

    #[test]
    fn partial_mask_drops_tokens_from_varying_side_only() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::SingleEntity);
        // Drop "case" (index 1 of [nikon, case, 7.99]).
        let mask = vec![true, false, true];
        let rec = reconstruct(&p, &view, &mask);
        assert_eq!(rec.left, p.left);
        assert_eq!(rec.right.value(0), "nikon");
        assert_eq!(rec.right.value(1), "7.99");
    }

    #[test]
    fn double_entity_mask_can_turn_nonmatch_into_match() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::DoubleEntity);
        // Keep only the injected landmark tokens: the varying entity becomes
        // a copy of the landmark's values.
        let rec = reconstruct(&p, &view, &view.injected);
        assert_eq!(rec.right.value(0), "sony camera");
        assert_eq!(rec.right.value(1), "849.99");
        assert_eq!(rec.left, p.left);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn short_mask_panics_instead_of_truncating() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Left, ResolvedStrategy::SingleEntity);
        let mask = vec![true; view.tokens.len() - 1];
        reconstruct(&p, &view, &mask);
    }

    #[test]
    fn right_landmark_reconstruction_varies_left() {
        let p = pair();
        let view = generate_view(&p, EntitySide::Right, ResolvedStrategy::SingleEntity);
        let mask = vec![false; view.tokens.len()];
        let rec = reconstruct(&p, &view, &mask);
        assert_eq!(rec.right, p.right);
        assert_eq!(rec.left, Entity::empty(2));
    }
}
