//! The *Landmark generation* component (paper Section 3.1).
//!
//! Builds, for a chosen landmark side, the token list of the varying entity
//! that the perturbation component will operate on. With
//! [single-entity](crate::strategy::ResolvedStrategy::SingleEntity)
//! generation these are exactly the varying entity's tokens. With
//! [double-entity](crate::strategy::ResolvedStrategy::DoubleEntity)
//! generation, the landmark's tokens are **injected**: for each attribute,
//! the varying value and the landmark value are concatenated into an
//! artificial entity whose tokens all become perturbable.

use em_entity::{tokenize_entity, EntityPair, EntitySide, Token};

use crate::strategy::ResolvedStrategy;

/// The perturbable view of a record for one landmark choice.
#[derive(Debug, Clone)]
pub struct VaryingView {
    /// The frozen entity's side.
    pub landmark: EntitySide,
    /// The perturbed entity's side (`landmark.other()`).
    pub varying: EntitySide,
    /// The perturbable tokens (the interpretable features). Occurrence
    /// indices are renumbered per attribute so injected tokens never
    /// collide with the originals.
    pub tokens: Vec<Token>,
    /// `injected[i]` is true iff `tokens[i]` was copied in from the
    /// landmark by double-entity generation (it is *not* part of the
    /// original varying entity).
    pub injected: Vec<bool>,
}

impl VaryingView {
    /// Number of injected tokens.
    pub fn injected_count(&self) -> usize {
        self.injected.iter().filter(|&&b| b).count()
    }
}

/// Generates the varying view of `pair` with `landmark` frozen.
pub fn generate_view(
    pair: &EntityPair,
    landmark: EntitySide,
    strategy: ResolvedStrategy,
) -> VaryingView {
    let varying = landmark.other();
    let own_tokens = tokenize_entity(pair.entity(varying));
    let (mut tokens, injected) = match strategy {
        ResolvedStrategy::SingleEntity => {
            let n = own_tokens.len();
            (own_tokens, vec![false; n])
        }
        ResolvedStrategy::DoubleEntity => {
            let landmark_tokens = tokenize_entity(pair.entity(landmark));
            // Per-attribute concatenation: original varying tokens first,
            // then the landmark's tokens for the same attribute. Interleave
            // by attribute so detokenization reads "varying value followed
            // by landmark value" in every attribute.
            let n_attr = pair.entity(varying).len();
            let mut tokens = Vec::with_capacity(own_tokens.len() + landmark_tokens.len());
            let mut injected = Vec::with_capacity(tokens.capacity());
            for attr in 0..n_attr {
                for t in own_tokens.iter().filter(|t| t.attribute == attr) {
                    tokens.push(t.clone());
                    injected.push(false);
                }
                for t in landmark_tokens.iter().filter(|t| t.attribute == attr) {
                    tokens.push(t.clone());
                    injected.push(true);
                }
            }
            (tokens, injected)
        }
    };
    em_entity::tokenizer::renumber(&mut tokens);
    VaryingView {
        landmark,
        varying,
        tokens,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::{detokenize, Entity};

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera", "849.99"]),
            Entity::new(vec!["nikon case 5811", "7.99"]),
        )
    }

    #[test]
    fn single_entity_view_has_only_varying_tokens() {
        let v = generate_view(&pair(), EntitySide::Left, ResolvedStrategy::SingleEntity);
        assert_eq!(v.landmark, EntitySide::Left);
        assert_eq!(v.varying, EntitySide::Right);
        let texts: Vec<&str> = v.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["nikon", "case", "5811", "7.99"]);
        assert!(v.injected.iter().all(|&b| !b));
        assert_eq!(v.injected_count(), 0);
    }

    #[test]
    fn single_entity_with_right_landmark_varies_left() {
        let v = generate_view(&pair(), EntitySide::Right, ResolvedStrategy::SingleEntity);
        let texts: Vec<&str> = v.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["sony", "camera", "849.99"]);
    }

    #[test]
    fn double_entity_injects_landmark_tokens_per_attribute() {
        let v = generate_view(&pair(), EntitySide::Left, ResolvedStrategy::DoubleEntity);
        let texts: Vec<&str> = v.tokens.iter().map(|t| t.text.as_str()).collect();
        // Attribute 0: varying (nikon case 5811) then landmark (sony camera);
        // attribute 1: varying (7.99) then landmark (849.99).
        assert_eq!(
            texts,
            vec!["nikon", "case", "5811", "sony", "camera", "7.99", "849.99"]
        );
        assert_eq!(
            v.injected,
            vec![false, false, false, true, true, false, true]
        );
        assert_eq!(v.injected_count(), 3);
    }

    #[test]
    fn double_entity_occurrences_are_renumbered() {
        let v = generate_view(&pair(), EntitySide::Left, ResolvedStrategy::DoubleEntity);
        // All attribute-0 tokens must have distinct occurrence indices.
        let occ: Vec<usize> = v
            .tokens
            .iter()
            .filter(|t| t.attribute == 0)
            .map(|t| t.occurrence)
            .collect();
        assert_eq!(occ, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn double_entity_detokenizes_to_concatenated_values() {
        let v = generate_view(&pair(), EntitySide::Left, ResolvedStrategy::DoubleEntity);
        let artificial = detokenize(&v.tokens, 2);
        assert_eq!(artificial.value(0), "nikon case 5811 sony camera");
        assert_eq!(artificial.value(1), "7.99 849.99");
    }

    #[test]
    fn duplicate_tokens_across_entities_stay_distinct() {
        let p = EntityPair::new(
            Entity::new(vec!["sony camera"]),
            Entity::new(vec!["sony case"]),
        );
        let v = generate_view(&p, EntitySide::Left, ResolvedStrategy::DoubleEntity);
        // "sony" appears twice (original right + injected left) with
        // different occurrence indices.
        let sonys: Vec<&Token> = v.tokens.iter().filter(|t| t.text == "sony").collect();
        assert_eq!(sonys.len(), 2);
        assert_ne!(sonys[0].occurrence, sonys[1].occurrence);
    }

    #[test]
    fn empty_varying_entity_single_view_is_empty() {
        let p = EntityPair::new(Entity::new(vec!["sony"]), Entity::new(vec![""]));
        let v = generate_view(&p, EntitySide::Left, ResolvedStrategy::SingleEntity);
        assert!(v.tokens.is_empty());
    }

    #[test]
    fn empty_varying_entity_double_view_has_only_injected() {
        let p = EntityPair::new(Entity::new(vec!["sony"]), Entity::new(vec![""]));
        let v = generate_view(&p, EntitySide::Left, ResolvedStrategy::DoubleEntity);
        assert_eq!(v.tokens.len(), 1);
        assert_eq!(v.injected, vec![true]);
    }
}
