//! Perturbation-generation strategies.

/// How the varying entity's token list is built before perturbation
/// (Section 3.1 of the paper, *Landmark generation component*).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GenerationStrategy {
    /// *Single-entity generation*: perturb only the varying entity's own
    /// tokens. Highlights the differences of one entity with respect to
    /// the other — most effective on records classified as **matching**.
    SingleEntity,
    /// *Double-entity generation*: inject the landmark's tokens into the
    /// varying entity (per-attribute concatenation) before perturbing.
    /// Pushes non-matching records towards the match class — most
    /// effective on records classified as **non-matching**.
    DoubleEntity,
    /// Pick per record using the black-box prediction, following the
    /// paper's "lessons learned": `SingleEntity` when the model predicts
    /// match (probability ≥ 0.5), `DoubleEntity` otherwise.
    #[default]
    Auto,
}

impl GenerationStrategy {
    /// Resolves the strategy for a record given the model's probability.
    pub fn resolve(self, model_probability: f64) -> ResolvedStrategy {
        match self {
            GenerationStrategy::SingleEntity => ResolvedStrategy::SingleEntity,
            GenerationStrategy::DoubleEntity => ResolvedStrategy::DoubleEntity,
            GenerationStrategy::Auto => {
                if model_probability >= 0.5 {
                    ResolvedStrategy::SingleEntity
                } else {
                    ResolvedStrategy::DoubleEntity
                }
            }
        }
    }
}

/// A strategy after `Auto` resolution — what actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedStrategy {
    /// Perturb the varying entity's own tokens only.
    SingleEntity,
    /// Inject landmark tokens first, then perturb.
    DoubleEntity,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_strategies_resolve_to_themselves() {
        assert_eq!(
            GenerationStrategy::SingleEntity.resolve(0.0),
            ResolvedStrategy::SingleEntity
        );
        assert_eq!(
            GenerationStrategy::DoubleEntity.resolve(1.0),
            ResolvedStrategy::DoubleEntity
        );
    }

    #[test]
    fn auto_follows_the_model_prediction() {
        let auto = GenerationStrategy::Auto;
        assert_eq!(auto.resolve(0.9), ResolvedStrategy::SingleEntity);
        assert_eq!(auto.resolve(0.1), ResolvedStrategy::DoubleEntity);
        assert_eq!(auto.resolve(0.5), ResolvedStrategy::SingleEntity); // boundary: >= 0.5
    }
}
