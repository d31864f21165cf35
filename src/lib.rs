//! # Landmark Explanation
//!
//! A Rust reproduction of *"Using Landmarks for Explaining Entity Matching
//! Models"* (Baraldi, Del Buono, Paganelli, Guerra — EDBT 2021).
//!
//! Landmark Explanation wraps a post-hoc perturbation-based explainer
//! (LIME) so that it produces accurate, *interesting* local explanations
//! for entity-matching (EM) models. See the [`landmark`] module (crate
//! `landmark-core`) for the core algorithm, and `DESIGN.md` /
//! `EXPERIMENTS.md` in the repository root for the system inventory and
//! the paper-vs-measured record.
//!
//! ## Quick start
//!
//! ```
//! use landmark_explanation::prelude::*;
//!
//! // A tiny EM dataset (normally: a Magellan-style benchmark dataset).
//! let benchmark = MagellanBenchmark::scaled(0.1);
//! let dataset = benchmark.generate(DatasetId::SBr);
//!
//! // Train the EM model the paper explains: logistic regression over
//! // per-attribute similarity features.
//! let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
//!
//! // Explain one record from both landmark perspectives.
//! let record = &dataset.records()[0].pair;
//! // `noop()` records no stage timings; pass an `em_obs::Collector` to
//! // trace the pipeline.
//! let explainer = LandmarkExplainer::default();
//! let dual = explainer.explain(&matcher, dataset.schema(), record, noop());
//! for le in dual.both() {
//!     println!(
//!         "landmark={} top tokens:\n{}",
//!         le.landmark,
//!         le.explanation.render_top_k(dataset.schema(), 3)
//!     );
//! }
//! ```

/// The paper's core contribution (re-export of `landmark-core`).
pub mod landmark {
    pub use landmark_core::*;
}

/// EM data model (re-export of `em-entity`).
pub mod entity {
    pub use em_entity::*;
}

/// String similarity substrate (re-export of `em-text`).
pub mod text {
    pub use em_text::*;
}

/// Linear algebra and solvers (re-export of `em-linalg`).
pub mod linalg {
    pub use em_linalg::*;
}

/// EM models (re-export of `em-matchers`).
pub mod matchers {
    pub use em_matchers::*;
}

/// Generic LIME-style explainer + Mojito baselines (re-export of `em-lime`).
pub mod lime {
    pub use em_lime::*;
}

/// Deterministic fork/join parallelism layer (re-export of `em-par`).
pub mod par {
    pub use em_par::*;
}

/// Synthetic Magellan benchmark (re-export of `em-datagen`).
pub mod datagen {
    pub use em_datagen::*;
}

/// Experiment harness (re-export of `em-eval`).
pub mod eval {
    pub use em_eval::*;
}

/// One-stop imports for applications.
pub mod prelude {
    pub use em_datagen::{DatasetId, MagellanBenchmark};
    pub use em_entity::{
        EmDataset, Entity, EntityPair, EntitySide, LabeledPair, MatchModel, Schema, Token,
    };
    pub use em_lime::{ExplainConfig, LimeExplainer, MojitoCopyExplainer};
    pub use em_matchers::{LogisticMatcher, MatcherConfig, NaiveBayesMatcher};
    pub use em_obs::noop;
    pub use em_par::ParallelismConfig;
    pub use landmark_core::{
        DualExplanation, GenerationStrategy, LandmarkExplainer, LandmarkExplanation,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_supports_the_readme_flow() {
        let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SBr);
        let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
        let record = &dataset.records()[0].pair;
        let dual = LandmarkExplainer::default().explain(&matcher, dataset.schema(), record, noop());
        assert_eq!(dual.both().len(), 2);
    }
}
