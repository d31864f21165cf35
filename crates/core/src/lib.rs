//! **Landmark Explanation** — the core contribution of
//! *"Using Landmarks for Explaining Entity Matching Models"* (EDBT 2021).
//!
//! A generic post-hoc perturbation explainer (LIME) perturbs a record by
//! dropping random tokens. On EM records — which describe a *pair* of
//! entities — that is ineffective: removals hit both entities at once
//! (producing *null perturbations* where the same token disappears from
//! both sides), and on the heavily imbalanced EM datasets almost every
//! perturbation lands in the non-match class.
//!
//! Landmark Explanation fixes this with two ideas:
//!
//! 1. **Landmarks.** Each record gets *two* explanations. In each, one
//!    entity is frozen as the *landmark* and only the other (the *varying*
//!    entity) is perturbed — see [`generation`]. The explanation then reads
//!    as "from the landmark's perspective, these tokens of the other entity
//!    drive the decision".
//! 2. **Token injection (double-entity generation).** For records the
//!    model considers non-matching, the landmark's tokens are first
//!    *injected* into the varying entity (concatenated per attribute).
//!    Perturbations can now produce records the model classifies as
//!    matching, which makes the surrogate — and the explanation — far more
//!    informative about *what would have to change* for a match.
//!
//! The pipeline mirrors the paper's Figure 2: [`generation`] (Landmark
//! generation) builds each view, [`reconstruction`] states it as the
//! perturbation family em-entity's `PerturbSpec::reconstruct` rebuilds
//! pairs from (Pair reconstruction, the one reconstruction the scoring
//! kernel must match bit for bit), and `em-lime`'s perturb-and-fit engine
//! — the wrapped explainer — runs mask sampling, black-box scoring
//! (Dataset reconstruction) and the surrogate fit over it.
//!
//! Entry point: [`LandmarkExplainer`]. [`ExplainerKind`] names the five
//! explainers the workspace serves and evaluates (the landmark strategies,
//! LIME and Mojito Copy) and holds the one dispatch every path runs them
//! through: `em-codec` for the server and the batch pipeline, `em-eval`
//! for the paper's tables, and the bench binaries.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod explainer;
pub mod generation;
pub mod kind;
pub mod reconstruction;
pub mod strategy;

pub use explainer::{DualExplanation, LandmarkExplainer, LandmarkExplanation};
pub use generation::{generate_view, VaryingView};
pub use kind::{ExplainerKind, Explanation};
pub use reconstruction::perturb_spec;
pub use strategy::GenerationStrategy;
