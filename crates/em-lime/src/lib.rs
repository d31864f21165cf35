//! A from-scratch LIME-style perturbation explainer for entity matching.
//!
//! This crate provides the three yellow-shadowed blocks of the paper's
//! Figure 2 — the *generic* post-hoc perturbation-based explanation system
//! that Landmark Explanation extends:
//!
//! * [`sampler`] — *Perturbation generation*: binary masks over
//!   interpretable features (tokens), drawn the way LIME's text explainer
//!   draws them;
//! * [`surrogate`] — *Surrogate model creation*: proximity-weighted ridge
//!   regression from masks to black-box probabilities;
//! * [`engine`] — the loop that joins them: [`perturb_and_fit`] samples
//!   masks over a view's features, scores the reconstructions with the
//!   black-box [`em_entity::MatchModel`], and fits the surrogate. Every
//!   explainer in the workspace runs it, configured by one
//!   [`ExplainConfig`];
//! * [`lime`] — token dropping over **both** entities of an EM pair: the
//!   paper's *LIME / Mojito Drop* baseline;
//! * [`mojito`] — the *Mojito Copy* baseline: attribute-level copy
//!   perturbations whose attribute weight is spread uniformly over the
//!   attribute's tokens;
//! * [`explanation`] — the [`PairExplanation`] result type shared by all
//!   explainers in the workspace (including `landmark-core`).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod engine;
pub mod explanation;
pub mod lime;
pub mod mojito;
#[doc(hidden)]
pub mod reference;
pub mod sampler;
pub mod surrogate;

pub use engine::{perturb_and_fit, ExplainConfig};
pub use explanation::{PairExplanation, TokenWeight};
pub use lime::LimeExplainer;
pub use mojito::MojitoCopyExplainer;
pub use sampler::sample_masks;
pub use surrogate::{fit_surrogate, SurrogateFit, RIDGE_LAMBDA};
