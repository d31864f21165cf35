//! Evaluation harness reproducing the paper's experiments.
//!
//! * [`kendall`] — the weighted Kendall tau correlation used by the
//!   attribute-based evaluation;
//! * [`technique`] — the four explanation techniques the paper compares
//!   (*Single*, *Double*, *LIME / Mojito Drop*, *Mojito Copy*) as
//!   `landmark_core::ExplainerKind`s; [`explain_record`](technique::explain_record)
//!   explains one record through the kind's one dispatch and maps it to
//!   the records the evaluations read, under the seed
//!   [`record_seed`](technique::record_seed) derives from the record's
//!   index;
//! * [`token_eval`](mod@token_eval) — the token-based reliability experiment (Table 2):
//!   remove 25% of explained tokens and check that the surrogate's
//!   coefficient sum predicts the black-box probability shift;
//! * [`attr_eval`] — the attribute-based reliability experiment (Table 3):
//!   weighted Kendall tau between the logistic matcher's attribute ranking
//!   and the surrogate's;
//! * [`interest_eval`](mod@interest_eval) — the explanation-quality experiment (Table 4):
//!   remove all positive (matching records) or all negative (non-matching
//!   records) tokens and measure how often the predicted class flips;
//! * [`runner`] — end-to-end per-dataset runners producing the paper's
//!   table rows;
//! * [`tables`] — plain-text table formatting.
//!
//! Each table has one entry point, and it evaluates records already
//! explained: [`Evaluator`] explains every sampled record once per
//! technique and hands the same explanations to all three evaluations.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod attr_eval;
pub mod interest_eval;
pub mod kendall;
pub mod neighborhood;
pub mod removal;
pub mod runner;
pub mod stability;
pub mod tables;
pub mod technique;
pub mod token_eval;

pub use attr_eval::attribute_eval;
pub use interest_eval::interest_eval;
pub use kendall::weighted_kendall_tau;
pub use neighborhood::{neighborhood_stats, NeighborhoodStats};
pub use runner::{DatasetEvaluation, EvalConfig, Evaluator};
pub use stability::{explanation_stability, StabilityReport};
pub use technique::{ExplainedRecord, TECHNIQUES};
pub use token_eval::{token_eval, TokenEvalResult};
