//! Entity-matching models.
//!
//! The paper's experiments explain a **Logistic Regression classifier**
//! (Section 4.1). This crate provides that model:
//!
//! * [`FeatureExtractor`] — computes one composite similarity feature per
//!   logical attribute, so the trained model has exactly one coefficient
//!   per attribute (needed verbatim by the paper's attribute-based
//!   evaluation, Table 3, which ranks attributes by LR weight);
//! * [`LogisticMatcher`] — the trained classifier implementing
//!   [`em_entity::MatchModel`];
//! * [`NaiveBayesMatcher`] — a second model family, so the tests can show
//!   that every explainer is model-agnostic;
//! * [`evaluation`] — precision / recall / F1 and threshold tuning.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod evaluation;
pub mod features;
pub mod logistic_matcher;
pub mod naive_bayes;
pub mod persist;
mod prepared;

pub use evaluation::{evaluate_matcher, tune_threshold, MatchQuality};
pub use features::FeatureExtractor;
pub use logistic_matcher::LogisticMatcher;
pub use naive_bayes::NaiveBayesMatcher;

pub use persist::{
    deserialize_logistic, load_logistic_file, save_logistic_file, serialize_logistic, PersistError,
    PersistFileError,
};
