//! Minimal dense linear algebra and linear-model solvers.
//!
//! This crate provides exactly the numerical substrate needed by the
//! Landmark Explanation reproduction:
//!
//! * a dense row-major [`Matrix`] with the handful of operations the
//!   solvers need (products, transpose, Gram matrices);
//! * a [Cholesky decomposition](cholesky::Cholesky) used to solve the
//!   symmetric positive-definite normal equations;
//! * [weighted ridge regression](ridge) — the surrogate model LIME and
//!   Landmark Explanation fit over perturbation samples;
//! * [logistic regression](logistic) — the entity-matching model that the
//!   paper explains (Section 4.1 of the paper uses a Logistic Regression
//!   classifier as the EM model);
//! * [sample kernels](kernel) — the exponential kernel over cosine
//!   distance that weights perturbation samples.
//!
//! Everything is implemented from scratch on `f64`, with no third-party
//! dependencies, and is deterministic.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod cholesky;
pub mod kernel;
pub mod logistic;
pub mod matrix;
pub mod ridge;

pub use cholesky::Cholesky;
pub use kernel::{cosine_distance, cosine_distance_to_ones, exponential_kernel};
pub use logistic::LogisticModel;
pub use matrix::Matrix;
pub use ridge::{ridge_fit, ridge_solve_centered, RidgeModel};

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// The matrix handed to the Cholesky decomposition is not positive
    /// definite (within numerical tolerance).
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
    /// A solver received an empty design matrix.
    EmptyInput,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, got {actual}"
                )
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::EmptyInput => write!(f, "empty input"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
