//! Weighted ridge regression — the surrogate model of the explainers.
//!
//! LIME (and therefore Landmark Explanation) fits an interpretable linear
//! model over perturbation samples, weighting each sample by its proximity
//! to the record being explained. The canonical choice is ridge regression:
//!
//! ```text
//! β = argmin Σᵢ wᵢ (yᵢ − β₀ − xᵢᵀβ)² + λ ‖β‖²
//! ```
//!
//! The intercept `β₀` is not penalized, matching scikit-learn's `Ridge`
//! (which the original LIME implementation uses).

use crate::{Cholesky, LinalgError, Matrix, Result};

/// Configuration for [`ridge_fit`].
#[derive(Debug, Clone, Copy)]
pub struct RidgeConfig {
    /// L2 penalty applied to all coefficients except the intercept.
    pub lambda: f64,
    /// Whether to fit an (unpenalized) intercept.
    pub fit_intercept: bool,
}

impl Default for RidgeConfig {
    fn default() -> Self {
        RidgeConfig {
            lambda: 1.0,
            fit_intercept: true,
        }
    }
}

/// A fitted ridge model.
#[derive(Debug, Clone)]
pub struct RidgeModel {
    /// Intercept term (0.0 when `fit_intercept` was false).
    pub intercept: f64,
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
}

impl RidgeModel {
    /// Predicts the response for a feature vector.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the number of coefficients — a real
    /// assert, because the dot product's `zip` would otherwise silently
    /// drop the trailing features (or coefficients) in release builds.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "one feature per coefficient"
        );
        self.intercept + crate::matrix::dot(x, &self.coefficients)
    }
}

/// Fits weighted ridge regression by solving the normal equations with a
/// Cholesky factorization.
///
/// * `x` — design matrix, one sample per row;
/// * `y` — responses, `y.len() == x.rows()`;
/// * `weights` — non-negative sample weights, same length as `y`.
///
/// With `fit_intercept`, the data is first centered with the weighted means
/// so the intercept stays unpenalized; the centered system is then solved
/// by [`ridge_solve_centered`].
pub fn ridge_fit(
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    config: &RidgeConfig,
) -> Result<RidgeModel> {
    let n = x.rows();
    let d = x.cols();
    if n == 0 || d == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "ridge_fit(y)",
            expected: n,
            actual: y.len(),
        });
    }
    if weights.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "ridge_fit(weights)",
            expected: n,
            actual: weights.len(),
        });
    }
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return Err(LinalgError::EmptyInput);
    }
    if !config.fit_intercept {
        return Ok(RidgeModel {
            intercept: 0.0,
            coefficients: ridge_solve_centered(x, y, weights, config.lambda)?,
        });
    }

    // Weighted means for centering.
    let mut x_mean = vec![0.0; d];
    let mut y_mean = 0.0;
    for r in 0..n {
        let w = weights[r];
        y_mean += w * y[r];
        for (m, &v) in x_mean.iter_mut().zip(x.row(r)) {
            *m += w * v;
        }
    }
    for m in x_mean.iter_mut() {
        *m /= wsum;
    }
    let y_mean = y_mean / wsum;

    // Centered design matrix and response.
    let mut xc = x.clone();
    for r in 0..n {
        for (v, m) in xc.row_mut(r).iter_mut().zip(&x_mean) {
            *v -= m;
        }
    }
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

    let coefficients = ridge_solve_centered(&xc, &yc, weights, config.lambda)?;
    let intercept = y_mean - crate::matrix::dot(&x_mean, &coefficients);
    Ok(RidgeModel {
        intercept,
        coefficients,
    })
}

/// Solves the ridge normal equations `(XᵀWX + λI) β = XᵀWy` for a design
/// `xc` and response `yc` that are already centered (or are fit without an
/// intercept), returning `β`.
///
/// This is the solve [`ridge_fit`] runs after centering, exposed so a
/// caller that can build the centered design more cheaply than
/// `x − mean` (a surrogate over binary masks has two values per column)
/// shares it. One Gram matrix is built and factored in place; a tiny
/// jitter on the diagonal keeps the system positive definite even with
/// `λ = 0` and duplicate columns. A negative `lambda` counts as 0.
pub fn ridge_solve_centered(
    xc: &Matrix,
    yc: &[f64],
    weights: &[f64],
    lambda: f64,
) -> Result<Vec<f64>> {
    let mut gram = xc.weighted_gram(weights)?;
    let lambda = lambda.max(0.0);
    let jitter = 1e-10;
    for i in 0..xc.cols() {
        let v = gram.get(i, i) + lambda + jitter;
        gram.set(i, i, v);
    }
    let rhs = xc.weighted_xty(weights, yc)?;
    Cholesky::factor(gram)?.solve(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn recovers_exact_linear_relationship_with_small_lambda() {
        // y = 2 + 3*x0 - x1
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, -1.0],
        ])
        .unwrap();
        let y: Vec<f64> = (0..x.rows())
            .map(|r| 2.0 + 3.0 * x.get(r, 0) - x.get(r, 1))
            .collect();
        let m = ridge_fit(
            &x,
            &y,
            &ones(5),
            &RidgeConfig {
                lambda: 1e-9,
                fit_intercept: true,
            },
        )
        .unwrap();
        assert!((m.intercept - 2.0).abs() < 1e-5, "{m:?}");
        assert!((m.coefficients[0] - 3.0).abs() < 1e-5);
        assert!((m.coefficients[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn shrinkage_reduces_coefficient_magnitude() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0.0, 2.0, 4.0, 6.0];
        let low = ridge_fit(
            &x,
            &y,
            &ones(4),
            &RidgeConfig {
                lambda: 0.01,
                fit_intercept: true,
            },
        )
        .unwrap();
        let high = ridge_fit(
            &x,
            &y,
            &ones(4),
            &RidgeConfig {
                lambda: 100.0,
                fit_intercept: true,
            },
        )
        .unwrap();
        assert!(high.coefficients[0].abs() < low.coefficients[0].abs());
        assert!(low.coefficients[0] > 1.5); // close to the true slope of 2
    }

    #[test]
    fn zero_weight_samples_are_ignored() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![100.0]]).unwrap();
        let y = vec![0.0, 1.0, 2.0, -500.0]; // outlier with zero weight
        let w = vec![1.0, 1.0, 1.0, 0.0];
        let m = ridge_fit(
            &x,
            &y,
            &w,
            &RidgeConfig {
                lambda: 1e-6,
                fit_intercept: true,
            },
        )
        .unwrap();
        assert!((m.coefficients[0] - 1.0).abs() < 1e-4, "{m:?}");
    }

    #[test]
    fn weights_tilt_the_fit_towards_heavy_samples() {
        // Two inconsistent slopes; weighting one pair heavily should pull the fit.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![0.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 1.0, 0.0, 3.0];
        let m_heavy_a = ridge_fit(
            &x,
            &y,
            &[10.0, 10.0, 0.1, 0.1],
            &RidgeConfig {
                lambda: 1e-6,
                fit_intercept: true,
            },
        )
        .unwrap();
        let m_heavy_b = ridge_fit(
            &x,
            &y,
            &[0.1, 0.1, 10.0, 10.0],
            &RidgeConfig {
                lambda: 1e-6,
                fit_intercept: true,
            },
        )
        .unwrap();
        assert!(m_heavy_a.coefficients[0] < m_heavy_b.coefficients[0]);
    }

    #[test]
    fn no_intercept_passes_through_origin() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = vec![2.0, 4.0];
        let m = ridge_fit(
            &x,
            &y,
            &ones(2),
            &RidgeConfig {
                lambda: 1e-9,
                fit_intercept: false,
            },
        )
        .unwrap();
        assert_eq!(m.intercept, 0.0);
        assert!((m.coefficients[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn handles_duplicate_columns_via_regularization() {
        // Columns are identical -> singular Gram matrix without the ridge term.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let y = vec![2.0, 4.0, 6.0];
        let m = ridge_fit(
            &x,
            &y,
            &ones(3),
            &RidgeConfig {
                lambda: 0.1,
                fit_intercept: true,
            },
        )
        .unwrap();
        // The two coefficients should split the slope symmetrically.
        assert!((m.coefficients[0] - m.coefficients[1]).abs() < 1e-8);
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let x = Matrix::zeros(3, 2);
        assert!(ridge_fit(&x, &[1.0], &ones(3), &RidgeConfig::default()).is_err());
        assert!(ridge_fit(&x, &[1.0, 2.0, 3.0], &[1.0], &RidgeConfig::default()).is_err());
    }

    #[test]
    fn rejects_all_zero_weights() {
        let x = Matrix::zeros(2, 1);
        assert!(ridge_fit(&x, &[0.0, 0.0], &[0.0, 0.0], &RidgeConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "one feature per coefficient")]
    fn predict_rejects_a_short_feature_vector() {
        let m = RidgeModel {
            intercept: 1.0,
            coefficients: vec![2.0, -1.0],
        };
        m.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "one feature per coefficient")]
    fn predict_rejects_a_long_feature_vector() {
        let m = RidgeModel {
            intercept: 1.0,
            coefficients: vec![2.0],
        };
        m.predict(&[1.0, 3.0]);
    }
}
