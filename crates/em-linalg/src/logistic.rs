//! L2-regularized logistic regression.
//!
//! This is the entity-matching model the paper explains (Section 4.1: the EM
//! model is a Logistic Regression Classifier). It is trained with full-batch
//! gradient descent with backtracking step-size halving, which is robust and
//! plenty fast at the feature counts we use (one feature per attribute).

use crate::{LinalgError, Matrix, Result};

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Maximum gradient-descent iterations.
const MAX_ITER: usize = 2000;
/// Convergence threshold on the gradient's infinity norm.
const TOL: f64 = 1e-6;
/// Initial learning rate (adapted by backtracking).
const LEARNING_RATE: f64 = 1.0;

/// Per-class weights `(weight_negative, weight_positive)` balanced for
/// `labels`: `w_c = n / (2 * n_c)`, as scikit-learn's
/// `class_weight="balanced"` does, and `(1, 1)` when a class is absent.
///
/// EM datasets are heavily imbalanced (typically 10-25% matches, see
/// Table 1 of the paper); weighting the positive class keeps the model
/// from collapsing to the majority class.
fn balanced_weights(labels: &[bool]) -> (f64, f64) {
    let n = labels.len() as f64;
    let pos = labels.iter().filter(|&&l| l).count() as f64;
    let neg = n - pos;
    if pos > 0.0 && neg > 0.0 {
        (n / (2.0 * neg), n / (2.0 * pos))
    } else {
        (1.0, 1.0)
    }
}

/// A fitted logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    /// Intercept.
    pub intercept: f64,
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
    /// Iterations used by the optimizer.
    pub iterations: usize,
}

impl LogisticModel {
    /// Fits the model on design matrix `x` and boolean labels `y`, with
    /// L2 penalty `lambda` on the coefficients (the intercept is not
    /// penalized) and the two classes weighed as balanced.
    pub fn fit(x: &Matrix, y: &[bool], lambda: f64) -> Result<LogisticModel> {
        let n = x.rows();
        let d = x.cols();
        if n == 0 || d == 0 {
            return Err(LinalgError::EmptyInput);
        }
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "LogisticModel::fit(y)",
                expected: n,
                actual: y.len(),
            });
        }

        let (weight_negative, weight_positive) = balanced_weights(y);
        let sample_w: Vec<f64> = y
            .iter()
            .map(|&l| if l { weight_positive } else { weight_negative })
            .collect();
        let wsum: f64 = sample_w.iter().sum();

        let mut beta = vec![0.0; d];
        let mut intercept = 0.0;
        let mut lr = LEARNING_RATE;
        let mut iterations = 0;

        let loss = |b: &[f64], b0: f64| -> f64 {
            let mut l = 0.0;
            for i in 0..n {
                let z = b0 + crate::matrix::dot(x.row(i), b);
                let p = sigmoid(z);
                let t = if y[i] { p } else { 1.0 - p };
                l -= sample_w[i] * t.max(1e-300).ln();
            }
            l / wsum + 0.5 * lambda * crate::matrix::norm_sq(b)
        };

        let mut current_loss = loss(&beta, intercept);
        for it in 0..MAX_ITER {
            iterations = it + 1;
            // Gradient.
            let mut grad = vec![0.0; d];
            let mut grad0 = 0.0;
            for i in 0..n {
                let z = intercept + crate::matrix::dot(x.row(i), &beta);
                let p = sigmoid(z);
                let err = sample_w[i] * (p - if y[i] { 1.0 } else { 0.0 });
                grad0 += err;
                for (g, &xv) in grad.iter_mut().zip(x.row(i)) {
                    *g += err * xv;
                }
            }
            grad0 /= wsum;
            for (g, b) in grad.iter_mut().zip(&beta) {
                *g = *g / wsum + lambda * b;
            }

            let gmax = grad
                .iter()
                .chain(std::iter::once(&grad0))
                .fold(0.0f64, |m, g| m.max(g.abs()));
            if gmax < TOL {
                break;
            }

            // Backtracking line search on the full-batch loss.
            loop {
                let cand_beta: Vec<f64> = beta.iter().zip(&grad).map(|(b, g)| b - lr * g).collect();
                let cand_intercept = intercept - lr * grad0;
                let cand_loss = loss(&cand_beta, cand_intercept);
                if cand_loss <= current_loss || lr < 1e-12 {
                    beta = cand_beta;
                    intercept = cand_intercept;
                    current_loss = cand_loss;
                    // Gentle growth so the step size can recover.
                    lr *= 1.1;
                    break;
                }
                lr *= 0.5;
            }
        }
        Ok(LogisticModel {
            intercept,
            coefficients: beta,
            iterations,
        })
    }

    /// Probability of the positive class for a single feature vector.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.intercept + crate::matrix::dot(x, &self.coefficients))
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(1000.0) > 0.999_999);
        assert!(sigmoid(-1000.0) < 1e-6);
        let z = 1.7;
        assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn learns_linearly_separable_data() {
        // y = x0 > 0.5
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<bool> = rows.iter().map(|r| r[0] > 0.5).collect();
        let m = LogisticModel::fit(&x, &y, 1e-3).unwrap();
        assert!(m.coefficients[0] > 0.0);
        assert!(m.predict(&[0.9]));
        assert!(!m.predict(&[0.1]));
    }

    #[test]
    fn probabilities_are_monotone_in_positive_feature() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<bool> = rows.iter().map(|r| r[0] > 0.4).collect();
        let m = LogisticModel::fit(&x, &y, 1e-3).unwrap();
        let p1 = m.predict_proba(&[0.2]);
        let p2 = m.predict_proba(&[0.6]);
        let p3 = m.predict_proba(&[0.95]);
        assert!(p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    }

    #[test]
    fn balanced_weights_computes_expected_weights() {
        let (negative, positive) = balanced_weights(&[true, false, false, false]);
        assert!((negative - 4.0 / 6.0).abs() < 1e-12);
        assert!((positive - 4.0 / 2.0).abs() < 1e-12);
        assert_eq!(balanced_weights(&[false, false]), (1.0, 1.0));
    }

    #[test]
    fn regularization_shrinks_coefficients() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let weak = LogisticModel::fit(&x, &y, 1e-6).unwrap();
        let strong = LogisticModel::fit(&x, &y, 10.0).unwrap();
        assert!(strong.coefficients[0].abs() < weak.coefficients[0].abs());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(LogisticModel::fit(&Matrix::zeros(0, 0), &[], 1e-3).is_err());
        let x = Matrix::zeros(2, 1);
        assert!(LogisticModel::fit(&x, &[true], 1e-3).is_err());
    }

    #[test]
    fn two_feature_signs_are_recovered() {
        // y = (x0 - x1) > 0
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let a = i as f64 / 10.0;
                let b = j as f64 / 10.0;
                rows.push(vec![a, b]);
                labels.push(a - b > 0.0);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let m = LogisticModel::fit(&x, &labels, 1e-3).unwrap();
        assert!(m.coefficients[0] > 0.0);
        assert!(m.coefficients[1] < 0.0);
    }
}
