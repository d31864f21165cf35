//! Property-based tests for the numerical substrate.

use landmark_explanation::linalg::ridge::ridge_fit;
use landmark_explanation::linalg::{Cholesky, Matrix};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-5.0f64..5.0).prop_map(|v| (v * 100.0).round() / 100.0)
}

/// A random SPD matrix: A = B Bᵀ + εI.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(small_f64(), n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).expect("n × n values");
        let mut a = b.matmul(&b.transpose()).expect("square factors");
        for i in 0..n {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        a
    })
}

proptest! {
    #[test]
    fn cholesky_solves_spd_systems(a in spd(4), x in prop::collection::vec(small_f64(), 4)) {
        let b = a.matvec(&x).unwrap();
        let ch = Cholesky::decompose(&a).expect("SPD");
        let solved = ch.solve(&b).unwrap();
        for (s, t) in solved.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-6, "{solved:?} vs {x:?}");
        }
    }

    #[test]
    fn cholesky_reconstruction_matches(a in spd(3)) {
        let ch = Cholesky::decompose(&a).expect("SPD");
        let r = ch.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((a.get(i, j) - r.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn ridge_solution_minimizes_the_objective(
        rows in prop::collection::vec(prop::collection::vec(small_f64(), 3), 6..12),
        noise in prop::collection::vec(-0.1f64..0.1, 12),
    ) {
        let n = rows.len();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] - 0.5 * r[1] + noise[i % noise.len()])
            .collect();
        let w = vec![1.0; n];
        let lambda = 0.5;
        let fit = ridge_fit(&x, &y, &w, lambda).unwrap();

        let objective = |coefs: &[f64], intercept: f64| -> f64 {
            let mut loss = 0.0;
            for (r, &yi) in rows.iter().zip(&y) {
                let pred: f64 = intercept + r.iter().zip(coefs).map(|(a, b)| a * b).sum::<f64>();
                loss += (yi - pred) * (yi - pred);
            }
            loss + lambda * coefs.iter().map(|c| c * c).sum::<f64>()
        };

        let base = objective(&fit.coefficients, fit.intercept);
        // Perturbing any coefficient must not decrease the objective.
        for k in 0..3 {
            for delta in [-0.01, 0.01] {
                let mut c = fit.coefficients.clone();
                c[k] += delta;
                prop_assert!(objective(&c, fit.intercept) >= base - 1e-9);
            }
        }
        prop_assert!(objective(&fit.coefficients, fit.intercept + 0.01) >= base - 1e-9);
        prop_assert!(objective(&fit.coefficients, fit.intercept - 0.01) >= base - 1e-9);
    }

    #[test]
    fn ridge_prediction_is_linear(
        rows in prop::collection::vec(prop::collection::vec(small_f64(), 2), 5..8),
    ) {
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + r[1]).collect();
        let w = vec![1.0; rows.len()];
        let fit = ridge_fit(&x, &y, &w, 1.0).unwrap();
        // predict(a) + predict(b) - intercept == predict(a + b)
        let a = [1.0, 2.0];
        let b = [0.5, -1.0];
        let sum = [1.5, 1.0];
        let lhs = fit.predict(&a) + fit.predict(&b) - fit.intercept;
        prop_assert!((lhs - fit.predict(&sum)).abs() < 1e-9);
    }
}
