//! The unfused sampler and surrogate fit, kept as bit-identity oracles.
//!
//! Before [`Masks`](em_entity::Masks), each explanation sampled its
//! neighborhood as one `Vec<bool>` per mask, converted every mask to a
//! `Vec<f64>` row, weighted each row with its own cosine distance and
//! `exp`, copied the rows into a [`Matrix`], and fitted that through
//! [`ridge_fit`]. The functions here are that pipeline, word for word.
//! No explainer calls them: they exist so the property tests can require
//! the flat sampler and the fused [`crate::surrogate::fit_surrogate`] to
//! reproduce them bit for bit, and so the `fit_speedup` bench can time the
//! fused fit against them on the same views.

use em_linalg::kernel::{cosine_distance, exponential_kernel};
use em_linalg::ridge::{ridge_fit, RidgeModel};
use em_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::surrogate::{SurrogateFit, RIDGE_LAMBDA};

/// The nested sampler: one `Vec<bool>` per mask, same RNG draws as
/// [`crate::sampler::sample_masks`].
pub fn sample_masks(n_features: usize, n_samples: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masks = Vec::with_capacity(n_samples);
    if n_samples == 0 {
        return masks;
    }
    masks.push(vec![true; n_features]);
    if n_features == 0 {
        masks.extend(std::iter::repeat_with(Vec::new).take(n_samples - 1));
        return masks;
    }
    let mut positions: Vec<usize> = (0..n_features).collect();
    for _ in 1..n_samples {
        let k = rng.gen_range(1..=n_features);
        positions.shuffle(&mut rng);
        let mut mask = vec![true; n_features];
        for &p in &positions[..k] {
            mask[p] = false;
        }
        masks.push(mask);
    }
    masks
}

/// The row-by-row surrogate fit over nested masks.
///
/// # Panics
/// Panics if `masks.len() != probs.len()`, if no samples are given, if
/// masks are ragged, or if the solver fails (e.g. every weight is zero).
pub fn fit_surrogate(masks: &[Vec<bool>], probs: &[f64], kernel_width: f64) -> SurrogateFit {
    assert_eq!(masks.len(), probs.len(), "one probability per mask");
    assert!(!masks.is_empty(), "need at least one sample");
    let d = masks[0].len();
    assert!(masks.iter().all(|m| m.len() == d), "ragged masks");
    if d == 0 {
        let mean = probs.iter().sum::<f64>() / probs.len() as f64;
        return SurrogateFit {
            intercept: mean,
            coefficients: vec![],
            r2: 1.0,
        };
    }

    let ones = vec![1.0; d];
    let rows: Vec<Vec<f64>> = masks
        .iter()
        .map(|m| m.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
        .collect();
    let weights: Vec<f64> = rows
        .iter()
        .map(|row| exponential_kernel(cosine_distance(row, &ones), kernel_width))
        .collect();
    let x = Matrix::from_rows(&rows).expect("rectangular rows");

    let RidgeModel {
        intercept,
        coefficients,
    } = ridge_fit(&x, probs, &weights, RIDGE_LAMBDA).expect("ridge surrogate fit");

    let wsum: f64 = weights.iter().sum();
    let y_mean: f64 = probs.iter().zip(&weights).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for ((row, &y), &w) in rows.iter().zip(probs).zip(&weights) {
        let pred = intercept
            + row
                .iter()
                .zip(&coefficients)
                .map(|(x, c)| x * c)
                .sum::<f64>();
        ss_res += w * (y - pred) * (y - pred);
        ss_tot += w * (y - y_mean) * (y - y_mean);
    }
    let r2 = if ss_tot <= 1e-15 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    SurrogateFit {
        intercept,
        coefficients,
        r2,
    }
}
