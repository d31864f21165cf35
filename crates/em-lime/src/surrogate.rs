//! Surrogate-model fitting: from perturbation masks and black-box
//! probabilities to a proximity-weighted linear model.

use em_entity::Masks;
use em_linalg::kernel::{cosine_distance_to_ones, exponential_kernel};
use em_linalg::matrix::dot;
use em_linalg::ridge::ridge_solve_centered;
use em_linalg::Matrix;

/// L2 penalty of the surrogate's ridge fit: LIME's default, 1.
pub const RIDGE_LAMBDA: f64 = 1.0;

/// A fitted surrogate: linear coefficients over the interpretable features.
#[derive(Debug, Clone)]
pub struct SurrogateFit {
    /// Intercept.
    pub intercept: f64,
    /// One coefficient per interpretable feature.
    pub coefficients: Vec<f64>,
    /// Weighted R² on the perturbation dataset.
    pub r2: f64,
}

impl SurrogateFit {
    /// Surrogate prediction for a mask.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the number of coefficients — a
    /// real assert, because `zip` would otherwise silently drop the
    /// trailing coefficients (or mask bits) in release builds.
    pub fn predict(&self, mask: &[bool]) -> f64 {
        assert_eq!(
            mask.len(),
            self.coefficients.len(),
            "one mask bit per coefficient"
        );
        self.intercept
            + mask
                .iter()
                .zip(&self.coefficients)
                .filter(|(&m, _)| m)
                .map(|(_, c)| c)
                .sum::<f64>()
    }
}

/// Fits the surrogate model.
///
/// * `masks` — binary neighborhood samples (first is conventionally the
///   unperturbed record);
/// * `probs` — black-box match probability for each reconstructed sample;
/// * `kernel_width` — the proximity kernel's width.
///
/// Samples are weighted by `exp(-cosineDist(mask, 1⃗)² / width²)`, exactly
/// LIME's text kernel. The fit works on the mask bits directly (DESIGN.md
/// §11): a mask's distance to `1⃗` depends only on its popcount, so the
/// kernel runs once per distinct popcount; the centered design is written
/// straight from the bits into one buffer; and one Gram matrix is built
/// and factored in place.
///
/// # Panics
/// Panics if `masks.len() != probs.len()`, if no samples are given, or if
/// every sample weight is zero (impossible for sampled neighborhoods,
/// whose first mask keeps every feature and weighs exactly 1 at any width
/// of at least `1e-6`, see [`ExplainConfig::kernel_width`]).
///
/// [`ExplainConfig::kernel_width`]: crate::ExplainConfig::kernel_width
pub fn fit_surrogate(masks: &Masks, probs: &[f64], kernel_width: f64) -> SurrogateFit {
    assert_eq!(masks.len(), probs.len(), "one probability per mask");
    assert!(!masks.is_empty(), "need at least one sample");
    if masks.width() == 0 {
        // No features: the surrogate is just the weighted mean.
        let mean = probs.iter().sum::<f64>() / probs.len() as f64;
        return SurrogateFit {
            intercept: mean,
            coefficients: vec![],
            r2: 1.0,
        };
    }

    let weights = proximity_weights(masks, kernel_width);
    let (intercept, coefficients) = fit_ridge(masks, probs, &weights);
    let r2 = weighted_r2(masks, probs, &weights, intercept, &coefficients);
    SurrogateFit {
        intercept,
        coefficients,
        r2,
    }
}

/// Each mask's kernel weight, evaluated once per distinct popcount.
fn proximity_weights(masks: &Masks, width: f64) -> Vec<f64> {
    let d = masks.width();
    let mut by_popcount: Vec<Option<f64>> = vec![None; d + 1];
    masks
        .iter()
        .map(|mask| {
            let kept = mask.iter().map(|&b| usize::from(b)).sum::<usize>();
            *by_popcount[kept]
                .get_or_insert_with(|| exponential_kernel(cosine_distance_to_ones(kept, d), width))
        })
        .collect()
}

/// Weighted ridge with penalty [`RIDGE_LAMBDA`] and an unpenalized
/// intercept, centered from the bits.
///
/// The same operations as centering a 0/1 design and calling
/// [`em_linalg::ridge_fit`]: in-order weighted sums for the means, then
/// every centered entry is `1.0 − mean` or `0.0 − mean` of its column, so
/// both are computed once per column and each row selects between them.
fn fit_ridge(masks: &Masks, probs: &[f64], weights: &[f64]) -> (f64, Vec<f64>) {
    let (n, d) = (masks.len(), masks.width());
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        panic!("ridge surrogate fit: every sample weight is zero");
    }
    let mut x_mean = vec![0.0; d];
    let mut y_mean = 0.0;
    for ((mask, &w), &y) in masks.iter().zip(weights).zip(probs) {
        y_mean += w * y;
        for (m, &b) in x_mean.iter_mut().zip(mask) {
            *m += w * f64::from(u8::from(b));
        }
    }
    for m in x_mean.iter_mut() {
        *m /= wsum;
    }
    let y_mean = y_mean / wsum;

    let centered: Vec<[f64; 2]> = x_mean.iter().map(|m| [0.0 - m, 1.0 - m]).collect();
    let mut xc = Vec::with_capacity(n * d);
    for mask in masks.iter() {
        xc.extend(mask.iter().zip(&centered).map(|(&b, c)| c[usize::from(b)]));
    }
    let xc = Matrix::from_vec(n, d, xc).expect("one value per mask bit");
    let yc: Vec<f64> = probs.iter().map(|y| y - y_mean).collect();

    let coefficients =
        ridge_solve_centered(&xc, &yc, weights, RIDGE_LAMBDA).expect("ridge surrogate fit");
    let intercept = y_mean - dot(&x_mean, &coefficients);
    (intercept, coefficients)
}

/// Weighted R² of the surrogate on its own neighborhood, reading each
/// mask bit as `0.0` or `1.0` (multiplying rather than skipping keeps the
/// loop free of branches on random bits).
fn weighted_r2(
    masks: &Masks,
    probs: &[f64],
    weights: &[f64],
    intercept: f64,
    coefficients: &[f64],
) -> f64 {
    let wsum: f64 = weights.iter().sum();
    let y_mean: f64 = probs.iter().zip(weights).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for ((mask, &y), &w) in masks.iter().zip(probs).zip(weights) {
        let pred = intercept
            + mask
                .iter()
                .zip(coefficients)
                .map(|(&b, c)| f64::from(u8::from(b)) * c)
                .sum::<f64>();
        ss_res += w * (y - pred) * (y - pred);
        ss_tot += w * (y - y_mean) * (y - y_mean);
    }
    if ss_tot <= 1e-15 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sampler::sample_masks;
    use em_linalg::kernel::DEFAULT_TEXT_KERNEL_WIDTH;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The width floor of [`crate::ExplainConfig::kernel_width`].
    const NARROWEST_WIDTH: f64 = 1e-6;

    /// Black box: probability = 0.1 + 0.5·[token0 on] + 0.3·[token2 on].
    fn synthetic_probs(masks: &Masks) -> Vec<f64> {
        masks
            .iter()
            .map(|m| 0.1 + if m[0] { 0.5 } else { 0.0 } + if m[2] { 0.3 } else { 0.0 })
            .collect()
    }

    #[test]
    fn recovers_additive_structure_with_ridge() {
        let masks = sample_masks(4, 400, 0);
        let probs = synthetic_probs(&masks);
        let fit = fit_surrogate(&masks, &probs, DEFAULT_TEXT_KERNEL_WIDTH);
        assert!(
            (fit.coefficients[0] - 0.5).abs() < 0.05,
            "{:?}",
            fit.coefficients
        );
        assert!(fit.coefficients[1].abs() < 0.05);
        assert!((fit.coefficients[2] - 0.3).abs() < 0.05);
        assert!(fit.coefficients[3].abs() < 0.05);
        assert!(fit.r2 > 0.95, "r2 = {}", fit.r2);
    }

    #[test]
    fn predict_sums_active_coefficients() {
        let fit = SurrogateFit {
            intercept: 0.1,
            coefficients: vec![0.5, -0.2, 0.3],
            r2: 1.0,
        };
        assert!((fit.predict(&[true, false, true]) - 0.9).abs() < 1e-12);
        assert!((fit.predict(&[false, true, false]) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn constant_black_box_gives_zero_coefficients() {
        let masks = sample_masks(3, 100, 3);
        let probs = vec![0.7; masks.len()];
        let fit = fit_surrogate(&masks, &probs, DEFAULT_TEXT_KERNEL_WIDTH);
        for c in &fit.coefficients {
            assert!(c.abs() < 1e-6, "{c}");
        }
        assert!((fit.intercept - 0.7).abs() < 1e-6);
    }

    #[test]
    fn zero_feature_record_reduces_to_mean() {
        let masks = Masks::all_true(3, 0);
        let probs = vec![0.2, 0.4, 0.6];
        let fit = fit_surrogate(&masks, &probs, DEFAULT_TEXT_KERNEL_WIDTH);
        assert!((fit.intercept - 0.4).abs() < 1e-12);
        assert!(fit.coefficients.is_empty());
    }

    #[test]
    #[should_panic(expected = "one probability per mask")]
    fn mismatched_lengths_panic() {
        fit_surrogate(
            &Masks::all_true(1, 1),
            &[0.1, 0.2],
            DEFAULT_TEXT_KERNEL_WIDTH,
        );
    }

    #[test]
    fn narrower_kernel_focuses_on_light_perturbations() {
        // A black box that is linear for light perturbations but saturates
        // when most tokens are gone: a narrow kernel should fit the local
        // (linear) region better.
        let masks = sample_masks(8, 500, 4);
        let probs: Vec<f64> = masks
            .iter()
            .map(|m| {
                let on = m.iter().filter(|&&b| b).count() as f64;
                if on >= 6.0 {
                    0.1 * on
                } else {
                    0.0
                }
            })
            .collect();
        let narrow = fit_surrogate(&masks, &probs, 0.1);
        let wide = fit_surrogate(&masks, &probs, 5.0);
        // The narrow kernel concentrates its weight on light perturbations
        // (≥ 6 tokens on), so its surrogate must predict that local linear
        // region far better than the wide kernel's global compromise fit.
        let local_mae = |fit: &SurrogateFit| -> f64 {
            let local: Vec<(&[bool], f64)> = masks
                .iter()
                .zip(&probs)
                .filter(|(m, _)| m.iter().filter(|&&b| b).count() >= 6)
                .map(|(m, &p)| (m, p))
                .collect();
            local
                .iter()
                .map(|(m, p)| (fit.predict(m) - p).abs())
                .sum::<f64>()
                / local.len() as f64
        };
        assert!(local_mae(&narrow) < local_mae(&wide));
        // And its per-token coefficients still carry the local slope's sign.
        assert!(narrow.coefficients.iter().sum::<f64>() > 0.0);
    }
    #[test]
    #[should_panic(expected = "one mask bit per coefficient")]
    fn predict_rejects_a_short_mask() {
        let fit = SurrogateFit {
            intercept: 0.1,
            coefficients: vec![0.5, -0.2, 0.3],
            r2: 1.0,
        };
        fit.predict(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "one mask bit per coefficient")]
    fn predict_rejects_a_long_mask() {
        let fit = SurrogateFit {
            intercept: 0.1,
            coefficients: vec![0.5],
            r2: 1.0,
        };
        fit.predict(&[true, true]);
    }

    /// Bit-level equality of two fits, with the case in the message.
    fn assert_same_fit(fused: &SurrogateFit, unfused: &SurrogateFit, case: &str) {
        assert_eq!(
            fused.intercept.to_bits(),
            unfused.intercept.to_bits(),
            "intercept, {case}"
        );
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fused.coefficients),
            bits(&unfused.coefficients),
            "coefficients, {case}"
        );
        assert_eq!(fused.r2.to_bits(), unfused.r2.to_bits(), "r2, {case}");
    }

    /// One random fit case: masks from the sampler or independent coin
    /// flips (first row all ones either way, as every explainer's is),
    /// probabilities that are constant, additive or noisy, and a kernel
    /// width from the narrowest floor to far wider than the default.
    fn random_case(rng: &mut StdRng) -> (Masks, Vec<f64>, f64) {
        let d = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..=4),
            1 | 2 => rng.gen_range(0..=24),
            _ => rng.gen_range(0..=64),
        };
        let n = match rng.gen_range(0..3) {
            0 => rng.gen_range(1..=8),
            1 => rng.gen_range(1..=120),
            _ => rng.gen_range(1..=600),
        };
        let masks = if rng.gen_bool(0.5) {
            sample_masks(d, n, rng.next_u64())
        } else {
            let p_keep = rng.gen_range(0.0..1.0);
            let mut m = Masks::all_true(n, d);
            for r in 1..n {
                for bit in m.row_mut(r) {
                    *bit = rng.gen_bool(p_keep);
                }
            }
            m
        };
        let probs: Vec<f64> = match rng.gen_range(0..3) {
            0 => vec![rng.gen_range(0.0..1.0); n],
            1 => {
                let beta: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.3..0.3)).collect();
                masks
                    .iter()
                    .map(|m| {
                        let on: f64 = m
                            .iter()
                            .zip(&beta)
                            .filter(|(&b, _)| b)
                            .map(|(_, c)| c)
                            .sum();
                        0.5 + on.clamp(-0.5, 0.5)
                    })
                    .collect()
            }
            _ => (0..n).map(|_| rng.gen_range(0.0..1.0)).collect(),
        };
        let kernel_width = match rng.gen_range(0..4) {
            // So narrow that every perturbed weight is exactly 0.
            0 => NARROWEST_WIDTH * rng.gen_range(1.0..10.0),
            1 => DEFAULT_TEXT_KERNEL_WIDTH,
            _ => 10f64.powf(rng.gen_range(-6.0..2.0)),
        };
        (masks, probs, kernel_width)
    }

    #[test]
    fn fused_fit_equals_the_unfused_pipeline_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xF17);
        for case in 0..400 {
            let (masks, probs, width) = random_case(&mut rng);
            let nested: Vec<Vec<bool>> = masks.iter().map(<[bool]>::to_vec).collect();
            let label = format!(
                "case {case}: n = {}, d = {}, width = {width:e}",
                masks.len(),
                masks.width()
            );
            assert_same_fit(
                &fit_surrogate(&masks, &probs, width),
                &reference::fit_surrogate(&nested, &probs, width),
                &label,
            );
        }
    }

    #[test]
    fn the_narrowest_width_keeps_only_the_unperturbed_sample() {
        // Every perturbed weight underflows to 0 and the all-ones mask
        // weighs exactly 1: the surrogate is the unperturbed probability.
        for d in [1, 2, 5, 7, 10, 64] {
            let masks = sample_masks(d, 200, d as u64);
            let probs: Vec<f64> = (0..200).map(|i| (i % 7) as f64 / 7.0 + 0.01).collect();
            let fit = fit_surrogate(&masks, &probs, NARROWEST_WIDTH);
            assert_eq!(fit.intercept, probs[0], "d = {d}");
            assert!(fit.coefficients.iter().all(|&c| c == 0.0), "d = {d}");
            assert_eq!(fit.r2, 1.0);
        }
    }

    #[test]
    fn the_unperturbed_mask_weighs_one_even_below_the_floor() {
        // At d = 5, √5·√5 ≠ 5: the general cosine formula puts the
        // all-ones mask ~1e-16 from itself, which a width of 1e-17 turned
        // into a zero weight — and, with every other weight zero too, a
        // panicking fit. Its true distance is 0.
        let masks = sample_masks(5, 50, 3);
        let probs = vec![0.25; 50];
        let fit = fit_surrogate(&masks, &probs, 1e-17);
        assert_eq!(fit.intercept, 0.25);
        assert!(fit.coefficients.iter().all(|&c| c == 0.0));
    }
}
