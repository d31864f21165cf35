//! Proximity kernels for weighting perturbation samples.
//!
//! LIME weights every perturbation sample by its similarity to the original
//! record, using `exp(-D(x, z)² / σ²)`. For token data, `D` is the cosine
//! distance between the binary presence vectors; for tabular data it is the
//! euclidean distance.

/// A sample-weighting kernel: maps a distance to a non-negative weight.
pub type KernelFn = fn(f64, f64) -> f64;

/// The exponential kernel `exp(-d² / width²)` used by LIME.
#[inline]
pub fn exponential_kernel(distance: f64, width: f64) -> f64 {
    (-(distance * distance) / (width * width)).exp()
}

/// Cosine distance between two vectors: `1 − cos(a, b)`.
///
/// Returns `1.0` when either vector is all-zero (maximally distant), which is
/// the convention LIME relies on for the empty perturbation.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    let c = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
    1.0 - c
}

/// Cosine distance between a 0/1 vector with `ones` set entries out of
/// `len` and the all-ones vector of that length.
///
/// A binary perturbation mask's distance to the unperturbed record depends
/// only on how many features it keeps, so a surrogate fit can evaluate the
/// kernel once per popcount instead of once per mask. For `ones < len` the
/// result equals [`cosine_distance`] of the two vectors bit for bit: their
/// dot product and squared norms are sums of `0.0`s and `1.0`s, which are
/// exact, so both compute `1 − k / (√k·√len)` from the same operands. For
/// `ones == len` it is exactly `0.0`, the true distance, where the general
/// formula can round `len / (√len·√len)` below 1 and leave about 1e-16.
pub fn cosine_distance_to_ones(ones: usize, len: usize) -> f64 {
    debug_assert!(ones <= len);
    if ones == 0 {
        return 1.0;
    }
    if ones == len {
        return 0.0;
    }
    let (k, d) = (ones as f64, len as f64);
    let c = (k / (k.sqrt() * d.sqrt())).clamp(-1.0, 1.0);
    1.0 - c
}

/// Euclidean distance between two vectors.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Default width of the text kernel: `0.25`.
///
/// LIME's text explainer scales cosine distances to `[0, 100]` and uses a
/// width of 25. This crate keeps cosine distances in `[0, 1]`, so the same
/// distance-to-width ratio needs a width of `25 / 100 = 0.25`. The width is
/// fixed; it does not grow with the number of features.
pub const DEFAULT_TEXT_KERNEL_WIDTH: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_kernel_is_one_at_zero_distance() {
        assert_eq!(exponential_kernel(0.0, 0.25), 1.0);
    }

    #[test]
    fn exponential_kernel_decreases_with_distance() {
        let w = 0.25;
        let k1 = exponential_kernel(0.1, w);
        let k2 = exponential_kernel(0.5, w);
        let k3 = exponential_kernel(1.0, w);
        assert!(k1 > k2 && k2 > k3);
        assert!(k3 > 0.0);
    }

    #[test]
    fn wider_kernel_gives_larger_weights() {
        assert!(exponential_kernel(0.5, 1.0) > exponential_kernel(0.5, 0.25));
    }

    #[test]
    fn cosine_distance_identical_vectors_is_zero() {
        let a = [1.0, 1.0, 0.0, 1.0];
        assert!(cosine_distance(&a, &a) < 1e-12);
    }

    #[test]
    fn cosine_distance_orthogonal_vectors_is_one() {
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_zero_vector_is_maximal() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(cosine_distance(&[1.0, 1.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn cosine_distance_partial_overlap_is_between() {
        let d = cosine_distance(&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0, 0.0, 0.0]);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn distance_to_ones_matches_the_general_formula_below_full_popcount() {
        for len in 1..=64usize {
            let ones_vec = vec![1.0; len];
            for ones in 0..len {
                let mut v = vec![0.0; len];
                v[..ones].fill(1.0);
                assert_eq!(
                    cosine_distance_to_ones(ones, len).to_bits(),
                    cosine_distance(&v, &ones_vec).to_bits(),
                    "{ones} of {len}"
                );
            }
        }
    }

    #[test]
    fn distance_of_the_all_ones_vector_to_itself_is_exactly_zero() {
        // √d·√d rounds above d for d = 2, 5, 7, …, where the general
        // formula leaves a distance of about 1e-16.
        let general = cosine_distance(&[1.0; 5], &[1.0; 5]);
        assert!(general > 0.0 && general < 1e-15, "{general}");
        for len in 1..=64 {
            assert_eq!(cosine_distance_to_ones(len, len), 0.0);
        }
        assert_eq!(cosine_distance_to_ones(0, 0), 1.0);
    }

    #[test]
    fn euclidean_distance_matches_manual() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
