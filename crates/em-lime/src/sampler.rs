//! Perturbation-mask sampling — LIME's neighborhood generation.
//!
//! LIME's text explainer represents a record as a binary vector over its
//! tokens and samples neighbors by deactivating a uniformly-sized random
//! subset: draw `k ~ U[1, d]`, then choose `k` distinct positions to turn
//! off. The first sample is always the unperturbed record (all ones).

use em_entity::Masks;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Draws `n_samples` masks of width `n_features` into one buffer, from an
/// RNG seeded with `seed`.
///
/// The first mask is all-true (the original record); each subsequent
/// mask deactivates a uniformly-sized random subset of the features.
/// With `n_features == 0` every mask is empty (and no randomness is
/// drawn). Each mask costs one `gen_range` and one full shuffle of the
/// running position permutation, so the RNG stream — and therefore
/// every mask — depends only on the seed and the shape.
pub fn sample_masks(n_features: usize, n_samples: usize, seed: u64) -> Masks {
    let mut masks = Masks::all_true(n_samples, n_features);
    if n_features == 0 {
        return masks;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions: Vec<usize> = (0..n_features).collect();
    for r in 1..n_samples {
        let k = rng.gen_range(1..=n_features);
        positions.shuffle(&mut rng);
        let mask = masks.row_mut(r);
        for &p in &positions[..k] {
            mask[p] = false;
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_mask_is_all_true() {
        let masks = sample_masks(5, 10, 0);
        assert_eq!(masks.row(0), [true; 5]);
    }

    #[test]
    fn produces_requested_count_and_width() {
        let masks = sample_masks(7, 100, 1);
        assert_eq!(masks.len(), 100);
        assert_eq!(masks.width(), 7);
        assert!(masks.iter().all(|m| m.len() == 7));
    }

    #[test]
    fn every_non_first_mask_deactivates_at_least_one() {
        let masks = sample_masks(6, 200, 2);
        for m in masks.iter().skip(1) {
            assert!(m.iter().any(|&b| !b), "{m:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(sample_masks(5, 50, 42), sample_masks(5, 50, 42));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(sample_masks(8, 50, 1), sample_masks(8, 50, 2));
    }

    #[test]
    fn zero_features_yields_empty_masks() {
        let masks = sample_masks(0, 5, 0);
        assert_eq!(masks.len(), 5);
        assert!(masks.iter().all(|m| m.is_empty()));
    }

    #[test]
    fn zero_samples_yields_nothing() {
        assert!(sample_masks(4, 0, 0).is_empty());
    }

    #[test]
    fn deactivation_sizes_cover_the_range() {
        // With many samples we should see both light and heavy perturbations.
        let masks = sample_masks(10, 500, 3);
        let sizes: Vec<usize> = masks
            .iter()
            .skip(1)
            .map(|m| m.iter().filter(|&&b| !b).count())
            .collect();
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&10));
    }

    #[test]
    fn single_feature_masks_alternate_fully() {
        let masks = sample_masks(1, 10, 4);
        assert_eq!(masks.row(0), [true]);
        for m in masks.iter().skip(1) {
            assert_eq!(m, [false]); // k must be 1
        }
    }

    #[test]
    fn flat_sampler_equals_the_nested_reference() {
        // Every shape from empty to wide, several seeds each: same RNG
        // draws, same masks, same order.
        for n_features in (0..=12).chain([31, 64, 100]) {
            for n_samples in [0, 1, 2, 7, 64, 500] {
                for seed in [0, 1, 42, u64::MAX] {
                    let flat = sample_masks(n_features, n_samples, seed);
                    let nested = crate::reference::sample_masks(n_features, n_samples, seed);
                    assert_eq!(flat.len(), nested.len());
                    assert_eq!(flat.width(), n_features);
                    assert!(
                        flat.iter().eq(nested.iter().map(Vec::as_slice)),
                        "d = {n_features}, n = {n_samples}, seed = {seed}"
                    );
                }
            }
        }
    }
}
