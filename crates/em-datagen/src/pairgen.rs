//! Labeled-pair construction: matching variants and hard non-matches.

use em_entity::{EmDataset, Entity, EntityPair, LabeledPair};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::corruption::{make_dirty, make_variant, NoiseConfig};
use crate::domains::Domain;

/// Configuration for [`PairGenerator`].
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Total records to generate.
    pub size: usize,
    /// Fraction of records labeled match, in `[0, 1]`.
    pub match_fraction: f64,
    /// Noise for the second description of matching pairs.
    pub noise: NoiseConfig,
    /// Probability of attribute-value misplacement; 0 disables the Dirty
    /// transform.
    pub dirty_move_prob: f64,
    /// Fraction of non-matching pairs built as *hard negatives*: the right
    /// entity is a different latent entity but keeps a couple of attribute
    /// values in common with the left (same style / genre / brand).
    pub hard_negative_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            size: 1000,
            match_fraction: 0.15,
            noise: NoiseConfig::default(),
            dirty_move_prob: 0.0,
            hard_negative_fraction: 0.3,
            seed: 42,
        }
    }
}

/// Generates labeled EM datasets for one domain.
#[derive(Debug, Clone, Copy)]
pub struct PairGenerator {
    domain: Domain,
    config: GeneratorConfig,
}

impl PairGenerator {
    /// Creates a generator.
    pub fn new(domain: Domain, config: GeneratorConfig) -> Self {
        PairGenerator { domain, config }
    }

    /// Generates the dataset with the given display name.
    pub fn generate(&self, name: &str) -> EmDataset {
        let schema = self.domain.schema();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_match = (self.config.size as f64 * self.config.match_fraction).round() as usize;
        let n_match = n_match.min(self.config.size);
        let n_non = self.config.size - n_match;

        let mut records = Vec::with_capacity(self.config.size);
        for _ in 0..n_match {
            let latent = self.domain.generate_entity(&mut rng);
            let variant = make_variant(&latent, &schema, &self.config.noise, &mut rng);
            records.push(LabeledPair::new(
                self.finish_pair(latent, variant, &mut rng),
                true,
            ));
        }
        for _ in 0..n_non {
            let left = self.domain.generate_entity(&mut rng);
            let right = if rng.gen_bool(self.config.hard_negative_fraction) {
                self.hard_negative(&left, &mut rng)
            } else {
                self.distinct_entity(&left, &mut rng)
            };
            records.push(LabeledPair::new(
                self.finish_pair(left, right, &mut rng),
                false,
            ));
        }

        // Interleave classes deterministically so prefixes of the dataset
        // are themselves roughly representative.
        let mut rng2 = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        use rand::seq::SliceRandom;
        records.shuffle(&mut rng2);
        EmDataset::new(name, schema, records)
    }

    /// A different latent entity (regenerates on accidental collision).
    fn distinct_entity(&self, other: &Entity, rng: &mut StdRng) -> Entity {
        for _ in 0..16 {
            let e = self.domain.generate_entity(rng);
            if e != *other {
                return e;
            }
        }
        // Vocabulary is large enough that this is unreachable in practice.
        self.domain.generate_entity(rng)
    }

    /// A hard negative: a fresh entity that copies 1-2 attribute values
    /// from `left`, so the pair shares tokens without being a match.
    fn hard_negative(&self, left: &Entity, rng: &mut StdRng) -> Entity {
        let mut right = self.distinct_entity(left, rng);
        let n = left.len();
        if n >= 2 {
            let n_copy = rng.gen_range(1..=2usize.min(n - 1));
            for _ in 0..n_copy {
                let idx = rng.gen_range(0..n);
                right.set_value(idx, left.value(idx).to_string());
            }
        }
        right
    }

    /// Applies the dirty transform (if configured) to both sides.
    fn finish_pair(&self, left: Entity, right: Entity, rng: &mut StdRng) -> EntityPair {
        let schema = self.domain.schema();
        if self.config.dirty_move_prob > 0.0 {
            EntityPair::new(
                make_dirty(&left, &schema, self.config.dirty_move_prob, rng),
                make_dirty(&right, &schema, self.config.dirty_move_prob, rng),
            )
        } else {
            EntityPair::new(left, right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DomainKind;

    fn generator(size: usize, match_fraction: f64) -> PairGenerator {
        PairGenerator::new(
            Domain::new(DomainKind::ProductWalmart),
            GeneratorConfig {
                size,
                match_fraction,
                ..Default::default()
            },
        )
    }

    #[test]
    fn generates_requested_size_and_balance() {
        let d = generator(200, 0.15).generate("t");
        assert_eq!(d.len(), 200);
        assert_eq!(d.match_count(), 30);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generator(100, 0.2).generate("a");
        let b = generator(100, 0.2).generate("b");
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn different_seeds_give_different_data() {
        let g1 = PairGenerator::new(
            Domain::new(DomainKind::Beer),
            GeneratorConfig {
                size: 50,
                seed: 1,
                ..Default::default()
            },
        );
        let g2 = PairGenerator::new(
            Domain::new(DomainKind::Beer),
            GeneratorConfig {
                size: 50,
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(g1.generate("x").records(), g2.generate("x").records());
    }

    #[test]
    fn matching_pairs_share_more_tokens_than_non_matching() {
        let d = generator(400, 0.25).generate("t");
        let overlap = |p: &EntityPair| -> f64 {
            use std::collections::BTreeSet;
            let a: BTreeSet<&str> = p.left.values().flat_map(str::split_whitespace).collect();
            let b: BTreeSet<&str> = p.right.values().flat_map(str::split_whitespace).collect();
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            a.intersection(&b).count() as f64 / a.union(&b).count() as f64
        };
        let mean = |label: bool| -> f64 {
            let v: Vec<f64> = d
                .records()
                .iter()
                .filter(|r| r.label == label)
                .map(|r| overlap(&r.pair))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let m = mean(true);
        let n = mean(false);
        assert!(m > n + 0.2, "match overlap {m} vs non-match {n}");
    }

    #[test]
    fn hard_negatives_share_some_tokens() {
        let cfg = GeneratorConfig {
            size: 300,
            match_fraction: 0.0,
            hard_negative_fraction: 1.0,
            ..Default::default()
        };
        let d = PairGenerator::new(Domain::new(DomainKind::Music), cfg).generate("hard");
        let mut any_shared = 0;
        for r in d.records() {
            use std::collections::BTreeSet;
            let a: BTreeSet<&str> = r
                .pair
                .left
                .values()
                .flat_map(str::split_whitespace)
                .collect();
            let b: BTreeSet<&str> = r
                .pair
                .right
                .values()
                .flat_map(str::split_whitespace)
                .collect();
            if a.intersection(&b).count() > 0 {
                any_shared += 1;
            }
        }
        assert!(any_shared as f64 / d.len() as f64 > 0.9);
    }

    #[test]
    fn dirty_config_produces_misplaced_values() {
        let cfg = GeneratorConfig {
            size: 100,
            dirty_move_prob: 0.5,
            ..Default::default()
        };
        let dirty = PairGenerator::new(Domain::new(DomainKind::Music), cfg).generate("d");
        // At least one record should have an empty attribute whose value
        // moved elsewhere.
        let has_empty = dirty.records().iter().any(|r| {
            r.pair.left.values().any(str::is_empty) || r.pair.right.values().any(str::is_empty)
        });
        assert!(has_empty);
    }

    #[test]
    fn zero_match_fraction_yields_no_matches() {
        let d = generator(50, 0.0).generate("t");
        assert_eq!(d.match_count(), 0);
    }

    #[test]
    fn full_match_fraction_yields_all_matches() {
        let d = generator(50, 1.0).generate("t");
        assert_eq!(d.match_count(), 50);
    }
}
