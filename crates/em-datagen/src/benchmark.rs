//! The twelve-dataset registry of the paper's Table 1.

use em_entity::EmDataset;

use crate::domains::{Domain, DomainKind};
use crate::pairgen::{GeneratorConfig, PairGenerator};

/// Identifier of one benchmark dataset, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Structured BeerAdvo-RateBeer (450 records, 15.11% match).
    SBr,
    /// Structured iTunes-Amazon (539, 24.49%).
    SIa,
    /// Structured Fodors-Zagats (946, 11.63%).
    SFz,
    /// Structured DBLP-ACM (12,363, 17.96%).
    SDa,
    /// Structured DBLP-GoogleScholar (28,707, 18.63%).
    SDg,
    /// Structured Amazon-Google (11,460, 10.18%).
    SAg,
    /// Structured Walmart-Amazon (10,242, 9.39%).
    SWa,
    /// Textual Abt-Buy (9,575, 10.74%).
    TAb,
    /// Dirty iTunes-Amazon (539, 24.49%).
    DIa,
    /// Dirty DBLP-ACM (12,363, 17.96%).
    DDa,
    /// Dirty DBLP-GoogleScholar (28,707, 18.63%).
    DDg,
    /// Dirty Walmart-Amazon (10,242, 9.39%).
    DWa,
}

impl DatasetId {
    /// All twelve datasets, in Table 1 order.
    pub fn all() -> [DatasetId; 12] {
        [
            DatasetId::SBr,
            DatasetId::SIa,
            DatasetId::SFz,
            DatasetId::SDa,
            DatasetId::SDg,
            DatasetId::SAg,
            DatasetId::SWa,
            DatasetId::TAb,
            DatasetId::DIa,
            DatasetId::DDa,
            DatasetId::DDg,
            DatasetId::DWa,
        ]
    }

    /// The paper's short name (e.g. `S-WA`).
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetId::SBr => "S-BR",
            DatasetId::SIa => "S-IA",
            DatasetId::SFz => "S-FZ",
            DatasetId::SDa => "S-DA",
            DatasetId::SDg => "S-DG",
            DatasetId::SAg => "S-AG",
            DatasetId::SWa => "S-WA",
            DatasetId::TAb => "T-AB",
            DatasetId::DIa => "D-IA",
            DatasetId::DDa => "D-DA",
            DatasetId::DDg => "D-DG",
            DatasetId::DWa => "D-WA",
        }
    }

    /// Parses a short name (e.g. `S-FZ`), case-insensitively.
    pub fn from_short_name(name: &str) -> Option<DatasetId> {
        DatasetId::all()
            .into_iter()
            .find(|id| id.short_name().eq_ignore_ascii_case(name))
    }

    /// The underlying Magellan dataset name.
    pub fn source_name(self) -> &'static str {
        match self {
            DatasetId::SBr => "BeerAdvo-RateBeer",
            DatasetId::SIa | DatasetId::DIa => "iTunes-Amazon",
            DatasetId::SFz => "Fodors-Zagats",
            DatasetId::SDa | DatasetId::DDa => "DBLP-ACM",
            DatasetId::SDg | DatasetId::DDg => "DBLP-GoogleScholar",
            DatasetId::SAg => "Amazon-Google",
            DatasetId::SWa | DatasetId::DWa => "Walmart-Amazon",
            DatasetId::TAb => "Abt-Buy",
        }
    }

    /// Dataset type: `Structured`, `Textual`, or `Dirty`.
    pub fn dataset_type(self) -> &'static str {
        match self {
            DatasetId::TAb => "Textual",
            DatasetId::DIa | DatasetId::DDa | DatasetId::DDg | DatasetId::DWa => "Dirty",
            _ => "Structured",
        }
    }

    /// The generation spec matching Table 1.
    pub fn spec(self) -> DatasetSpec {
        let (domain, size, match_pct, dirty) = match self {
            DatasetId::SBr => (DomainKind::Beer, 450, 15.11, false),
            DatasetId::SIa => (DomainKind::Music, 539, 24.49, false),
            DatasetId::SFz => (DomainKind::Restaurant, 946, 11.63, false),
            DatasetId::SDa => (DomainKind::CitationAcm, 12_363, 17.96, false),
            DatasetId::SDg => (DomainKind::CitationScholar, 28_707, 18.63, false),
            DatasetId::SAg => (DomainKind::ProductGoogle, 11_460, 10.18, false),
            DatasetId::SWa => (DomainKind::ProductWalmart, 10_242, 9.39, false),
            DatasetId::TAb => (DomainKind::ProductTextual, 9_575, 10.74, false),
            DatasetId::DIa => (DomainKind::Music, 539, 24.49, true),
            DatasetId::DDa => (DomainKind::CitationAcm, 12_363, 17.96, true),
            DatasetId::DDg => (DomainKind::CitationScholar, 28_707, 18.63, true),
            DatasetId::DWa => (DomainKind::ProductWalmart, 10_242, 9.39, true),
        };
        DatasetSpec {
            id: self,
            domain,
            size,
            match_pct,
            dirty,
        }
    }
}

/// Full generation spec for one benchmark dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// The dataset id.
    pub id: DatasetId,
    /// Domain family.
    pub domain: DomainKind,
    /// Number of records (Table 1 "Size").
    pub size: usize,
    /// Match percentage (Table 1 "% Match").
    pub match_pct: f64,
    /// Whether the Dirty transform applies.
    pub dirty: bool,
}

/// The benchmark: generates any Table 1 dataset, optionally scaled down.
#[derive(Debug, Clone, Copy)]
pub struct MagellanBenchmark {
    /// Base seed; each dataset derives its own sub-seed from it.
    pub seed: u64,
    /// Size multiplier in `(0, 1]` for fast tests (1.0 = Table 1 sizes).
    pub scale: f64,
}

impl Default for MagellanBenchmark {
    fn default() -> Self {
        MagellanBenchmark {
            seed: 0xEDB7_2021,
            scale: 1.0,
        }
    }
}

impl MagellanBenchmark {
    /// A benchmark scaled down for tests / quick runs.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        MagellanBenchmark {
            scale,
            ..Default::default()
        }
    }

    /// Generates one dataset.
    pub fn generate(&self, id: DatasetId) -> EmDataset {
        let spec = id.spec();
        let size = ((spec.size as f64 * self.scale).round() as usize).max(20);
        let config = GeneratorConfig {
            size,
            match_fraction: spec.match_pct / 100.0,
            dirty_move_prob: if spec.dirty { 0.5 } else { 0.0 },
            seed: self.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..Default::default()
        };
        PairGenerator::new(Domain::new(spec.domain), config).generate(id.short_name())
    }

    /// Generates all twelve datasets in Table 1 order.
    pub fn generate_all(&self) -> Vec<EmDataset> {
        DatasetId::all()
            .iter()
            .map(|&id| self.generate(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_datasets_with_paper_names() {
        let ids = DatasetId::all();
        assert_eq!(ids.len(), 12);
        assert_eq!(ids[0].short_name(), "S-BR");
        assert_eq!(ids[7].short_name(), "T-AB");
        assert_eq!(ids[11].short_name(), "D-WA");
    }

    #[test]
    fn short_names_parse_case_insensitively() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::from_short_name(id.short_name()), Some(id));
            let lower = id.short_name().to_lowercase();
            assert_eq!(DatasetId::from_short_name(&lower), Some(id));
        }
        assert_eq!(DatasetId::from_short_name("nope"), None);
    }

    #[test]
    fn specs_match_table_1() {
        assert_eq!(DatasetId::SDg.spec().size, 28_707);
        assert!((DatasetId::SWa.spec().match_pct - 9.39).abs() < 1e-12);
        assert!(DatasetId::DDa.spec().dirty);
        assert!(!DatasetId::SDa.spec().dirty);
        assert_eq!(DatasetId::SDa.spec().domain, DomainKind::CitationAcm);
    }

    #[test]
    fn dataset_types_partition_correctly() {
        assert_eq!(DatasetId::SBr.dataset_type(), "Structured");
        assert_eq!(DatasetId::TAb.dataset_type(), "Textual");
        assert_eq!(DatasetId::DIa.dataset_type(), "Dirty");
    }

    #[test]
    fn generated_dataset_matches_spec_at_small_scale() {
        let b = MagellanBenchmark::scaled(0.1);
        let d = b.generate(DatasetId::SBr);
        assert_eq!(d.name(), "S-BR");
        assert_eq!(d.len(), 45);
        // Match percentage within a couple of points of Table 1 (rounding).
        assert!(
            (d.match_percentage() - 15.11).abs() < 3.0,
            "{}",
            d.match_percentage()
        );
    }

    #[test]
    fn full_scale_sizes_match_table_1() {
        // Generate the two small ones at full scale; the larger ones are
        // covered by spec() assertions above.
        let b = MagellanBenchmark::default();
        assert_eq!(b.generate(DatasetId::SBr).len(), 450);
        assert_eq!(b.generate(DatasetId::SIa).len(), 539);
    }

    #[test]
    fn dirty_variant_shares_domain_with_clean_one() {
        let b = MagellanBenchmark::scaled(0.05);
        let clean = b.generate(DatasetId::SIa);
        let dirty = b.generate(DatasetId::DIa);
        assert_eq!(clean.schema(), dirty.schema());
        assert_ne!(clean.records(), dirty.records());
    }

    #[test]
    fn generation_is_deterministic() {
        let b = MagellanBenchmark::scaled(0.05);
        assert_eq!(
            b.generate(DatasetId::SFz).records(),
            b.generate(DatasetId::SFz).records()
        );
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_is_rejected() {
        MagellanBenchmark::scaled(0.0);
    }
}
