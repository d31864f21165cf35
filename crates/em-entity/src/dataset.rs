//! Labeled EM datasets with split and sampling helpers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::pair::LabeledPair;
use crate::schema::Schema;

/// A labeled entity-matching dataset: one [`Schema`] plus labeled pairs.
#[derive(Debug, Clone)]
pub struct EmDataset {
    name: String,
    schema: Schema,
    records: Vec<LabeledPair>,
}

/// Fraction of the records [`EmDataset::train_test_split`] puts in the
/// training split.
const TRAIN_FRACTION: f64 = 0.7;

impl EmDataset {
    /// Builds a dataset.
    ///
    /// # Panics
    /// Panics if any record does not conform to the schema, which would
    /// silently corrupt tokenization downstream.
    pub fn new(name: impl Into<String>, schema: Schema, records: Vec<LabeledPair>) -> Self {
        for (i, r) in records.iter().enumerate() {
            assert!(
                r.pair.conforms_to(&schema),
                "record {i} does not conform to the schema"
            );
        }
        EmDataset {
            name: name.into(),
            schema,
            records,
        }
    }

    /// The dataset's display name (e.g. `S-WA`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All records.
    pub fn records(&self) -> &[LabeledPair] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records labeled match.
    pub fn match_count(&self) -> usize {
        self.records.iter().filter(|r| r.label).count()
    }

    /// Percentage of records labeled match, in `[0, 100]`.
    pub fn match_percentage(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        100.0 * self.match_count() as f64 / self.records.len() as f64
    }

    /// Shuffles with an RNG seeded by `seed` and splits into `(train,
    /// test)` datasets, with 70% of the records (rounded) in train.
    pub fn train_test_split(&self, seed: u64) -> (EmDataset, EmDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = self.records.clone();
        shuffled.shuffle(&mut rng);
        let cut = ((shuffled.len() as f64) * TRAIN_FRACTION).round() as usize;
        let (train, test) = shuffled.split_at(cut);
        (
            EmDataset::new(
                format!("{}-train", self.name),
                self.schema.clone(),
                train.to_vec(),
            ),
            EmDataset::new(
                format!("{}-test", self.name),
                self.schema.clone(),
                test.to_vec(),
            ),
        )
    }

    /// Samples up to `n` records with the given label (the paper samples 100
    /// records per label; datasets with fewer simply yield all of them).
    pub fn sample_by_label(&self, label: bool, n: usize, seed: u64) -> Vec<&LabeledPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut with_label: Vec<&LabeledPair> =
            self.records.iter().filter(|r| r.label == label).collect();
        with_label.shuffle(&mut rng);
        with_label.truncate(n);
        with_label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::pair::EntityPair;

    fn make_dataset(n_match: usize, n_non: usize) -> EmDataset {
        let schema = Schema::from_names(vec!["name"]);
        let mut records = Vec::new();
        for i in 0..n_match {
            let e = Entity::new(vec![format!("item {i}")]);
            records.push(LabeledPair::new(EntityPair::new(e.clone(), e), true));
        }
        for i in 0..n_non {
            records.push(LabeledPair::new(
                EntityPair::new(
                    Entity::new(vec![format!("item {i}")]),
                    Entity::new(vec![format!("other {i}")]),
                ),
                false,
            ));
        }
        EmDataset::new("test", schema, records)
    }

    #[test]
    fn counts_and_percentage() {
        let d = make_dataset(3, 17);
        assert_eq!(d.len(), 20);
        assert_eq!(d.match_count(), 3);
        assert!((d.match_percentage() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_percentage_is_zero() {
        let d = EmDataset::new("e", Schema::from_names(vec!["name"]), vec![]);
        assert!(d.is_empty());
        assert_eq!(d.match_percentage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not conform")]
    fn rejects_nonconforming_records() {
        let schema = Schema::from_names(vec!["a", "b"]);
        let bad = LabeledPair::new(
            EntityPair::new(Entity::new(vec!["x"]), Entity::new(vec!["y"])),
            false,
        );
        EmDataset::new("bad", schema, vec![bad]);
    }

    #[test]
    fn split_partitions_all_records() {
        let d = make_dataset(10, 30);
        let (train, test) = d.train_test_split(1);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 28);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = make_dataset(10, 30);
        let (a, _) = d.train_test_split(7);
        let (b, _) = d.train_test_split(7);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn split_differs_across_seeds() {
        let d = make_dataset(20, 60);
        let (a, _) = d.train_test_split(1);
        let (b, _) = d.train_test_split(2);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn sample_by_label_respects_label_and_count() {
        let d = make_dataset(5, 50);
        let matches = d.sample_by_label(true, 100, 0);
        assert_eq!(matches.len(), 5); // fewer than requested -> all of them
        assert!(matches.iter().all(|r| r.label));
        let non = d.sample_by_label(false, 10, 0);
        assert_eq!(non.len(), 10);
        assert!(non.iter().all(|r| !r.label));
    }

    #[test]
    fn sample_is_deterministic() {
        let d = make_dataset(10, 40);
        let a: Vec<_> = d
            .sample_by_label(false, 5, 3)
            .into_iter()
            .cloned()
            .collect();
        let b: Vec<_> = d
            .sample_by_label(false, 5, 3)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(a, b);
    }
}
