//! End-to-end per-dataset experiment runner.
//!
//! For one benchmark dataset the runner:
//!
//! 1. generates the synthetic dataset ([`em_datagen::MagellanBenchmark`]);
//! 2. trains the logistic-regression EM model on a train split;
//! 3. samples up to `n_records_per_label` records per class (paper: 100);
//! 4. runs the token-based, attribute-based, and interest evaluations for
//!    every technique.

use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EmDataset, EntityPair};
use em_matchers::LogisticMatcher;
use landmark_core::ExplainerKind;

use crate::attr_eval::attribute_eval;
use crate::interest_eval::interest_eval;
use crate::technique::{explain_record, record_seed, ExplainedRecord, TECHNIQUES};
use crate::token_eval::{token_eval, TokenEvalConfig, TokenEvalResult};

/// Experiment configuration (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Benchmark size multiplier in `(0, 1]` (1.0 = Table 1 sizes).
    pub scale: f64,
    /// Records sampled per label (paper: 100).
    pub n_records_per_label: usize,
    /// Perturbation samples per explanation.
    pub n_samples: usize,
    /// Decision threshold (paper: 0.5; Section 4.2.1 also discusses 0.4).
    pub threshold: f64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for per-record explanation (`0` = one per core,
    /// `1` = serial). Each record's explanation is seeded independently
    /// from the base seed and its record index, so serial and parallel
    /// runs are bit-identical.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 1.0,
            n_records_per_label: 100,
            n_samples: 500,
            threshold: 0.5,
            seed: 0xE0B7,
            threads: 1,
        }
    }
}

/// Per-technique results for one dataset and one label.
#[derive(Debug, Clone)]
pub struct TechniqueResult {
    /// Which technique.
    pub technique: ExplainerKind,
    /// Token-based evaluation (Table 2).
    pub token: TokenEvalResult,
    /// Weighted Kendall tau of attribute rankings (Table 3).
    pub attr_tau: f64,
    /// Interest (Table 4).
    pub interest: f64,
}

/// All results for one dataset label (matching or non-matching).
#[derive(Debug, Clone)]
pub struct LabelResults {
    /// Ground-truth label of the evaluated records.
    pub label: bool,
    /// Number of records evaluated.
    pub n_records: usize,
    /// One row per technique, in [`TECHNIQUES`] order.
    pub techniques: Vec<TechniqueResult>,
}

/// All results for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetEvaluation {
    /// Paper short name (e.g. `S-WA`).
    pub dataset: String,
    /// Size and match percentage of the generated data (Table 1 row).
    pub size: usize,
    /// Percentage of matching records.
    pub match_pct: f64,
    /// Matcher F1 on the test split (sanity diagnostic; not in the paper's
    /// tables but reported by the harness).
    pub matcher_f1: f64,
    /// Results on records labeled matching.
    pub matching: LabelResults,
    /// Results on records labeled non-matching.
    pub non_matching: LabelResults,
}

/// The experiment driver.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator {
    /// Experiment configuration.
    pub config: EvalConfig,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(config: EvalConfig) -> Self {
        Evaluator { config }
    }

    /// Generates + evaluates one benchmark dataset end to end.
    pub fn evaluate_dataset(&self, id: DatasetId) -> DatasetEvaluation {
        let benchmark = MagellanBenchmark {
            scale: self.config.scale,
            ..Default::default()
        };
        let dataset = benchmark.generate(id);
        self.evaluate_prepared(&dataset)
    }

    /// Evaluates an already-generated dataset (used by tests and ablations).
    pub fn evaluate_prepared(&self, dataset: &EmDataset) -> DatasetEvaluation {
        let (train, test) = dataset.train_test_split(self.config.seed);
        let matcher = LogisticMatcher::train(&train);
        let matcher_f1 = em_matchers::evaluate_matcher(&matcher, &test, self.config.threshold).f1();

        let matching = self.evaluate_label(dataset, &matcher, true);
        let non_matching = self.evaluate_label(dataset, &matcher, false);
        DatasetEvaluation {
            dataset: dataset.name().to_string(),
            size: dataset.len(),
            match_pct: dataset.match_percentage(),
            matcher_f1,
            matching,
            non_matching,
        }
    }

    fn evaluate_label(
        &self,
        dataset: &EmDataset,
        matcher: &LogisticMatcher,
        label: bool,
    ) -> LabelResults {
        let sampled =
            dataset.sample_by_label(label, self.config.n_records_per_label, self.config.seed);
        let records: Vec<&EntityPair> = sampled.iter().map(|r| &r.pair).collect();
        let schema = dataset.schema();

        let token_cfg = TokenEvalConfig {
            threshold: self.config.threshold,
            seed: self.config.seed,
        };

        let techniques = TECHNIQUES
            .into_iter()
            .map(|technique| {
                // Explain each record once and share the explanations
                // across the three evaluations (they only differ in what
                // they do with the coefficients). Records fan out across
                // the thread pool; each derives its RNG seed from the base
                // seed and its index, so thread count never changes results.
                let views_per_record: Vec<Vec<ExplainedRecord>> =
                    em_par::par_map(self.config.threads, &records, |i, pair| {
                        explain_record(
                            technique,
                            matcher,
                            schema,
                            pair,
                            self.config.n_samples,
                            record_seed(self.config.seed, i),
                        )
                    });
                let token = token_eval(matcher, schema, &views_per_record, &token_cfg);
                let attr_tau =
                    attribute_eval(matcher.attribute_weights(), schema, &views_per_record);
                let interest = interest_eval(
                    matcher,
                    schema,
                    &views_per_record,
                    label, // matching label -> remove positive tokens
                    self.config.threshold,
                );
                TechniqueResult {
                    technique,
                    token,
                    attr_tau,
                    interest,
                }
            })
            .collect();
        LabelResults {
            label,
            n_records: records.len(),
            techniques,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvalConfig {
        EvalConfig {
            scale: 0.05,
            n_records_per_label: 4,
            n_samples: 60,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_evaluation_runs_on_a_small_dataset() {
        let eval = Evaluator::new(tiny_config());
        let r = eval.evaluate_dataset(DatasetId::SBr);
        assert_eq!(r.dataset, "S-BR");
        assert_eq!(r.matching.techniques.len(), 4);
        assert_eq!(r.non_matching.techniques.len(), 4);
        assert!(r.matching.n_records > 0);
        assert!(r.non_matching.n_records > 0);
        for lr in [&r.matching, &r.non_matching] {
            for t in &lr.techniques {
                assert!((0.0..=1.0).contains(&t.token.accuracy), "{t:?}");
                assert!(t.token.mae >= 0.0);
                assert!((-1.0..=1.0).contains(&t.attr_tau));
                assert!((0.0..=1.0).contains(&t.interest));
            }
        }
    }

    #[test]
    fn matcher_reaches_reasonable_f1_on_synthetic_data() {
        let eval = Evaluator::new(EvalConfig {
            scale: 0.2,
            n_records_per_label: 2,
            n_samples: 40,
            ..Default::default()
        });
        let r = eval.evaluate_dataset(DatasetId::SWa);
        assert!(r.matcher_f1 > 0.6, "f1 = {}", r.matcher_f1);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = Evaluator::new(tiny_config());
        let a = eval.evaluate_dataset(DatasetId::SIa);
        let b = eval.evaluate_dataset(DatasetId::SIa);
        for (x, y) in a.matching.techniques.iter().zip(&b.matching.techniques) {
            assert_eq!(x.token, y.token);
            assert_eq!(x.attr_tau, y.attr_tau);
            assert_eq!(x.interest, y.interest);
        }
    }
}
