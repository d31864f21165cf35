//! Serial and parallel execution must be bit-identical at every level of
//! the pipeline: mask scoring, one explanation, and a full evaluation run.

use landmark_explanation::entity::{tokenize_pair, PerturbSpec, SideSpec};
use landmark_explanation::eval::{EvalConfig, Evaluator};
use landmark_explanation::lime::sample_masks;
use landmark_explanation::prelude::*;
use proptest::prelude::*;

fn setup() -> (EmDataset, LogisticMatcher) {
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SWa);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    (dataset, matcher)
}

#[test]
fn landmark_explanations_are_identical_for_any_thread_count() {
    let (dataset, matcher) = setup();
    let record = &dataset.records()[1].pair;
    let explain = |parallelism: ParallelismConfig| {
        let config = ExplainConfig {
            n_samples: 200,
            parallelism,
            ..Default::default()
        };
        LandmarkExplainer::new(config, GenerationStrategy::Auto).explain(
            &matcher,
            dataset.schema(),
            record,
            noop(),
        )
    };
    let serial = explain(ParallelismConfig::serial());
    for threads in [0, 2, 3, 8] {
        let parallel = explain(ParallelismConfig::with_threads(threads));
        for (a, b) in serial.both().iter().zip(parallel.both().iter()) {
            assert_eq!(a.explanation.token_weights, b.explanation.token_weights);
            assert_eq!(a.explanation.intercept, b.explanation.intercept);
            assert_eq!(a.explanation.surrogate_r2, b.explanation.surrogate_r2);
            assert_eq!(a.injected, b.injected);
        }
    }
}

#[test]
fn dataset_evaluation_is_identical_for_any_thread_count() {
    let base = EvalConfig {
        scale: 0.05,
        n_records_per_label: 4,
        n_samples: 60,
        ..Default::default()
    };
    let run = |parallelism: ParallelismConfig| {
        Evaluator::new(EvalConfig {
            parallelism,
            ..base
        })
        .evaluate_dataset(DatasetId::SBr)
    };
    let serial = run(ParallelismConfig::serial());
    let parallel = run(ParallelismConfig::with_threads(4));
    for (a, b) in [
        (&serial.matching, &parallel.matching),
        (&serial.non_matching, &parallel.non_matching),
    ] {
        assert_eq!(a.n_records, b.n_records);
        for (x, y) in a.techniques.iter().zip(&b.techniques) {
            assert_eq!(x.technique, y.technique);
            assert_eq!(x.token, y.token);
            assert_eq!(x.attr_tau.to_bits(), y.attr_tau.to_bits());
            assert_eq!(x.interest.to_bits(), y.interest.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn par_batch_scoring_equals_serial_batch_scoring(
        seed in 0u64..1_000,
        n_masks in 1usize..40,
        threads in 0usize..9,
    ) {
        let (dataset, matcher) = setup();
        let schema = dataset.schema();
        let records = dataset.records();
        let pair = &records[seed as usize % records.len()].pair;
        let (left, right) = tokenize_pair(pair);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&left),
            right: SideSpec::Varying(&right),
        };
        let masks = sample_masks(spec.mask_len(schema.len()), n_masks, seed);
        let mut scorer = matcher.prepare_scorer(schema, &spec);
        let serial: Vec<f64> = masks.iter().map(|m| scorer.score_mask(m)).collect();
        let parallel = matcher.par_score_masks(
            schema,
            &spec,
            &masks,
            &ParallelismConfig::with_threads(threads),
            noop(),
        );
        prop_assert_eq!(serial, parallel);
    }
}
