//! End-to-end integration: benchmark generation → matcher training →
//! all four explanation techniques → all three evaluations.

use landmark_explanation::entity::SplitConfig;
use landmark_explanation::eval::technique::explain_record;
use landmark_explanation::eval::{EvalConfig, Evaluator, Technique};
use landmark_explanation::prelude::*;

fn small_eval_config() -> EvalConfig {
    EvalConfig {
        scale: 0.08,
        n_records_per_label: 6,
        n_samples: 150,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_on_beer_dataset() {
    let result = Evaluator::new(small_eval_config()).evaluate_dataset(DatasetId::SBr);
    assert_eq!(result.dataset, "S-BR");
    assert!(
        result.matcher_f1 > 0.5,
        "matcher f1 = {}",
        result.matcher_f1
    );
    for label in [&result.matching, &result.non_matching] {
        assert_eq!(label.techniques.len(), 4);
        for t in &label.techniques {
            assert!(t.token.n > 0, "{:?} produced no evaluations", t.technique);
            assert!(t.token.mae.is_finite());
        }
    }
}

#[test]
fn matcher_generalizes_across_all_domains() {
    let benchmark = MagellanBenchmark::scaled(0.1);
    for id in DatasetId::all() {
        let dataset = benchmark.generate(id);
        let (train, test) = dataset.train_test_split(&SplitConfig::default());
        let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
        // Tiny datasets (S-BR, S-IA at this scale) have almost no test
        // matches; score them on the full dataset instead.
        let eval_set = if dataset.len() < 100 { &dataset } else { &test };
        // Use the best threshold: the sanity check is that the model has
        // learned a usable ranking, not that 0.5 is calibrated.
        let (_, f1) = landmark_explanation::matchers::tune_threshold(&matcher, eval_set);
        // Dirty datasets are intrinsically harder for a per-attribute
        // similarity model (values are misplaced into the title) — the
        // DeepMatcher paper reports classical-ML F1 of ~47 on dirty
        // iTunes-Amazon, so ~0.5 here is in line with the real benchmark.
        let floor = if id.dataset_type() == "Dirty" {
            0.45
        } else {
            0.6
        };
        assert!(f1 > floor, "{}: f1 = {f1}", id.short_name());
    }
}

#[test]
fn every_technique_explains_every_domain_without_panicking() {
    let benchmark = MagellanBenchmark::scaled(0.05);
    for id in [
        DatasetId::SBr,
        DatasetId::SFz,
        DatasetId::TAb,
        DatasetId::DWa,
    ] {
        let dataset = benchmark.generate(id);
        let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
        let record = &dataset.records()[0].pair;
        for technique in Technique::all() {
            let views = explain_record(technique, &matcher, dataset.schema(), record, 80, 3);
            assert!(!views.is_empty(), "{technique:?} on {}", id.short_name());
            for v in &views {
                for (_, _, w) in &v.removable {
                    assert!(w.is_finite());
                }
            }
        }
    }
}

#[test]
fn landmark_explanations_respect_the_frozen_side() {
    // Whatever the technique does internally, the reported token weights
    // of a landmark explanation must reference only the varying entity.
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SIa);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let record = &dataset.records()[1].pair;
    let dual = LandmarkExplainer::default().explain(&matcher, dataset.schema(), record, noop());
    for le in dual.both() {
        assert_eq!(le.varying, le.landmark.other());
        for tw in &le.explanation.token_weights {
            assert_eq!(tw.side, le.varying);
        }
    }
}

#[test]
fn paper_shape_single_is_faithful_on_matching_records() {
    // Section 4.2.1 lesson learned: the single-entity surrogate is an
    // accurate representation of the EM model for matching records —
    // its token-removal MAE should be small in absolute terms.
    let cfg = EvalConfig {
        scale: 0.15,
        n_records_per_label: 12,
        n_samples: 300,
        ..Default::default()
    };
    let result = Evaluator::new(cfg).evaluate_dataset(DatasetId::SWa);
    let single = result
        .matching
        .techniques
        .iter()
        .find(|t| t.technique == Technique::LandmarkSingle)
        .unwrap();
    assert!(single.token.mae < 0.2, "single MAE = {}", single.token.mae);
    assert!(
        single.token.accuracy > 0.6,
        "single accuracy = {}",
        single.token.accuracy
    );
}

#[test]
fn paper_shape_double_interest_beats_lime_on_non_matching_records() {
    // Section 4.3 lesson learned: double-entity generation increases the
    // interest of non-matching explanations; LIME can only drop tokens and
    // rarely flips a non-match to match.
    let cfg = EvalConfig {
        scale: 0.15,
        n_records_per_label: 12,
        n_samples: 300,
        ..Default::default()
    };
    let result = Evaluator::new(cfg).evaluate_dataset(DatasetId::SBr);
    let get = |tech: Technique| {
        result
            .non_matching
            .techniques
            .iter()
            .find(|t| t.technique == tech)
            .unwrap()
            .interest
    };
    let double = get(Technique::LandmarkDouble);
    let lime = get(Technique::Lime);
    let copy = get(Technique::MojitoCopy);
    assert!(
        double >= lime,
        "double interest {double} should be >= lime {lime}"
    );
    assert!(
        double >= copy,
        "double interest {double} should be >= mojito copy {copy}"
    );
}

#[test]
fn evaluations_are_reproducible_across_runs() {
    let cfg = small_eval_config();
    let a = Evaluator::new(cfg).evaluate_dataset(DatasetId::SFz);
    let b = Evaluator::new(cfg).evaluate_dataset(DatasetId::SFz);
    for (x, y) in a.matching.techniques.iter().zip(&b.matching.techniques) {
        assert_eq!(x.token, y.token);
        assert_eq!(x.attr_tau, y.attr_tau);
        assert_eq!(x.interest, y.interest);
    }
}
