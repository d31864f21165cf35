//! Model-agnosticism: every explainer must work unchanged for any
//! `MatchModel` implementation — the defining property of post-hoc
//! explanation systems (paper Section 2).

use landmark_explanation::entity::{token_blocking, BlockingConfig, MatchModel};
use landmark_explanation::eval::technique::explain_record;
use landmark_explanation::eval::Technique;
use landmark_explanation::landmark::{counterfactual, CounterfactualConfig};
use landmark_explanation::matchers::NaiveBayesMatcher;
use landmark_explanation::prelude::*;

#[test]
fn all_techniques_explain_a_naive_bayes_model() {
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SWa);
    let nb = NaiveBayesMatcher::train(&dataset);
    let record = &dataset.records()[0].pair;
    for technique in Technique::all() {
        let views = explain_record(technique, &nb, dataset.schema(), record, 120, 0);
        assert!(!views.is_empty());
        for v in &views {
            assert!(v.original_prediction.is_finite());
            for (_, _, w) in &v.removable {
                assert!(w.is_finite(), "{technique:?}");
            }
        }
    }
}

#[test]
fn landmark_explanations_agree_on_informative_attributes_across_model_families() {
    // Both model families rely on token similarity, so the aggregate
    // attribute importance of their explanations should rank the most
    // informative attribute (title, index 0 for S-WA) highly in both.
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SAg);
    let lr = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let nb = NaiveBayesMatcher::train(&dataset);
    let config = ExplainConfig {
        n_samples: 150,
        ..Default::default()
    };
    let explainer = LandmarkExplainer::new(config, GenerationStrategy::Auto);

    let importance = |model: &(dyn MatchModel + Sync)| -> Vec<f64> {
        let mut total = vec![0.0; dataset.schema().len()];
        for r in dataset.sample_by_label(true, 6, 1) {
            let dual = explainer.explain(&model, dataset.schema(), &r.pair, noop());
            for le in dual.both() {
                for (t, v) in total
                    .iter_mut()
                    .zip(le.explanation.attribute_importance(dataset.schema()))
                {
                    *t += v;
                }
            }
        }
        total
    };
    let lr_imp = importance(&lr);
    let nb_imp = importance(&nb);
    let top = |v: &[f64]| -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    };
    // The two model families should agree on which attribute matters most
    // (both are driven by the same similarity structure of the data).
    assert_eq!(top(&lr_imp), top(&nb_imp), "LR {lr_imp:?} vs NB {nb_imp:?}");
}

#[test]
fn counterfactuals_work_for_naive_bayes_too() {
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SFz);
    let nb = NaiveBayesMatcher::train(&dataset);
    // Flip a predicted match to non-match: removing the match-supporting
    // tokens of one side reliably destroys the similarity evidence for any
    // similarity-driven model family. (The opposite direction is not
    // guaranteed for Gaussian NB, whose non-match confidence can be
    // astronomically high — p ~ 1e-300 — beyond the reach of token edits.)
    let record = dataset
        .records()
        .iter()
        .find(|r| r.label && nb.predict_proba(dataset.schema(), &r.pair) > 0.6)
        .expect("confident match exists")
        .pair
        .clone();
    let config = ExplainConfig {
        n_samples: 250,
        ..Default::default()
    };
    let explainer = LandmarkExplainer::new(config, GenerationStrategy::SingleEntity);
    let dual = explainer.explain(&nb, dataset.schema(), &record, noop());
    let cf = counterfactual(
        &nb,
        dataset.schema(),
        &record,
        dual.with_landmark(EntitySide::Left),
        &CounterfactualConfig {
            max_edits: 20,
            ..Default::default()
        },
    );
    assert!(cf.flipped, "cf probability = {}", cf.probability);
    assert!(cf.probability < 0.5);
    assert_eq!(cf.record.left, record.left, "landmark untouched");
}

#[test]
fn blocking_feeds_matching_end_to_end() {
    // Full EM pipeline: two entity tables -> blocking -> matcher scoring.
    let dataset = MagellanBenchmark::scaled(0.1).generate(DatasetId::SWa);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // Treat each record's sides as rows of two tables; matches are the
    // diagonal pairs that were labeled match.
    let matching: Vec<&LabeledPair> = dataset.records().iter().filter(|r| r.label).collect();
    let left: Vec<Entity> = matching.iter().map(|r| r.pair.left.clone()).collect();
    let right: Vec<Entity> = matching.iter().map(|r| r.pair.right.clone()).collect();

    let candidates = token_blocking(&left, &right, &BlockingConfig::default());
    let truth: Vec<(usize, usize)> = (0..left.len()).map(|i| (i, i)).collect();
    let quality = landmark_explanation::entity::evaluate_blocking(
        &candidates,
        &truth,
        left.len(),
        right.len(),
    );
    assert!(quality.recall > 0.8, "blocking recall = {}", quality.recall);
    assert!(
        quality.reduction_ratio > 0.5,
        "reduction = {}",
        quality.reduction_ratio
    );

    // Score the candidates: diagonal pairs should outscore off-diagonal.
    let mut diag = Vec::new();
    let mut off = Vec::new();
    for &(i, j) in &candidates {
        let p = matcher.predict_proba(
            dataset.schema(),
            &EntityPair::new(left[i].clone(), right[j].clone()),
        );
        if i == j {
            diag.push(p);
        } else {
            off.push(p);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(diag.iter().all(|p| p.is_finite()));
    if !off.is_empty() {
        assert!(
            mean(&diag) > mean(&off),
            "{} vs {}",
            mean(&diag),
            mean(&off)
        );
    }
}
