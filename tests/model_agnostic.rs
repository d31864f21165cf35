//! Model-agnosticism: every explainer must work unchanged for any
//! `MatchModel` implementation — the defining property of post-hoc
//! explanation systems (paper Section 2).

use landmark_explanation::entity::MatchModel;
use landmark_explanation::eval::technique::explain_record;
use landmark_explanation::eval::TECHNIQUES;
use landmark_explanation::matchers::NaiveBayesMatcher;
use landmark_explanation::prelude::*;

#[test]
fn all_techniques_explain_a_naive_bayes_model() {
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SWa);
    let nb = NaiveBayesMatcher::train(&dataset);
    let record = &dataset.records()[0].pair;
    for technique in TECHNIQUES {
        let config = ExplainConfig {
            n_samples: 120,
            ..Default::default()
        };
        let views = explain_record(technique, &nb, dataset.schema(), record, &config);
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
    let lr = LogisticMatcher::train(&dataset);
    let nb = NaiveBayesMatcher::train(&dataset);
    let config = ExplainConfig {
        n_samples: 150,
        ..Default::default()
    };
    let explainer = LandmarkExplainer::new(config, GenerationStrategy::Auto);

    let importance = |model: &dyn MatchModel| -> Vec<f64> {
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
