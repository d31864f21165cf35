//! Property tests for the prepared perturbation-scoring kernel.
//!
//! The kernel's contract (DESIGN.md §11) is *bit-identity*: for any
//! schema, record, perturbation family, mask, and thread count, scoring a
//! mask through `MatchModel::prepare_scorer` must produce the same `f64`
//! — same bits — as reconstructing the perturbed pair and calling
//! `predict_proba` on it. These tests drive that contract with random
//! schemas (all four attribute kinds), random values (including empty,
//! numeric, punctuation-only, and long enough to pass the memo cap),
//! random logistic coefficients, random masks, every perturbation family,
//! and both explainer layers on top.

use landmark_explanation::entity::schema::{Attribute, AttributeKind};
use landmark_explanation::entity::{
    tokenize_entity, EmDataset, Entity, EntityPair, EntitySide, FallbackScorer, LabeledPair,
    MatchModel, PerturbSpec, PreparedScorer, Schema, SideSpec, Token,
};
use landmark_explanation::landmark::{GenerationStrategy, LandmarkExplainer};
use landmark_explanation::lime::{ExplainConfig, LimeExplainer, MojitoCopyExplainer};
use landmark_explanation::linalg::logistic::LogisticModel;
use landmark_explanation::matchers::{FeatureExtractor, LogisticMatcher, NaiveBayesMatcher};
use landmark_explanation::par::ParallelismConfig;
use landmark_explanation::prelude::noop;
use proptest::prelude::*;

/// Forwards only `predict_proba`, hiding `prepare_scorer` so the default
/// fallback (reconstruct each pair, extract features from scratch) runs.
struct NaiveOnly<'m, M>(&'m M);

impl<M: MatchModel> MatchModel for NaiveOnly<'_, M> {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        self.0.predict_proba(schema, pair)
    }
}

fn attr_kind() -> impl Strategy<Value = AttributeKind> {
    prop_oneof![
        Just(AttributeKind::Name),
        Just(AttributeKind::Text),
        Just(AttributeKind::Numeric),
        Just(AttributeKind::Code),
    ]
}

/// One attribute value: a handful of tokens drawn from words, numbers,
/// and awkward punctuation (possibly none — empty values must work too).
fn attr_value() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        "[a-z]{1,5}",
        "[0-9]{1,3}",
        "[0-9]{1,2}\\.[0-9]{1,2}",
        Just("n/a".to_string()),
        Just("!!!".to_string()),
        Just("MiXeD".to_string()),
    ];
    prop::collection::vec(token, 0..4).prop_map(|w| w.join(" "))
}

/// A long attribute value: 11–40 tokens from a small vocabulary of near
/// spellings. Its similarity reads more mask bits than the kernel's memo
/// cap, so it is computed per mask (DESIGN.md §11); ids repeat within a
/// value, so Jaro-Winkler rows tie.
fn long_value() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        Just("sony"),
        Just("sonny"),
        Just("alpha"),
        Just("alpah"),
        Just("kit"),
        Just("kits"),
        Just("a200"),
        Just("12.5"),
    ];
    prop::collection::vec(word, 11..41).prop_map(|w| w.join(" "))
}

fn entity<V: Strategy<Value = String>>(
    n_attrs: usize,
    value: fn() -> V,
) -> impl Strategy<Value = Entity> {
    prop::collection::vec(value(), n_attrs).prop_map(Entity::new)
}

/// A random scenario: schema kinds, the record under explanation, a small
/// fitting corpus, and logistic parameters.
#[derive(Debug, Clone)]
struct Scenario {
    schema: Schema,
    pair: EntityPair,
    dataset: EmDataset,
    matcher: LogisticMatcher,
}

fn scenario(n_attrs: usize) -> impl Strategy<Value = Scenario> {
    scenario_of(
        n_attrs,
        prop::collection::vec(attr_kind(), n_attrs),
        attr_value,
    )
}

/// A scenario whose one Name and one Text attribute hold long values.
fn long_scenario() -> impl Strategy<Value = Scenario> {
    scenario_of(
        2,
        Just(vec![AttributeKind::Name, AttributeKind::Text]),
        long_value,
    )
}

/// A scenario over `n_attrs` attributes, `kinds` giving that many kinds
/// and `value` drawing every attribute value.
fn scenario_of<K, V>(n_attrs: usize, kinds: K, value: fn() -> V) -> impl Strategy<Value = Scenario>
where
    K: Strategy<Value = Vec<AttributeKind>>,
    V: Strategy<Value = String>,
{
    (
        (kinds, entity(n_attrs, value), entity(n_attrs, value)),
        (
            prop::collection::vec((entity(n_attrs, value), entity(n_attrs, value)), 4),
            prop::collection::vec(-2.0f64..2.0, n_attrs),
            -1.0f64..1.0,
        ),
    )
        .prop_map(
            move |((kinds, left, right), (corpus, coefficients, intercept))| {
                let schema = Schema::new(
                    kinds
                        .into_iter()
                        .enumerate()
                        .map(|(i, kind)| Attribute {
                            name: format!("a{i}"),
                            kind,
                        })
                        .collect(),
                );
                let pair = EntityPair::new(left, right);
                // Alternating labels give NaiveBayes both classes to train on.
                let records: Vec<LabeledPair> = std::iter::once(pair.clone())
                    .chain(corpus.into_iter().map(|(l, r)| EntityPair::new(l, r)))
                    .enumerate()
                    .map(|(i, p)| LabeledPair::new(p, i % 2 == 0))
                    .collect();
                let dataset = EmDataset::new("prop", schema.clone(), records);
                let extractor = FeatureExtractor::fit(&dataset);
                let matcher = LogisticMatcher::from_parts(
                    extractor,
                    LogisticModel {
                        intercept,
                        coefficients,
                        iterations: 0,
                    },
                );
                Scenario {
                    schema,
                    pair,
                    dataset,
                    matcher,
                }
            },
        )
}

/// Every perturbation family over `pair`, borrowing `tokens` for the
/// varying sides.
fn all_specs<'a>(
    pair: &'a EntityPair,
    left_tokens: &'a [Token],
    right_tokens: &'a [Token],
) -> Vec<PerturbSpec<'a>> {
    vec![
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(left_tokens),
            right: SideSpec::Fixed,
        },
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(right_tokens),
        },
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(left_tokens),
            right: SideSpec::Varying(right_tokens),
        },
        PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Left,
        },
        PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Right,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mask-level bit-identity, both model families, every spec family.
    #[test]
    fn prepared_scorer_is_bit_identical_to_fallback(
        s in scenario(3),
        mask_bits in prop::collection::vec(any::<bool>(), 64),
    ) {
        let nb = NaiveBayesMatcher::train(&s.dataset);
        let left_tokens = tokenize_entity(&s.pair.left);
        let right_tokens = tokenize_entity(&s.pair.right);
        for spec in all_specs(&s.pair, &left_tokens, &right_tokens) {
            let n = spec.mask_len(s.schema.len());
            let mask: Vec<bool> = (0..n)
                .map(|i| mask_bits.get(i).copied().unwrap_or(true))
                .collect();
            let logistic: &dyn MatchModel = &s.matcher;
            let bayes: &dyn MatchModel = &nb;
            for model in [logistic, bayes] {
                let kernel = model.prepare_scorer(&s.schema, &spec).score_mask(&mask);
                let naive =
                    FallbackScorer::new(model, &s.schema, &spec).score_mask(&mask);
                prop_assert_eq!(kernel.to_bits(), naive.to_bits());
            }
        }
    }

    /// Mask-level bit-identity for Name and Text attributes past the memo
    /// cap, with one side fixed and with both sides varying: every token
    /// kept, every token dropped, and random masks, both model families.
    #[test]
    fn over_cap_attributes_are_bit_identical_to_fallback(
        s in long_scenario(),
        random in prop::collection::vec(prop::collection::vec(any::<bool>(), 160), 6),
    ) {
        let nb = NaiveBayesMatcher::train(&s.dataset);
        let left_tokens = tokenize_entity(&s.pair.left);
        let right_tokens = tokenize_entity(&s.pair.right);
        let token_drop = all_specs(&s.pair, &left_tokens, &right_tokens)
            .into_iter()
            .filter(|spec| matches!(spec, PerturbSpec::TokenDrop { .. }));
        for spec in token_drop {
            let n = spec.mask_len(s.schema.len());
            let masks: Vec<Vec<bool>> = [vec![true; n], vec![false; n]]
                .into_iter()
                .chain(random.iter().map(|bits| bits[..n].to_vec()))
                .collect();
            let logistic: &dyn MatchModel = &s.matcher;
            let bayes: &dyn MatchModel = &nb;
            for model in [logistic, bayes] {
                let mut kernel = model.prepare_scorer(&s.schema, &spec);
                let mut naive = FallbackScorer::new(model, &s.schema, &spec);
                for mask in &masks {
                    prop_assert_eq!(
                        kernel.score_mask(mask).to_bits(),
                        naive.score_mask(mask).to_bits()
                    );
                }
            }
        }
    }

    /// Explainer-level bit-identity: landmark explanations (weights,
    /// intercepts, predictions) through the kernel equal the naive path
    /// for every strategy and thread count.
    #[test]
    fn landmark_explanations_match_naive_path(
        s in scenario(3),
        seed in 0u64..1000,
        threads in 1usize..4,
    ) {
        for strategy in [
            GenerationStrategy::SingleEntity,
            GenerationStrategy::DoubleEntity,
            GenerationStrategy::Auto,
        ] {
            let config = ExplainConfig {
                n_samples: 40,
                seed,
                parallelism: ParallelismConfig::with_threads(threads),
                ..Default::default()
            };
            let explainer = LandmarkExplainer::new(config, strategy);
            let kernel = explainer.explain(&s.matcher, &s.schema, &s.pair, noop());
            let naive = explainer.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, noop());
            for (k, n) in kernel.both().iter().zip(naive.both().iter()) {
                prop_assert_eq!(&k.explanation.token_weights, &n.explanation.token_weights);
                prop_assert_eq!(
                    k.explanation.intercept.to_bits(),
                    n.explanation.intercept.to_bits()
                );
                prop_assert_eq!(
                    k.explanation.model_prediction.to_bits(),
                    n.explanation.model_prediction.to_bits()
                );
            }
        }
    }

    /// Explainer-level bit-identity for the LIME and Mojito baselines.
    #[test]
    fn baseline_explanations_match_naive_path(s in scenario(2), seed in 0u64..1000) {
        let config = ExplainConfig {
            n_samples: 40,
            seed,
            ..Default::default()
        };
        let lime = LimeExplainer::new(config);
        let k = lime.explain(&s.matcher, &s.schema, &s.pair, noop());
        let n = lime.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, noop());
        prop_assert_eq!(k.token_weights, n.token_weights);
        prop_assert_eq!(k.intercept.to_bits(), n.intercept.to_bits());

        let mojito = MojitoCopyExplainer::new(config);
        let k = mojito.explain(&s.matcher, &s.schema, &s.pair, noop());
        let n = mojito.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, noop());
        prop_assert_eq!(k.token_weights, n.token_weights);
        prop_assert_eq!(k.intercept.to_bits(), n.intercept.to_bits());
    }
}
