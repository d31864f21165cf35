//! The perturb-and-fit engine every explainer in the workspace runs.
//!
//! The paper's Figure 2 is one loop: sample perturbation masks over a
//! record's interpretable features, score the reconstructed records with
//! the black-box model, and fit a surrogate from masks to probabilities.
//! An explainer differs from another only in its *view* — the
//! [`PerturbSpec`] it builds for a record, which fixes what a mask bit
//! means — and in how it maps the surrogate's coefficients back onto
//! tokens. [`perturb_and_fit`] is the loop; LIME, Mojito Copy and
//! Landmark Explanation (`landmark-core`) each call it once per view.
//!
//! The loop scores through the record's [`PreparedRecord`], which the
//! explainer prepares once per record with
//! [`MatchModel::prepare_record`](em_entity::MatchModel::prepare_record):
//! both landmark views and the record's own prediction share its state.
//! The loop runs on the calling thread: a view takes one scorer from the
//! record and scores its masks in order. Parallelism lives above one
//! explanation, across records (em-eval, em-batch) and requests (the
//! serving tiers).

use em_entity::{Masks, PerturbSpec, PreparedRecord, Schema};
use em_linalg::kernel::DEFAULT_TEXT_KERNEL_WIDTH;
use em_obs::{Counter, Span, Stage, Tracer};

use crate::sampler::sample_masks;
use crate::surrogate::{fit_surrogate, SurrogateFit};

/// Settings shared by every explainer.
#[derive(Debug, Clone, Copy)]
pub struct ExplainConfig {
    /// Number of perturbation samples per surrogate fit (LIME's
    /// `num_samples`).
    pub n_samples: usize,
    /// Width of the surrogate's exponential proximity kernel over cosine
    /// distances (LIME's text default, 0.25).
    ///
    /// Keep it at or above `1e-6`: a narrower width cannot change an
    /// explanation, only break it. At `1e-6` every perturbed mask of a
    /// record with up to about 18,000 features already weighs exactly 0
    /// and the unperturbed mask exactly 1, so the surrogate is the
    /// unperturbed probability; near `1e-162` the square of the width is
    /// 0, the unperturbed weight becomes `0 / 0`, and the fit turns
    /// non-finite. No request can set it: the serving codec keeps the
    /// default.
    pub kernel_width: f64,
    /// RNG seed for mask sampling.
    pub seed: u64,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig {
            n_samples: 500,
            kernel_width: DEFAULT_TEXT_KERNEL_WIDTH,
            seed: 0,
        }
    }
}

/// Samples `config.n_samples` masks over `spec`'s features from `seed`,
/// scores every mask through `record`, and fits the surrogate. `spec` must
/// perturb the record's own pair.
///
/// Returns the probabilities in mask order — `probs[0]` is the all-ones
/// mask, the view's unperturbed record — and the fit, with one
/// coefficient per mask bit in `spec`'s layout.
///
/// Records into `tracer` the feature count ([`Counter::Features`]) and the
/// stages [`Stage::MaskSampling`], [`Stage::PairReconstruction`],
/// [`Stage::ModelScoring`] (with [`Counter::SamplesScored`]) and
/// [`Stage::SurrogateFit`], once each and in that order. Tracing only
/// observes: any tracer yields the same bits (DESIGN.md §10).
pub fn perturb_and_fit(
    record: &dyn PreparedRecord,
    schema: &Schema,
    spec: &PerturbSpec<'_>,
    seed: u64,
    config: &ExplainConfig,
    tracer: &dyn Tracer,
) -> (Vec<f64>, SurrogateFit) {
    let (masks, probs) = perturb(record, schema, spec, seed, config, tracer);
    let fit = {
        let _span = Span::enter(tracer, Stage::SurrogateFit);
        fit_surrogate(&masks, &probs, config.kernel_width)
    };
    (probs, fit)
}

/// The neighborhood half of [`perturb_and_fit`]: the sampled masks and
/// their probabilities, with every stage but the fit recorded. The
/// neighborhood diagnostics read it directly.
///
/// Scoring takes one scorer for the view from the record with
/// [`PreparedRecord::scorer`] and scores the masks in order with it,
/// inside [`Stage::ModelScoring`]; by the prepared-record contract each
/// probability equals reconstructing the masked pair and calling
/// [`MatchModel::predict_proba`](em_entity::MatchModel::predict_proba) on
/// it (DESIGN.md §11).
pub fn perturb(
    record: &dyn PreparedRecord,
    schema: &Schema,
    spec: &PerturbSpec<'_>,
    seed: u64,
    config: &ExplainConfig,
    tracer: &dyn Tracer,
) -> (Masks, Vec<f64>) {
    let n_features = spec.mask_len(schema.len());
    tracer.add(Counter::Features, n_features as u64);
    let masks = {
        let _span = Span::enter(tracer, Stage::MaskSampling);
        sample_masks(n_features, config.n_samples, seed)
    };
    // The prepared kernel subsumes per-mask pair reconstruction: the spec
    // describes the whole perturbation family and the model's scorer
    // rebuilds (or incrementally scores) each mask inside `ModelScoring`,
    // bit-identical to reconstruct-then-predict (DESIGN.md §11). The stage
    // is still entered so the stage histograms and `X-Timing` keep it.
    drop(Span::enter(tracer, Stage::PairReconstruction));
    let probs = {
        let _span = Span::enter(tracer, Stage::ModelScoring);
        tracer.add(Counter::SamplesScored, masks.len() as u64);
        let mut scorer = record.scorer(spec);
        masks.iter().map(|mask| scorer.score_mask(mask)).collect()
    };
    (masks, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::{Entity, EntityPair, EntitySide, PreparedScorer, SideSpec, Token};
    use em_obs::Collector;

    /// Scores a mask by the fraction of bits kept, so the fit is exact.
    struct KeptFraction;

    struct KeptFractionScorer;

    impl PreparedScorer for KeptFractionScorer {
        fn score_mask(&mut self, mask: &[bool]) -> f64 {
            mask.iter().filter(|&&b| b).count() as f64 / mask.len().max(1) as f64
        }
    }

    impl PreparedRecord for KeptFraction {
        fn predict(&self) -> f64 {
            unreachable!("the engine scores masks, not the record")
        }

        fn scorer<'s>(&'s self, _spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's> {
            Box::new(KeptFractionScorer)
        }
    }

    /// [`KeptFraction`] that counts the scorers it hands out.
    #[derive(Default)]
    struct CountingScorers(std::cell::Cell<usize>);

    impl PreparedRecord for CountingScorers {
        fn predict(&self) -> f64 {
            unreachable!("the engine scores masks, not the record")
        }

        fn scorer<'s>(&'s self, _spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's> {
            self.0.set(self.0.get() + 1);
            Box::new(KeptFractionScorer)
        }
    }

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera", "849.99"]),
            Entity::new(vec!["sony kit", "7.99"]),
        )
    }

    #[test]
    fn feature_count_comes_from_the_spec() {
        let schema = Schema::from_names(vec!["name", "price"]);
        let pair = pair();
        let tokens = vec![
            Token::new(0, 0, "sony"),
            Token::new(0, 1, "kit"),
            Token::new(1, 0, "7.99"),
        ];
        let drop = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(&tokens),
        };
        let copy = PerturbSpec::AttrCopy {
            pair: &pair,
            copy_into: EntitySide::Right,
        };
        let config = ExplainConfig {
            n_samples: 40,
            ..Default::default()
        };
        for (spec, width) in [(drop, 3), (copy, 2)] {
            let trace = Collector::new();
            let (probs, fit) = perturb_and_fit(&KeptFraction, &schema, &spec, 3, &config, &trace);
            assert_eq!(probs.len(), 40);
            assert_eq!(probs[0], 1.0, "the first mask keeps every feature");
            assert_eq!(fit.coefficients.len(), width);
            assert_eq!(trace.counter(Counter::Features), width as u64);
            assert_eq!(trace.counter(Counter::SamplesScored), 40);
        }
    }

    #[test]
    fn enters_each_stage_once_and_matches_the_untraced_run() {
        let schema = Schema::from_names(vec!["name", "price"]);
        let pair = pair();
        let spec = PerturbSpec::AttrCopy {
            pair: &pair,
            copy_into: EntitySide::Right,
        };
        let config = ExplainConfig::default();
        let trace = Collector::new();
        let (traced, traced_fit) =
            perturb_and_fit(&KeptFraction, &schema, &spec, 7, &config, &trace);
        let (untraced, untraced_fit) =
            perturb_and_fit(&KeptFraction, &schema, &spec, 7, &config, em_obs::noop());
        assert_eq!(traced, untraced);
        assert_eq!(traced_fit.coefficients, untraced_fit.coefficients);
        for stage in Stage::all() {
            let expected = matches!(
                stage,
                Stage::MaskSampling
                    | Stage::PairReconstruction
                    | Stage::ModelScoring
                    | Stage::SurrogateFit
            );
            assert_eq!(trace.stage_entries(stage), expected as u64, "{stage:?}");
        }
    }

    #[test]
    fn masks_are_the_seeded_sample() {
        // The engine's masks are `sample_masks`': the fit over them equals
        // a fit over the same sample drawn directly.
        let schema = Schema::from_names(vec!["name", "price"]);
        let pair = pair();
        let spec = PerturbSpec::AttrCopy {
            pair: &pair,
            copy_into: EntitySide::Right,
        };
        let config = ExplainConfig {
            n_samples: 50,
            ..Default::default()
        };
        let (probs, fit) =
            perturb_and_fit(&KeptFraction, &schema, &spec, 9, &config, em_obs::noop());
        let masks = sample_masks(2, 50, 9);
        assert_eq!(
            perturb(&KeptFraction, &schema, &spec, 9, &config, em_obs::noop()).0,
            masks
        );
        let expected: Vec<f64> = masks
            .iter()
            .map(|m| KeptFractionScorer.score_mask(m))
            .collect();
        assert_eq!(probs, expected);
        let direct = fit_surrogate(&masks, &expected, config.kernel_width);
        assert_eq!(fit.coefficients, direct.coefficients);
        assert_eq!(fit.intercept, direct.intercept);
    }

    #[test]
    fn perturb_prepares_one_scorer_per_call() {
        let schema = Schema::from_names(vec!["name", "price"]);
        let pair = pair();
        let spec = PerturbSpec::AttrCopy {
            pair: &pair,
            copy_into: EntitySide::Right,
        };
        let record = CountingScorers::default();
        for (calls, n_samples) in [(1, 1), (2, 64), (3, 500)] {
            let config = ExplainConfig {
                n_samples,
                ..Default::default()
            };
            let (masks, probs) = perturb(&record, &schema, &spec, 5, &config, em_obs::noop());
            assert_eq!((masks.len(), probs.len()), (n_samples, n_samples));
            assert_eq!(record.0.get(), calls, "{n_samples} samples");
        }
    }
}
