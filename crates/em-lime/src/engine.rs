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

use em_entity::{Masks, MatchModel, PerturbSpec, Schema};
use em_obs::{Counter, Span, Stage, Tracer};
use em_par::ParallelismConfig;

use crate::sampler::MaskSampler;
use crate::surrogate::{fit_surrogate, SurrogateConfig, SurrogateFit};

/// Settings shared by every explainer.
#[derive(Debug, Clone, Copy)]
pub struct ExplainConfig {
    /// Number of perturbation samples per surrogate fit (LIME's
    /// `num_samples`).
    pub n_samples: usize,
    /// Surrogate kernel / solver settings.
    pub surrogate: SurrogateConfig,
    /// RNG seed for mask sampling.
    pub seed: u64,
    /// How to spread reconstruction scoring across threads. Mask sampling
    /// stays serial (it drives the RNG stream); only the model's scoring —
    /// the hot path — fans out, so any setting produces bit-identical
    /// explanations.
    pub parallelism: ParallelismConfig,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig {
            n_samples: 500,
            surrogate: SurrogateConfig::default(),
            seed: 0,
            parallelism: ParallelismConfig::serial(),
        }
    }
}

/// Samples `config.n_samples` masks over `spec`'s features from `seed`,
/// scores every mask with `model`, and fits the surrogate.
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
pub fn perturb_and_fit<M: MatchModel + Sync>(
    model: &M,
    schema: &Schema,
    spec: &PerturbSpec<'_>,
    seed: u64,
    config: &ExplainConfig,
    tracer: &dyn Tracer,
) -> (Vec<f64>, SurrogateFit) {
    let (masks, probs) = perturb(model, schema, spec, seed, config, tracer);
    let fit = {
        let _span = Span::enter(tracer, Stage::SurrogateFit);
        fit_surrogate(&masks, &probs, &config.surrogate)
    };
    (probs, fit)
}

/// The neighborhood half of [`perturb_and_fit`]: the sampled masks and
/// their probabilities, with every stage but the fit recorded. The
/// neighborhood diagnostics read it directly.
pub fn perturb<M: MatchModel + Sync>(
    model: &M,
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
        MaskSampler::new(seed).sample(n_features, config.n_samples)
    };
    // The prepared kernel subsumes per-mask pair reconstruction: the spec
    // describes the whole perturbation family and the model's scorer
    // rebuilds (or incrementally scores) each mask inside `ModelScoring`,
    // bit-identical to reconstruct-then-predict (DESIGN.md §11). The stage
    // is still entered so the stage histograms and `X-Timing` keep it.
    drop(Span::enter(tracer, Stage::PairReconstruction));
    let probs = model.par_score_masks(schema, spec, &masks, &config.parallelism, tracer);
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

    impl MatchModel for KeptFraction {
        fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
            unreachable!("the engine scores masks through the prepared scorer")
        }

        fn prepare_scorer<'a>(
            &'a self,
            _schema: &'a Schema,
            _spec: &'a PerturbSpec<'a>,
        ) -> Box<dyn PreparedScorer + 'a> {
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
        // The engine's masks are `MaskSampler`'s: the fit over them equals
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
        let masks = MaskSampler::new(9).sample(2, 50);
        assert_eq!(
            perturb(&KeptFraction, &schema, &spec, 9, &config, em_obs::noop()).0,
            masks
        );
        let expected: Vec<f64> = masks
            .iter()
            .map(|m| KeptFractionScorer.score_mask(m))
            .collect();
        assert_eq!(probs, expected);
        let direct = fit_surrogate(&masks, &expected, &config.surrogate);
        assert_eq!(fit.coefficients, direct.coefficients);
        assert_eq!(fit.intercept, direct.intercept);
    }
}
