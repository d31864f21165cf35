//! The black-box model interface every explainer consumes.

use crate::masks::Masks;
use crate::pair::EntityPair;
use crate::prepared::{FallbackScorer, PerturbSpec, PreparedScorer};
use crate::schema::Schema;
use em_obs::{Counter, Span, Stage, Tracer};
use em_par::ParallelismConfig;

/// An entity-matching model: anything that maps a record (pair of entities)
/// to a match probability.
///
/// Explainers treat implementations as black boxes — exactly the post-hoc
/// setting of the paper. The mask-scoring method exists because
/// perturbation-based explainers score hundreds of synthetic records per
/// explanation.
pub trait MatchModel {
    /// Probability in `[0, 1]` that the pair is a match.
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64;

    /// Hard decision at the given threshold.
    fn predict_with_threshold(&self, schema: &Schema, pair: &EntityPair, threshold: f64) -> bool {
        self.predict_proba(schema, pair) >= threshold
    }

    /// Hard decision at the conventional 0.5 threshold.
    fn predict(&self, schema: &Schema, pair: &EntityPair) -> bool {
        self.predict_with_threshold(schema, pair, 0.5)
    }

    /// Probabilities for a batch of records.
    fn predict_proba_batch(&self, schema: &Schema, pairs: &[EntityPair]) -> Vec<f64> {
        pairs
            .iter()
            .map(|p| self.predict_proba(schema, p))
            .collect()
    }

    /// Builds a [`PreparedScorer`] for one perturbation family.
    ///
    /// The default falls back to the naive reconstruct-then-predict path
    /// ([`FallbackScorer`]); models with an incremental kernel override
    /// this with a scorer that precomputes per-record state once. Every
    /// override must stay **bit-identical** to the fallback for all masks
    /// (DESIGN.md §11) — the kernel is a pure optimization, never a
    /// semantic fork.
    ///
    /// Object-safe, so boxed models (`Box<dyn MatchModel + …>`, as served
    /// by `em-serve`) dispatch to the concrete model's kernel through the
    /// vtable.
    fn prepare_scorer<'a>(
        &'a self,
        schema: &'a Schema,
        spec: &'a PerturbSpec<'a>,
    ) -> Box<dyn PreparedScorer + 'a> {
        Box::new(FallbackScorer::new(self, schema, spec))
    }

    /// Scores every mask of a perturbation family across a thread pool
    /// via [`MatchModel::prepare_scorer`], timed as the
    /// [`Stage::ModelScoring`] stage of `tracer` with the mask count
    /// recorded as [`Counter::SamplesScored`].
    ///
    /// Each worker builds one scorer and reuses its buffers across its
    /// contiguous chunk of mask rows; results come back in row order. For
    /// any thread count and any tracer the output is bit-identical to
    /// scoring serially — and, by the prepared-scorer contract, to
    /// reconstructing each masked pair and calling
    /// [`MatchModel::predict_proba`] on it. Perturbation-based explainers
    /// score hundreds of masks per explanation, which makes this the
    /// pipeline's hot path.
    ///
    /// Only available on `Sync` models (still object-safe: the method is
    /// excluded from `dyn MatchModel` vtables).
    fn par_score_masks(
        &self,
        schema: &Schema,
        spec: &PerturbSpec<'_>,
        masks: &Masks,
        parallelism: &ParallelismConfig,
        tracer: &dyn Tracer,
    ) -> Vec<f64>
    where
        Self: Sync,
    {
        let _span = Span::enter(tracer, Stage::ModelScoring);
        tracer.add(Counter::SamplesScored, masks.len() as u64);
        let rows: Vec<&[bool]> = masks.iter().collect();
        em_par::par_map_init(
            parallelism,
            &rows,
            || self.prepare_scorer(schema, spec),
            |scorer, _, mask| scorer.score_mask(mask),
        )
    }
}

/// Blanket implementation so `&M`, `Box<M>`, etc. are also models.
///
/// `prepare_scorer` must forward too: without it, a wrapped model would
/// silently fall back to the naive scorer and lose its kernel — `em-serve`
/// holds models as `Box<dyn MatchModel + Send + Sync>` and relies on this
/// forwarding to engage the kernel on the serving path.
impl<M: MatchModel + ?Sized> MatchModel for &M {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        (**self).predict_proba(schema, pair)
    }

    fn prepare_scorer<'a>(
        &'a self,
        schema: &'a Schema,
        spec: &'a PerturbSpec<'a>,
    ) -> Box<dyn PreparedScorer + 'a> {
        (**self).prepare_scorer(schema, spec)
    }
}

impl<M: MatchModel + ?Sized> MatchModel for Box<M> {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        (**self).predict_proba(schema, pair)
    }

    fn prepare_scorer<'a>(
        &'a self,
        schema: &'a Schema,
        spec: &'a PerturbSpec<'a>,
    ) -> Box<dyn PreparedScorer + 'a> {
        (**self).prepare_scorer(schema, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;

    /// Toy model: probability = fraction of attributes with equal values.
    struct EqualityModel;

    impl MatchModel for EqualityModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            if schema.is_empty() {
                return 0.0;
            }
            let same = (0..schema.len())
                .filter(|&i| pair.left.value(i) == pair.right.value(i))
                .count();
            same as f64 / schema.len() as f64
        }
    }

    fn setup() -> (Schema, EntityPair) {
        let s = Schema::from_names(vec!["a", "b"]);
        let p = EntityPair::new(Entity::new(vec!["x", "y"]), Entity::new(vec!["x", "z"]));
        (s, p)
    }

    #[test]
    fn default_predict_uses_half_threshold() {
        let (s, p) = setup();
        assert!(EqualityModel.predict(&s, &p)); // proba = 0.5 >= 0.5
    }

    #[test]
    fn threshold_is_respected() {
        let (s, p) = setup();
        assert!(!EqualityModel.predict_with_threshold(&s, &p, 0.6));
        assert!(EqualityModel.predict_with_threshold(&s, &p, 0.4));
    }

    #[test]
    fn batch_matches_single_calls() {
        let (s, p) = setup();
        let p2 = EntityPair::new(Entity::new(vec!["x", "y"]), Entity::new(vec!["x", "y"]));
        let batch = EqualityModel.predict_proba_batch(&s, &[p.clone(), p2.clone()]);
        assert_eq!(
            batch,
            vec![
                EqualityModel.predict_proba(&s, &p),
                EqualityModel.predict_proba(&s, &p2)
            ]
        );
    }

    #[test]
    fn references_and_boxes_are_models() {
        let (s, p) = setup();
        let by_ref: &dyn MatchModel = &EqualityModel;
        let boxed: Box<dyn MatchModel> = Box::new(EqualityModel);
        assert_eq!(by_ref.predict_proba(&s, &p), 0.5);
        assert_eq!(boxed.predict_proba(&s, &p), 0.5);
    }

    /// Probe model whose kernel returns a sentinel: if a wrapper fails to
    /// forward `prepare_scorer`, the fallback would return real
    /// probabilities instead of the sentinel and this test catches it.
    struct KernelProbe;

    struct SentinelScorer;

    impl PreparedScorer for SentinelScorer {
        fn score_mask(&mut self, _mask: &[bool]) -> f64 {
            42.0
        }
    }

    impl MatchModel for KernelProbe {
        fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
            0.0
        }

        fn prepare_scorer<'a>(
            &'a self,
            _schema: &'a Schema,
            _spec: &'a PerturbSpec<'a>,
        ) -> Box<dyn PreparedScorer + 'a> {
            Box::new(SentinelScorer)
        }
    }

    #[test]
    fn boxed_and_borrowed_models_forward_prepare_scorer() {
        let (s, p) = setup();
        let spec = PerturbSpec::AttrCopy {
            pair: &p,
            copy_into: crate::pair::EntitySide::Right,
        };
        let mask = vec![true, true];
        let boxed: Box<dyn MatchModel + Send + Sync> = Box::new(KernelProbe);
        assert_eq!(boxed.prepare_scorer(&s, &spec).score_mask(&mask), 42.0);
        let by_ref = &KernelProbe;
        assert_eq!(by_ref.prepare_scorer(&s, &spec).score_mask(&mask), 42.0);
    }

    #[test]
    fn par_score_masks_matches_fallback_for_any_thread_count() {
        let (s, p) = setup();
        let spec = PerturbSpec::AttrCopy {
            pair: &p,
            copy_into: crate::pair::EntitySide::Right,
        };
        // Every mask of width 2: 11, 01, 10, 00.
        let mut masks = Masks::all_true(4, 2);
        masks.row_mut(1)[0] = false;
        masks.row_mut(2)[1] = false;
        masks.row_mut(3).fill(false);
        let expected: Vec<f64> = masks
            .iter()
            .map(|m| EqualityModel.predict_proba(&s, &spec.reconstruct(m, s.len())))
            .collect();
        for threads in [1, 2, 4] {
            let cfg = ParallelismConfig::with_threads(threads);
            let got = EqualityModel.par_score_masks(&s, &spec, &masks, &cfg, em_obs::noop());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }
}
