//! The black-box model interface every explainer consumes.

use crate::pair::EntityPair;
use crate::prepared::{FallbackRecord, PreparedRecord};
use crate::schema::Schema;

/// The conventional decision threshold: [`MatchModel::predict`] calls a
/// record a match when its probability reaches it.
pub const MATCH_THRESHOLD: f64 = 0.5;

/// An entity-matching model: anything that maps a record (pair of entities)
/// to a match probability.
///
/// Explainers treat implementations as black boxes — exactly the post-hoc
/// setting of the paper. The record-preparing method exists because
/// perturbation-based explainers score hundreds of synthetic records per
/// explanation, all perturbations of one record.
pub trait MatchModel {
    /// Probability in `[0, 1]` that the pair is a match.
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64;

    /// Hard decision at the given threshold.
    fn predict_with_threshold(&self, schema: &Schema, pair: &EntityPair, threshold: f64) -> bool {
        self.predict_proba(schema, pair) >= threshold
    }

    /// Hard decision at [`MATCH_THRESHOLD`].
    fn predict(&self, schema: &Schema, pair: &EntityPair) -> bool {
        self.predict_with_threshold(schema, pair, MATCH_THRESHOLD)
    }

    /// Prepares one record for scoring: its own prediction and a
    /// [`PreparedScorer`](crate::PreparedScorer) per perturbation family of
    /// it ([`PreparedRecord`]).
    ///
    /// The default falls back to the naive path ([`FallbackRecord`]:
    /// `predict_proba`, and reconstruct-then-predict per mask); models with
    /// an incremental kernel override this with a record that computes its
    /// per-record state once for the prediction and every family. Every
    /// override must stay **bit-identical** to the fallback for the
    /// prediction and for all masks (DESIGN.md §11) — the kernel is a pure
    /// optimization, never a semantic fork.
    ///
    /// Object-safe, so boxed models (`Box<dyn MatchModel + …>`, as served
    /// by `em-serve`) dispatch to the concrete model's kernel through the
    /// vtable.
    fn prepare_record<'a>(
        &'a self,
        schema: &'a Schema,
        pair: &'a EntityPair,
    ) -> Box<dyn PreparedRecord + 'a> {
        Box::new(FallbackRecord::new(self, schema, pair))
    }
}

/// Blanket implementation so `&M`, `Box<M>`, etc. are also models.
///
/// `prepare_record` must forward too: without it, a wrapped model would
/// silently fall back to the naive record and lose its kernel — `em-serve`
/// holds models as `Box<dyn MatchModel + Send + Sync>` and relies on this
/// forwarding to engage the kernel on the serving path.
impl<M: MatchModel + ?Sized> MatchModel for &M {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        (**self).predict_proba(schema, pair)
    }

    fn prepare_record<'a>(
        &'a self,
        schema: &'a Schema,
        pair: &'a EntityPair,
    ) -> Box<dyn PreparedRecord + 'a> {
        (**self).prepare_record(schema, pair)
    }
}

impl<M: MatchModel + ?Sized> MatchModel for Box<M> {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        (**self).predict_proba(schema, pair)
    }

    fn prepare_record<'a>(
        &'a self,
        schema: &'a Schema,
        pair: &'a EntityPair,
    ) -> Box<dyn PreparedRecord + 'a> {
        (**self).prepare_record(schema, pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::prepared::{PerturbSpec, PreparedScorer};

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
    fn references_and_boxes_are_models() {
        let (s, p) = setup();
        let by_ref: &dyn MatchModel = &EqualityModel;
        let boxed: Box<dyn MatchModel> = Box::new(EqualityModel);
        assert_eq!(by_ref.predict_proba(&s, &p), 0.5);
        assert_eq!(boxed.predict_proba(&s, &p), 0.5);
    }

    /// Probe model whose kernel returns sentinels: if a wrapper fails to
    /// forward `prepare_record`, the fallback would return real
    /// probabilities instead of the sentinels and this test catches it.
    struct KernelProbe;

    struct SentinelRecord;

    struct SentinelScorer;

    impl PreparedScorer for SentinelScorer {
        fn score_mask(&mut self, _mask: &[bool]) -> f64 {
            42.0
        }
    }

    impl PreparedRecord for SentinelRecord {
        fn predict(&self) -> f64 {
            7.0
        }

        fn scorer<'s>(&'s self, _spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's> {
            Box::new(SentinelScorer)
        }
    }

    impl MatchModel for KernelProbe {
        fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
            0.0
        }

        fn prepare_record<'a>(
            &'a self,
            _schema: &'a Schema,
            _pair: &'a EntityPair,
        ) -> Box<dyn PreparedRecord + 'a> {
            Box::new(SentinelRecord)
        }
    }

    #[test]
    fn boxed_and_borrowed_models_forward_prepare_record() {
        let (s, p) = setup();
        let spec = PerturbSpec::AttrCopy {
            pair: &p,
            copy_into: crate::pair::EntitySide::Right,
        };
        let mask = vec![true, true];
        let boxed: Box<dyn MatchModel + Send + Sync> = Box::new(KernelProbe);
        let by_ref = &KernelProbe;
        for record in [boxed.prepare_record(&s, &p), by_ref.prepare_record(&s, &p)] {
            assert_eq!(record.predict(), 7.0);
            assert_eq!(record.scorer(&spec).score_mask(&mask), 42.0);
        }
    }
}
