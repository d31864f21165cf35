//! The five explainers a request, a batch plan or an experiment can
//! select, and the one dispatch that runs them.

use em_entity::{EntityPair, MatchModel, Schema};
use em_lime::{ExplainConfig, LimeExplainer, MojitoCopyExplainer, PairExplanation};
use em_obs::Tracer;

use crate::explainer::{DualExplanation, LandmarkExplainer};
use crate::strategy::GenerationStrategy;

/// Which explainer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplainerKind {
    /// Landmark with `Auto` strategy resolution (the paper's default).
    Landmark,
    /// Landmark, single-entity generation forced (the paper's *Single*).
    LandmarkSingle,
    /// Landmark, double-entity generation forced (the paper's *Double*).
    LandmarkDouble,
    /// LIME / Mojito Drop over both entities.
    Lime,
    /// Mojito Copy (attribute-level copy perturbations).
    MojitoCopy,
}

/// What an explainer returns: the landmark kinds explain a record once per
/// landmark side, LIME and Mojito Copy once over the whole record.
#[derive(Debug, Clone)]
pub enum Explanation {
    /// Both landmark views.
    Dual(DualExplanation),
    /// One explanation over both entities.
    Pair(PairExplanation),
}

impl ExplainerKind {
    /// Every kind, in the order usage and error messages list them.
    pub const ALL: [ExplainerKind; 5] = [
        ExplainerKind::Landmark,
        ExplainerKind::LandmarkSingle,
        ExplainerKind::LandmarkDouble,
        ExplainerKind::Lime,
        ExplainerKind::MojitoCopy,
    ];

    /// Parses the wire name. The error names every wire name.
    pub fn parse(s: &str) -> Result<ExplainerKind, String> {
        ExplainerKind::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown explainer {s:?} (expected one of {})",
                    ExplainerKind::ALL.map(ExplainerKind::name).join(", ")
                )
            })
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ExplainerKind::Landmark => "landmark",
            ExplainerKind::LandmarkSingle => "landmark-single",
            ExplainerKind::LandmarkDouble => "landmark-double",
            ExplainerKind::Lime => "lime",
            ExplainerKind::MojitoCopy => "mojito-copy",
        }
    }

    /// The column header of the paper's Tables 2-4 (`Landmark`, which
    /// the paper does not tabulate, is labelled by its own name).
    pub fn label(self) -> &'static str {
        match self {
            ExplainerKind::Landmark => "Landmark",
            ExplainerKind::LandmarkSingle => "Single",
            ExplainerKind::LandmarkDouble => "Double",
            ExplainerKind::Lime => "LIME",
            ExplainerKind::MojitoCopy => "Mojito Copy",
        }
    }

    /// Explains `pair` with this kind's explainer under `config`,
    /// recording per-stage timings into `tracer` ([`em_obs::noop`]
    /// records nothing; tracing only observes, DESIGN.md §10).
    pub fn explain<M: MatchModel>(
        self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        config: &ExplainConfig,
        tracer: &dyn Tracer,
    ) -> Explanation {
        let strategy = match self {
            ExplainerKind::Landmark => GenerationStrategy::Auto,
            ExplainerKind::LandmarkSingle => GenerationStrategy::SingleEntity,
            ExplainerKind::LandmarkDouble => GenerationStrategy::DoubleEntity,
            ExplainerKind::Lime => {
                let explainer = LimeExplainer::new(*config);
                return Explanation::Pair(explainer.explain(model, schema, pair, tracer));
            }
            ExplainerKind::MojitoCopy => {
                let explainer = MojitoCopyExplainer::new(*config);
                return Explanation::Pair(explainer.explain(model, schema, pair, tracer));
            }
        };
        let explainer = LandmarkExplainer::new(*config, strategy);
        Explanation::Dual(explainer.explain(model, schema, pair, tracer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for kind in ExplainerKind::ALL {
            assert_eq!(ExplainerKind::parse(kind.name()), Ok(kind));
        }
        let expected =
            "(expected one of landmark, landmark-single, landmark-double, lime, mojito-copy)";
        assert_eq!(
            ExplainerKind::parse("shap"),
            Err(format!("unknown explainer \"shap\" {expected}"))
        );
        assert_eq!(
            ExplainerKind::parse("Landmark"),
            Err(format!("unknown explainer \"Landmark\" {expected}"))
        );
    }
}
