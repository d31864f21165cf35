//! Golden digests of explanation bytes.
//!
//! Every path that answers an explain request (library, `em-serve`,
//! `em-route`, `em-batch`) renders it through `em_codec::run_explain`, so
//! the JSON it returns *is* the product. This suite pins that JSON across
//! versions: for each explainer and a handful of small-scale S-FZ and T-AB
//! records it folds the response bodies into one FNV-1a 64-bit digest and
//! compares it with a constant. An optimization that changes a single bit
//! of a weight, intercept or R² changes a digest.
//!
//! A second table pins T-AB records after a round trip through the CSV
//! form `em-batch` reads. The importer names every column without a kind,
//! so that schema is all Name, and the long descriptions are scored as
//! Name attributes past the kernel's memo cap (DESIGN.md §11).
//!
//! The typed constants were generated before the fused surrogate fit
//! replaced the row-by-row pipeline, the CSV constants before the probe
//! path for long Name attributes; they must only change together with a
//! deliberate, documented change of explanation semantics. On a mismatch
//! the failure message lists every actual digest.

use em_codec::{explain, fnv1a64, ExplainOptions, ExplainRequest, ExplainerKind};
use landmark_explanation::entity::schema::AttributeKind;
use landmark_explanation::entity::{dataset_from_reader, dataset_to_csv};
use landmark_explanation::lime::SurrogateSolver;
use landmark_explanation::prelude::*;

/// The explainers every digest row covers, in wire order.
const EXPLAINERS: [ExplainerKind; 5] = [
    ExplainerKind::Landmark,
    ExplainerKind::LandmarkSingle,
    ExplainerKind::LandmarkDouble,
    ExplainerKind::Lime,
    ExplainerKind::MojitoCopy,
];

/// Expected digests: `(dataset, case, explainer, digest)`.
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("S-FZ", "default", "landmark", 0x28814fa0710e6988),
    ("S-FZ", "default", "landmark-single", 0xd93329633cf2a126),
    ("S-FZ", "default", "landmark-double", 0xb333eb0c435d5c13),
    ("S-FZ", "default", "lime", 0xc1aa1842f027452c),
    ("S-FZ", "default", "mojito-copy", 0xaa109d15a56098a6),
    ("S-FZ", "narrow", "landmark", 0x8bb0b76bd40058b7),
    ("S-FZ", "narrow", "landmark-single", 0x084bd0fe3c2d776f),
    ("S-FZ", "narrow", "landmark-double", 0x87174854ae38b86c),
    ("S-FZ", "narrow", "lime", 0x82e615dbed078cb6),
    ("S-FZ", "narrow", "mojito-copy", 0x80978928bdeadefb),
    ("S-FZ", "wide", "landmark", 0x969300805130873b),
    ("S-FZ", "wide", "landmark-single", 0x9c1bed5236d10a57),
    ("S-FZ", "wide", "landmark-double", 0x4621f8a225c843d5),
    ("S-FZ", "wide", "lime", 0xcafd7e3ed0cecd99),
    ("S-FZ", "wide", "mojito-copy", 0xde9144554b05364b),
    ("S-FZ", "lambda0", "landmark", 0x8fe3dcad8a9af427),
    ("S-FZ", "lambda0", "landmark-single", 0x63a519d73841bd4d),
    ("S-FZ", "lambda0", "landmark-double", 0xfa9d07a3d54e2b20),
    ("S-FZ", "lambda0", "lime", 0x6ec87b919a099570),
    ("S-FZ", "lambda0", "mojito-copy", 0x42bacd4cf332bb8d),
    ("S-FZ", "lasso", "landmark", 0xaa4d2fed8252376c),
    ("S-FZ", "lasso", "landmark-single", 0x9c7b3ce65badabf1),
    ("S-FZ", "lasso", "landmark-double", 0x2fc45ddfbf65cb4d),
    ("S-FZ", "lasso", "lime", 0xd418dd70ebb89b87),
    ("S-FZ", "lasso", "mojito-copy", 0xe46f3b838c1f306d),
    ("T-AB", "default", "landmark", 0x849bd0458cecf741),
    ("T-AB", "default", "landmark-single", 0x7bfd7872d7240d2a),
    ("T-AB", "default", "landmark-double", 0xa30711133435d8e3),
    ("T-AB", "default", "lime", 0x0af8ac522028750c),
    ("T-AB", "default", "mojito-copy", 0x42c7239b96050ff3),
    ("T-AB", "narrow", "landmark", 0x4b8ab90bd0a9d4a4),
    ("T-AB", "narrow", "landmark-single", 0x75dfe53766904361),
    ("T-AB", "narrow", "landmark-double", 0x2640daff20fc87ab),
    ("T-AB", "narrow", "lime", 0xe9bc50f036de5989),
    ("T-AB", "narrow", "mojito-copy", 0xd267ef256f5126ce),
    ("T-AB", "wide", "landmark", 0xab12d9c5bf328dc1),
    ("T-AB", "wide", "landmark-single", 0x352c23f95b3499d8),
    ("T-AB", "wide", "landmark-double", 0x9e166cd81bbe7087),
    ("T-AB", "wide", "lime", 0x0ff8c38ddc402eea),
    ("T-AB", "wide", "mojito-copy", 0x8b395c5783164792),
    ("T-AB", "lambda0", "landmark", 0x4bca35e6c8ae5432),
    ("T-AB", "lambda0", "landmark-single", 0x54084dda380ca9ed),
    ("T-AB", "lambda0", "landmark-double", 0x457cbce2a3199efc),
    ("T-AB", "lambda0", "lime", 0xb82b483469117ec4),
    ("T-AB", "lambda0", "mojito-copy", 0xbdfc98f6c927158a),
    ("T-AB", "lasso", "landmark", 0x52a07f4c5a559dbe),
    ("T-AB", "lasso", "landmark-single", 0x5ea704548c4760d8),
    ("T-AB", "lasso", "landmark-double", 0x15c0dabea3cbde2d),
    ("T-AB", "lasso", "lime", 0x19e3edb884a98be7),
    ("T-AB", "lasso", "mojito-copy", 0xf2e441ab6da7a368),
];

/// Expected digests of the CSV round-tripped T-AB records under the
/// default options: `(explainer, digest)`.
const GOLDEN_CSV: &[(&str, u64)] = &[
    ("landmark", 0x545aeeddefeed812),
    ("landmark-double", 0xa741d0befecc0d28),
    ("lime", 0x15f25a0dc7734995),
];

/// A small trained setup: the matcher and the records to explain.
struct Setup {
    id: DatasetId,
    dataset: EmDataset,
    matcher: LogisticMatcher,
    records: Vec<EntityPair>,
}

fn setup(id: DatasetId, scale: f64) -> Setup {
    trained(id, MagellanBenchmark::scaled(scale).generate(id))
}

/// [`setup`] on the generated records after `dataset_to_csv` and
/// `dataset_from_reader`, the path `em-batch gen` and `plan` take.
fn csv_setup(id: DatasetId, scale: f64) -> Setup {
    let csv = dataset_to_csv(&MagellanBenchmark::scaled(scale).generate(id));
    let dataset = dataset_from_reader(id.short_name(), csv.as_bytes()).expect("CSV round trip");
    trained(id, dataset)
}

fn trained(id: DatasetId, dataset: EmDataset) -> Setup {
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let records = dataset
        .sample_by_label(true, 2, 11)
        .into_iter()
        .chain(dataset.sample_by_label(false, 2, 11))
        .map(|r| r.pair.clone())
        .collect();
    Setup {
        id,
        dataset,
        matcher,
        records,
    }
}

/// The option sets each explainer runs under: the defaults at a small
/// sample count, plus the surrogate settings the fit special-cases (the
/// narrowest accepted kernel width, which zeroes every perturbed weight,
/// a wide kernel, λ = 0, and the lasso solver).
fn cases() -> Vec<(&'static str, ExplainOptions)> {
    let base = ExplainOptions {
        n_samples: 64,
        ..Default::default()
    };
    vec![
        ("default", base),
        (
            "narrow",
            ExplainOptions {
                kernel_width: 1e-6,
                ..base
            },
        ),
        (
            "wide",
            ExplainOptions {
                kernel_width: 5.0,
                ..base
            },
        ),
        (
            "lambda0",
            ExplainOptions {
                solver: SurrogateSolver::Ridge { lambda: 0.0 },
                ..base
            },
        ),
        (
            "lasso",
            ExplainOptions {
                solver: SurrogateSolver::Lasso { lambda: 0.01 },
                ..base
            },
        ),
    ]
}

/// Digests every record's response body for one explainer and option set.
fn digest(setup: &Setup, explainer: ExplainerKind, options: ExplainOptions) -> u64 {
    let mut bodies = String::new();
    for (i, pair) in setup.records.iter().enumerate() {
        let request = ExplainRequest {
            pair: pair.clone(),
            explainer,
            options: ExplainOptions {
                seed: options.seed + i as u64,
                ..options
            },
        };
        let body = explain::run_explain(&setup.matcher, setup.dataset.schema(), &request, noop());
        bodies.push_str(&body.to_json());
        bodies.push('\n');
    }
    fnv1a64(bodies.as_bytes())
}

#[test]
fn explanation_bytes_match_the_golden_digests() {
    let setups = [setup(DatasetId::SFz, 0.05), setup(DatasetId::TAb, 0.02)];
    let mut actual = Vec::new();
    for setup in &setups {
        assert_eq!(setup.records.len(), 4, "{}", setup.id.short_name());
        for (case, options) in cases() {
            for explainer in EXPLAINERS {
                actual.push((
                    setup.id.short_name(),
                    case,
                    explainer.name(),
                    digest(setup, explainer, options),
                ));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(d, c, e, h)| format!("    ({d:?}, {c:?}, {e:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN,
        "explanation bytes changed; actual digests:\n{listing}"
    );
}

#[test]
fn batch_path_explanation_bytes_match_the_golden_digests() {
    let setup = csv_setup(DatasetId::TAb, 0.02);
    assert_eq!(setup.records.len(), 4);
    let schema = setup.dataset.schema();
    assert!((0..schema.len()).all(|i| schema.attribute(i).kind == AttributeKind::Name));
    let options = ExplainOptions {
        n_samples: 64,
        ..Default::default()
    };
    let actual: Vec<(&str, u64)> = [
        ExplainerKind::Landmark,
        ExplainerKind::LandmarkDouble,
        ExplainerKind::Lime,
    ]
    .into_iter()
    .map(|explainer| (explainer.name(), digest(&setup, explainer, options)))
    .collect();
    let listing: String = actual
        .iter()
        .map(|(e, h)| format!("    ({e:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN_CSV,
        "batch-path explanation bytes changed; actual digests:\n{listing}"
    );
}
