//! Stage accounting of every wire explainer.
//!
//! `X-Timing`, the `/metrics` stage histograms and perfbench's traced
//! layers all read what an explanation records into its tracer: how often
//! it entered each `em_obs::Stage`, how many samples it scored, and how
//! many features it perturbed. Byte digests (`tests/explain_golden.rs`)
//! cannot see a span that was lost or entered twice, so this suite pins
//! those figures for each wire explainer over small-scale S-FZ and T-AB
//! records, at one and two scoring threads.
//!
//! The expected rows were generated before the explainers were folded
//! into one perturb-and-fit engine; an observability change that moves a
//! span must update them deliberately. On a mismatch the failure message
//! lists every actual row.

use em_codec::{explain, ExplainOptions, ExplainRequest, ExplainerKind};
use em_obs::{Collector, Counter, Stage};
use landmark_explanation::prelude::*;

/// The explainers every row covers, in wire order.
const EXPLAINERS: [ExplainerKind; 5] = [
    ExplainerKind::Landmark,
    ExplainerKind::LandmarkSingle,
    ExplainerKind::LandmarkDouble,
    ExplainerKind::Lime,
    ExplainerKind::MojitoCopy,
];

/// Perturbation samples per surrogate fit.
const SAMPLES: usize = 64;

/// Expected accounting: `(dataset, record, explainer, stage entries in
/// `Stage::all()` order, samples scored, features)`. The same row holds
/// for every thread count.
type Row = (&'static str, usize, &'static str, [u64; 8], u64, u64);

const EXPECTED: &[Row] = &[
    ("S-FZ", 0, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 17),
    (
        "S-FZ",
        0,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        17,
    ),
    (
        "S-FZ",
        0,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        34,
    ),
    ("S-FZ", 0, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 17),
    ("S-FZ", 0, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 5),
    ("S-FZ", 1, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 18),
    (
        "S-FZ",
        1,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        18,
    ),
    (
        "S-FZ",
        1,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        36,
    ),
    ("S-FZ", 1, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 18),
    ("S-FZ", 1, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 5),
    ("S-FZ", 2, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 32),
    (
        "S-FZ",
        2,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        16,
    ),
    (
        "S-FZ",
        2,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        32,
    ),
    ("S-FZ", 2, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 16),
    ("S-FZ", 2, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 5),
    ("S-FZ", 3, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 36),
    (
        "S-FZ",
        3,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        18,
    ),
    (
        "S-FZ",
        3,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        36,
    ),
    ("S-FZ", 3, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 18),
    ("S-FZ", 3, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 5),
    ("T-AB", 0, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 43),
    (
        "T-AB",
        0,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        43,
    ),
    (
        "T-AB",
        0,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        86,
    ),
    ("T-AB", 0, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 43),
    ("T-AB", 0, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 3),
    ("T-AB", 1, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 48),
    (
        "T-AB",
        1,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        48,
    ),
    (
        "T-AB",
        1,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        96,
    ),
    ("T-AB", 1, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 48),
    ("T-AB", 1, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 3),
    ("T-AB", 2, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 90),
    (
        "T-AB",
        2,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        45,
    ),
    (
        "T-AB",
        2,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        90,
    ),
    ("T-AB", 2, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 45),
    ("T-AB", 2, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 3),
    ("T-AB", 3, "landmark", [0, 2, 2, 2, 2, 2, 0, 0], 128, 82),
    (
        "T-AB",
        3,
        "landmark-single",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        41,
    ),
    (
        "T-AB",
        3,
        "landmark-double",
        [0, 2, 2, 2, 2, 2, 0, 0],
        128,
        82,
    ),
    ("T-AB", 3, "lime", [1, 0, 1, 1, 1, 1, 0, 0], 64, 41),
    ("T-AB", 3, "mojito-copy", [1, 0, 1, 1, 1, 1, 0, 0], 64, 3),
];

/// The records to explain: two matches and two non-matches, drawn the way
/// the golden digests draw them.
fn records(id: DatasetId, scale: f64) -> (EmDataset, LogisticMatcher, Vec<EntityPair>) {
    let dataset = MagellanBenchmark::scaled(scale).generate(id);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let records = dataset
        .sample_by_label(true, 2, 11)
        .into_iter()
        .chain(dataset.sample_by_label(false, 2, 11))
        .map(|r| r.pair.clone())
        .collect();
    (dataset, matcher, records)
}

/// Runs one request through a fresh collector and reads its accounting.
fn account(
    matcher: &LogisticMatcher,
    schema: &Schema,
    request: &ExplainRequest,
) -> ([u64; 8], u64, u64) {
    let trace = Collector::new();
    explain::run_explain(matcher, schema, request, &trace);
    let mut entries = [0; 8];
    for (slot, stage) in entries.iter_mut().zip(Stage::all()) {
        *slot = trace.stage_entries(stage);
    }
    (
        entries,
        trace.counter(Counter::SamplesScored),
        trace.counter(Counter::Features),
    )
}

#[test]
fn every_explainer_enters_each_stage_as_pinned() {
    let mut actual: Vec<Row> = Vec::new();
    for (id, scale) in [(DatasetId::SFz, 0.05), (DatasetId::TAb, 0.02)] {
        let (dataset, matcher, records) = records(id, scale);
        assert_eq!(records.len(), 4, "{}", id.short_name());
        for (i, pair) in records.iter().enumerate() {
            for explainer in EXPLAINERS {
                let per_threads = [1, 2].map(|threads| {
                    let request = ExplainRequest {
                        pair: pair.clone(),
                        explainer,
                        options: ExplainOptions {
                            n_samples: SAMPLES,
                            seed: i as u64,
                            threads,
                            ..Default::default()
                        },
                    };
                    account(&matcher, dataset.schema(), &request)
                });
                assert_eq!(
                    per_threads[0],
                    per_threads[1],
                    "{} record {i} {}: accounting depends on the thread count",
                    id.short_name(),
                    explainer.name()
                );
                let (entries, samples, features) = per_threads[0];
                actual.push((
                    id.short_name(),
                    i,
                    explainer.name(),
                    entries,
                    samples,
                    features,
                ));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(d, i, e, entries, s, f)| {
            format!("    ({d:?}, {i}, {e:?}, {entries:?}, {s}, {f}),\n")
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        EXPECTED,
        "stage accounting changed; actual rows:\n{listing}"
    );
}
