//! Naive-vs-prepared scoring kernel speedup report.
//!
//! Builds the landmark views of a handful of records (both landmarks,
//! `Auto` strategy), samples each view's masks once, and then scores every
//! record two ways, single-threaded, as an explanation scores it: the
//! record's own prediction, then both views' masks.
//!
//! 1. **naive** — `predict_proba` for the prediction and a
//!    [`FallbackScorer`](em_entity::FallbackScorer) per view, which
//!    reconstructs each masked pair and extracts its features from
//!    scratch ([`FallbackRecord`]);
//! 2. **kernel** — one `prepare_record` per record, through the matcher's
//!    override: the record state is built once and shared by the
//!    prediction and both views' scorers, which score each mask
//!    incrementally.
//!
//! Each side's time is the prediction, preparing both views' scorers and
//! scoring their masks, and nothing else: no sampling and no surrogate
//! fit, so the ratio moves only when preparation or scoring does. The two
//! must return the same bits for every prediction and every mask's
//! probability (the report checks and exits non-zero on any difference);
//! only wall-clock differs. Each of [`ROUNDS`] rounds times both sides,
//! the naive one first on even rounds and the kernel first on odd ones;
//! the report keeps the median round of each. The speedup is what
//! `perf_gate` guards against regression in CI.
//!
//! Run with: `cargo run --release -p bench --bin kernel_speedup`
//!
//! Environment: `SCALE`, `RECORDS`, `SAMPLES` as usual (see `bench`
//! crate docs); `DATASETS` selects the input: a short name (default
//! `T-AB`, the textual family, whose long descriptions are Text
//! attributes; `S-FZ` is the structured family whose short attributes are
//! all memoized), or a short name with a `.csv` suffix (`T-AB.csv`) for
//! that dataset round-tripped through `dataset_to_csv` and
//! `dataset_from_reader`, where every attribute is a Name attribute, as
//! in the files `em-batch` reads. `KERNEL_BENCH_OUT` sets the JSON report
//! path (default `BENCH_kernel.json`).

use std::time::Instant;

use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{
    dataset_from_reader, dataset_to_csv, EntityPair, EntitySide, FallbackRecord, Masks, MatchModel,
    PreparedRecord,
};
use em_lime::sample_masks;
use em_matchers::LogisticMatcher;
use landmark_core::{generate_view, perturb_spec, GenerationStrategy, VaryingView};

/// Timed rounds per side; the report keeps the median of each.
const ROUNDS: usize = 5;

/// One sampled record and its two landmark views, each with its sampled
/// masks.
struct Record {
    pair: EntityPair,
    views: Vec<(VaryingView, Masks)>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "a measurement tool: it is configured from the environment and times with the clock, and no output of the explainers depends on either"
)]
fn main() {
    let base = bench::config_from_env();
    let selected = std::env::var("DATASETS").ok();
    let csv_name = selected
        .as_deref()
        .and_then(|list| list.trim().strip_suffix(".csv"));
    let id = match (csv_name, &selected) {
        (Some(name), _) => DatasetId::parse(name).unwrap_or_else(|msg| {
            eprintln!("kernel_speedup: {msg}");
            std::process::exit(2);
        }),
        (None, Some(_)) => bench::datasets_from_env()[0],
        (None, None) => DatasetId::TAb,
    };
    let input = match csv_name {
        Some(_) => format!("{}.csv", id.short_name()),
        None => id.short_name().to_string(),
    };
    bench::outln!("# Prepared-kernel vs naive scoring speedup (input {input}, single thread)");
    bench::outln!(
        "# scale={}, records/label={}, samples/view={}, rounds={ROUNDS}\n",
        base.scale,
        base.n_records_per_label,
        base.n_samples
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let mut dataset = benchmark.generate(id);
    if csv_name.is_some() {
        dataset = dataset_from_reader(&input, dataset_to_csv(&dataset).as_bytes())
            .expect("a generated dataset round-trips through CSV");
    }
    let (train, _) = dataset.train_test_split(42);
    let matcher = LogisticMatcher::train(&train);
    let schema = dataset.schema();

    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<Record> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .enumerate()
        .map(|(i, record)| {
            let pair = record.pair.clone();
            let strategy = GenerationStrategy::Auto.resolve(matcher.predict_proba(schema, &pair));
            let views = [EntitySide::Left, EntitySide::Right]
                .into_iter()
                .map(|landmark| {
                    let view = generate_view(&pair, landmark, strategy);
                    let masks = sample_masks(view.tokens.len(), base.n_samples, i as u64);
                    (view, masks)
                })
                .collect();
            Record { pair, views }
        })
        .collect();
    let n_views: usize = records.iter().map(|r| r.views.len()).sum();
    let n_masks: usize = records
        .iter()
        .flat_map(|r| &r.views)
        .map(|(_, masks)| masks.len())
        .sum();

    let score_all = |kernel: bool| {
        let start = Instant::now();
        let mut bits = Vec::with_capacity(records.len() + n_masks);
        for record in &records {
            let prepared: Box<dyn PreparedRecord + '_> = if kernel {
                matcher.prepare_record(schema, &record.pair)
            } else {
                Box::new(FallbackRecord::new(&matcher, schema, &record.pair))
            };
            bits.push(prepared.predict().to_bits());
            for (view, masks) in &record.views {
                let spec = perturb_spec(&record.pair, view);
                let mut scorer = prepared.scorer(&spec);
                bits.extend(masks.iter().map(|mask| scorer.score_mask(mask).to_bits()));
            }
        }
        (start.elapsed().as_secs_f64(), bits)
    };

    let mut naive_times = Vec::with_capacity(ROUNDS);
    let mut kernel_times = Vec::with_capacity(ROUNDS);
    let mut identical = true;
    for round in 0..ROUNDS {
        let ((naive_s, naive), (kernel_s, kernel)) = if round % 2 == 0 {
            let naive = score_all(false);
            (naive, score_all(true))
        } else {
            let kernel = score_all(true);
            (score_all(false), kernel)
        };
        identical &= naive == kernel;
        naive_times.push(naive_s);
        kernel_times.push(kernel_s);
    }
    let naive_s = bench::median(naive_times);
    let kernel_s = bench::median(kernel_times);
    let speedup = naive_s / kernel_s.max(1e-9);

    bench::outln!(
        "  records: {} ({n_views} views, {n_masks} masks)",
        records.len()
    );
    bench::outln!("  naive (fallback): {naive_s:>8.4} s");
    bench::outln!("  prepared kernel:  {kernel_s:>8.4} s");
    bench::outln!("  speedup:          {speedup:>8.2}x");
    bench::outln!(
        "  bit-identical predictions and probabilities: {}",
        if identical { "yes" } else { "NO" }
    );

    let report = Value::object(vec![
        ("dataset", Value::string(&input)),
        ("records", Value::from(records.len())),
        ("views", Value::from(n_views)),
        ("samples", Value::from(base.n_samples)),
        ("rounds", Value::from(ROUNDS)),
        ("naive_s", Value::from(naive_s)),
        ("kernel_s", Value::from(kernel_s)),
        ("speedup", Value::from(speedup)),
        ("bit_identical", Value::from(identical)),
    ]);
    let out = std::env::var("KERNEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".into());
    std::fs::write(&out, report.to_json() + "\n").expect("write kernel bench report");
    bench::outln!("\n  report written to {out}");

    if !identical {
        eprintln!("\nERROR: kernel and naive probabilities diverged");
        std::process::exit(1);
    }
}
