//! Naive-vs-prepared scoring kernel speedup report.
//!
//! Builds the landmark views of a handful of records (both landmarks,
//! `Auto` strategy), samples each view's masks once, and then scores every
//! view's masks two ways, single-threaded:
//!
//! 1. **naive** — through [`FallbackScorer`], which reconstructs each
//!    masked pair and extracts its features from scratch;
//! 2. **kernel** — through the matcher's `prepare_scorer` override, which
//!    precomputes per-record state once and scores each mask
//!    incrementally.
//!
//! Each side's time is preparing its scorer for every view and scoring
//! the view's masks, and nothing else: no sampling and no surrogate fit,
//! so the ratio moves only when scoring does. The two must return the
//! same bits for every mask's probability (the report checks and exits
//! non-zero on any difference); only wall-clock differs. Each of
//! [`ROUNDS`] rounds times both sides, the naive one first on even rounds
//! and the kernel first on odd ones; the report keeps the median round of
//! each. The speedup is what `perf_gate` guards against regression in CI.
//!
//! Run with: `cargo run --release -p bench --bin kernel_speedup`
//!
//! Environment: `SCALE`, `RECORDS`, `SAMPLES` as usual (see `bench`
//! crate docs); `DATASETS` selects the input: a short name (default
//! `T-AB`, the textual family, whose long descriptions are Text
//! attributes; `S-FZ` is the structured family whose short attributes are
//! all memoized), or a short name with a `.csv` suffix (`T-AB.csv`) for
//! that dataset round-tripped through `dataset_to_csv` and
//! `dataset_from_csv`, where every attribute is a Name attribute, as in
//! the files `em-batch` reads. `KERNEL_BENCH_OUT` sets the JSON report
//! path (default `BENCH_kernel.json`).

use std::time::Instant;

use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{
    dataset_from_csv, dataset_to_csv, EntityPair, EntitySide, FallbackScorer, Masks, MatchModel,
    PerturbSpec, PreparedScorer, SideSpec, SplitConfig, Token,
};
use em_lime::sample_masks;
use em_matchers::{LogisticMatcher, MatcherConfig};
use landmark_core::{generate_view, GenerationStrategy};

/// Timed rounds per side; the report keeps the median of each.
const ROUNDS: usize = 5;

/// One landmark view of a record and its sampled masks.
struct View<'a> {
    pair: &'a EntityPair,
    varying: EntitySide,
    tokens: Vec<Token>,
    masks: Masks,
}

impl View<'_> {
    fn spec(&self) -> PerturbSpec<'_> {
        let (left, right) = match self.varying {
            EntitySide::Left => (SideSpec::Varying(&self.tokens[..]), SideSpec::Fixed),
            EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&self.tokens[..])),
        };
        PerturbSpec::TokenDrop {
            pair: self.pair,
            left,
            right,
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let base = bench::config_from_env();
    let selected = std::env::var("DATASETS").ok();
    let csv_name = selected
        .as_deref()
        .and_then(|list| list.trim().strip_suffix(".csv"));
    let id = match (csv_name, &selected) {
        (Some(name), _) => DatasetId::from_short_name(name).unwrap_or_else(|| {
            eprintln!("kernel_speedup: unknown dataset {name:?}");
            std::process::exit(2);
        }),
        (None, Some(_)) => bench::datasets_from_env()[0],
        (None, None) => DatasetId::TAb,
    };
    let input = match csv_name {
        Some(_) => format!("{}.csv", id.short_name()),
        None => id.short_name().to_string(),
    };
    println!("# Prepared-kernel vs naive scoring speedup (input {input}, single thread)");
    println!(
        "# scale={}, records/label={}, samples/view={}, rounds={ROUNDS}\n",
        base.scale, base.n_records_per_label, base.n_samples
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let mut dataset = benchmark.generate(id);
    if csv_name.is_some() {
        dataset = dataset_from_csv(&input, &dataset_to_csv(&dataset))
            .expect("a generated dataset round-trips through CSV");
    }
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
    let schema = dataset.schema();

    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<EntityPair> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .map(|r| r.pair.clone())
        .collect();

    let mut views = Vec::new();
    for (i, pair) in records.iter().enumerate() {
        let strategy = GenerationStrategy::Auto.resolve(matcher.predict_proba(schema, pair));
        for landmark in [EntitySide::Left, EntitySide::Right] {
            let view = generate_view(pair, landmark, strategy);
            views.push(View {
                pair,
                varying: view.varying,
                masks: sample_masks(view.tokens.len(), base.n_samples, i as u64),
                tokens: view.tokens,
            });
        }
    }
    let n_masks: usize = views.iter().map(|v| v.masks.len()).sum();

    let score_all = |kernel: bool| {
        let start = Instant::now();
        let mut bits = Vec::with_capacity(n_masks);
        for view in &views {
            let spec = view.spec();
            let mut scorer: Box<dyn PreparedScorer + '_> = if kernel {
                matcher.prepare_scorer(schema, &spec)
            } else {
                Box::new(FallbackScorer::new(&matcher, schema, &spec))
            };
            bits.extend(
                view.masks
                    .iter()
                    .map(|mask| scorer.score_mask(mask).to_bits()),
            );
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
    let naive_s = median(naive_times);
    let kernel_s = median(kernel_times);
    let speedup = naive_s / kernel_s.max(1e-9);

    println!("  views: {} ({n_masks} masks)", views.len());
    println!("  naive (fallback): {naive_s:>8.4} s");
    println!("  prepared kernel:  {kernel_s:>8.4} s");
    println!("  speedup:          {speedup:>8.2}x");
    println!(
        "  bit-identical probabilities: {}",
        if identical { "yes" } else { "NO" }
    );

    let report = Value::object(vec![
        ("dataset", Value::string(&input)),
        ("records", Value::from(records.len())),
        ("views", Value::from(views.len())),
        ("samples", Value::from(base.n_samples)),
        ("rounds", Value::from(ROUNDS)),
        ("naive_s", Value::from(naive_s)),
        ("kernel_s", Value::from(kernel_s)),
        ("speedup", Value::from(speedup)),
        ("bit_identical", Value::from(identical)),
    ]);
    let out = std::env::var("KERNEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".into());
    std::fs::write(&out, report.to_json() + "\n").expect("write kernel bench report");
    println!("\n  report written to {out}");

    if !identical {
        eprintln!("\nERROR: kernel and naive probabilities diverged");
        std::process::exit(1);
    }
}
