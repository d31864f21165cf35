//! Unfused-vs-fused surrogate fit speedup report.
//!
//! Builds the landmark views of a handful of records (both landmarks,
//! `Auto` strategy), samples and scores each view's masks once, and then
//! fits the surrogate on every view two ways, single-threaded:
//!
//! 1. **reference** — `em_lime::reference::fit_surrogate`, the row-by-row
//!    pipeline (one `Vec<f64>` per mask, a cosine and an `exp` per mask,
//!    `Matrix::from_rows`, then `ridge_fit`);
//! 2. **fused** — `em_lime::fit_surrogate` on the flat [`Masks`].
//!
//! The two must agree bit for bit on every intercept, coefficient and R²
//! (the report checks and exits non-zero on any difference); only
//! wall-clock differs. Both fits share the same (already faster) Gram and
//! Cholesky code in `em-linalg`, so the ratio isolates what the fused fit
//! itself saves. Each of [`ROUNDS`] rounds times both fits over all
//! views, the reference first on even rounds and the fused fit first on
//! odd ones, so neither side always runs on the other's warm caches and
//! freed buffers; the report keeps the median round of each. The speedup
//! is what `perf_gate` guards in CI.
//!
//! Run with: `cargo run --release -p bench --bin fit_speedup`
//!
//! The dataset is always S-FZ. Environment: `SCALE`, `RECORDS`, `SAMPLES`
//! as usual (see `bench` crate docs); `FIT_BENCH_OUT` the JSON report path
//! (default `BENCH_fit.json`).

use std::time::Instant;

use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntitySide, Masks, MatchModel, PerturbSpec, SideSpec, SplitConfig};
use em_lime::{fit_surrogate, reference, sample_masks, SurrogateConfig, SurrogateFit};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use landmark_core::{generate_view, GenerationStrategy};

/// Timed rounds per side; the report keeps the median of each.
const ROUNDS: usize = 21;

/// One landmark view's fit inputs, in both mask layouts.
struct View {
    masks: Masks,
    nested: Vec<Vec<bool>>,
    probs: Vec<f64>,
}

fn same_fit(a: &SurrogateFit, b: &SurrogateFit) -> bool {
    a.intercept.to_bits() == b.intercept.to_bits()
        && a.r2.to_bits() == b.r2.to_bits()
        && a.coefficients.len() == b.coefficients.len()
        && a.coefficients
            .iter()
            .zip(&b.coefficients)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let base = bench::config_from_env();
    let id = DatasetId::SFz;
    println!(
        "# Fused vs reference surrogate fit speedup (dataset {}, single thread)",
        id.short_name()
    );
    println!(
        "# scale={}, records/label={}, samples/view={}, rounds={ROUNDS}\n",
        base.scale, base.n_records_per_label, base.n_samples
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
    let schema = dataset.schema();
    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<_> = dataset
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
            let masks = sample_masks(view.tokens.len(), base.n_samples, i as u64);
            let (left, right) = match view.varying {
                EntitySide::Left => (SideSpec::Varying(&view.tokens[..]), SideSpec::Fixed),
                EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&view.tokens[..])),
            };
            let spec = PerturbSpec::TokenDrop { pair, left, right };
            let serial = ParallelismConfig::serial();
            let probs = matcher.par_score_masks(schema, &spec, &masks, &serial, em_obs::noop());
            let nested = masks.iter().map(<[bool]>::to_vec).collect();
            views.push(View {
                masks,
                nested,
                probs,
            });
        }
    }
    let mean_features =
        views.iter().map(|v| v.masks.width()).sum::<usize>() as f64 / views.len().max(1) as f64;

    let config = SurrogateConfig::default();
    let time_all = |fit: &dyn Fn(&View) -> SurrogateFit| {
        let start = Instant::now();
        let fits: Vec<SurrogateFit> = views.iter().map(fit).collect();
        (start.elapsed().as_secs_f64(), fits)
    };
    let reference_fit = |v: &View| reference::fit_surrogate(&v.nested, &v.probs, &config);
    let fused_fit = |v: &View| fit_surrogate(&v.masks, &v.probs, &config);

    let mut reference_times = Vec::with_capacity(ROUNDS);
    let mut fused_times = Vec::with_capacity(ROUNDS);
    let mut identical = true;
    for round in 0..ROUNDS {
        let ((reference_s, reference_fits), (fused_s, fused_fits)) = if round % 2 == 0 {
            let reference = time_all(&reference_fit);
            (reference, time_all(&fused_fit))
        } else {
            let fused = time_all(&fused_fit);
            (time_all(&reference_fit), fused)
        };
        identical &= reference_fits
            .iter()
            .zip(&fused_fits)
            .all(|(a, b)| same_fit(a, b));
        reference_times.push(reference_s);
        fused_times.push(fused_s);
    }
    let reference_s = median(reference_times);
    let fused_s = median(fused_times);
    let speedup = reference_s / fused_s.max(1e-9);
    let per_view_us = |s: f64| s * 1e6 / views.len().max(1) as f64;

    println!(
        "  views: {} (mean {mean_features:.1} features)",
        views.len()
    );
    println!(
        "  reference fit: {reference_s:>8.4} s  ({:>7.1} us/view)",
        per_view_us(reference_s)
    );
    println!(
        "  fused fit:     {fused_s:>8.4} s  ({:>7.1} us/view)",
        per_view_us(fused_s)
    );
    println!("  speedup:       {speedup:>8.2}x");
    println!(
        "  bit-identical fits: {}",
        if identical { "yes" } else { "NO" }
    );

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("records", Value::from(records.len())),
        ("views", Value::from(views.len())),
        ("samples", Value::from(base.n_samples)),
        ("mean_features", Value::from(mean_features)),
        ("rounds", Value::from(ROUNDS)),
        ("reference_s", Value::from(reference_s)),
        ("fused_s", Value::from(fused_s)),
        ("speedup", Value::from(speedup)),
        ("bit_identical", Value::from(identical)),
    ]);
    let out = std::env::var("FIT_BENCH_OUT").unwrap_or_else(|_| "BENCH_fit.json".into());
    std::fs::write(&out, report.to_json() + "\n").expect("write fit bench report");
    println!("\n  report written to {out}");

    if !identical {
        eprintln!("\nERROR: fused and reference fits diverged");
        std::process::exit(1);
    }
}
