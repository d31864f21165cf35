//! `em-obs` — structured stage-level tracing for the explanation pipeline.
//!
//! Perturbation-based explainers are dominated by black-box scoring cost,
//! but until a profile says *where* a slow explanation spent its time —
//! tokenizing, generating the landmark view, reconstructing pairs, scoring
//! them, or fitting the surrogate — every optimization is a guess. This
//! crate provides the one observability primitive the workspace shares:
//!
//! * [`Stage`] — the named pipeline stages, in execution order;
//! * [`Tracer`] — the sink trait explainers accept as `&dyn Tracer`;
//! * [`Span`] — an RAII guard timing one stage with the monotonic clock;
//! * [`Collector`] — an atomic, thread-safe [`Tracer`] that accumulates
//!   per-stage durations and [`Counter`]s;
//! * [`noop`] — the default sink; it reports itself disabled, so [`Span`]
//!   never reads the clock and the traced hot path stays allocation-free;
//! * [`Histogram`] — the lock-free latency histogram over
//!   [`LATENCY_BUCKETS_US`] that both serving tiers expose on `/metrics`.
//!
//! # Determinism contract
//!
//! Tracing **observes** the pipeline and never feeds back into it: no
//! duration or counter value may influence a seed, an ordering, or an
//! output byte. Traced and untraced runs of any explainer are
//! bit-identical (DESIGN.md §10). This crate is the single sanctioned
//! reader of the monotonic clock in seeded-path code: clippy's
//! `disallowed_methods` refuses `Instant::now` at every call site in the
//! workspace (DESIGN.md §9), and [`Span::enter`] holds the one
//! `#[expect]` the explainers' timing needs, so all timing flows through
//! [`Span`] and stays auditable in one place.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The named stages of one explanation, in pipeline order (paper Figure 2:
/// Landmark generation → perturbation → Pair reconstruction → Dataset
/// reconstruction/scoring → surrogate fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Splitting attribute values into interpretable token features.
    Tokenize,
    /// Building the landmark's varying view (incl. token injection).
    LandmarkGeneration,
    /// Drawing perturbation masks from the seeded RNG.
    MaskSampling,
    /// Materializing one `EntityPair` per mask.
    PairReconstruction,
    /// Black-box scoring of the reconstructed pairs (the hot path), and
    /// a landmark explanation's prediction of the record itself.
    ModelScoring,
    /// Fitting the weighted linear surrogate.
    SurrogateFit,
    /// Routing tier (`em-route`): computing the canonical key and the
    /// ring lookup that picks the owning backend.
    RouteKey,
    /// Routing tier (`em-route`): the proxied exchange with the chosen
    /// backend, including any failover attempts.
    RouteForward,
}

/// Number of [`Stage`] variants (array-table size).
pub const N_STAGES: usize = 8;

impl Stage {
    /// All stages, in pipeline/render order.
    pub const fn all() -> [Stage; N_STAGES] {
        [
            Stage::Tokenize,
            Stage::LandmarkGeneration,
            Stage::MaskSampling,
            Stage::PairReconstruction,
            Stage::ModelScoring,
            Stage::SurrogateFit,
            Stage::RouteKey,
            Stage::RouteForward,
        ]
    }

    /// Stable snake_case label used in metrics, headers, and reports.
    pub const fn label(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::LandmarkGeneration => "landmark_generation",
            Stage::MaskSampling => "mask_sampling",
            Stage::PairReconstruction => "pair_reconstruction",
            Stage::ModelScoring => "model_scoring",
            Stage::SurrogateFit => "surrogate_fit",
            Stage::RouteKey => "route_key",
            Stage::RouteForward => "route_forward",
        }
    }

    /// Dense index for array-backed tables.
    pub const fn index(self) -> usize {
        match self {
            Stage::Tokenize => 0,
            Stage::LandmarkGeneration => 1,
            Stage::MaskSampling => 2,
            Stage::PairReconstruction => 3,
            Stage::ModelScoring => 4,
            Stage::SurrogateFit => 5,
            Stage::RouteKey => 6,
            Stage::RouteForward => 7,
        }
    }
}

/// Monotonic event counters recorded alongside stage durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Perturbed pairs scored by the black-box model.
    SamplesScored,
    /// Interpretable features (tokens / attributes) per explanation.
    Features,
    /// Explanations answered from a cache.
    CacheHits,
    /// Explanations computed because the cache missed.
    CacheMisses,
}

/// Number of [`Counter`] variants (array-table size).
pub const N_COUNTERS: usize = 4;

impl Counter {
    /// All counters, in render order.
    pub const fn all() -> [Counter; N_COUNTERS] {
        [
            Counter::SamplesScored,
            Counter::Features,
            Counter::CacheHits,
            Counter::CacheMisses,
        ]
    }

    /// Stable snake_case label used in metrics and reports.
    pub const fn label(self) -> &'static str {
        match self {
            Counter::SamplesScored => "samples_scored",
            Counter::Features => "features",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
        }
    }

    /// Dense index for array-backed tables.
    pub const fn index(self) -> usize {
        match self {
            Counter::SamplesScored => 0,
            Counter::Features => 1,
            Counter::CacheHits => 2,
            Counter::CacheMisses => 3,
        }
    }
}

/// A sink for stage timings and counters.
///
/// Explainers accept `&dyn Tracer` and are oblivious to what is behind
/// it: a [`Collector`] during profiling/serving, or [`noop`] (the
/// default) everywhere else. Implementations must be cheap and
/// non-blocking — they run inside the explanation hot path.
pub trait Tracer: Sync {
    /// Whether spans should read the clock at all. [`Span::enter`] skips
    /// both `Instant::now` calls when this is `false`, so a disabled
    /// tracer costs one virtual call per stage and nothing else.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Records one completed stage of `nanos` duration.
    fn record_stage(&self, stage: Stage, nanos: u64);

    /// Adds `amount` to a monotonic counter.
    fn add(&self, counter: Counter, amount: u64);
}

/// The disabled sink: reports `is_enabled() == false` and drops
/// everything. [`noop`] hands out the shared instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record_stage(&self, _stage: Stage, _nanos: u64) {}

    fn add(&self, _counter: Counter, _amount: u64) {}
}

/// The shared disabled tracer — the default argument of every traced
/// entry point.
pub fn noop() -> &'static NoopTracer {
    static NOOP: NoopTracer = NoopTracer;
    &NOOP
}

/// RAII guard timing one [`Stage`]: reads the monotonic clock on
/// [`Span::enter`] and records the elapsed nanoseconds into the tracer
/// when dropped. When the tracer is disabled the clock is never read.
pub struct Span<'t> {
    tracer: &'t dyn Tracer,
    stage: Stage,
    start: Option<Instant>,
}

impl std::fmt::Debug for Span<'_> {
    // Manual impl: `&dyn Tracer` has no `Debug` bound; the stage and
    // whether the span is live are the useful facts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("stage", &self.stage)
            .field("enabled", &self.start.is_some())
            .finish_non_exhaustive()
    }
}

impl<'t> Span<'t> {
    /// Starts timing `stage`. The clock is read only if the tracer is
    /// enabled.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned clock: span durations feed metrics/summaries only, never seeds, orderings, or output bytes (DESIGN.md §10)"
    )]
    pub fn enter(tracer: &'t dyn Tracer, stage: Stage) -> Span<'t> {
        let start = tracer.is_enabled().then(Instant::now);
        Span {
            tracer,
            stage,
            start,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.tracer.record_stage(self.stage, nanos);
        }
    }
}

/// A thread-safe accumulating [`Tracer`]: per-stage total durations and
/// entry counts plus the event [`Counter`]s, every cell an `AtomicU64`.
///
/// One `Collector` typically covers one explanation request (em-serve) or
/// one profiling cell (bench); [`Collector::merge_into`] folds several
/// into an aggregate.
#[derive(Debug, Default)]
pub struct Collector {
    stage_nanos: [AtomicU64; N_STAGES],
    stage_entries: [AtomicU64; N_STAGES],
    counters: [AtomicU64; N_COUNTERS],
}

impl Collector {
    /// A fresh collector with every cell at zero.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Total nanoseconds recorded for `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        load_cell(&self.stage_nanos, stage.index())
    }

    /// Number of spans recorded for `stage`.
    pub fn stage_entries(&self, stage: Stage) -> u64 {
        load_cell(&self.stage_entries, stage.index())
    }

    /// `(stage, total microseconds)` for every stage entered at least
    /// once, in pipeline order — what per-request stage histograms and
    /// timing headers observe.
    pub fn entered_stages_us(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::all()
            .into_iter()
            .filter(|&stage| self.stage_entries(stage) > 0)
            .map(|stage| (stage, self.stage_nanos(stage) / 1_000))
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        load_cell(&self.counters, counter.index())
    }

    /// Sum of all stage durations — the traced share of wall-clock.
    pub fn total_stage_nanos(&self) -> u64 {
        Stage::all()
            .iter()
            .map(|&s| self.stage_nanos(s))
            .fold(0u64, u64::saturating_add)
    }

    /// Adds every cell of `self` into `target` (for aggregating
    /// per-request collectors into a long-lived one).
    pub fn merge_into(&self, target: &Collector) {
        for stage in Stage::all() {
            add_to_cell(&target.stage_nanos, stage.index(), self.stage_nanos(stage));
            add_to_cell(
                &target.stage_entries,
                stage.index(),
                self.stage_entries(stage),
            );
        }
        for counter in Counter::all() {
            add_to_cell(&target.counters, counter.index(), self.counter(counter));
        }
    }
}

impl Tracer for Collector {
    fn record_stage(&self, stage: Stage, nanos: u64) {
        add_to_cell(&self.stage_nanos, stage.index(), nanos);
        add_to_cell(&self.stage_entries, stage.index(), 1);
    }

    fn add(&self, counter: Counter, amount: u64) {
        add_to_cell(&self.counters, counter.index(), amount);
    }
}

/// Reads cell `i` of a counter table; an out-of-range index reads zero.
fn load_cell(cells: &[AtomicU64], i: usize) -> u64 {
    cells.get(i).map_or(0, |cell| cell.load(Ordering::Relaxed))
}

/// Adds `amount` to cell `i` of a counter table; an out-of-range index
/// is dropped rather than panicking on the request path.
fn add_to_cell(cells: &[AtomicU64], i: usize, amount: u64) {
    if let Some(cell) = cells.get(i) {
        cell.fetch_add(amount, Ordering::Relaxed);
    }
}

/// Latency histogram bucket upper bounds, in microseconds. Every
/// [`Histogram`] uses this layout, so the serving tiers' dashboards line
/// up bucket for bucket.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
];

/// A lock-free latency histogram over [`LATENCY_BUCKETS_US`] plus a
/// `+Inf` overflow bucket, rendered in the Prometheus text exposition
/// format. Every cell is an `AtomicU64` bumped on the request path.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        add_to_cell(&self.buckets, bucket, 1);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Appends the cumulative `{metric}_bucket` series, then
    /// `{metric}_sum` and `{metric}_count`, each labelled
    /// `{label}="{value}"`.
    pub fn render(&self, out: &mut String, metric: &str, label: &str, value: &str) {
        let mut cumulative = 0u64;
        for (i, cell) in self.buckets.iter().enumerate() {
            cumulative += cell.load(Ordering::Relaxed);
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map_or_else(|| "+Inf".to_string(), u64::to_string);
            let _ = writeln!(
                out,
                "{metric}_bucket{{{label}=\"{value}\",le=\"{le}\"}} {cumulative}"
            );
        }
        let sum = self.sum_us.load(Ordering::Relaxed);
        let _ = writeln!(out, "{metric}_sum{{{label}=\"{value}\"}} {sum}");
        let _ = writeln!(
            out,
            "{metric}_count{{{label}=\"{value}\"}} {}",
            self.count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_match_all_order() {
        for (i, stage) in Stage::all().iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        for (i, counter) in Counter::all().iter().enumerate() {
            assert_eq!(counter.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Stage::all().iter().map(|s| s.label()).collect();
        labels.extend(Counter::all().iter().map(|c| c.label()));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn span_records_into_a_collector() {
        let c = Collector::new();
        {
            let _span = Span::enter(&c, Stage::ModelScoring);
            std::hint::black_box(1 + 1);
        }
        assert_eq!(c.stage_entries(Stage::ModelScoring), 1);
        assert_eq!(c.stage_entries(Stage::SurrogateFit), 0);
        // Monotonic clock: elapsed is non-negative by construction; the
        // entry count moving is the observable guarantee.
        assert!(c.total_stage_nanos() >= c.stage_nanos(Stage::ModelScoring));
    }

    #[test]
    fn noop_tracer_is_disabled_and_spans_skip_the_clock() {
        let tracer = noop();
        assert!(!tracer.is_enabled());
        let span = Span::enter(tracer, Stage::Tokenize);
        assert!(span.start.is_none(), "disabled span must not read a clock");
        drop(span);
        // Explicit calls are dropped too (trait-level no-op).
        tracer.record_stage(Stage::Tokenize, 123);
        tracer.add(Counter::Features, 7);
    }

    #[test]
    fn counters_accumulate() {
        let c = Collector::new();
        c.add(Counter::SamplesScored, 500);
        c.add(Counter::SamplesScored, 250);
        c.add(Counter::Features, 12);
        assert_eq!(c.counter(Counter::SamplesScored), 750);
        assert_eq!(c.counter(Counter::Features), 12);
        assert_eq!(c.counter(Counter::CacheHits), 0);
    }

    #[test]
    fn merge_folds_every_cell() {
        let a = Collector::new();
        let b = Collector::new();
        a.record_stage(Stage::SurrogateFit, 100);
        a.add(Counter::CacheMisses, 1);
        b.record_stage(Stage::SurrogateFit, 50);
        a.merge_into(&b);
        assert_eq!(b.stage_nanos(Stage::SurrogateFit), 150);
        assert_eq!(b.stage_entries(Stage::SurrogateFit), 2);
        assert_eq!(b.counter(Counter::CacheMisses), 1);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = Collector::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        c.record_stage(Stage::ModelScoring, 1);
                        c.add(Counter::SamplesScored, 2);
                    }
                });
            }
        });
        assert_eq!(c.stage_entries(Stage::ModelScoring), 400);
        assert_eq!(c.stage_nanos(Stage::ModelScoring), 400);
        assert_eq!(c.counter(Counter::SamplesScored), 800);
    }

    #[test]
    fn histogram_buckets_are_inclusive_and_render_cumulatively() {
        let h = Histogram::default();
        for us in [50, 100, 101, 700, 10_000_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 5);
        let mut text = String::new();
        h.render(&mut text, "m", "endpoint", "explain");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), LATENCY_BUCKETS_US.len() + 3);
        assert_eq!(lines[0], "m_bucket{endpoint=\"explain\",le=\"100\"} 2");
        assert_eq!(lines[1], "m_bucket{endpoint=\"explain\",le=\"500\"} 3");
        assert_eq!(lines[2], "m_bucket{endpoint=\"explain\",le=\"1000\"} 4");
        assert_eq!(lines[10], "m_bucket{endpoint=\"explain\",le=\"+Inf\"} 5");
        assert_eq!(lines[11], "m_sum{endpoint=\"explain\"} 10000951");
        assert_eq!(lines[12], "m_count{endpoint=\"explain\"} 5");
    }

    #[test]
    fn entered_stages_skip_stages_never_entered() {
        let c = Collector::new();
        c.record_stage(Stage::SurrogateFit, 50_000);
        c.record_stage(Stage::Tokenize, 999);
        let entered: Vec<(Stage, u64)> = c.entered_stages_us().collect();
        assert_eq!(
            entered,
            vec![(Stage::Tokenize, 0), (Stage::SurrogateFit, 50)]
        );
    }

    #[test]
    fn dyn_tracer_dispatch_works() {
        let c = Collector::new();
        let as_dyn: &dyn Tracer = &c;
        {
            let _span = Span::enter(as_dyn, Stage::MaskSampling);
        }
        assert_eq!(c.stage_entries(Stage::MaskSampling), 1);
    }
}
