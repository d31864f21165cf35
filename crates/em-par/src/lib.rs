//! Deterministic data-parallel execution for the Landmark Explanation
//! workspace.
//!
//! The explanation pipeline is embarrassingly parallel at two levels: each
//! record's hundreds of reconstructed perturbation pairs are scored
//! independently, and the evaluation harness explains each record
//! independently. This crate provides the one primitive both levels use —
//! an **ordered fork/join map** over a slice ([`par_map`]) built on
//! `std::thread::scope` — plus the [`ParallelismConfig`] every layer
//! threads through its own config.
//!
//! (`rayon` would be the natural backend, but the build environment is
//! offline; the scoped-thread implementation below provides the same
//! contiguous-chunk fork/join shape with zero dependencies.)
//!
//! # Determinism
//!
//! `par_map(cfg, items, f)` returns **exactly** `items.iter().enumerate()
//! .map(|(i, x)| f(i, x)).collect()` for any thread count: work is split
//! into contiguous chunks, each worker writes results for its own chunk,
//! and chunks are reassembled in input order. As long as `f` is a pure
//! function of `(index, item)` — which every caller guarantees by deriving
//! per-item RNG seeds from the index — parallel and serial runs are
//! bit-identical.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::num::NonZeroUsize;

/// How a parallel region may use threads.
///
/// The config is `Copy` and lives inside every explainer/eval config so a
/// single knob controls the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Worker threads to use. `0` means auto-detect
    /// (`std::thread::available_parallelism`). `1` forces serial execution
    /// on the calling thread.
    pub threads: usize,
    /// Minimum number of items each worker must receive before an extra
    /// thread is worth spawning; small inputs stay serial.
    pub min_items_per_thread: usize,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig {
            threads: 0,
            min_items_per_thread: 32,
        }
    }
}

impl ParallelismConfig {
    /// Serial execution on the calling thread.
    pub const fn serial() -> Self {
        ParallelismConfig {
            threads: 1,
            min_items_per_thread: usize::MAX,
        }
    }

    /// Auto-detected thread count (the default).
    pub fn auto() -> Self {
        ParallelismConfig::default()
    }

    /// A fixed thread count with the default chunking threshold.
    pub const fn with_threads(threads: usize) -> Self {
        ParallelismConfig {
            threads,
            min_items_per_thread: 1,
        }
    }

    /// The resolved hard thread cap: the configured count, or the detected
    /// core count when `threads == 0`, always at least 1. Long-lived worker
    /// pools (e.g. a server's accept/worker pool) size themselves by this
    /// directly, since they have no per-call item count to chunk by.
    pub fn worker_count(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
        .max(1)
    }

    /// The number of workers a region with `n_items` items should fork:
    /// bounded by the configured/detected thread count and by
    /// `min_items_per_thread`, and always at least 1.
    pub fn effective_threads(&self, n_items: usize) -> usize {
        let chunk_cap = match self.min_items_per_thread {
            0 => n_items,
            m => n_items / m,
        };
        self.worker_count().min(chunk_cap).max(1)
    }
}

/// Ordered parallel map: `f(i, &items[i])` for every `i`, results in input
/// order. Serial fallback when the config or input size doesn't warrant
/// forking. See the crate docs for the determinism contract.
pub fn par_map<T, R, F>(config: &ParallelismConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = config.effective_threads(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    // Contiguous chunks, sized as evenly as possible: the first `extra`
    // chunks get one more item.
    let base = items.len() / workers;
    let extra = items.len() % workers;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0;
        let f = &f;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk = &items[start..start + len];
            let offset = start;
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, x)| f(offset + i, x))
                    .collect::<Vec<R>>()
            }));
            start += len;
        }
        for handle in handles {
            // A worker panic propagates: join returns Err only if the
            // closure panicked, and unwrapping re-panics here.
            results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Ordered parallel map with per-worker state: like [`par_map`], but each
/// worker first builds a private state value with `init()` and every
/// `f(&mut state, i, &items[i])` call on that worker reuses it.
///
/// This is the shape the prepared scoring kernel needs: `init` builds a
/// scorer (precomputed per-record state + scratch buffers) once per
/// worker, and `f` scores one mask with it. The state never crosses a
/// thread boundary — it is created and dropped inside the worker — so `S`
/// needs no `Send` bound.
///
/// Determinism contract: results must depend only on `(index, item)`,
/// never on which worker's state instance scored them or in what order.
/// `init` must therefore produce interchangeable states (same inputs →
/// same outputs, with any interior mutation limited to scratch space).
/// Under that contract the result equals the serial
/// `items.iter().enumerate().map(|(i, x)| f(&mut init(), i, x))` for any
/// thread count, bit for bit.
pub fn par_map_init<T, R, S, I, F>(config: &ParallelismConfig, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = config.effective_threads(items.len());
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(&mut state, i, x))
            .collect();
    }

    let base = items.len() / workers;
    let extra = items.len() % workers;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0;
        let init = &init;
        let f = &f;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk = &items[start..start + len];
            let offset = start;
            handles.push(scope.spawn(move || {
                let mut state = init();
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, x)| f(&mut state, offset + i, x))
                    .collect::<Vec<R>>()
            }));
            start += len;
        }
        for handle in handles {
            results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Long-lived scoped workers: spawns `workers` threads each running
/// `work(worker_index)`, runs `foreground()` on the calling thread, and
/// joins everything before returning `foreground`'s result.
///
/// This is the second shape the workspace needs from scoped threads:
/// [`par_map`] forks for the duration of one batch, `scoped_workers` forks
/// for the duration of a *service* — `em-serve` runs its accept loop as the
/// foreground and its request handlers as the workers. The foreground is
/// responsible for telling workers to finish (e.g. by closing the queue
/// they consume) before it returns; otherwise the join blocks forever.
///
/// A worker panic propagates after the foreground returns, matching
/// [`par_map`]'s panic behaviour.
pub fn scoped_workers<W, F, R>(workers: usize, work: W, foreground: F) -> R
where
    W: Fn(usize) + Sync,
    F: FnOnce() -> R,
{
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
        let out = foreground();
        for handle in handles {
            handle.join().expect("scoped worker panicked");
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_never_forks() {
        let cfg = ParallelismConfig::serial();
        assert_eq!(cfg.effective_threads(1_000_000), 1);
    }

    #[test]
    fn small_inputs_stay_serial_under_auto() {
        let cfg = ParallelismConfig::default();
        assert_eq!(cfg.effective_threads(0), 1);
        assert_eq!(cfg.effective_threads(31), 1);
    }

    #[test]
    fn with_threads_caps_at_the_requested_count() {
        let cfg = ParallelismConfig::with_threads(4);
        assert_eq!(cfg.effective_threads(1_000), 4);
        assert_eq!(cfg.effective_threads(2), 2);
    }

    #[test]
    fn par_map_matches_serial_map_for_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let cfg = ParallelismConfig::with_threads(threads);
            let got = par_map(&cfg, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_preserves_order_with_uneven_chunks() {
        // 10 items across 4 workers: chunks of 3, 3, 2, 2.
        let items: Vec<usize> = (0..10).collect();
        let cfg = ParallelismConfig::with_threads(4);
        let got = par_map(&cfg, &items, |i, _| i);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let cfg = ParallelismConfig::with_threads(8);
        assert_eq!(par_map(&cfg, &[] as &[u8], |_, x| *x), Vec::<u8>::new());
        assert_eq!(par_map(&cfg, &[42u8], |_, x| *x), vec![42]);
    }

    #[test]
    fn worker_count_resolves_auto_and_fixed() {
        assert_eq!(ParallelismConfig::with_threads(5).worker_count(), 5);
        assert_eq!(ParallelismConfig::serial().worker_count(), 1);
        assert!(ParallelismConfig::auto().worker_count() >= 1);
    }

    #[test]
    fn scoped_workers_join_after_foreground() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Condvar, Mutex};

        // A tiny closeable queue: workers drain it, the foreground fills
        // it and closes it — the shape em-serve uses.
        let queue = Mutex::new((Vec::<usize>::new(), false));
        let cond = Condvar::new();
        let sum = AtomicUsize::new(0);
        let result = scoped_workers(
            3,
            |_w| loop {
                let mut guard = queue.lock().unwrap();
                loop {
                    if let Some(item) = guard.0.pop() {
                        sum.fetch_add(item, Ordering::Relaxed);
                        break;
                    }
                    if guard.1 {
                        return;
                    }
                    guard = cond.wait(guard).unwrap();
                }
            },
            || {
                for i in 1..=100 {
                    queue.lock().unwrap().0.push(i);
                    cond.notify_one();
                }
                let mut guard = queue.lock().unwrap();
                guard.1 = true;
                cond.notify_all();
                drop(guard);
                "done"
            },
        );
        assert_eq!(result, "done");
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    #[should_panic(expected = "scoped worker panicked")]
    fn scoped_worker_panic_propagates() {
        scoped_workers(2, |w| assert_ne!(w, 1, "boom"), || ());
    }

    #[test]
    fn par_map_init_matches_serial_for_any_thread_count() {
        use std::cell::Cell;
        let items: Vec<u64> = (0..500).collect();
        // State is a scratch counter: results must not depend on it.
        let run = |threads: usize| {
            par_map_init(
                &ParallelismConfig::with_threads(threads),
                &items,
                || Cell::new(0u64),
                |scratch, i, x| {
                    scratch.set(scratch.get() + 1);
                    x * 7 + i as u64
                },
            )
        };
        let serial = run(1);
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 7 + i as u64)
            .collect();
        assert_eq!(serial, expected);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_init_builds_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..40).collect();
        let cfg = ParallelismConfig::with_threads(4);
        let _ = par_map_init(
            &cfg,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, _| i,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..100).collect();
        let cfg = ParallelismConfig::with_threads(2);
        let _ = par_map(&cfg, &items, |_, &x| {
            assert!(x != 60, "boom");
            x
        });
    }

    #[test]
    fn index_derived_seeding_is_thread_count_invariant() {
        // The exact pattern the eval runner uses: a per-item seed derived
        // from (base, index) must give identical streams at any width.
        let items: Vec<u64> = (0..200).collect();
        let explain = |i: usize, _x: &u64| -> u64 {
            let seed = 0xE0B7u64.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            seed ^ (seed >> 7)
        };
        let serial = par_map(&ParallelismConfig::serial(), &items, explain);
        for threads in [2, 5, 8] {
            let parallel = par_map(&ParallelismConfig::with_threads(threads), &items, explain);
            assert_eq!(serial, parallel);
        }
    }
}
