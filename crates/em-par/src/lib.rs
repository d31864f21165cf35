//! Deterministic data-parallel execution for the Landmark Explanation
//! workspace.
//!
//! The workspace forks at one level only: across independent units of
//! work. The evaluation harness and `em-batch` explain records
//! concurrently, and the serving tiers answer requests concurrently; one
//! explanation always runs on one thread. This crate provides the
//! primitives those levels use, all built on `std::thread::scope`: an
//! **ordered streaming map** over a slice ([`par_stream`]) and its
//! collect-all case ([`par_map`]), a long-lived worker pool
//! ([`scoped_workers`]), and [`worker_count`], which resolves a thread
//! setting.
//!
//! A thread setting is a plain count: `0` means one thread per core,
//! `1` runs on the calling thread, and `n` caps the fork at `n` threads.
//!
//! (`rayon` would be the natural backend, but the build environment is
//! offline; the scoped-thread implementation below has zero
//! dependencies.)
//!
//! # Scheduling
//!
//! [`par_stream`] starts its workers once. Each worker takes the next
//! unstarted item, one at a time in index order, so a slow item holds up
//! only the worker computing it. Results go back to the calling thread,
//! which hands them to a consumer strictly in index order. While the
//! consumer works (em-batch commits a shard there), the workers go on, but
//! never more than `ahead` items past the last result the consumer took,
//! which bounds the results held at once.
//!
//! # Determinism
//!
//! `par_map(threads, items, f)` returns **exactly** `items.iter()
//! .enumerate().map(|(i, x)| f(i, x)).collect()` for any thread count, and
//! [`par_stream`] hands its consumer that same sequence: which worker
//! computes an item depends on timing, but where its result lands depends
//! only on its index. As long as `f` is a pure function of `(index, item)`
//! — which every caller guarantees by deriving per-item RNG seeds from the
//! index — parallel and serial runs are bit-identical.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::VecDeque;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The number of threads a thread setting resolves to: `threads` itself,
/// or the detected core count when `threads == 0`, always at least 1.
/// Long-lived worker pools (a server's request workers) are sized by
/// this directly.
pub fn worker_count(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Ordered parallel map: `f(i, &items[i])` for every `i`, results in input
/// order — [`par_stream`] with no look-ahead bound, collecting every
/// result. See the crate docs for the determinism contract.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    let Ok(()) = par_stream(threads, items, items.len(), f, |_, r| {
        results.push(r);
        Ok::<(), Infallible>(())
    });
    results
}

/// Ordered streaming map: computes `f(i, &items[i])` for every `i` on at
/// most [`worker_count`]`(threads)` threads, never more threads than
/// items, and calls `consume(i, result)` on the calling thread in
/// increasing `i`.
///
/// Workers take items one at a time, in index order. Item `i` starts only
/// once the consumer has taken result `i - ahead` (`ahead` is at least 1),
/// so at most `ahead` results are ever started and not yet handed over.
/// The first `Err` from `consume` stops the workers from starting another
/// item and is returned once they have finished the ones they hold. A
/// panic in `f` or in `consume` propagates to the caller after every
/// worker has stopped. With one worker everything runs on the calling
/// thread, each `consume` right after its `f`.
pub fn par_stream<T, R, E, F, C>(
    threads: usize,
    items: &[T],
    ahead: usize,
    f: F,
    mut consume: C,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: FnMut(usize, R) -> Result<(), E>,
{
    let workers = worker_count(threads).min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .try_for_each(|(i, x)| consume(i, f(i, x)));
    }
    let queue = Queue {
        state: Mutex::new(State {
            next: 0,
            taken: 0,
            held: VecDeque::new(),
            stopped: false,
        }),
        landed: Condvar::new(),
        room: Condvar::new(),
        ahead: ahead.max(1),
    };
    std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(move || queue.work(items, f)))
            .collect();
        let out = queue.deliver(items.len(), &mut consume);
        for handle in handles {
            // A worker panic propagates: join returns Err only if the
            // closure panicked, and unwrapping re-panics here.
            handle.join().expect("parallel worker panicked");
        }
        out
    })
}

/// The hand-off between [`par_stream`]'s workers and its calling thread.
struct Queue<R> {
    state: Mutex<State<R>>,
    /// Signalled when a result lands or the run stops: the caller waits.
    landed: Condvar,
    /// Signalled when the caller takes a result or the run stops: workers
    /// at the look-ahead bound wait.
    room: Condvar,
    ahead: usize,
}

struct State<R> {
    /// The next item a worker starts.
    next: usize,
    /// Results the caller has taken: `held[k]` belongs to item `taken + k`.
    taken: usize,
    /// Results started and not yet taken, `None` until computed.
    held: VecDeque<Option<R>>,
    /// No further item starts: the caller is done, or a worker panicked.
    stopped: bool,
}

impl<R> Queue<R> {
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        // Nothing panics while holding the lock; a poisoned guard still
        // holds a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the run: no item starts after this, and every waiter wakes.
    fn stop(&self) {
        self.lock().stopped = true;
        self.landed.notify_all();
        self.room.notify_all();
    }

    /// One worker: takes the next item while the bound allows, computes
    /// it, and files the result by index.
    fn work<T, F>(&self, items: &[T], f: &F)
    where
        F: Fn(usize, &T) -> R,
    {
        let _stop_on_panic = StopOnPanic(self);
        loop {
            let mut state = self.lock();
            while !state.stopped
                && state.next < items.len()
                && state.next >= state.taken.saturating_add(self.ahead)
            {
                state = wait(&self.room, state);
            }
            if state.stopped || state.next == items.len() {
                return;
            }
            let index = state.next;
            state.next += 1;
            state.held.push_back(None);
            drop(state);

            let result = f(index, &items[index]);
            let mut state = self.lock();
            let slot = index - state.taken;
            state.held[slot] = Some(result);
            if slot == 0 {
                self.landed.notify_one();
            }
        }
    }

    /// The calling thread's side: hands results to `consume` in index
    /// order until all `n` are taken, `consume` fails, or a worker
    /// panicked (its join re-raises the panic).
    fn deliver<E>(
        &self,
        n: usize,
        consume: &mut impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E> {
        // However this returns or unwinds, the workers stop and can be
        // joined.
        let _stop = StopOnDrop(self);
        for index in 0..n {
            let mut state = self.lock();
            let result = loop {
                if state.stopped {
                    return Ok(());
                }
                if let Some(result) = state.held.front_mut().and_then(Option::take) {
                    state.held.pop_front();
                    state.taken += 1;
                    break result;
                }
                state = wait(&self.landed, state);
            };
            drop(state);
            self.room.notify_one();
            consume(index, result)?;
        }
        Ok(())
    }
}

fn wait<'a, S>(cond: &Condvar, guard: MutexGuard<'a, S>) -> MutexGuard<'a, S> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Stops the run when dropped: the caller's guard.
struct StopOnDrop<'a, R>(&'a Queue<R>);

impl<R> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Stops the run when its worker unwinds, so the caller does not wait for
/// a result that will never land.
struct StopOnPanic<'a, R>(&'a Queue<R>);

impl<R> Drop for StopOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Long-lived scoped workers: spawns `workers` threads each running
/// `work(worker_index)`, runs `foreground()` on the calling thread, and
/// joins everything before returning `foreground`'s result.
///
/// This is the second shape the workspace needs from scoped threads:
/// [`par_stream`] forks for the duration of one batch, `scoped_workers`
/// forks for the duration of a *service* — `em-serve` runs its accept loop
/// as the foreground and its request handlers as the workers. The
/// foreground is responsible for telling workers to finish (e.g. by
/// closing the queue they consume) before it returns; otherwise the join
/// blocks forever.
///
/// A worker panic propagates after the foreground returns, matching
/// [`par_stream`]'s panic behaviour.
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// The distinct threads `par_map` ran `n_items` items on. Each of the
    /// first items waits until every worker has taken one, so no worker
    /// can take two of them.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the test observes which threads par_map runs on; `ThreadId` has no order, so the set is hashed"
    )]
    fn threads_used(threads: usize, n_items: usize) -> std::collections::HashSet<ThreadId> {
        let seen = Mutex::new(std::collections::HashSet::new());
        let first = threads.min(n_items);
        let all_started = Barrier::new(first);
        let items = vec![0u8; n_items];
        par_map(threads, &items, |i, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            if i < first {
                all_started.wait();
            }
        });
        seen.into_inner().unwrap()
    }

    /// Burns a few microseconds that vary unevenly with `i`.
    fn uneven_cost(i: usize) -> usize {
        let rounds = (i * 7_919) % 13 * 2_000;
        (0..rounds).fold(i, |acc, k| std::hint::black_box(acc ^ k))
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the test observes which threads par_map runs on; `ThreadId` has no order, so the set is hashed"
    )]
    fn serial_config_never_forks() {
        let caller = std::thread::current().id();
        assert_eq!(
            threads_used(1, 1_000),
            std::collections::HashSet::from([caller])
        );
    }

    #[test]
    fn with_threads_caps_at_the_requested_count() {
        assert_eq!(threads_used(4, 1_000).len(), 4);
        assert_eq!(threads_used(4, 2).len(), 2);
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
            let got = par_map(threads, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_preserves_order_with_uneven_item_costs() {
        let items: Vec<usize> = (0..200).collect();
        let expected: Vec<usize> = items.iter().map(|&i| uneven_cost(i)).collect();
        for threads in 1..=16 {
            assert_eq!(
                par_map(threads, &items, |i, _| uneven_cost(i)),
                expected,
                "threads = {threads}"
            );
            let mut order = Vec::new();
            let streamed = par_stream(
                threads,
                &items,
                5,
                |i, _| (i, uneven_cost(i)),
                |k, (i, _)| {
                    order.push((k, i));
                    Ok::<(), Infallible>(())
                },
            );
            assert!(streamed.is_ok());
            assert_eq!(
                order,
                (0..200).map(|i| (i, i)).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(8, &[] as &[u8], |_, x| *x), Vec::<u8>::new());
        assert_eq!(par_map(8, &[42u8], |_, x| *x), vec![42]);
    }

    #[test]
    fn workers_never_start_more_than_ahead_past_the_consumer() {
        const AHEAD: usize = 5;
        const BLOCK_AT: usize = 20;
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 4, 8] {
            let high_water = AtomicUsize::new(0);
            let streamed = par_stream(
                threads,
                &items,
                AHEAD,
                |i, _| {
                    high_water.fetch_max(i, Ordering::SeqCst);
                    uneven_cost(i)
                },
                |k, _| {
                    if k == BLOCK_AT {
                        // Block until the workers reach the bound, then
                        // give them time to pass it.
                        while high_water.load(Ordering::SeqCst) < BLOCK_AT + AHEAD {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        assert_eq!(high_water.load(Ordering::SeqCst), BLOCK_AT + AHEAD);
                    }
                    Ok::<(), Infallible>(())
                },
            );
            assert!(streamed.is_ok(), "threads = {threads}");
            assert_eq!(high_water.into_inner(), 99);
        }
    }

    #[test]
    fn a_shard_shaped_consumer_holds_at_most_two_shards() {
        // em-batch's shape: the consumer buffers one shard's results and
        // releases them at the shard's last item, slowly (a commit), with
        // the look-ahead set to one shard. Started-but-unreleased results
        // never exceed two shards.
        const SHARD: usize = 6;
        let items: Vec<usize> = (0..10 * SHARD).collect();
        for threads in [2, 3, 8] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut buffered = 0;
            let streamed = par_stream(
                threads,
                &items,
                SHARD,
                |i, _| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    uneven_cost(i)
                },
                |k, _| {
                    buffered += 1;
                    if (k + 1) % SHARD == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        live.fetch_sub(buffered, Ordering::SeqCst);
                        buffered = 0;
                    }
                    Ok::<(), Infallible>(())
                },
            );
            assert!(streamed.is_ok());
            assert!(peak.into_inner() <= 2 * SHARD, "threads = {threads}");
        }
    }

    #[test]
    fn a_consumer_error_stops_the_workers_early() {
        const AHEAD: usize = 3;
        let items: Vec<usize> = (0..1_000).collect();
        for threads in [2, 4] {
            let started = AtomicUsize::new(0);
            let mut consumed = Vec::new();
            let streamed = par_stream(
                threads,
                &items,
                AHEAD,
                |i, _| {
                    started.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |k, i| {
                    consumed.push(i);
                    if k == 10 {
                        Err(format!("stop at {k}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(streamed, Err("stop at 10".to_string()));
            assert_eq!(consumed, (0..=10).collect::<Vec<_>>());
            // Item 10 + AHEAD is the last one the bound lets start.
            assert!(started.into_inner() <= 11 + AHEAD, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "boom in the consumer")]
    fn a_consumer_panic_propagates_once_the_workers_stop() {
        let items: Vec<usize> = (0..100).collect();
        let _ = par_stream(
            3,
            &items,
            4,
            |i, _| i,
            |k, _| {
                assert!(k != 7, "boom in the consumer");
                Ok::<(), Infallible>(())
            },
        );
    }

    #[test]
    fn worker_count_resolves_auto_and_fixed() {
        assert_eq!(worker_count(5), 5);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(0) >= 1);
    }

    #[test]
    fn scoped_workers_join_after_foreground() {
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
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..100).collect();
        let _ = par_map(2, &items, |_, &x| {
            assert!(x != 60, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn a_worker_panic_reaches_a_waiting_consumer() {
        // The consumer waits on item 0, which never lands; the panic
        // must end that wait rather than hang it.
        let items: Vec<usize> = (0..100).collect();
        let _ = par_stream(
            3,
            &items,
            8,
            |i, _| {
                assert!(i != 0, "boom");
                i
            },
            |_, _| Ok::<(), Infallible>(()),
        );
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
        let serial = par_map(1, &items, explain);
        for threads in [2, 5, 8] {
            let parallel = par_map(threads, &items, explain);
            assert_eq!(serial, parallel);
        }
    }
}
