//! The bounded connection queue between the accept loop and the workers.
//!
//! The worker threads themselves come from `em_par::scoped_workers` — the
//! same scoped-thread primitive `par_map` forks on — so the whole server
//! (accept loop + workers) joins cleanly when the queue closes. This
//! module provides the channel in the middle: a mutex/condvar MPMC queue
//! with a hard capacity. When the queue is full the accept loop sheds load
//! immediately (503) instead of letting connections pile up unbounded.
//! Every entry is stamped with its enqueue instant ([`Enqueued`]) so
//! workers can discard connections that waited past the admission bound
//! (DESIGN.md §14).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A queued item stamped with its enqueue instant. Workers use the age
/// for admission control: an entry that sat in the queue longer than the
/// configured bound belongs to a client that has almost certainly timed
/// out, and serving it would waste compute on an answer nobody reads.
#[derive(Debug)]
pub struct Enqueued<T> {
    /// The queued item.
    pub item: T,
    enqueued_at: Instant,
}

impl<T> Enqueued<T> {
    /// Stamps `item` with the current instant.
    #[expect(
        clippy::disallowed_methods,
        reason = "admission-control clock: the enqueue stamp only decides whether a stale connection is discarded; it never feeds seeds, orderings, or response bytes (DESIGN.md §14)"
    )]
    pub fn stamped_now(item: T) -> Enqueued<T> {
        Enqueued {
            item,
            enqueued_at: Instant::now(),
        }
    }

    /// Stamps `item` with an explicit instant (tests fabricate old
    /// entries with this).
    pub fn stamped_at(item: T, enqueued_at: Instant) -> Enqueued<T> {
        Enqueued { item, enqueued_at }
    }

    /// When the item entered the queue.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued_at
    }

    /// How long the item has been waiting, as of `now`.
    pub fn age_at(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.enqueued_at)
    }

    /// How long the item has been waiting.
    #[expect(
        clippy::disallowed_methods,
        reason = "admission-control clock: queue age only decides whether a stale connection is discarded, never what is computed for it (DESIGN.md §14)"
    )]
    pub fn age(&self) -> Duration {
        self.age_at(Instant::now())
    }
}

struct QueueState<T> {
    items: VecDeque<Enqueued<T>>,
    closed: bool,
}

/// A bounded, closeable MPMC queue.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    // Manual impl: printing the queued items would both lock the mutex and
    // demand `T: Debug`; the capacity is the only stable fact.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Why a [`BoundedQueue::push`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the caller should shed the item.
    Full(T),
    /// The queue was closed; no more items are accepted.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues an item stamped with the current instant, or returns it
    /// if the queue is full/closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        self.push_stamped(Enqueued::stamped_now(item))
    }

    /// Enqueues a pre-stamped item (tests fabricate old entries this
    /// way), or returns the inner item if the queue is full/closed.
    #[expect(
        clippy::expect_used,
        reason = "poisoning means a worker already panicked; propagating is the correct failure mode"
    )]
    pub fn push_stamped(&self, entry: Enqueued<T>) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(entry.item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(entry.item));
        }
        state.items.push_back(entry);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item (with its enqueue stamp), blocking while
    /// the queue is open and empty. Returns `None` only when the queue is
    /// closed **and** drained — so closing lets in-flight work finish
    /// (graceful shutdown).
    #[expect(
        clippy::expect_used,
        reason = "poisoning means a worker already panicked; propagating is the correct failure mode"
    )]
    pub fn pop(&self) -> Option<Enqueued<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue and wakes every blocked consumer.
    #[expect(
        clippy::expect_used,
        reason = "poisoning means a worker already panicked; propagating is the correct failure mode"
    )]
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    #[expect(
        clippy::expect_used,
        reason = "poisoning means a worker already panicked; propagating is the correct failure mode"
    )]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|e| e.item), Some(1));
        assert_eq!(q.pop().map(|e| e.item), Some(2));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test checks the enqueue stamp against the clock"
    )]
    fn entries_carry_their_enqueue_stamp() {
        let q = BoundedQueue::new(4);
        let before = Instant::now();
        q.push(7).unwrap();
        let entry = q.pop().expect("one entry");
        assert_eq!(entry.item, 7);
        assert!(entry.enqueued_at() >= before);
        // Age is measured from the stamp: a fabricated old entry reports
        // its true wait, the boundary case (now == stamp) reports zero.
        let old = Enqueued::stamped_at(8, before - Duration::from_secs(60));
        assert!(old.age() >= Duration::from_secs(60));
        assert_eq!(old.age_at(before - Duration::from_secs(60)), Duration::ZERO);
        // A stamp in the future saturates to zero age, never panics.
        let future = Enqueued::stamped_at(9, before + Duration::from_secs(60));
        assert_eq!(future.age_at(before), Duration::ZERO);
    }

    #[test]
    fn full_queue_sheds() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(PushError::Full(2)));
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop().map(|e| e.item), Some(1)); // drains existing work
        assert!(q.pop().is_none()); // then reports closed
    }

    #[test]
    fn consumers_wake_on_close_and_on_push() {
        let q = BoundedQueue::new(16);
        let drained = AtomicUsize::new(0);
        em_par::scoped_workers(
            4,
            |_w| {
                while q.pop().is_some() {
                    drained.fetch_add(1, Ordering::Relaxed);
                }
            },
            || {
                for i in 0..100 {
                    // Capacity backpressure: retry until accepted.
                    let mut item = i;
                    loop {
                        match q.push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(x)) => {
                                item = x;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed before the last push"),
                        }
                    }
                }
                q.close();
            },
        );
        assert_eq!(drained.load(Ordering::Relaxed), 100);
    }
}
