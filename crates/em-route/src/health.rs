//! Per-backend health: active probing, passive ejection, half-open
//! recovery, and draining (DESIGN.md §15).
//!
//! Each backend runs the three-state machine
//!
//! ```text
//!            consecutive connect/timeout failures ≥ threshold
//!   Healthy ──────────────────────────────────────────────────▶ Unhealthy
//!      ▲                                                           │
//!      │ success                                  cooldown elapsed │
//!      │                                                           ▼
//!      └──────────────────────── HalfOpen ◀────────────────────────┘
//!                                   │ failure: back to Unhealthy
//! ```
//!
//! Failures are *transport* failures only — connect refused/unreachable
//! or an exchange timeout, from either the active `/healthz` prober or a
//! passively observed proxy error. A backend that answers any HTTP
//! status is alive by definition. `HalfOpen` admits trial traffic (both
//! probes and real requests); one success closes the circuit, one
//! failure re-ejects with a fresh cooldown. Draining is an independent
//! flag set by the admin `POST /drain`: a draining backend is alive but
//! receives no new routed traffic.
//!
//! # Determinism boundary
//!
//! The table reads the monotonic clock — ejection cooldowns are wall
//! time. That nondeterminism decides only *which backend* serves a
//! request, never what bytes ship: every backend computes bit-identical
//! responses (the workspace determinism contract), so routing is
//! response-invariant. `HealthTable::new` takes the table's epoch from
//! the clock under an `#[expect(clippy::disallowed_methods)]`, and every
//! later read is a delta against it in `HealthTable::now_ms`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Health-machine tunables.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Pause between active `/healthz` probe rounds.
    pub probe_interval: Duration,
    /// Timeout for one probe exchange.
    pub probe_timeout: Duration,
    /// Consecutive transport failures before ejection.
    pub eject_threshold: u32,
    /// How long an ejected backend sits out before half-open trial.
    pub eject_cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(500),
            eject_threshold: 2,
            eject_cooldown: Duration::from_secs(2),
        }
    }
}

/// The circuit state of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Routable; failures are counted but not yet ejecting.
    Healthy,
    /// Ejected: receives no traffic until the cooldown elapses.
    Unhealthy,
    /// Cooldown elapsed: trial traffic admitted; one success closes the
    /// circuit, one failure re-ejects.
    HalfOpen,
}

impl HealthState {
    /// Stable label for `/ring` and logs.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Unhealthy => "unhealthy",
            HealthState::HalfOpen => "half_open",
        }
    }
}

/// Mutable health record of one backend.
#[derive(Debug)]
struct BackendHealth {
    state: HealthState,
    consecutive_failures: u32,
    /// `now_ms` stamp of the ejection, for the cooldown.
    ejected_at_ms: u64,
    draining: bool,
}

/// A point-in-time view of one backend's health, for `/ring`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Circuit state (after lazily applying an elapsed cooldown).
    pub state: HealthState,
    /// Whether the admin marked the backend draining.
    pub draining: bool,
}

/// The table: one lock per backend, so health updates on the proxy path
/// never contend across backends.
#[derive(Debug)]
pub struct HealthTable {
    entries: Vec<Mutex<BackendHealth>>,
    config: HealthConfig,
    start: Instant,
}

impl HealthTable {
    /// A table of `n` healthy, non-draining backends.
    #[expect(
        clippy::disallowed_methods,
        reason = "the table's epoch: all later clock reads are deltas against it, and health state picks a backend, never a response byte (module docs)"
    )]
    pub fn new(n: usize, config: HealthConfig) -> HealthTable {
        HealthTable {
            entries: (0..n)
                .map(|_| {
                    Mutex::new(BackendHealth {
                        state: HealthState::Healthy,
                        consecutive_failures: 0,
                        ejected_at_ms: 0,
                        draining: false,
                    })
                })
                .collect(),
            config,
            start: Instant::now(),
        }
    }

    /// Milliseconds since the table was built — the only clock read on
    /// the routing path.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    #[expect(
        clippy::expect_used,
        reason = "poisoning means another worker already panicked; propagating is the correct failure mode"
    )]
    fn entry(&self, backend: usize) -> Option<std::sync::MutexGuard<'_, BackendHealth>> {
        self.entries
            .get(backend)
            .map(|m| m.lock().expect("health entry poisoned"))
    }

    /// Applies the Unhealthy → HalfOpen transition if the cooldown has
    /// elapsed. Lazy: called from every read, so no timer is needed.
    fn refresh(&self, h: &mut BackendHealth) {
        if h.state == HealthState::Unhealthy
            && self.now_ms().saturating_sub(h.ejected_at_ms)
                >= u64::try_from(self.config.eject_cooldown.as_millis()).unwrap_or(u64::MAX)
        {
            h.state = HealthState::HalfOpen;
        }
    }

    /// Whether new traffic may be routed to `backend`: Healthy or
    /// HalfOpen (trial), and not draining.
    pub fn is_routable(&self, backend: usize) -> bool {
        let Some(mut h) = self.entry(backend) else {
            return false;
        };
        self.refresh(&mut h);
        !h.draining && h.state != HealthState::Unhealthy
    }

    /// Records a successful exchange (probe or proxied request): resets
    /// the failure streak and closes a half-open circuit. An ejected
    /// backend still inside its cooldown stays ejected: the prober
    /// reaches it every round, and a probe answer is no half-open trial.
    pub fn record_success(&self, backend: usize) {
        if let Some(mut h) = self.entry(backend) {
            self.refresh(&mut h);
            h.consecutive_failures = 0;
            if h.state == HealthState::HalfOpen {
                h.state = HealthState::Healthy;
            }
        }
    }

    /// Records a transport failure (connect or timeout, probe or
    /// passive). A half-open trial failure re-ejects immediately; a
    /// healthy backend ejects once the streak reaches the threshold.
    pub fn record_failure(&self, backend: usize) {
        if let Some(mut h) = self.entry(backend) {
            self.refresh(&mut h);
            h.consecutive_failures = h.consecutive_failures.saturating_add(1);
            let eject = match h.state {
                HealthState::HalfOpen => true,
                HealthState::Healthy => h.consecutive_failures >= self.config.eject_threshold,
                HealthState::Unhealthy => false,
            };
            if eject {
                h.state = HealthState::Unhealthy;
                h.ejected_at_ms = self.now_ms();
            }
        }
    }

    /// Sets or clears the draining flag. Returns `false` for an unknown
    /// backend index.
    pub fn set_draining(&self, backend: usize, draining: bool) -> bool {
        match self.entry(backend) {
            Some(mut h) => {
                h.draining = draining;
                true
            }
            None => false,
        }
    }

    /// Point-in-time state for `/ring`.
    pub fn snapshot(&self, backend: usize) -> Option<HealthSnapshot> {
        let mut h = self.entry(backend)?;
        self.refresh(&mut h);
        Some(HealthSnapshot {
            state: h.state,
            draining: h.draining,
        })
    }

    /// The configured tunables.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(threshold: u32, cooldown_ms: u64) -> HealthTable {
        HealthTable::new(
            2,
            HealthConfig {
                probe_interval: Duration::from_millis(10),
                probe_timeout: Duration::from_millis(10),
                eject_threshold: threshold,
                eject_cooldown: Duration::from_millis(cooldown_ms),
            },
        )
    }

    #[test]
    fn starts_healthy_and_routable() {
        let t = table(2, 1000);
        assert!(t.is_routable(0));
        assert_eq!(t.snapshot(0).map(|s| s.state), Some(HealthState::Healthy));
        assert!(!t.is_routable(99), "unknown backend is never routable");
    }

    #[test]
    fn ejects_after_threshold_consecutive_failures() {
        let t = table(2, 60_000);
        t.record_failure(0);
        assert!(
            t.is_routable(0),
            "one failure below threshold keeps routing"
        );
        t.record_failure(0);
        assert!(!t.is_routable(0), "threshold reached: ejected");
        assert_eq!(t.snapshot(0).map(|s| s.state), Some(HealthState::Unhealthy));
        // The other backend is untouched.
        assert!(t.is_routable(1));
    }

    #[test]
    fn success_resets_the_streak() {
        let t = table(2, 60_000);
        t.record_failure(0);
        t.record_success(0);
        t.record_failure(0);
        assert!(t.is_routable(0), "streak was reset by the success");
    }

    #[test]
    fn a_success_inside_the_cooldown_leaves_the_backend_ejected() {
        // The prober calls `record_success` for every backend that
        // answers `/healthz`, ejected ones included.
        let t = table(1, 60_000);
        t.record_failure(0);
        t.record_success(0);
        assert!(!t.is_routable(0), "ejected until the cooldown elapses");
        assert_eq!(t.snapshot(0).map(|s| s.state), Some(HealthState::Unhealthy));
    }

    #[test]
    fn half_open_after_cooldown_then_recovers_or_re_ejects() {
        let t = table(1, 30);
        t.record_failure(0);
        assert!(!t.is_routable(0));
        std::thread::sleep(Duration::from_millis(60));
        // Cooldown elapsed: trial traffic admitted.
        assert!(t.is_routable(0));
        assert_eq!(t.snapshot(0).map(|s| s.state), Some(HealthState::HalfOpen));
        // A half-open failure re-ejects immediately (no threshold).
        t.record_failure(0);
        assert!(!t.is_routable(0));
        std::thread::sleep(Duration::from_millis(60));
        assert!(t.is_routable(0));
        // A half-open success closes the circuit.
        t.record_success(0);
        assert_eq!(t.snapshot(0).map(|s| s.state), Some(HealthState::Healthy));
    }

    #[test]
    fn draining_blocks_routing_without_touching_health() {
        let t = table(2, 1000);
        assert!(t.set_draining(0, true));
        assert!(!t.is_routable(0));
        assert_eq!(
            t.snapshot(0),
            Some(HealthSnapshot {
                state: HealthState::Healthy,
                draining: true
            })
        );
        assert!(t.set_draining(0, false));
        assert!(t.is_routable(0));
        assert!(!t.set_draining(9, true), "unknown backend");
    }
}
