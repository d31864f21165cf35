//! The weighted consistent-hash ring.
//!
//! Every backend contributes `weight × VNODES_PER_WEIGHT` virtual nodes,
//! each placed at `mix64(fnv1a64("<name>#<v>"))` on the `u64` circle. A
//! key hashed the same way — the **same** FNV-1a ([`em_codec::hash`])
//! through the same finalizer — is assigned to the first virtual node at
//! or clockwise after it. The [`mix64`] finalizer exists because raw
//! FNV-1a has weak high-bit avalanche on short sequential inputs: the
//! vnode labels (`b0#0`, `b0#1`, ...) cluster badly on the raw circle
//! (measured: one of three equal-weight backends owning 2% of the
//! keyspace at 64 vnodes), while one multiply-xorshift pass spreads the
//! same labels to within a few percent of fair. Two properties follow
//! from placement depending only on backend names:
//!
//! * **Determinism** — the same backend set builds bit-identical rings in
//!   every process, so routers can be restarted (or run in parallel)
//!   without traffic moving;
//! * **Minimal remapping** — removing a backend removes only *its*
//!   virtual nodes; every key owned by a surviving backend keeps its
//!   owner, so a failover or drain invalidates only the dead node's share
//!   of the keyspace (≈ its weight fraction), never the survivors' warm
//!   caches.
//!
//! Ties (two virtual nodes hashing to the same point) are broken by
//! backend index, which is itself deterministic in the configured order.

use std::net::SocketAddr;

use em_codec::hash::fnv1a64;
use em_codec::Value;

/// Virtual nodes contributed per unit of backend weight. 64 keeps the
/// per-backend share of a 3-node ring within a few percent of its weight
/// fraction while the full ring stays a few hundred points — binary
/// search cost is irrelevant next to a proxied HTTP exchange.
pub const VNODES_PER_WEIGHT: u32 = 64;

/// SplitMix64 finalizer over a raw FNV-1a hash: a constant offset, two
/// multiply-xorshift rounds, and a closing shift. Pure and
/// platform-independent, so ring placement stays bit-stable across
/// builds; its full-width avalanche is what makes 64 vnodes per weight
/// unit enough for a near-fair keyspace split (module docs).
pub fn mix64(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ring's hash of an arbitrary string: shared FNV-1a, then the
/// finalizer. Used for both vnode placement and key lookup, so the two
/// sides always agree on the circle.
fn ring_hash(s: &str) -> u64 {
    mix64(fnv1a64(s.as_bytes()))
}

/// One configured backend.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Stable name: the ring placement input and the metrics label.
    pub name: String,
    /// Where the backend listens.
    pub addr: SocketAddr,
    /// Relative capacity; proportional share of the keyspace.
    pub weight: u32,
}

impl BackendSpec {
    /// A backend with the default weight of 1.
    pub fn new(name: impl Into<String>, addr: SocketAddr) -> BackendSpec {
        BackendSpec {
            name: name.into(),
            addr,
            weight: 1,
        }
    }
}

/// The ring: sorted virtual-node points over the configured backends.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(placement hash, backend index)`, sorted.
    points: Vec<(u64, u32)>,
    n_backends: usize,
}

impl Ring {
    /// Builds the ring for `backends` (order defines backend indices).
    /// A zero weight contributes no virtual nodes: the backend is in the
    /// table (it can be probed, drained, reported) but owns no keys.
    pub fn build(backends: &[BackendSpec]) -> Ring {
        let mut points = Vec::new();
        for (idx, backend) in backends.iter().enumerate() {
            let vnodes = backend.weight.saturating_mul(VNODES_PER_WEIGHT);
            for v in 0..vnodes {
                let hash = ring_hash(&format!("{}#{v}", backend.name));
                points.push((hash, idx as u32));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            n_backends: backends.len(),
        }
    }

    /// Number of configured backends (including zero-weight ones).
    pub fn n_backends(&self) -> usize {
        self.n_backends
    }

    /// Virtual nodes a backend placed on the ring.
    pub fn vnodes_of(&self, backend: usize) -> usize {
        self.points
            .iter()
            .filter(|(_, idx)| *idx as usize == backend)
            .count()
    }

    /// The backend owning `key`: hash it with the shared FNV-1a (through
    /// the ring finalizer) and take the first virtual node at or
    /// clockwise after the hash (wrapping). `None` only when the ring is
    /// empty (all weights zero).
    #[expect(
        clippy::indexing_slicing,
        reason = "position() returns an in-bounds index by construction"
    )]
    pub fn owner(&self, key: &str) -> Option<usize> {
        let position = self.position(ring_hash(key))?;
        Some(self.points[position].1 as usize)
    }

    /// Every distinct backend in ring order starting at `key`'s owner —
    /// the failover order: the first entry is the owner, later entries
    /// are "next owner clockwise", which is exactly who inherits the key
    /// if the ones before it leave the ring.
    #[expect(
        clippy::indexing_slicing,
        reason = "the point index is reduced modulo points.len(), which position() proved non-zero; idx < n_backends: every point stores a valid backend index"
    )]
    pub fn owners(&self, key: &str) -> Vec<usize> {
        let mut order = Vec::new();
        let Some(start) = self.position(ring_hash(key)) else {
            return order;
        };
        let mut seen = vec![false; self.n_backends];
        for step in 0..self.points.len() {
            let (_, idx) = self.points[(start + step) % self.points.len()];
            let idx = idx as usize;
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
                if order.len() == self.n_backends {
                    break;
                }
            }
        }
        order
    }

    /// Index into `points` of the virtual node owning hash `h`.
    fn position(&self, h: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let i = self.points.partition_point(|&(p, _)| p < h);
        Some(if i == self.points.len() { 0 } else { i })
    }

    /// The ring state as JSON for `GET /ring`: per-backend name, weight,
    /// virtual-node count, and owned share of the keyspace (the summed
    /// arc length ahead of each of its points, as a fraction).
    #[expect(
        clippy::indexing_slicing,
        reason = "the loop body only runs when points is non-empty, and i > 0 in the else branch with i < points.len() from enumerate"
    )]
    pub fn to_value(&self, backends: &[BackendSpec]) -> Value {
        let mut owned = vec![0u128; self.n_backends];
        for (i, &(hash, idx)) in self.points.iter().enumerate() {
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            let arc = hash.wrapping_sub(prev) as u128;
            if let Some(slot) = owned.get_mut(idx as usize) {
                *slot += arc;
            }
        }
        let entries: Vec<Value> = backends
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let share = owned.get(i).map_or(0.0, |&a| a as f64 / 2f64.powi(64));
                Value::object(vec![
                    ("name", Value::string(b.name.as_str())),
                    ("addr", Value::string(b.addr.to_string())),
                    ("weight", (b.weight as usize).into()),
                    ("vnodes", self.vnodes_of(i).into()),
                    ("owned_share", share.into()),
                ])
            })
            .collect();
        Value::object(vec![
            ("points", self.points.len().into()),
            ("backends", Value::Array(entries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(names: &[&str]) -> Vec<BackendSpec> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                BackendSpec::new(
                    *n,
                    format!("127.0.0.1:{}", 9000 + i)
                        .parse::<SocketAddr>()
                        .expect("addr"),
                )
            })
            .collect()
    }

    #[test]
    fn owner_is_stable_for_fixed_backends() {
        let ring = Ring::build(&specs(&["a", "b", "c"]));
        let again = Ring::build(&specs(&["a", "b", "c"]));
        for key in ["k1", "k2", "{\"left\":[\"x\"]}", ""] {
            assert_eq!(ring.owner(key), again.owner(key));
        }
    }

    #[test]
    fn owners_starts_at_owner_and_covers_all_backends() {
        let ring = Ring::build(&specs(&["a", "b", "c"]));
        let order = ring.owners("some-key");
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], ring.owner("some-key").expect("non-empty ring"));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn weight_scales_vnode_count_and_share() {
        let mut backends = specs(&["a", "b"]);
        backends[1].weight = 3;
        let ring = Ring::build(&backends);
        assert_eq!(ring.vnodes_of(0), VNODES_PER_WEIGHT as usize);
        assert_eq!(ring.vnodes_of(1), 3 * VNODES_PER_WEIGHT as usize);
        // The heavier backend owns most keys.
        let owned_by_b = (0..1000)
            .filter(|i| ring.owner(&format!("key-{i}")) == Some(1))
            .count();
        assert!(owned_by_b > 500, "weight-3 backend owned {owned_by_b}/1000");
    }

    #[test]
    fn zero_weight_backend_owns_nothing() {
        let mut backends = specs(&["a", "b"]);
        backends[1].weight = 0;
        let ring = Ring::build(&backends);
        assert_eq!(ring.vnodes_of(1), 0);
        for i in 0..100 {
            assert_eq!(ring.owner(&format!("key-{i}")), Some(0));
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let mut backends = specs(&["a"]);
        backends[0].weight = 0;
        let ring = Ring::build(&backends);
        assert_eq!(ring.owner("k"), None);
        assert!(ring.owners("k").is_empty());
    }

    #[test]
    fn short_sequential_names_split_the_keyspace_fairly() {
        // The reason mix64 exists: raw FNV-1a placement gave b1 ~2% of
        // this exact ring. Every equal-weight backend must own a
        // reasonable share, or real deployments (which name backends
        // b0, b1, ...) starve a node's cache.
        let ring = Ring::build(&specs(&["b0", "b1", "b2"]));
        let value = ring.to_value(&specs(&["b0", "b1", "b2"]));
        let backends = value
            .get("backends")
            .expect("backends")
            .as_array()
            .expect("array");
        for b in backends {
            let share = b.get("owned_share").expect("share").as_f64().expect("f64");
            assert!(
                (0.15..=0.55).contains(&share),
                "backend {:?} owns {share} of the keyspace; placement is unbalanced",
                b.get("name")
            );
        }
    }

    #[test]
    fn ring_json_reports_shares_summing_to_one() {
        let ring = Ring::build(&specs(&["a", "b", "c"]));
        let value = ring.to_value(&specs(&["a", "b", "c"]));
        let backends = value
            .get("backends")
            .expect("backends")
            .as_array()
            .expect("array");
        let total: f64 = backends
            .iter()
            .map(|b| b.get("owned_share").expect("share").as_f64().expect("f64"))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }
}
