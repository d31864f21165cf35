//! A sharded LRU cache for rendered explanation responses.
//!
//! Explanations are deterministic functions of `(pair, explainer, config,
//! seed)` — see `DESIGN.md` §7 — so the service can cache the **encoded
//! response body** and replay it byte-for-byte: a cached response is
//! bit-identical to a freshly computed one by construction.
//!
//! Keys are the canonical JSON of the resolved request (stable across
//! processes); an FNV-1a hash of the key picks the shard — `em-codec`'s,
//! the same hash `em-route`'s ring places the key with — and the full key
//! string is kept in the map so hash collisions can never alias two
//! different requests. Each shard is an independent mutex, so concurrent
//! workers rarely contend. Recency is a monotonic tick per entry; eviction
//! scans the (small) shard for the minimum tick — O(shard size), which at
//! serving-cache sizes is cheaper than maintaining an intrusive list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use em_codec::hash::fnv1a64;

struct Entry {
    body: String,
    tick: u64,
}

/// Hit/miss counters, surfaced on `/metrics`.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that returned a cached body.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// Entries evicted to make room.
    pub evictions: AtomicU64,
}

/// The sharded LRU described in the module docs.
pub struct ShardedCache {
    shards: Vec<Mutex<HashMap<String, Entry>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    stats: CacheStats,
}

impl std::fmt::Debug for ShardedCache {
    // Manual impl: printing the shards would lock every mutex (and Entry
    // bodies are whole JSON responses); shape + counters is enough.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ShardedCache {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both clamped to at least 1; per-shard capacity rounds up).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard,
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Entry>> {
        let idx = (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[idx] // em-lint: allow(panic-in-request-path) -- idx < shards.len() by the modulo above
    }

    /// Returns the cached body for `key`, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<String> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned"); // em-lint: allow(panic-in-request-path) -- poisoning means a worker already panicked; propagating is the correct failure mode
        match shard.get_mut(key) {
            Some(entry) => {
                entry.tick = self.tick.fetch_add(1, Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.body.clone())
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → body`, evicting the least recently
    /// used entry of the shard when it is full.
    pub fn insert(&self, key: String, body: String) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned"); // em-lint: allow(panic-in-request-path) -- poisoning means a worker already panicked; propagating is the correct failure mode
        if !shard.contains_key(&key) && shard.len() >= self.capacity_per_shard {
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&oldest);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key, Entry { body, tick });
    }

    /// Number of cached entries (sums shard sizes).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len()) // em-lint: allow(panic-in-request-path) -- poisoning means a worker already panicked; propagating is the correct failure mode
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss/eviction counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(8, 2);
        assert_eq!(cache.get("k"), None);
        cache.insert("k".to_string(), "body".to_string());
        assert_eq!(cache.get("k").as_deref(), Some("body"));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard so recency order is total.
        let cache = ShardedCache::new(2, 1);
        cache.insert("a".to_string(), "1".to_string());
        cache.insert("b".to_string(), "2".to_string());
        assert_eq!(cache.get("a").as_deref(), Some("1")); // refresh "a"
        cache.insert("c".to_string(), "3".to_string()); // evicts "b"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("c").as_deref(), Some("3"));
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ShardedCache::new(2, 1);
        cache.insert("a".to_string(), "1".to_string());
        cache.insert("b".to_string(), "2".to_string());
        cache.insert("a".to_string(), "1'".to_string());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a").as_deref(), Some("1'"));
        assert_eq!(cache.get("b").as_deref(), Some("2"));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 40);
                        if cache.get(&key).is_none() {
                            cache.insert(key.clone(), format!("v{key}"));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
        for i in 0..40 {
            let key = format!("k{i}");
            if let Some(body) = cache.get(&key) {
                assert_eq!(body, format!("v{key}"));
            }
        }
    }
}
