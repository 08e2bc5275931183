//! Pair-keyed score cache.
//!
//! Serving workloads revisit pairs: re-ingested catalogs, overlapping
//! blocker outputs, repeated queries. The cache stores the raw `f32`
//! score per `(ctx, stage, left_id, right_id)` so a revisit returns the
//! bitwise-identical score without touching the matcher — per stage,
//! because each cascade stage has its own score surface and a cheap
//! stage's cached score must never masquerade as an expensive one's, and
//! per *context*, because a matcher's score depends on how the records
//! were rendered: the pipeline passes the stores' serializer
//! fingerprints as `ctx`, so re-serving the same ids under a different
//! `Serializer` (column shuffle, `name: value` ablation) can never
//! replay scores computed under the old serialization.
//!
//! The cache can be bounded: with a capacity set, insertion past the
//! bound evicts the oldest-inserted entry (FIFO). FIFO rather than LRU
//! keeps `get` a shared-reference read, which is what lets the pipeline
//! probe the cache from parallel workers. As long as a run's working set
//! fits within the capacity, warm runs remain bitwise-identical to cold
//! ones; evictions only ever cost re-scoring, never wrong answers.

use std::collections::{HashMap, VecDeque};

type Key = (u64, u32, u64, u64);

/// Pair-keyed, stage-scoped score cache. Keys are record *ids* (not
/// positions), so a cache outlives reorderings of the stores.
#[derive(Debug, Default)]
pub struct ScoreCache {
    map: HashMap<Key, f32>,
    /// Insertion order, oldest at the front; maintained only when bounded.
    order: VecDeque<Key>,
    capacity: Option<usize>,
    evicted: u64,
}

impl ScoreCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` entries; the oldest
    /// insertion is evicted first. `capacity` must be positive.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ScoreCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: Some(capacity),
            evicted: 0,
        }
    }

    /// The configured bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Cached score for a pair at a stage under a serialization context,
    /// if present. `ctx` is whatever fingerprint the caller renders pairs
    /// under (the pipeline combines both stores' serializer fingerprints).
    pub fn get(&self, ctx: u64, stage: u32, left_id: u64, right_id: u64) -> Option<f32> {
        self.map.get(&(ctx, stage, left_id, right_id)).copied()
    }

    /// Stores a score (last write wins). Re-inserting an existing key
    /// updates the score in place without refreshing its eviction order.
    pub fn insert(&mut self, ctx: u64, stage: u32, left_id: u64, right_id: u64, score: f32) {
        let key = (ctx, stage, left_id, right_id);
        let was_new = self.map.insert(key, score).is_none();
        if let Some(cap) = self.capacity {
            if was_new {
                self.order.push_back(key);
                while self.map.len() > cap {
                    let oldest = self
                        .order
                        .pop_front()
                        .expect("bounded cache over capacity with empty order queue");
                    self.map.remove(&oldest);
                    self.evicted += 1;
                    em_obs::metrics::counter("serve.cache_evicted").inc();
                }
            }
        }
    }

    /// Snapshot of every cached entry as `(key, score_bits)`, sorted by
    /// key — for equivalence suites comparing two caches' full contents
    /// bitwise (e.g. runs at different thread counts).
    pub fn entries(&self) -> Vec<((u64, u32, u64, u64), u32)> {
        let mut v: Vec<_> = self.map.iter().map(|(&k, &s)| (k, s.to_bits())).collect();
        v.sort_unstable();
        v
    }

    /// Number of cached entries across all stages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all entries (the eviction count survives; it is a lifetime
    /// statistic, not a content one).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bitwise() {
        let mut c = ScoreCache::new();
        let score = 0.123_456_79_f32;
        c.insert(0, 1, 10, 20, score);
        let got = c.get(0, 1, 10, 20).unwrap();
        assert_eq!(got.to_bits(), score.to_bits());
    }

    #[test]
    fn stages_are_isolated() {
        let mut c = ScoreCache::new();
        c.insert(0, 0, 1, 2, 0.9);
        assert_eq!(c.get(0, 1, 1, 2), None);
        assert_eq!(c.get(0, 0, 2, 1), None);
        assert_eq!(c.get(0, 0, 1, 2), Some(0.9));
    }

    #[test]
    fn contexts_are_isolated() {
        // Same (stage, ids) under two serialization contexts: neither
        // context may see the other's score.
        let mut c = ScoreCache::new();
        c.insert(11, 0, 1, 2, 0.9);
        assert_eq!(c.get(22, 0, 1, 2), None);
        assert_eq!(c.get(11, 0, 1, 2), Some(0.9));
        c.insert(22, 0, 1, 2, 0.1);
        assert_eq!(c.get(11, 0, 1, 2), Some(0.9));
        assert_eq!(c.get(22, 0, 1, 2), Some(0.1));
    }

    #[test]
    fn clear_empties() {
        let mut c = ScoreCache::new();
        c.insert(0, 0, 1, 2, 0.5);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = ScoreCache::new();
        for i in 0..10_000u64 {
            c.insert(0, 0, i, i, 0.5);
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let mut c = ScoreCache::with_capacity(2);
        c.insert(0, 0, 1, 1, 0.1);
        c.insert(0, 0, 2, 2, 0.2);
        c.insert(0, 0, 3, 3, 0.3); // evicts (0,1,1)
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(0, 0, 1, 1), None);
        assert_eq!(c.get(0, 0, 2, 2), Some(0.2));
        assert_eq!(c.get(0, 0, 3, 3), Some(0.3));
    }

    #[test]
    fn reinsert_updates_in_place_without_evicting() {
        let mut c = ScoreCache::with_capacity(2);
        c.insert(0, 0, 1, 1, 0.1);
        c.insert(0, 0, 2, 2, 0.2);
        c.insert(0, 0, 1, 1, 0.9); // same key: update, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(0, 0, 1, 1), Some(0.9));
        // (0,1,1) kept its original (oldest) slot, so it goes first.
        c.insert(0, 0, 3, 3, 0.3);
        assert_eq!(c.get(0, 0, 1, 1), None);
        assert_eq!(c.get(0, 0, 2, 2), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ScoreCache::with_capacity(0);
    }
}
