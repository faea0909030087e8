//! Finite-capacity LRU cache model — the ablation companion to
//! [`crate::CacheSim`].
//!
//! `CacheSim` assumes each SM's cache holds a kernel's whole per-SM working
//! set, so it measures only *cross-SM duplication* (the paper's cache-bloat
//! definition). This model adds capacity pressure: when a working set
//! exceeds the SM's L1, rows are re-fetched on reuse. The `cache_ablation`
//! experiment uses it to show the paper's conclusions are not an artifact
//! of the infinite-capacity assumption.
//!
//! Both it and `gt-core`'s serving caches sit on [`Lru`], the workspace's
//! one least-recently-used set.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// A bounded LRU set with deterministic eviction: every touch gets a
/// fresh tick, and eviction always removes the smallest `(tick, key)`
/// pair — never anything that depends on hash-map iteration order.
#[derive(Debug, Clone)]
pub struct Lru<K> {
    capacity: usize,
    tick: u64,
    last_use: HashMap<K, u64>,
    order: BTreeSet<(u64, K)>,
}

impl<K: Copy + Ord + Hash> Lru<K> {
    /// Empty set holding at most `capacity` keys (0 disables it).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            last_use: HashMap::new(),
            order: BTreeSet::new(),
        }
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn lookup(&mut self, key: K) -> bool {
        let Some(t) = self.last_use.get_mut(&key) else {
            return false;
        };
        self.tick += 1;
        self.order.remove(&(*t, key));
        *t = self.tick;
        self.order.insert((self.tick, key));
        true
    }

    /// Insert `key` as most recent, evicting the least recent at capacity.
    pub fn insert(&mut self, key: K) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(t) = self.last_use.get_mut(&key) {
            self.order.remove(&(*t, key));
            *t = self.tick;
        } else {
            if self.last_use.len() >= self.capacity {
                self.pop_oldest();
            }
            self.last_use.insert(key, self.tick);
        }
        self.order.insert((self.tick, key));
    }

    /// Remove and return the least recently used key.
    pub fn pop_oldest(&mut self) -> Option<K> {
        let (_, key) = self.order.pop_first()?;
        self.last_use.remove(&key);
        Some(key)
    }

    /// Forget every key and restart the tick.
    pub fn clear(&mut self) {
        self.tick = 0;
        self.last_use.clear();
        self.order.clear();
    }
}

/// One SM's resident rows; capacity is in bytes, so the set itself is
/// unbounded and [`LruCacheSim::touch_block`] evicts by hand.
#[derive(Debug, Clone)]
struct LruSet {
    rows: Lru<u64>,
    bytes: u64,
}

/// Per-SM LRU caches with a shared capacity parameter.
#[derive(Debug, Clone)]
pub struct LruCacheSim {
    sms: Vec<LruSet>,
    capacity_bytes: u64,
    loaded_bytes: u64,
    hits: u64,
    misses: u64,
}

impl LruCacheSim {
    /// `num_sms` caches of `capacity_bytes` each.
    pub fn new(num_sms: usize, capacity_bytes: u64) -> Self {
        assert!(num_sms > 0);
        assert!(capacity_bytes > 0);
        LruCacheSim {
            sms: vec![
                LruSet {
                    rows: Lru::new(usize::MAX),
                    bytes: 0,
                };
                num_sms
            ],
            capacity_bytes,
            loaded_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Thread block `block` touches `row` (`bytes` big) on SM
    /// `block % num_sms`. Returns true on a miss (a load happened).
    pub fn touch_block(&mut self, block: usize, row: u64, bytes: u64) -> bool {
        let sm_idx = block % self.sms.len();
        let capacity = self.capacity_bytes;
        let sm = &mut self.sms[sm_idx];
        if sm.rows.lookup(row) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        self.loaded_bytes += bytes;
        // Evict LRU rows until the new one fits. Rows are uniform-sized per
        // kernel, so this loop runs at most a couple of times.
        while sm.bytes + bytes > capacity && sm.rows.pop_oldest().is_some() {
            sm.bytes = sm.bytes.saturating_sub(bytes);
        }
        sm.rows.insert(row);
        sm.bytes += bytes;
        true
    }

    /// Total bytes fetched from global memory.
    pub fn loaded_bytes(&self) -> u64 {
        self.loaded_bytes
    }

    /// Cache hit rate over all touches.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_oldest_follows_recency_not_insertion() {
        let mut lru = Lru::new(8);
        for k in [10u32, 20, 30] {
            lru.insert(k);
        }
        assert!(lru.lookup(10)); // 20 is now the oldest
        assert_eq!(lru.pop_oldest(), Some(20));
        assert_eq!(lru.pop_oldest(), Some(30));
        assert_eq!(lru.pop_oldest(), Some(10));
        assert_eq!(lru.pop_oldest(), None);
    }

    #[test]
    fn within_capacity_behaves_like_infinite() {
        let mut c = LruCacheSim::new(2, 1024);
        // Two rows of 100 bytes, touched repeatedly on one SM.
        for _ in 0..10 {
            c.touch_block(0, 1, 100);
            c.touch_block(0, 2, 100);
        }
        assert_eq!(c.loaded_bytes(), 200);
        assert!(c.hit_rate() > 0.8);
    }

    #[test]
    fn capacity_pressure_causes_refetches() {
        // Capacity for exactly 2 rows; cycle through 3 → every touch misses.
        let mut c = LruCacheSim::new(1, 200);
        for _ in 0..5 {
            for row in 0..3u64 {
                c.touch_block(0, row, 100);
            }
        }
        assert_eq!(c.hit_rate(), 0.0);
        assert_eq!(c.loaded_bytes(), 15 * 100);
    }

    #[test]
    fn lru_keeps_recent_rows() {
        let mut c = LruCacheSim::new(1, 200);
        c.touch_block(0, 1, 100);
        c.touch_block(0, 2, 100);
        c.touch_block(0, 1, 100); // refresh row 1
        c.touch_block(0, 3, 100); // evicts row 2 (LRU)
        assert!(!c.touch_block(0, 1, 100), "row 1 should still be resident");
        assert!(c.touch_block(0, 2, 100), "row 2 should have been evicted");
    }

    #[test]
    fn cross_sm_duplication_still_counted() {
        let mut c = LruCacheSim::new(4, 10_000);
        c.touch_block(0, 7, 100);
        c.touch_block(1, 7, 100);
        assert_eq!(c.loaded_bytes(), 200);
    }
}
