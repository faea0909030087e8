//! Skew-exploiting serving caches.
//!
//! Million-user query streams are heavily skewed: a small hot set of
//! vertices draws most lookups (the power-law access pattern of GNN
//! inference), and popular queries repeat verbatim. Two caches exploit
//! that inside [`Supervisor::serve`](crate::serve::Supervisor::serve):
//!
//! * the **historical-embedding cache** — a bounded LRU over vertex ids.
//!   A hit means the vertex's embedding row was fetched recently and the
//!   feature-lookup (K) phase need not re-fetch it; the modeled lookup
//!   time shrinks by the batch's hit fraction.
//! * the **sampled-subgraph cache** — keyed by `(vertex-set digest,
//!   fanout, epoch)`. A hit means the exact query (same vertex set, same
//!   fanout, same parameter epoch) was sampled recently, so the sampling
//!   (S) and reindex (R) phases are skipped entirely.
//!
//! Both caches shape *modeled service time only*: the trainer still runs
//! every batch, so parameters, journal records, and checkpoint CRCs are
//! byte-identical with caches on or off — the caches are a serving-latency
//! optimization, not a numerics change. Savings are capped at the batch's
//! preprocessing makespan and come back in
//! [`Served::saved_us`](crate::serve::Served), which is what the
//! gateway charges service time from.
//!
//! **Invalidation.** The subgraph key includes a parameter *epoch* that
//! bumps on every committed checkpoint, so entries sampled against stale
//! parameters age out naturally. A checkpoint restore
//! ([`Supervisor::recover`](crate::serve::Supervisor::recover)) resets both
//! caches to empty at epoch 0 and lets the deterministic journal replay
//! repopulate them — a recovered process therefore reaches the exact cache
//! state (and hit counters) the crashed one had.
//!
//! **Determinism.** Eviction is strict least-recently-used with ties
//! impossible (`gt_sim::Lru` gives every touch a fresh tick); no hash-map
//! iteration order ever influences behavior, so cache decisions are
//! bit-identical across `GT_THREADS` widths and machines.

use crate::framework::BatchReport;
use gt_graph::VId;
use gt_sim::{Lru, Phase};

/// Sizing of the serving caches.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Vertices retained by the historical-embedding cache (0 disables it).
    pub embedding_capacity: usize,
    /// Entries retained by the sampled-subgraph cache (0 disables it).
    pub subgraph_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            embedding_capacity: 4096,
            subgraph_capacity: 256,
        }
    }
}

/// What the caches said about one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLookup {
    /// Batch vertices whose embedding row was cached.
    pub embedding_hits: usize,
    /// Batch vertices in total (the hit-fraction denominator).
    pub batch_len: usize,
    /// True when the exact sampled subgraph was cached.
    pub subgraph_hit: bool,
}

/// Running totals, for hit-rate metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Embedding-cache hits across all batches.
    pub embedding_hits: u64,
    /// Embedding-cache misses across all batches.
    pub embedding_misses: u64,
    /// Subgraph-cache hits across all batches.
    pub subgraph_hits: u64,
    /// Subgraph-cache misses across all batches.
    pub subgraph_misses: u64,
    /// Modeled preprocessing µs saved in total.
    pub saved_us: f64,
}

impl CacheStats {
    /// Embedding hit rate in [0, 1] (0 before any lookup).
    pub fn embedding_hit_rate(&self) -> f64 {
        let total = self.embedding_hits + self.embedding_misses;
        if total == 0 {
            0.0
        } else {
            self.embedding_hits as f64 / total as f64
        }
    }

    /// Subgraph hit rate in [0, 1] (0 before any lookup).
    pub fn subgraph_hit_rate(&self) -> f64 {
        let total = self.subgraph_hits + self.subgraph_misses;
        if total == 0 {
            0.0
        } else {
            self.subgraph_hits as f64 / total as f64
        }
    }
}

/// FNV-1a over the sorted vertex set plus fanout and epoch — the
/// order-insensitive identity of one sampled-subgraph query.
fn subgraph_key(batch: &[VId], fanout: usize, epoch: u64) -> u64 {
    let mut ids: Vec<VId> = batch.to_vec();
    ids.sort_unstable();
    let words = ids.into_iter().map(u64::from).chain([fanout as u64, epoch]);
    gt_telemetry::fnv1a(words.flat_map(u64::to_le_bytes))
}

/// Both serving caches plus their accounting, owned by the
/// [`Supervisor`](crate::serve::Supervisor) when caching is enabled.
#[derive(Debug)]
pub struct ServingCaches {
    embedding: Lru<VId>,
    subgraph: Lru<u64>,
    epoch: u64,
    stats: CacheStats,
}

impl ServingCaches {
    /// Empty caches sized by `config`, at parameter epoch 0.
    pub fn new(config: CacheConfig) -> Self {
        ServingCaches {
            embedding: Lru::new(config.embedding_capacity),
            subgraph: Lru::new(config.subgraph_capacity),
            epoch: 0,
            stats: CacheStats::default(),
        }
    }

    /// Consult both caches for `batch` sampled at `fanout`, then populate
    /// them (misses inserted, hits refreshed).
    pub fn consult(&mut self, batch: &[VId], fanout: usize) -> CacheLookup {
        let mut embedding_hits = 0usize;
        for &v in batch {
            if self.embedding.lookup(v) {
                embedding_hits += 1;
            } else {
                self.embedding.insert(v);
            }
        }
        let key = subgraph_key(batch, fanout, self.epoch);
        let subgraph_hit = self.subgraph.lookup(key);
        if !subgraph_hit {
            self.subgraph.insert(key);
        }
        self.stats.embedding_hits += embedding_hits as u64;
        self.stats.embedding_misses += (batch.len() - embedding_hits) as u64;
        if subgraph_hit {
            self.stats.subgraph_hits += 1;
        } else {
            self.stats.subgraph_misses += 1;
        }
        CacheLookup {
            embedding_hits,
            batch_len: batch.len(),
            subgraph_hit,
        }
    }

    /// [`consult`](Self::consult) for a trained batch and price the hits
    /// against its preprocessing schedule: a subgraph hit skips sampling +
    /// reindex outright; cached embedding rows shrink the lookup phase by
    /// the batch's hit fraction. Returns the lookup and the modeled µs
    /// saved, capped at the makespan — a cache can erase preprocessing,
    /// never GPU compute.
    pub fn consult_priced(
        &mut self,
        batch: &[VId],
        fanout: usize,
        report: &BatchReport,
    ) -> (CacheLookup, f64) {
        let lookup = self.consult(batch, fanout);
        let mut saved = 0.0;
        if let Some(schedule) = &report.prepro {
            if lookup.subgraph_hit {
                saved += schedule.phase_busy_us(Phase::Sampling)
                    + schedule.phase_busy_us(Phase::Reindex);
            }
            if lookup.batch_len > 0 {
                saved += schedule.phase_busy_us(Phase::Lookup) * lookup.embedding_hits as f64
                    / lookup.batch_len as f64;
            }
        }
        let saved = saved.min(report.prepro_us());
        self.stats.saved_us += saved;
        (lookup, saved)
    }

    /// Advance the parameter epoch — called on every committed checkpoint,
    /// so subgraph entries sampled against older parameters stop matching.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Drop everything and return to epoch 0 — called on checkpoint
    /// restore, so the deterministic replay rebuilds the exact cache state
    /// the crashed process had.
    pub fn reset(&mut self) {
        self.embedding.clear();
        self.subgraph.clear();
        self.epoch = 0;
        self.stats = CacheStats::default();
    }

    /// Running totals.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used_deterministically() {
        let mut lru = Lru::new(2);
        lru.insert(1u32);
        lru.insert(2);
        assert!(lru.lookup(1)); // refresh 1; 2 is now oldest
        lru.insert(3); // evicts 2
        assert!(lru.lookup(1));
        assert!(lru.lookup(3));
        assert!(!lru.lookup(2));
        // Exactly the two survivors are held, oldest first.
        assert_eq!(lru.pop_oldest(), Some(1));
        assert_eq!(lru.pop_oldest(), Some(3));
        assert_eq!(lru.pop_oldest(), None);
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let mut c = ServingCaches::new(CacheConfig {
            embedding_capacity: 0,
            subgraph_capacity: 0,
        });
        let l = c.consult(&[1, 2, 3], 4);
        assert_eq!(l.embedding_hits, 0);
        assert!(!l.subgraph_hit);
        let l = c.consult(&[1, 2, 3], 4);
        assert_eq!(l.embedding_hits, 0, "disabled cache must never hit");
        assert!(!l.subgraph_hit);
    }

    #[test]
    fn repeated_query_hits_subgraph_and_embeddings() {
        let mut c = ServingCaches::new(CacheConfig::default());
        let batch = [5u32, 9, 2];
        let first = c.consult(&batch, 6);
        assert_eq!(first.embedding_hits, 0);
        assert!(!first.subgraph_hit);
        // Same vertex set in a different order is the same query.
        let second = c.consult(&[2u32, 5, 9], 6);
        assert_eq!(second.embedding_hits, 3);
        assert!(second.subgraph_hit);
        // A different fanout is a different subgraph.
        let third = c.consult(&batch, 3);
        assert_eq!(third.embedding_hits, 3);
        assert!(!third.subgraph_hit);
    }

    #[test]
    fn epoch_bump_invalidates_subgraphs_but_not_embeddings() {
        let mut c = ServingCaches::new(CacheConfig::default());
        let batch = [1u32, 2, 3];
        c.consult(&batch, 4);
        c.bump_epoch();
        let l = c.consult(&batch, 4);
        assert!(!l.subgraph_hit, "stale-epoch subgraph must not match");
        assert_eq!(l.embedding_hits, 3, "embedding rows survive the epoch");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut c = ServingCaches::new(CacheConfig::default());
        c.consult(&[1u32, 2], 4);
        c.bump_epoch();
        c.reset();
        assert_eq!(c.epoch, 0);
        assert_eq!(c.embedding.pop_oldest(), None);
        assert_eq!(c.subgraph.pop_oldest(), None);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn stats_and_rates_accumulate() {
        let mut c = ServingCaches::new(CacheConfig::default());
        c.consult(&[1u32, 2], 4);
        c.consult(&[1u32, 2], 4);
        let s = c.stats();
        assert_eq!(s.embedding_hits, 2);
        assert_eq!(s.embedding_misses, 2);
        assert_eq!(s.subgraph_hits, 1);
        assert_eq!(s.subgraph_misses, 1);
        assert_eq!(s.embedding_hit_rate(), 0.5);
        assert_eq!(s.subgraph_hit_rate(), 0.5);
    }
}
