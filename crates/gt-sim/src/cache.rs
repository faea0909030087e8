//! Per-SM cache model for measuring *cache bloat* (§III, Fig 6b; §VI, Fig 17b).
//!
//! GPU thread blocks are scheduled onto streaming multiprocessors. When two
//! blocks on *different* SMs touch the same embedding row, the row is loaded
//! into both SMs' caches — the duplicated load is the cache bloat the paper
//! attributes to edge-wise scheduling. The model records, per SM, the set of
//! unique rows touched; total loaded bytes is the sum over SMs, so a row
//! touched on k SMs is charged k times while repeated touches on one SM are
//! free (intra-SM reuse, which all schedulers get).

use std::collections::HashSet;

/// Tracks embedding-row residency per SM during one kernel.
#[derive(Debug, Clone)]
pub struct CacheSim {
    per_sm: Vec<HashSet<u64>>,
    loaded_bytes: u64,
}

impl CacheSim {
    /// A fresh cache model for a device with `num_sms` SMs.
    pub fn new(num_sms: usize) -> Self {
        assert!(num_sms > 0, "device must have at least one SM");
        CacheSim {
            per_sm: vec![HashSet::new(); num_sms],
            loaded_bytes: 0,
        }
    }

    /// Number of SMs being modeled.
    pub fn num_sms(&self) -> usize {
        self.per_sm.len()
    }

    /// Thread block `block` touches row `row` of `bytes` bytes; the block is
    /// resident on SM `block % num_sms` (round-robin block scheduling).
    /// Returns true if this touch caused a (re-)load.
    pub fn touch_block(&mut self, block: usize, row: u64, bytes: u64) -> bool {
        let sm = block % self.per_sm.len();
        self.touch_sm(sm, row, bytes)
    }

    /// Row `row` is touched by a block pinned to SM `sm`.
    pub fn touch_sm(&mut self, sm: usize, row: u64, bytes: u64) -> bool {
        let newly = self.per_sm[sm].insert(row);
        if newly {
            self.loaded_bytes += bytes;
        }
        newly
    }

    /// Total bytes loaded into SM caches, counting cross-SM duplicates.
    pub fn loaded_bytes(&self) -> u64 {
        self.loaded_bytes
    }

    /// Number of distinct rows resident anywhere (the true working set).
    pub fn unique_rows(&self) -> usize {
        let mut all: HashSet<u64> = HashSet::new();
        for sm in &self.per_sm {
            all.extend(sm.iter().copied());
        }
        all.len()
    }

    /// Duplicated loads: total row-residencies minus unique rows.
    pub fn duplicate_rows(&self) -> usize {
        let total: usize = self.per_sm.iter().map(|s| s.len()).sum();
        total - self.unique_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_sm_reuse_is_free() {
        let mut c = CacheSim::new(4);
        assert!(c.touch_sm(0, 7, 100));
        assert!(!c.touch_sm(0, 7, 100));
        assert_eq!(c.loaded_bytes(), 100);
        assert_eq!(c.duplicate_rows(), 0);
    }

    #[test]
    fn cross_sm_touch_duplicates() {
        let mut c = CacheSim::new(4);
        c.touch_sm(0, 7, 100);
        c.touch_sm(1, 7, 100);
        assert_eq!(c.loaded_bytes(), 200);
        assert_eq!(c.unique_rows(), 1);
        assert_eq!(c.duplicate_rows(), 1);
    }

    #[test]
    fn block_round_robin_assignment() {
        let mut c = CacheSim::new(2);
        // blocks 0 and 2 land on SM 0; block 1 on SM 1.
        c.touch_block(0, 5, 10);
        c.touch_block(2, 5, 10); // same SM — reuse
        assert_eq!(c.loaded_bytes(), 10);
        c.touch_block(1, 5, 10); // other SM — duplicate
        assert_eq!(c.loaded_bytes(), 20);
    }

    #[test]
    fn empty_cache_has_zero_bloat() {
        let c = CacheSim::new(3);
        assert_eq!(c.loaded_bytes(), 0);
        assert_eq!(c.duplicate_rows(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_sms_rejected() {
        CacheSim::new(0);
    }
}
