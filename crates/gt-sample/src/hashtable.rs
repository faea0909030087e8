//! The sampled-node VID hash table (§II-B, Fig 4a).
//!
//! Neighbor sampling "maintains a hash table for the sampled nodes"; each
//! unique node added to a subgraph gets a fresh dense new-VID starting from
//! zero, in first-occurrence order. Sampling's H phase is the table's one
//! user: one [`VidMap::insert_or_get`] per sampled endpoint both assigns
//! the id and hands it to reindexing (R), which reads no table on the host.
//! There is no lock: Fig 14c serializes H, so the map has one writer, and
//! the contention of Fig 14a is modeled in `gt-core::scheduler`.

use crate::idhash::IdHashMap;
use gt_graph::VId;

/// Counters the scheduler's cost model prices (S's hash ops: `inserts + hits`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VidMapStats {
    /// Insert calls that allocated a new VID.
    pub inserts: u64,
    /// Insert calls that found an existing mapping.
    pub hits: u64,
}

/// Original-VID → new-VID map with dense id allocation.
#[derive(Debug, Default)]
pub struct VidMap {
    map: IdHashMap<VId, VId>,
    /// Insertion log: `new_to_orig[new]` = original id.
    new_to_orig: Vec<VId>,
    hits: u64,
}

impl VidMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `orig` to its new VID, allocating the next dense id if unseen.
    /// Returns `(new_vid, was_inserted)`.
    // `#[inline]`: H calls this once per sampled edge from the sampler's
    // fold closure, which the compiler may place in another codegen unit;
    // without the hint the probe stayed an out-of-line call there and H ran
    // 10–15% slower.
    #[inline]
    pub fn insert_or_get(&mut self, orig: VId) -> (VId, bool) {
        let next = self.new_to_orig.len() as VId;
        // Mapped values are all `< next`, so `new == next` means "fresh".
        let new = *self.map.entry(orig).or_insert(next);
        if new == next {
            self.new_to_orig.push(orig);
        } else {
            self.hits += 1;
        }
        (new, new == next)
    }

    /// Look up an existing mapping without inserting.
    pub fn get(&self, orig: VId) -> Option<VId> {
        self.map.get(&orig).copied()
    }

    /// Number of unique nodes mapped so far.
    pub fn len(&self) -> usize {
        self.new_to_orig.len()
    }

    /// True if no nodes have been mapped.
    pub fn is_empty(&self) -> bool {
        self.new_to_orig.is_empty()
    }

    /// `new → orig`, densely indexed by new VID.
    pub fn new_to_orig(&self) -> &[VId] {
        &self.new_to_orig
    }

    /// Consume the map, keeping only the `new → orig` table (K's row order).
    pub fn into_new_to_orig(self) -> Vec<VId> {
        self.new_to_orig
    }

    /// Operation counters.
    pub fn stats(&self) -> VidMapStats {
        VidMapStats {
            inserts: self.new_to_orig.len() as u64,
            hits: self.hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(inserts: u64, hits: u64) -> VidMapStats {
        VidMapStats { inserts, hits }
    }

    #[test]
    fn dense_sequential_allocation() {
        let mut m = VidMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert_or_get(100), (0, true));
        assert_eq!(m.insert_or_get(50), (1, true));
        assert_eq!(m.insert_or_get(100), (0, false));
        assert_eq!(m.new_to_orig(), [100, 50]);
        assert_eq!(m.into_new_to_orig(), vec![100, 50]);
    }

    #[test]
    fn get_does_not_insert() {
        let mut m = VidMap::new();
        assert_eq!(m.get(7), None);
        assert_eq!((m.len(), m.stats()), (0, stats(0, 0)));
        m.insert_or_get(7);
        assert_eq!((m.get(7), m.get(8)), (Some(0), None));
        assert_eq!((m.len(), m.stats()), (1, stats(1, 0)));
    }

    #[test]
    fn repeated_inserts_allocate_once() {
        let ids = [5u32, 9, 5, 2, 9, 7, 2, 11];
        let mut m = VidMap::new();
        let got: Vec<(VId, bool)> = ids.iter().map(|&v| m.insert_or_get(v)).collect();
        assert_eq!(
            got,
            [
                (0, true),
                (1, true),
                (0, false),
                (2, true),
                (1, false),
                (3, true),
                (2, false),
                (4, true)
            ]
        );
        assert_eq!(m.new_to_orig(), [5, 9, 2, 7, 11]);
        assert_eq!(m.stats(), stats(5, 3));
        // A second pass over already-seen ids allocates nothing.
        for &v in &ids {
            assert!(!m.insert_or_get(v).1);
        }
        assert_eq!((m.len(), m.stats()), (5, stats(5, 11)));
    }

    #[test]
    fn stats_count_operations() {
        let mut m = VidMap::new();
        for v in [1, 1, 2] {
            m.insert_or_get(v);
        }
        assert_eq!((m.get(1), m.get(99)), (Some(0), None));
        assert_eq!(m.stats(), stats(2, 1));
    }
}
