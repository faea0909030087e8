//! Minibatch iteration over seed destination vertices.
//!
//! Training "simply iterates to process batches in a given dataset" (§VI);
//! a batch is 300 destination vertices drawn without replacement from a
//! seeded shuffle of the vertex set.

use gt_graph::VId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Iterator over shuffled fixed-size batches of vertex ids.
#[derive(Debug, Clone)]
pub struct BatchIter {
    order: Vec<VId>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Shuffle `0..num_vertices` with `seed` and yield batches of
    /// `batch_size` (the final partial batch is yielded too).
    pub fn new(num_vertices: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<VId> = (0..num_vertices as VId).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        BatchIter {
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Batches from an explicit seed set (e.g. labeled train vertices).
    pub fn from_seeds(seeds: Vec<VId>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order = seeds;
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        BatchIter {
            order,
            batch_size,
            cursor: 0,
        }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<VId>;

    fn next(&mut self) -> Option<Vec<VId>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let hi = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..hi].to_vec();
        self.cursor = hi;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_vertices_once() {
        let mut seen = [false; 10];
        for batch in BatchIter::new(10, 3, 1) {
            for v in batch {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn batch_sizes() {
        let batches: Vec<_> = BatchIter::new(10, 3, 1).collect();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].len(), 3);
        assert_eq!(batches[3].len(), 1);
    }

    #[test]
    fn deterministic_shuffle() {
        let a: Vec<_> = BatchIter::new(20, 5, 7).collect();
        let b: Vec<_> = BatchIter::new(20, 5, 7).collect();
        let c: Vec<_> = BatchIter::new(20, 5, 8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_subset() {
        let batches: Vec<_> = BatchIter::from_seeds(vec![4, 9, 2], 2, 0).collect();
        let all: Vec<VId> = batches.into_iter().flatten().collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(sorted, vec![2, 4, 9]);
    }
}
