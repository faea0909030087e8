//! Compressed sparse row, with the paper's orientation: the pointer array is
//! indexed by **destination** vertex and the underlying vertex array stores
//! **source** ids (§II-A, Fig 1b). This is the format forward-propagation
//! aggregation wants: "src node information per dst vertex".

use crate::error::{validate_indptr, GraphError};
use crate::{EId, VId};

/// Dst-indexed adjacency: `srcs(d)` are the in-neighbors of destination `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `indptr[d]..indptr[d+1]` bounds dst `d`'s slice of `srcs`.
    pub indptr: Vec<EId>,
    /// Concatenated source ids.
    pub srcs: Vec<VId>,
}

impl Csr {
    /// Construct from raw arrays, validating monotonicity and bounds.
    /// Panics on invalid input; use [`try_new`](Self::try_new) to get the
    /// violation as a value.
    pub fn new(indptr: Vec<EId>, srcs: Vec<VId>) -> Self {
        Csr::try_new(indptr, srcs).unwrap_or_else(|e| panic!("invalid CSR: {e}"))
    }

    /// Construct from raw arrays, returning the structural-invariant
    /// violation instead of panicking.
    pub fn try_new(indptr: Vec<EId>, srcs: Vec<VId>) -> Result<Self, GraphError> {
        validate_indptr(&indptr, srcs.len())?;
        Ok(Csr { indptr, srcs })
    }

    /// Number of destination vertices.
    pub fn num_vertices(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// In-neighbors (sources) of destination `d`.
    #[inline]
    pub fn srcs(&self, d: VId) -> &[VId] {
        let lo = self.indptr[d as usize] as usize;
        let hi = self.indptr[d as usize + 1] as usize;
        &self.srcs[lo..hi]
    }

    /// In-degree of destination `d`.
    #[inline]
    pub fn degree(&self, d: VId) -> usize {
        (self.indptr[d as usize + 1] - self.indptr[d as usize]) as usize
    }

    /// Iterate `(dst, &[srcs])` over all destinations.
    pub fn iter(&self) -> impl Iterator<Item = (VId, &[VId])> + '_ {
        (0..self.num_vertices() as VId).map(move |d| (d, self.srcs(d)))
    }

    /// Edge-id range belonging to destination `d` (for per-edge payloads).
    #[inline]
    pub fn edge_range(&self, d: VId) -> std::ops::Range<usize> {
        self.indptr[d as usize] as usize..self.indptr[d as usize + 1] as usize
    }

    /// Storage footprint in bytes (pointer array + vertex array).
    pub fn storage_bytes(&self) -> u64 {
        (self.indptr.len() * std::mem::size_of::<EId>()
            + self.srcs.len() * std::mem::size_of::<VId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig 1a example graph: edges 0→1, 2→1, 3→1, 1→2, 3→2 become
    /// dst-indexed CSR.
    fn fig1() -> Csr {
        // dst 0: {}; dst 1: {0,2,3}; dst 2: {1,3}; dst 3: {}
        Csr::new(vec![0, 0, 3, 5, 5], vec![0, 2, 3, 1, 3])
    }

    #[test]
    fn neighbor_slices() {
        let g = fig1();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.srcs(0), &[] as &[VId]);
        assert_eq!(g.srcs(1), &[0, 2, 3]);
        assert_eq!(g.srcs(2), &[1, 3]);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn edge_ranges_partition_edges() {
        let g = fig1();
        let total: usize = (0..4).map(|d| g.edge_range(d).len()).sum();
        assert_eq!(total, g.num_edges());
        assert_eq!(g.edge_range(1), 0..3);
        assert_eq!(g.edge_range(2), 3..5);
    }

    #[test]
    #[should_panic]
    fn decreasing_indptr_rejected() {
        Csr::new(vec![0, 3, 2], vec![0, 1, 2]);
    }

    #[test]
    fn try_new_reports_violations_as_values() {
        assert_eq!(
            Csr::try_new(vec![0, 3, 2], vec![0, 1, 2]),
            Err(GraphError::IndptrNotMonotone { at: 1 })
        );
        assert_eq!(
            Csr::try_new(vec![0, 2], vec![0, 1, 2]),
            Err(GraphError::IndptrEndMismatch { end: 2, edges: 3 })
        );
        assert!(Csr::try_new(vec![0, 0, 3, 5, 5], vec![0, 2, 3, 1, 3]).is_ok());
    }

    #[test]
    #[should_panic]
    fn indptr_end_mismatch_rejected() {
        Csr::new(vec![0, 2], vec![0, 1, 2]);
    }

    #[test]
    fn iter_visits_all_vertices() {
        let g = fig1();
        assert_eq!(g.iter().count(), 4);
        let degrees: Vec<usize> = g.iter().map(|(_, s)| s.len()).collect();
        assert_eq!(degrees, vec![0, 3, 2, 0]);
    }
}
