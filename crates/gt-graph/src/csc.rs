//! Compressed sparse column, paper orientation: pointer array indexed by
//! **source** vertex, vertex array stores **destination** ids (§II-A).
//! Backward propagation traverses this ("dst node information per src node").

use crate::error::{validate_indptr, GraphError};
use crate::{EId, VId};

/// Src-indexed adjacency: `dsts(s)` are the out-neighbors of source `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csc {
    /// `indptr[s]..indptr[s+1]` bounds src `s`'s slice of `dsts`.
    pub indptr: Vec<EId>,
    /// Concatenated destination ids.
    pub dsts: Vec<VId>,
}

impl Csc {
    /// Construct from raw arrays, validating monotonicity and bounds.
    /// Panics on invalid input; use [`try_new`](Self::try_new) to get the
    /// violation as a value.
    pub fn new(indptr: Vec<EId>, dsts: Vec<VId>) -> Self {
        Csc::try_new(indptr, dsts).unwrap_or_else(|e| panic!("invalid CSC: {e}"))
    }

    /// Construct from raw arrays, returning the structural-invariant
    /// violation instead of panicking.
    pub fn try_new(indptr: Vec<EId>, dsts: Vec<VId>) -> Result<Self, GraphError> {
        validate_indptr(&indptr, dsts.len())?;
        Ok(Csc { indptr, dsts })
    }

    /// Number of source vertices.
    pub fn num_vertices(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    /// Out-neighbors (destinations) of source `s`.
    #[inline]
    pub fn dsts(&self, s: VId) -> &[VId] {
        let lo = self.indptr[s as usize] as usize;
        let hi = self.indptr[s as usize + 1] as usize;
        &self.dsts[lo..hi]
    }

    /// Out-degree of source `s`.
    pub fn degree(&self, s: VId) -> usize {
        (self.indptr[s as usize + 1] - self.indptr[s as usize]) as usize
    }

    /// Iterate `(src, &[dsts])` over all sources.
    pub fn iter(&self) -> impl Iterator<Item = (VId, &[VId])> + '_ {
        (0..self.num_vertices() as VId).map(move |s| (s, self.dsts(s)))
    }

    /// Storage footprint in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.indptr.len() * std::mem::size_of::<EId>()
            + self.dsts.len() * std::mem::size_of::<VId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Csc {
        // Edges 0→1, 1→2, 2→1, 3→1, 3→2, src-indexed.
        Csc::new(vec![0, 1, 2, 3, 5], vec![1, 2, 1, 1, 2])
    }

    #[test]
    fn out_neighbor_slices() {
        let g = fig1();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.dsts(0), &[1]);
        assert_eq!(g.dsts(3), &[1, 2]);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    #[should_panic]
    fn nonzero_start_rejected() {
        Csc::new(vec![1, 2], vec![0]);
    }

    #[test]
    fn try_new_reports_violations_as_values() {
        assert_eq!(
            Csc::try_new(vec![1, 2], vec![0]),
            Err(GraphError::IndptrStart { first: 1 })
        );
        assert_eq!(Csc::try_new(vec![], vec![]), Err(GraphError::EmptyIndptr));
        assert!(Csc::try_new(vec![0, 1, 2, 3, 5], vec![1, 2, 1, 1, 2]).is_ok());
    }

    #[test]
    fn iter_degrees() {
        let g = fig1();
        let d: Vec<usize> = g.iter().map(|(_, x)| x.len()).collect();
        assert_eq!(d, vec![1, 1, 1, 2]);
    }
}
