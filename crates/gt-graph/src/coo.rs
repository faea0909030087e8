//! Coordinate-list (COO) edge storage: parallel `src`/`dst` arrays indexed by
//! edge id (Fig 1b, left).

use crate::convert::counting_sort;
use crate::error::GraphError;
use crate::VId;

/// An edge list in coordinate format. Edges are directed src → dst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coo {
    /// Number of vertices in the id space (vertex ids are `0..num_vertices`).
    num_vertices: usize,
    /// Source vertex of each edge.
    pub src: Vec<VId>,
    /// Destination vertex of each edge.
    pub dst: Vec<VId>,
}

impl Coo {
    /// Build from parallel arrays. Panics if lengths differ or an id is out
    /// of range (checked in debug builds only for speed). Use
    /// [`try_new`](Self::try_new) for full validation without panicking.
    pub fn new(num_vertices: usize, src: Vec<VId>, dst: Vec<VId>) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        debug_assert!(src.iter().all(|&v| (v as usize) < num_vertices));
        debug_assert!(dst.iter().all(|&v| (v as usize) < num_vertices));
        Coo {
            num_vertices,
            src,
            dst,
        }
    }

    /// Build from parallel arrays with full validation (lengths and id
    /// bounds, in every build profile), returning violations as values.
    pub fn try_new(num_vertices: usize, src: Vec<VId>, dst: Vec<VId>) -> Result<Self, GraphError> {
        if src.len() != dst.len() {
            return Err(GraphError::LengthMismatch {
                src: src.len(),
                dst: dst.len(),
            });
        }
        for &v in src.iter().chain(dst.iter()) {
            if v as usize >= num_vertices {
                return Err(GraphError::VertexOutOfRange { v, n: num_vertices });
            }
        }
        Ok(Coo {
            num_vertices,
            src,
            dst,
        })
    }

    /// An empty graph over `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Coo {
            num_vertices,
            src: Vec::new(),
            dst: Vec::new(),
        }
    }

    /// Build from (src, dst) pairs.
    pub fn from_edges(num_vertices: usize, edges: &[(VId, VId)]) -> Self {
        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        for &(s, d) in edges {
            src.push(s);
            dst.push(d);
        }
        Coo::new(num_vertices, src, dst)
    }

    /// Number of vertices in the id space.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Iterate over edges as (src, dst).
    pub fn edges(&self) -> impl Iterator<Item = (VId, VId)> + '_ {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }

    /// Storage footprint in bytes (two id arrays — the "heavier storage
    /// overhead than CSR/CSC" of §II-A).
    pub fn storage_bytes(&self) -> u64 {
        (self.src.len() + self.dst.len()) as u64 * std::mem::size_of::<VId>() as u64
    }

    /// Remove duplicate edges and self-loops, keeping the first occurrence
    /// of each pair in input order. Generators use this to clean RMAT
    /// output.
    ///
    /// O(V+E) time and memory: a stable counting sort groups edge positions
    /// by source, each source's run marks its first edge to every
    /// destination against a per-destination stamp, and the kept edges are
    /// compacted in input order. Panics unless E < 2³² (positions travel in
    /// the high half of a packed u64).
    pub fn dedup(mut self) -> Self {
        let e = self.src.len();
        assert!((e as u64) < 1 << 32, "dedup needs fewer than 2^32 edges");
        let packed = self
            .dst
            .iter()
            .enumerate()
            .map(|(pos, &d)| (pos as u64) << 32 | d as u64);
        let (indptr, by_src) = counting_sort(self.num_vertices, &self.src, packed);
        // stamp[d] == s once source s kept an edge to d. Starting at
        // stamp[d] = d needs no sentinel: source d only meets its
        // self-loop there, and self-loops are skipped first.
        let mut stamp: Vec<VId> = (0..self.num_vertices).map(|v| v as VId).collect();
        let mut keep = vec![false; e];
        for (s, run) in indptr.windows(2).enumerate() {
            let s = s as VId;
            for &p in &by_src[run[0] as usize..run[1] as usize] {
                let d = p as VId;
                if d != s && stamp[d as usize] != s {
                    stamp[d as usize] = s;
                    keep[(p >> 32) as usize] = true;
                }
            }
        }
        let mut kept = keep.iter();
        self.src.retain(|_| *kept.next().unwrap());
        let mut kept = keep.iter();
        self.dst.retain(|_| *kept.next().unwrap());
        self
    }

    /// Append the reverse of every edge (make the graph symmetric).
    pub fn symmetrize(mut self) -> Self {
        let n = self.num_edges();
        self.src.reserve(n);
        self.dst.reserve(n);
        for i in 0..n {
            let (s, d) = (self.src[i], self.dst[i]);
            self.src.push(d);
            self.dst.push(s);
        }
        self.dedup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction() {
        let g = Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic]
    fn mismatched_arrays_rejected() {
        Coo::new(3, vec![0, 1], vec![2]);
    }

    #[test]
    fn try_new_validates_lengths_and_bounds() {
        assert_eq!(
            Coo::try_new(3, vec![0, 1], vec![2]),
            Err(GraphError::LengthMismatch { src: 2, dst: 1 })
        );
        assert_eq!(
            Coo::try_new(3, vec![0, 7], vec![1, 2]),
            Err(GraphError::VertexOutOfRange { v: 7, n: 3 })
        );
        assert!(Coo::try_new(3, vec![0, 1], vec![1, 2]).is_ok());
    }

    #[test]
    fn dedup_removes_duplicates_and_self_loops() {
        let g = Coo::from_edges(3, &[(0, 1), (0, 1), (1, 1), (2, 0)]).dedup();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let g = Coo::from_edges(3, &[(0, 1)]).symmetrize();
        let mut e = g.edges().collect::<Vec<_>>();
        e.sort();
        assert_eq!(e, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn storage_is_two_arrays() {
        let g = Coo::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.storage_bytes(), 16);
    }
}
