//! Graph reindexing (R) — §II-B, Fig 4b.
//!
//! Builds a sampled hop's per-layer graph structures in the dense new-id
//! space: dst-indexed CSR for forward aggregation and src-indexed CSC for
//! backward propagation (§II-A, Fig 3). The new ids are the ones the
//! sampler's H phase assigned as it inserted each endpoint
//! (`HopEdges::{src_new, dst_new}`), so on the host R reads no hash table,
//! runs no pool pass and copies no column: both structures are counting
//! sorts straight over the hop's two new-id columns. The paper's R
//! renumbers through the table, and the model still prices it that way:
//! R's reads racing S's writes, the second contention source of Fig 14a, is
//! modeled in `gt-core::scheduler`, which prices `reindex_ops` (two hash
//! reads + two builds) per edge.

use crate::error::SampleError;
use crate::hashtable::VidMap;
use crate::sampler::HopEdges;
use gt_graph::convert::group_by_key;
use gt_graph::{Csc, Csr};
use gt_par::ThreadPool;

/// Per-layer graph structures in new-id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerGraph {
    /// Dst-indexed CSR over `num_dst` destinations; srcs are new ids
    /// `< num_src` (forward aggregation traverses this).
    pub csr: Csr,
    /// Src-indexed CSC over `num_src` sources (backward traverses this).
    pub csc: Csc,
    /// Destination id-space size (ids below the previous hop boundary).
    pub num_dst: usize,
    /// Source id-space size (ids below this hop's boundary).
    pub num_src: usize,
}

impl LayerGraph {
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Device bytes of both structures (what T(R) transfers).
    pub fn structure_bytes(&self) -> u64 {
        self.csr.storage_bytes() + self.csc.storage_bytes()
    }
}

/// Reindex one hop: build CSR + CSC from the new ids the sampler assigned.
/// `num_dst`/`num_src` are the boundaries recorded by the sampler for this
/// hop.
///
/// Panics on a hop that does not fit them; see
/// [`try_reindex_layer_with_pool`] for the non-panicking variant.
pub fn reindex_layer(
    hop: &HopEdges,
    vidmap: &VidMap,
    num_dst: usize,
    num_src: usize,
) -> LayerGraph {
    try_reindex_layer_with_pool(hop, vidmap, num_dst, num_src, ThreadPool::global())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The reindexing entry point: [`reindex_layer`], returning a hop that does
/// not fit `num_dst`/`num_src` as a [`SampleError`] instead of panicking —
/// ragged columns, a new id outside its space, or a destination space
/// larger than the source space. The ids come from the hop's columns, so
/// neither `vidmap` nor `pool` is read; both stay in the signature so that
/// its callers, `benchmark/src/layers.rs` among them, compile unchanged.
pub fn try_reindex_layer_with_pool(
    hop: &HopEdges,
    _vidmap: &VidMap,
    num_dst: usize,
    num_src: usize,
    _pool: &ThreadPool,
) -> Result<LayerGraph, SampleError> {
    let n = hop.len();
    if [hop.dst_orig.len(), hop.src_new.len(), hop.dst_new.len()] != [n; 3] {
        return Err(SampleError::RaggedHop {
            src_orig: n,
            dst_orig: hop.dst_orig.len(),
            src_new: hop.src_new.len(),
            dst_new: hop.dst_new.len(),
        });
    }
    if num_dst > num_src {
        return Err(SampleError::DstSpaceExceedsSrc { num_dst, num_src });
    }
    if let Some(&v) = hop.src_new.iter().find(|&&v| v as usize >= num_src) {
        return Err(SampleError::SrcOutOfRange { v, num_src });
    }
    if let Some(&v) = hop.dst_new.iter().find(|&&v| v as usize >= num_dst) {
        return Err(SampleError::DstOutOfRange { v, num_dst });
    }

    // Both structures are counting sorts straight over the hop's columns:
    // the CSR groups sources by destination over the dst space, the CSC
    // destinations by source over the src space (ids checked above).
    let (indptr, srcs) = group_by_key(num_dst, &hop.dst_new, &hop.src_new);
    let csr = Csr::new(indptr, srcs);
    let (indptr, dsts) = group_by_key(num_src, &hop.src_new, &hop.dst_new);
    let csc = Csc::new(indptr, dsts);
    Ok(LayerGraph {
        csr,
        csc,
        num_dst,
        num_src,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{sample_batch, SamplerConfig};
    use gt_graph::convert::{coo_to_csc, coo_to_csr};
    use gt_graph::generators::erdos_renyi;
    use gt_graph::Coo;
    use gt_graph::VId;

    fn sampled() -> (crate::sampler::SampleOutput, Csr) {
        let coo = erdos_renyi(120, 1500, 21);
        let g = coo_to_csr(&coo).0;
        let out = sample_batch(
            &g,
            &[0, 1, 2, 3, 4],
            &SamplerConfig {
                fanout: 4,
                layers: 2,
                seed: 5,
                ..Default::default()
            },
        );
        (out, g)
    }

    #[test]
    fn csr_and_csc_agree_on_edges() {
        let (out, _) = sampled();
        for (k, hop) in out.hops.iter().enumerate() {
            let lg = reindex_layer(hop, &out.vidmap, out.boundaries[k], out.boundaries[k + 1]);
            assert_eq!(lg.csr.num_edges(), hop.len());
            assert_eq!(lg.csc.num_edges(), hop.len());
            // Every CSR edge appears in CSC.
            let mut csr_edges: Vec<(VId, VId)> = Vec::new();
            for (d, srcs) in lg.csr.iter() {
                for &s in srcs {
                    csr_edges.push((s, d));
                }
            }
            let mut csc_edges: Vec<(VId, VId)> = Vec::new();
            for (s, dsts) in lg.csc.iter() {
                for &d in dsts {
                    csc_edges.push((s, d));
                }
            }
            csr_edges.sort();
            csc_edges.sort();
            assert_eq!(csr_edges, csc_edges);
        }
    }

    #[test]
    fn dst_ids_stay_below_boundary() {
        let (out, _) = sampled();
        let hop0 = &out.hops[0];
        let lg = reindex_layer(hop0, &out.vidmap, out.boundaries[0], out.boundaries[1]);
        assert_eq!(lg.csr.num_vertices(), out.boundaries[0]);
        assert_eq!(lg.csc.num_vertices(), out.boundaries[1]);
        for (_, srcs) in lg.csr.iter() {
            for &s in srcs {
                assert!((s as usize) < out.boundaries[1]);
            }
        }
    }

    #[test]
    fn reindex_preserves_adjacency_through_id_map() {
        let (out, _) = sampled();
        let inv = out.new_to_orig();
        let hop0 = &out.hops[0];
        let lg = reindex_layer(hop0, &out.vidmap, out.boundaries[0], out.boundaries[1]);
        // Map reindexed edges back to original ids; must equal hop edges.
        let mut orig_pairs: Vec<(VId, VId)> = hop0
            .src_orig
            .iter()
            .zip(&hop0.dst_orig)
            .map(|(&s, &d)| (s, d))
            .collect();
        let mut mapped: Vec<(VId, VId)> = Vec::new();
        for (d, srcs) in lg.csr.iter() {
            for &s in srcs {
                mapped.push((inv[s as usize], inv[d as usize]));
            }
        }
        orig_pairs.sort();
        mapped.sort();
        assert_eq!(orig_pairs, mapped);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_id_panics_via_wrapper() {
        let (out, _) = sampled();
        let b = &out.boundaries;
        reindex_layer(&out.hops[0], &out.vidmap, b[0], b[1] - 1);
    }

    /// `try_reindex` on the first real sampled hop with the given spaces.
    fn try_hop0(
        out: &crate::sampler::SampleOutput,
        num_dst: usize,
        num_src: usize,
    ) -> Result<LayerGraph, SampleError> {
        let pool = ThreadPool::global();
        try_reindex_layer_with_pool(&out.hops[0], &out.vidmap, num_dst, num_src, pool)
    }

    #[test]
    fn try_reindex_reports_ragged_columns_as_value() {
        let (mut out, _) = sampled();
        let b = out.boundaries.clone();
        assert!(try_hop0(&out, b[0], b[1]).is_ok());
        let n = out.hops[0].len();
        out.hops[0].src_new.pop();
        assert_eq!(
            try_hop0(&out, b[0], b[1]).err(),
            Some(SampleError::RaggedHop {
                src_orig: n,
                dst_orig: n,
                src_new: n - 1,
                dst_new: n
            })
        );
    }

    #[test]
    fn try_reindex_reports_src_beyond_num_src_as_value() {
        let (out, _) = sampled();
        let num_src = out.boundaries[1] - 1;
        assert!(out.boundaries[0] <= num_src);
        assert_eq!(
            try_hop0(&out, out.boundaries[0], num_src).err(),
            Some(SampleError::SrcOutOfRange {
                v: num_src as VId,
                num_src
            })
        );
    }

    #[test]
    fn try_reindex_reports_dst_beyond_num_dst_as_value() {
        let (out, _) = sampled();
        let num_dst = out.boundaries[0] - 1;
        assert_eq!(
            try_hop0(&out, num_dst, out.boundaries[1]).err(),
            Some(SampleError::DstOutOfRange {
                v: num_dst as VId,
                num_dst
            })
        );
    }

    #[test]
    fn try_reindex_reports_dst_space_beyond_src_space_as_value() {
        let (out, _) = sampled();
        let num_src = out.boundaries[1];
        assert_eq!(
            try_hop0(&out, num_src + 1, num_src).err(),
            Some(SampleError::DstSpaceExceedsSrc {
                num_dst: num_src + 1,
                num_src
            })
        );
    }

    #[test]
    fn single_coo_build_equals_one_coo_per_structure() {
        let (out, _) = sampled();
        for (k, hop) in out.hops.iter().enumerate() {
            let (num_dst, num_src) = (out.boundaries[k], out.boundaries[k + 1]);
            let lg = reindex_layer(hop, &out.vidmap, num_dst, num_src);
            // The replaced construction: a COO per structure, the CSR's
            // pointer array copied down to the dst space.
            let map = |ids: &[VId]| -> Vec<VId> {
                ids.iter().map(|&v| out.vidmap.get(v).unwrap()).collect()
            };
            let (src_new, dst_new) = (map(&hop.src_orig), map(&hop.dst_orig));
            let coo = Coo::new(num_dst.max(num_src), src_new.clone(), dst_new.clone());
            let full = coo_to_csr(&coo).0;
            let csr = Csr::new(full.indptr[..=num_dst].to_vec(), full.srcs.clone());
            let csc = coo_to_csc(&Coo::new(num_src, src_new, dst_new)).0;
            assert_eq!(lg.csr.indptr, csr.indptr);
            assert_eq!(lg.csr.srcs, csr.srcs);
            assert_eq!(lg.csc.indptr, csc.indptr);
            assert_eq!(lg.csc.dsts, csc.dsts);
            assert_eq!((lg.num_dst, lg.num_src), (num_dst, num_src));
        }
    }
}
