//! Graph reindexing (R) — §II-B, Fig 4b.
//!
//! Renumbers a sampled hop's edges from original ids into the dense new-id
//! space by reading the sampler's VID hash table, then builds the per-layer
//! graph structures from one COO: dst-indexed CSR for forward aggregation
//! and src-indexed CSC for backward propagation (§II-A, Fig 3). R only
//! reads the [`VidMap`], so pool workers share a plain `&VidMap` with no
//! lock (Fig 14c serializes H before R; R's reads racing S's writes, the
//! second contention source of Fig 14a, is modeled in
//! `gt-core::scheduler`, which prices `reindex_ops` per edge).

use crate::error::SampleError;
use crate::hashtable::VidMap;
use crate::sampler::HopEdges;
use gt_graph::convert::{coo_to_csc, coo_to_csr};
use gt_graph::{Coo, Csc, Csr};
use gt_par::ThreadPool;

/// Edges per chunk for the parallel endpoint-mapping pass. Fixed so chunk
/// geometry (and thus output) is independent of the worker count.
const R_CHUNK: usize = 2048;

/// Per-layer graph structures in new-id space.
#[derive(Debug, Clone)]
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

/// Reindex one hop on the process-wide pool (`GT_THREADS`): map original
/// ids through the hash table and build CSR + CSC. `num_dst`/`num_src` are
/// the boundaries recorded by the sampler for this hop.
///
/// Panics if an edge references a node missing from the hash table (a
/// scheduler-ordering bug: R ran before its S finished); see
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

/// The reindexing entry point: [`reindex_layer`] on an explicit pool,
/// returning a missing hash-table mapping as a
/// [`SampleError::MissingMapping`] instead of panicking. The endpoint
/// mapping — the hash-read-heavy part R spends its time in — is chunked
/// across workers reading the shared `&VidMap`; results are concatenated in
/// chunk order, so the edge order (and the CSR and CSC built from it) is
/// identical at any worker count.
pub fn try_reindex_layer_with_pool(
    hop: &HopEdges,
    vidmap: &VidMap,
    num_dst: usize,
    num_src: usize,
    pool: &ThreadPool,
) -> Result<LayerGraph, SampleError> {
    assert!(num_dst <= num_src, "dsts are a prefix of srcs");
    let n = hop.len();
    let map_ids = |ids: &[gt_graph::VId]| -> Result<Vec<gt_graph::VId>, SampleError> {
        let chunks = pool.map_chunks("reindex.map", n, R_CHUNK, |_, range| {
            ids[range]
                .iter()
                .map(|&v| vidmap.get(v).ok_or(SampleError::MissingMapping { v }))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut out = Vec::with_capacity(n);
        for c in chunks {
            out.extend(c?);
        }
        Ok(out)
    };
    let src_new = map_ids(&hop.src_orig)?;
    let dst_new = map_ids(&hop.dst_orig)?;
    debug_assert!(
        src_new.iter().all(|&s| (s as usize) < num_src),
        "src id beyond boundary"
    );
    debug_assert!(
        dst_new.iter().all(|&d| (d as usize) < num_dst),
        "dst id beyond boundary"
    );

    // One COO over the src space (dsts are a prefix of srcs) feeds both the
    // dst-indexed CSR and the src-indexed CSC.
    let coo = Coo::new(num_src, src_new, dst_new);
    let (csc, _) = coo_to_csc(&coo);
    let (Csr { mut indptr, srcs }, _) = coo_to_csr(&coo);
    // Truncate the pointer array to the dst space (no edges land above
    // num_dst by construction; `Csr::new` re-checks that).
    indptr.truncate(num_dst + 1);
    let csr = Csr::new(indptr, srcs);
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
    use gt_graph::generators::erdos_renyi;
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
    #[should_panic]
    fn missing_node_panics() {
        let hop = HopEdges {
            src_orig: vec![9],
            dst_orig: vec![10],
        };
        let vm = VidMap::new();
        reindex_layer(&hop, &vm, 1, 1);
    }

    #[test]
    fn try_reindex_reports_missing_node_as_value() {
        let hop = HopEdges {
            src_orig: vec![9],
            dst_orig: vec![10],
        };
        let mut vm = VidMap::new();
        let pool = ThreadPool::global();
        assert_eq!(
            try_reindex_layer_with_pool(&hop, &vm, 1, 1, pool).err(),
            Some(SampleError::MissingMapping { v: 9 })
        );
        // With the mapping present, the same call succeeds.
        vm.insert_batch(&[9, 10]);
        assert!(try_reindex_layer_with_pool(&hop, &vm, 2, 2, pool).is_ok());
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
