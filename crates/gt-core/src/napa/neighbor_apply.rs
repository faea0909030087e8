//! `NeighborApply` — NAPA's edge-weighting primitive (§IV-B, Fig 9b).
//!
//! Applies `g` to every edge's (src, dst) embedding pair, fully realizing
//! SDDMM *without* sparse→dense conversion (DL-approach's memory bloat) and
//! without edge-wise scheduling (Graph-approach's cache bloat): all edges of
//! one destination are processed in the same SM, so "NAPA loads dst nodes'
//! embedding only once and reuses the embedding during NeighborApply".

use gt_par::ThreadPool;
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::{ExecCtx, Op, ParamStore};
use gt_tensor::sparse::EdgeOp;
use std::sync::Arc;

use super::schedule::feature_wise_cache;

/// Edge rows per pool chunk (fixed — never derived from the worker count).
const EDGE_CHUNK: usize = 128;

/// The NeighborApply DFG op. Input: `[features]`; output: per-edge weight
/// vectors in CSR edge order (`num_edges × feat_dim`).
#[derive(Debug, Clone)]
pub struct NeighborApply {
    /// The per-layer subgraph whose edges are weighted.
    pub layer: Arc<LayerGraph>,
    /// The weight function `g`.
    pub g: EdgeOp,
    /// Worker pool for edge-row-parallel compute.
    pub pool: &'static ThreadPool,
}

impl NeighborApply {
    /// Weight `layer`'s edges with `g`.
    pub fn new(layer: Arc<LayerGraph>, g: EdgeOp) -> Self {
        NeighborApply {
            layer,
            g,
            pool: ThreadPool::global(),
        }
    }

    /// Same kernel on an explicit pool (determinism tests pin widths).
    pub fn with_pool(mut self, pool: &'static ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Forward numerics (shared with tests/benches).
    pub fn compute(&self, features: &Matrix) -> Matrix {
        let f = features.cols();
        let layer = &self.layer;
        assert!(features.rows() >= layer.num_src, "features cover src space");
        let mut out = Matrix::zeros(layer.csr.num_edges(), f);
        // Parallelize over edge rows: each edge owns one output row, so a
        // chunked split of the output is disjoint. The edge's dst is found
        // by binary search on indptr (edge ranges are dst-sorted).
        let indptr = &layer.csr.indptr;
        let srcs_arr = &layer.csr.srcs;
        let num_dst = layer.num_dst;
        self.pool.for_each_chunk_mut(
            "napa.neighbor_apply",
            out.data_mut(),
            EDGE_CHUNK * f,
            |ci, chunk| {
                let edge_base = ci * EDGE_CHUNK;
                for (r, wrow) in chunk.chunks_mut(f).enumerate() {
                    let e = edge_base + r;
                    // Find this edge's dst by binary search on indptr.
                    let d = match indptr.binary_search(&(e as u32)) {
                        Ok(mut i) => {
                            // Skip empty ranges that share the boundary.
                            while i < num_dst && indptr[i + 1] == e as u32 {
                                i += 1;
                            }
                            i
                        }
                        Err(i) => i - 1,
                    };
                    let s = srcs_arr[e] as usize;
                    let srow = features.row(s);
                    let drow = features.row(d);
                    match self.g {
                        EdgeOp::ElemMul => {
                            for ((o, &a), &b) in wrow.iter_mut().zip(srow).zip(drow) {
                                *o = a * b;
                            }
                        }
                        EdgeOp::ElemAdd => {
                            for ((o, &a), &b) in wrow.iter_mut().zip(srow).zip(drow) {
                                *o = a + b;
                            }
                        }
                        EdgeOp::Dot => {
                            let dot: f32 = srow.iter().zip(drow).map(|(&a, &b)| a * b).sum();
                            for o in wrow.iter_mut() {
                                *o = dot;
                            }
                        }
                    }
                }
            },
        );
        out
    }

    /// Backward numerics: gradient w.r.t. features.
    pub fn compute_backward(&self, features: &Matrix, grad: &Matrix) -> Matrix {
        let f = features.cols();
        let layer = &self.layer;
        let mut dx = Matrix::zeros(features.rows(), f);
        // Sequential edge scan: src and dst rows both accumulate, so the
        // dst-disjoint trick doesn't apply; sampled layers are small.
        for (d, srcs) in layer.csr.iter() {
            for (&s, e) in srcs.iter().zip(layer.csr.edge_range(d)) {
                // `grad` and `features` are not `dx`, so their rows are
                // borrowed across the two accumulations, not copied.
                let (s, d, grow) = (s as usize, d as usize, grad.row(e));
                let (srow, drow) = (features.row(s), features.row(d));
                match self.g {
                    EdgeOp::ElemMul => {
                        for ((x, &g), &b) in dx.row_mut(s).iter_mut().zip(grow).zip(drow) {
                            *x += g * b;
                        }
                        for ((x, &g), &a) in dx.row_mut(d).iter_mut().zip(grow).zip(srow) {
                            *x += g * a;
                        }
                    }
                    EdgeOp::ElemAdd => {
                        for (x, &g) in dx.row_mut(s).iter_mut().zip(grow) {
                            *x += g;
                        }
                        for (x, &g) in dx.row_mut(d).iter_mut().zip(grow) {
                            *x += g;
                        }
                    }
                    EdgeOp::Dot => {
                        let gsum: f32 = grow.iter().sum();
                        for (x, &b) in dx.row_mut(s).iter_mut().zip(drow) {
                            *x += gsum * b;
                        }
                        for (x, &a) in dx.row_mut(d).iter_mut().zip(srow) {
                            *x += gsum * a;
                        }
                    }
                }
            }
        }
        dx
    }

    /// Device work charged by this kernel.
    pub fn stats(&self, feat_dim: usize, num_sms: usize) -> KernelStats {
        let layer = &self.layer;
        let row_bytes = (feat_dim * 4) as u64;
        let cache = feature_wise_cache(layer, row_bytes, num_sms);
        let edges = layer.csr.num_edges() as u64;
        KernelStats {
            flops: edges * feat_dim as u64,
            global_read_bytes: cache.loaded_bytes() + layer.csr.storage_bytes(),
            global_write_bytes: edges * row_bytes,
            cache_loaded_bytes: cache.loaded_bytes(),
            launches: 1,
            ..Default::default()
        }
    }
}

impl Op for NeighborApply {
    fn name(&self) -> &str {
        "neighbor_apply"
    }

    fn forward(&self, inputs: &[&Matrix], ctx: &mut ExecCtx) -> Matrix {
        let out = self.compute(inputs[0]);
        let stats = self.stats(inputs[0].cols(), ctx.sim.device().num_sms);
        ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        out
    }

    fn backward(
        &self,
        inputs: &[&Matrix],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let dx = self.compute_backward(inputs[0], grad);
        // g' applies to both dst and src (Fig 3c): same traversal cost.
        let mut stats = self.stats(inputs[0].cols(), ctx.sim.device().num_sms);
        stats.global_write_bytes = dx.bytes();
        ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        vec![Some(dx)]
    }

    fn out_shape(&self, in_shapes: &[(usize, usize)], _params: &ParamStore) -> (usize, usize) {
        (self.layer.csr.num_edges(), in_shapes[0].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::convert::{coo_to_csc, coo_to_csr};
    use gt_graph::{Coo, Csr};
    use gt_tensor::sparse;

    fn layer() -> Arc<LayerGraph> {
        // dst 0 ← {1, 2}; dst 1 ← {0, 1}; 3 srcs; dst space 2.
        let coo = Coo::from_edges(3, &[(1, 0), (2, 0), (0, 1), (1, 1)]);
        let (csr_full, _) = coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=2].to_vec(), csr_full.srcs.clone());
        let (csc, _) = coo_to_csc(&coo);
        Arc::new(LayerGraph {
            csr,
            csc,
            num_dst: 2,
            num_src: 3,
        })
    }

    fn feats() -> Matrix {
        Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.])
    }

    #[test]
    fn matches_sddmm_oracle() {
        let l = layer();
        for g in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
            let na = NeighborApply::new(Arc::clone(&l), g);
            let got = na.compute(&feats());
            let oracle = sparse::sddmm(&l.csr, &feats(), g);
            assert!(got.max_abs_diff(&oracle) < 1e-6, "g={g:?}");
        }
    }

    #[test]
    fn backward_finite_difference() {
        let l = layer();
        for g in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
            let na = NeighborApply::new(Arc::clone(&l), g);
            let x0 = feats();
            let loss = |x: &Matrix| na.compute(x).data().iter().sum::<f32>();
            let ones = Matrix::from_vec(l.csr.num_edges(), 2, vec![1.0; l.csr.num_edges() * 2]);
            let dx = na.compute_backward(&x0, &ones);
            let eps = 1e-2f32;
            for i in 0..x0.len() {
                let mut p = x0.clone();
                p.data_mut()[i] += eps;
                let mut m = x0.clone();
                m.data_mut()[i] -= eps;
                let num = (loss(&p) - loss(&m)) / (2.0 * eps);
                assert!(
                    (num - dx.data()[i]).abs() < 0.05,
                    "g={g:?} dx[{i}]: {num} vs {}",
                    dx.data()[i]
                );
            }
        }
    }

    #[test]
    fn no_sparse_to_dense_allocation() {
        let l = layer();
        let na = NeighborApply::new(l, EdgeOp::ElemMul);
        let s = na.stats(2, 4);
        assert_eq!(s.alloc_bytes, 0);
        assert!(s.cache_loaded_bytes > 0);
    }

    #[test]
    fn out_shape_is_edges_by_feat() {
        let l = layer();
        let na = NeighborApply::new(l, EdgeOp::ElemMul);
        let p = ParamStore::new();
        assert_eq!(na.out_shape(&[(3, 5)], &p), (4, 5));
    }
}
