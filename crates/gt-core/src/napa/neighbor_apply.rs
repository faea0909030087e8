//! `NeighborApply` — NAPA's edge-weighting primitive (§IV-B, Fig 9b).
//!
//! Applies `g` to every edge's (src, dst) embedding pair, fully realizing
//! SDDMM *without* sparse→dense conversion (DL-approach's memory bloat) and
//! without edge-wise scheduling (Graph-approach's cache bloat): all edges of
//! one destination are processed in the same SM, so "NAPA loads dst nodes'
//! embedding only once and reuses the embedding during NeighborApply".
//!
//! This op materialises its output, one `F`-wide row per edge. The trainer
//! does not instantiate it: an edge-weighted model runs `g` inside
//! [`super::Pull::edge_weighted`], which shares this module's device charge,
//! `g'` scatter and `Dot` scalar. The materialising kernel stays for the
//! baselines, whose strategies hold edge values by design, and as the oracle
//! the fused kernel is tested against.

use gt_par::ThreadPool;
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::{Matrix, RowSource};
use gt_tensor::dfg::{ExecCtx, Op, Operand};
use gt_tensor::sparse::EdgeOp;
use std::sync::Arc;

use super::schedule::feature_wise_loaded_rows;

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
        assert_covers_dst(layer, features);
        let mut out = Matrix::zeros(layer.csr.num_edges(), f);
        // Parallelize over edge rows: each edge owns one output row, so a
        // chunked split of the output is disjoint. Edge ranges are
        // dst-sorted: one search of indptr finds the chunk's first dst, and
        // the rows after it walk indptr forward.
        let indptr = &layer.csr.indptr;
        let srcs_arr = &layer.csr.srcs;
        self.pool.for_each_chunk_mut(
            "napa.neighbor_apply",
            out.data_mut(),
            EDGE_CHUNK * f,
            |ci, chunk| {
                let edge_base = ci * EDGE_CHUNK;
                // The last dst whose range starts at or before the edge;
                // empty ranges sharing that boundary sort ahead of it.
                let mut d = indptr.partition_point(|&p| p as usize <= edge_base) - 1;
                for (r, wrow) in chunk.chunks_mut(f).enumerate() {
                    let e = edge_base + r;
                    while indptr[d + 1] as usize <= e {
                        d += 1;
                    }
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
                            let dot = dot(srow, drow);
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
        let layer = &self.layer;
        let mut dx = Matrix::zeros(features.rows(), features.cols());
        // Sequential edge scan: src and dst rows both accumulate, so the
        // dst-disjoint trick doesn't apply; sampled layers are small.
        for (d, srcs) in layer.csr.iter() {
            for (&s, e) in srcs.iter().zip(layer.csr.edge_range(d)) {
                scatter_edge_grad(
                    &mut dx,
                    self.g,
                    features,
                    s as usize,
                    d as usize,
                    grad.row(e),
                );
            }
        }
        dx
    }

    /// Device work charged by this kernel.
    pub fn stats(&self, feat_dim: usize, num_sms: usize) -> KernelStats {
        let rows = feature_wise_loaded_rows(&self.layer, num_sms);
        stats(&self.layer, feat_dim, rows)
    }
}

/// The edge-weighting kernel's device work over `layer`, whose feature-wise
/// schedule loads `loaded_rows` rows ([`feature_wise_loaded_rows`]). `Pull`
/// charges the same when it computes edge values itself: the modeled GPU
/// runs this kernel whether or not the host does (docs/MODEL.md).
pub(super) fn stats(layer: &LayerGraph, feat_dim: usize, loaded_rows: u64) -> KernelStats {
    let row_bytes = (feat_dim * 4) as u64;
    let cache_loaded_bytes = loaded_rows * row_bytes;
    let edges = layer.csr.num_edges() as u64;
    KernelStats {
        flops: edges * feat_dim as u64,
        global_read_bytes: cache_loaded_bytes + layer.csr.storage_bytes(),
        global_write_bytes: edges * row_bytes,
        cache_loaded_bytes,
        launches: 1,
        ..Default::default()
    }
}

/// Edge weighting reads `features.row(d)` for every destination; fail here,
/// on the caller's thread, rather than on a slice index in a pool worker.
pub(super) fn assert_covers_dst<X: RowSource + ?Sized>(layer: &LayerGraph, features: &X) {
    assert!(
        layer.num_dst <= features.rows(),
        "edge weighting reads a feature row per destination: layer has {} dst / {} src, features have {} rows",
        layer.num_dst,
        layer.num_src,
        features.rows()
    );
}

/// `Dot`'s per-edge scalar, summed in feature order.
#[inline(always)]
pub(super) fn dot(srow: &[f32], drow: &[f32]) -> f32 {
    srow.iter().zip(drow).map(|(&a, &b)| a * b).sum()
}

/// `g'` for one edge `(s, d)` whose weight-row gradient is `grow`: the src
/// row of `dx` accumulates first, then the dst row (they alias on a
/// self-loop). Inlined into each instantiation of Pull's walks.
#[inline(always)]
pub(super) fn scatter_edge_grad<X: RowSource + ?Sized>(
    dx: &mut Matrix,
    g: EdgeOp,
    features: &X,
    s: usize,
    d: usize,
    grow: &[f32],
) {
    // `grow` and `features` are not `dx`, so their rows are borrowed across
    // the two accumulations, not copied.
    let (srow, drow) = (features.row(s), features.row(d));
    match g {
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

impl Op for NeighborApply {
    fn name(&self) -> &str {
        "neighbor_apply"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let x = inputs[0].dense();
        let out = self.compute(x);
        let stats = self.stats(x.cols(), ctx.sim.device().num_sms);
        ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        out
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let x = inputs[0].dense();
        let dx = self.compute_backward(x, grad);
        // g' applies to both dst and src (Fig 3c): same traversal cost.
        let mut stats = self.stats(x.cols(), ctx.sim.device().num_sms);
        stats.global_write_bytes = dx.bytes();
        ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        vec![Some(dx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::napa::test_layer;
    use gt_tensor::sparse;

    fn layer() -> Arc<LayerGraph> {
        // dst 0 ← {1, 2}; dst 1 ← {0, 1}; 3 srcs; dst space 2.
        test_layer(3, 2, &[(1, 0), (2, 0), (0, 1), (1, 1)])
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

    /// The per-chunk dst search lands on chunk boundaries that coincide with
    /// a dst boundary followed by empty destinations, and on a short tail.
    #[test]
    fn chunked_dst_walk_matches_sddmm_oracle() {
        let degrees = [EDGE_CHUNK, 0, 0, 100, EDGE_CHUNK - 100, 0, 37, 0];
        let mut edges = Vec::new();
        for (d, &deg) in degrees.iter().enumerate() {
            for k in 0..deg {
                edges.push((((d + 7 * k + 3) % 16) as u32, d as u32));
            }
        }
        assert_ne!(edges.len() % EDGE_CHUNK, 0);
        let l = test_layer(16, degrees.len(), &edges);
        let x = Matrix::from_vec(16, 3, (0..48).map(|i| (i % 11) as f32 - 4.5).collect());
        for g in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
            let got = NeighborApply::new(Arc::clone(&l), g).compute(&x);
            assert_eq!(got.data(), sparse::sddmm(&l.csr, &x, g).data(), "g={g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "layer has 3 dst / 1 src, features have 2 rows")]
    fn features_shorter_than_the_dst_space_are_refused_by_name() {
        let l = test_layer(1, 3, &[(0, 2)]);
        NeighborApply::new(l, EdgeOp::ElemMul).compute(&Matrix::zeros(2, 4));
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
        assert_eq!(na.compute(&Matrix::zeros(3, 5)).shape(), (4, 5));
    }
}
