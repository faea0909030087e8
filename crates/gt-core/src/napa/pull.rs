//! `Pull` — NAPA's aggregation primitive (§IV-B, Fig 9c).
//!
//! For every destination of a per-layer subgraph, Pull accumulates the
//! (optionally `h`-weighted) embeddings of its sources with `f`, walking the
//! CSR directly — fully realizing SpMM without format translation. Work is
//! parallelized over destinations (vertex-centric) and features; the output
//! row stays in the SM while `f` accumulates ("Pull reuses the output
//! embeddings when f accumulates all the target embeddings").
//!
//! Backward (`f'`, Fig 3b) traverses the same subgraph in CSC — "CSC is
//! better at traversing the graph in BWP" — producing per-source gradients,
//! plus per-edge weight gradients in CSR edge order.
//!
//! Row-parallelism runs on the deterministic `gt_par` pool: each output row
//! has exactly one writer and chunk geometry is fixed, so results are
//! bit-identical at any `GT_THREADS`.
//!
//! Edge-weighted models run `NeighborApply` *inside* this kernel on the host
//! ([`Pull::edge_weighted`]): each edge's weight is computed from its
//! (src, dst) rows where it is consumed, so no `E×F` edge matrix exists, and
//! the backward pass recomputes weights instead of reading them. Every
//! rounding happens in the order the two separate kernels use, so the result
//! is bit-identical to `NeighborApply::compute` → [`Pull::weighted`], which
//! stays as the materialising strategy the baselines reproduce. The device
//! model is not fused: it still prices two kernels and a resident edge
//! tensor (docs/MODEL.md).
//!
//! Forward and backward read source and destination rows through
//! [`RowSource`], so one body serves a dense matrix and the GraphTensor
//! trainer's first-layer input — rows of the embedding table picked by
//! `new_to_orig`, never gathered — with the same floats in the same order.

use crate::config::HFn;
use gt_par::ThreadPool;
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::{Matrix, RowSource};
use gt_tensor::dfg::{ExecCtx, Op, Operand, ParamStore};
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::Arc;

use super::neighbor_apply;
use super::schedule::feature_wise_loaded_rows;

/// Output rows per pool chunk (fixed — never derived from the worker count).
const ROW_CHUNK: usize = 64;

/// The Pull DFG op. Inputs: `[features]` (unweighted, or edge-weighted with
/// `g` set) or `[features, edge_weights]` (materialised weights; weight row
/// order = CSR edge order).
#[derive(Debug, Clone)]
pub struct Pull {
    /// The per-layer subgraph this Pull traverses.
    pub layer: Arc<LayerGraph>,
    /// Aggregation function `f`.
    pub agg: Reduce,
    /// `g`: when set, each edge's weight is computed here from its
    /// (src, dst) embedding pair instead of being read from a second input.
    pub g: Option<EdgeOp>,
    /// `h`: how an edge weight transforms its src embedding. `None` for
    /// unweighted aggregation (GCN).
    pub h: Option<HFn>,
    /// Worker pool for row-parallel compute (the process pool by default).
    pub pool: &'static ThreadPool,
}

impl Pull {
    /// Unweighted aggregation (GCN-style).
    pub fn new(layer: Arc<LayerGraph>, agg: Reduce) -> Self {
        Pull {
            layer,
            agg,
            g: None,
            h: None,
            pool: ThreadPool::global(),
        }
    }

    /// Weighted aggregation: `h` folds NeighborApply's weights into sources.
    /// `agg` is `Sum` or `Mean`: a weighted `Max` is refused, as its kernel
    /// has no weighted form.
    pub fn weighted(layer: Arc<LayerGraph>, agg: Reduce, h: HFn) -> Self {
        assert!(
            agg != Reduce::Max,
            "weighted aggregation: Max is not supported"
        );
        Pull {
            h: Some(h),
            ..Pull::new(layer, agg)
        }
    }

    /// Edge-weighted aggregation over `[features]` alone: `g` weights each
    /// edge and `h` folds the weight into its source, in one pass. `agg` is
    /// `Sum` or `Mean`, as for [`Pull::weighted`].
    pub fn edge_weighted(layer: Arc<LayerGraph>, agg: Reduce, g: EdgeOp, h: HFn) -> Self {
        Pull {
            g: Some(g),
            ..Pull::weighted(layer, agg, h)
        }
    }

    /// Same kernel on an explicit pool (determinism tests pin widths).
    pub fn with_pool(mut self, pool: &'static ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Forward numerics, shared with the fused Cost-DKP node.
    pub fn compute<X: RowSource + ?Sized>(&self, features: &X, weights: Option<&Matrix>) -> Matrix {
        self.assert_weight_arity(weights);
        let f = features.cols();
        let layer = &self.layer;
        assert!(
            features.rows() >= layer.num_src,
            "features cover the src id space"
        );
        if self.g.is_some() {
            neighbor_apply::assert_covers_dst(layer, features);
        }
        if let Some(w) = weights {
            assert_eq!(w.rows(), layer.csr.num_edges(), "one weight row per edge");
            assert_eq!(w.cols(), f, "weight dim");
        }
        let mut out = Matrix::zeros(layer.num_dst, f);
        // Destination-centric: disjoint output rows → each row has exactly
        // one writer on the pool.
        self.pool
            .for_each_chunk_mut("napa.pull", out.data_mut(), ROW_CHUNK * f, |ci, chunk| {
                let row_base = ci * ROW_CHUNK;
                for (r, orow) in chunk.chunks_mut(f).enumerate() {
                    let d = row_base + r;
                    let srcs = layer.csr.srcs(d as u32);
                    if srcs.is_empty() {
                        continue;
                    }
                    let erange = layer.csr.edge_range(d as u32);
                    match self.agg {
                        Reduce::Sum | Reduce::Mean => {
                            for (&s, e) in srcs.iter().zip(erange) {
                                let srow = features.row(s as usize);
                                match (self.h, self.g, weights) {
                                    // The dst row stays hot across its edges.
                                    (Some(HFn::Mul), Some(g), _) => {
                                        fold_edge(orow, srow, srow, features.row(d), g, |x, wk| {
                                            x * wk
                                        })
                                    }
                                    (Some(HFn::Add), Some(g), _) => {
                                        fold_edge(orow, srow, srow, features.row(d), g, |x, wk| {
                                            x + wk
                                        })
                                    }
                                    (Some(HFn::Mul), None, Some(w)) => {
                                        for ((o, &x), &wk) in
                                            orow.iter_mut().zip(srow).zip(w.row(e))
                                        {
                                            *o += x * wk;
                                        }
                                    }
                                    (Some(HFn::Add), None, Some(w)) => {
                                        for ((o, &x), &wk) in
                                            orow.iter_mut().zip(srow).zip(w.row(e))
                                        {
                                            *o += x + wk;
                                        }
                                    }
                                    _ => {
                                        for (o, &x) in orow.iter_mut().zip(srow) {
                                            *o += x;
                                        }
                                    }
                                }
                            }
                            if self.agg == Reduce::Mean {
                                let inv = 1.0 / srcs.len() as f32;
                                for o in orow.iter_mut() {
                                    *o *= inv;
                                }
                            }
                        }
                        // Unweighted only: the constructors refuse a weighted Max.
                        Reduce::Max => {
                            orow.copy_from_slice(features.row(srcs[0] as usize));
                            for &s in &srcs[1..] {
                                for (o, &x) in orow.iter_mut().zip(features.row(s as usize)) {
                                    *o = o.max(x);
                                }
                            }
                        }
                    }
                }
            });
        out
    }

    /// Work this Pull charges the device (forward direction).
    pub fn forward_stats(&self, feat_dim: usize, num_sms: usize) -> KernelStats {
        let layer = &self.layer;
        let row_bytes = (feat_dim * 4) as u64;
        let cache_loaded_bytes = feature_wise_loaded_rows(layer, num_sms) * row_bytes;
        let edges = layer.csr.num_edges() as u64;
        let weight_stream = if self.h.is_some() {
            edges * row_bytes // weight rows streamed once, no reuse needed
        } else {
            0
        };
        let h_flops = if self.h.is_some() {
            edges * feat_dim as u64
        } else {
            0
        };
        KernelStats {
            flops: edges * feat_dim as u64 + h_flops + (layer.num_dst * feat_dim) as u64,
            global_read_bytes: cache_loaded_bytes + weight_stream + layer.csr.storage_bytes(),
            global_write_bytes: (layer.num_dst * feat_dim * 4) as u64,
            cache_loaded_bytes,
            launches: 1,
            ..Default::default()
        }
    }

    /// Backward numerics: returns `(d_features, d_weights)`. With `g` set
    /// there is no weight input: `d_features` is then the whole input
    /// gradient, through the aggregation and through the edge weights.
    pub fn compute_backward<X: RowSource + ?Sized>(
        &self,
        features: &X,
        weights: Option<&Matrix>,
        grad: &Matrix,
    ) -> (Matrix, Option<Matrix>) {
        assert!(
            self.agg != Reduce::Max,
            "Pull backward: Max needs argmax state"
        );
        self.assert_weight_arity(weights);
        let f = features.cols();
        let layer = &self.layer;
        // Degree of each dst (for Mean scaling).
        let deg = |d: u32| layer.csr.degree(d).max(1) as f32;

        // d_features via CSC: vertex-centric over sources (disjoint rows),
        // row-parallel on the pool like the forward pass.
        let mut dx = Matrix::zeros(features.rows(), f);
        self.pool.for_each_chunk_mut(
            "napa.pull_bwd",
            dx.data_mut(),
            ROW_CHUNK * f,
            |ci, chunk| {
                let row_base = ci * ROW_CHUNK;
                for (r, xrow) in chunk.chunks_mut(f).enumerate() {
                    let s = row_base + r;
                    if s >= layer.num_src {
                        continue;
                    }
                    let dsts = layer.csc.dsts(s as u32);
                    if dsts.is_empty() {
                        continue;
                    }
                    for &d in dsts {
                        let scale = match self.agg {
                            Reduce::Mean => 1.0 / deg(d),
                            _ => 1.0,
                        };
                        let grow = grad.row(d as usize);
                        match (self.h, self.g, weights) {
                            (Some(HFn::Mul), Some(g), _) => {
                                // Recompute this edge's weights: no edge id.
                                let (srow, drow) = (features.row(s), features.row(d as usize));
                                fold_edge(xrow, grow, srow, drow, g, |gk, wk| gk * wk * scale);
                            }
                            (Some(HFn::Mul), None, Some(w)) => {
                                // Need this edge's weight row: find the edge id
                                // in CSR order (s within dsts' src slice).
                                let e = edge_id(layer, d, s as u32);
                                for ((x, &g), &wk) in xrow.iter_mut().zip(grow).zip(w.row(e)) {
                                    *x += g * wk * scale;
                                }
                            }
                            _ => {
                                for (x, &g) in xrow.iter_mut().zip(grow) {
                                    *x += g * scale;
                                }
                            }
                        }
                    }
                }
            },
        );

        // d_weights via CSR: serial — dw rows are written in CSR edge order
        // while reading per-dst gradient rows; the loop is cheap relative
        // to dx and keeping it serial avoids a second edge-id index.
        let dw = match (self.h, weights) {
            (Some(_), Some(_)) => {
                let mut dw = Matrix::zeros(layer.csr.num_edges(), f);
                for (d, srcs) in layer.csr.iter() {
                    let scale = match self.agg {
                        Reduce::Mean => 1.0 / deg(d),
                        _ => 1.0,
                    };
                    let grow = grad.row(d as usize);
                    for (&s, e) in srcs.iter().zip(layer.csr.edge_range(d)) {
                        let wrow = dw.row_mut(e);
                        match self.h {
                            Some(HFn::Mul) => {
                                let srow = features.row(s as usize);
                                for ((o, &g), &x) in wrow.iter_mut().zip(grow).zip(srow) {
                                    *o = g * x * scale;
                                }
                            }
                            _ => {
                                for (o, &g) in wrow.iter_mut().zip(grow) {
                                    *o = g * scale;
                                }
                            }
                        }
                    }
                }
                Some(dw)
            }
            _ => None,
        };
        if let (Some(g), Some(h)) = (self.g, self.h) {
            // The sum a DFG forms when Pull and NeighborApply both feed
            // gradients back to `features`: Pull's first, then `+= 1.0 ·`.
            dx.axpy(1.0, &self.edge_input_grad(features, grad, g, h));
        }
        (dx, dw)
    }

    /// The input gradient that flows through the edge weights — what
    /// `NeighborApply::compute_backward` returns for this Pull's `d_weights`
    /// — with each `d_weights` row recomputed where it is consumed. Serial
    /// like that kernel: src and dst rows both accumulate in CSR edge order.
    fn edge_input_grad<X: RowSource + ?Sized>(
        &self,
        features: &X,
        grad: &Matrix,
        g: EdgeOp,
        h: HFn,
    ) -> Matrix {
        let layer = &self.layer;
        let mut dx = Matrix::zeros(features.rows(), features.cols());
        let mut dwrow = vec![0.0f32; features.cols()];
        for (d, srcs) in layer.csr.iter() {
            let scale = match self.agg {
                Reduce::Mean => 1.0 / layer.csr.degree(d).max(1) as f32,
                _ => 1.0,
            };
            let grow = grad.row(d as usize);
            if h == HFn::Add {
                // `h = Add` passes the scaled gradient through: one row per dst.
                for (o, &g) in dwrow.iter_mut().zip(grow) {
                    *o = g * scale;
                }
            }
            for &s in srcs {
                if h == HFn::Mul {
                    let srow = features.row(s as usize);
                    for ((o, &g), &x) in dwrow.iter_mut().zip(grow).zip(srow) {
                        *o = g * x * scale;
                    }
                }
                neighbor_apply::scatter_edge_grad(
                    &mut dx, g, features, s as usize, d as usize, &dwrow,
                );
            }
        }
        dx
    }

    /// `[features, edge_weights]` exactly when `h` reads stored weights.
    fn assert_weight_arity(&self, weights: Option<&Matrix>) {
        assert_eq!(
            self.h.is_some() && self.g.is_none(),
            weights.is_some(),
            "weight arity mismatch"
        );
    }

    /// Bytes of the `E×F` edge tensor the modeled device keeps resident.
    fn edge_tensor_bytes(&self, feat_dim: usize) -> u64 {
        (self.layer.csr.num_edges() * feat_dim * 4) as u64
    }

    /// With `g` set, charge what the `NeighborApply` node ahead of a weighted
    /// Pull charges in a forward pass: its kernel, then its output landing
    /// in device memory.
    pub(crate) fn charge_edge_weighting(&self, feat_dim: usize, ctx: &mut ExecCtx) {
        if self.g.is_some() {
            let stats = neighbor_apply::stats(&self.layer, feat_dim, ctx.sim.device().num_sms);
            ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
            let _ = ctx.sim.memory.alloc(self.edge_tensor_bytes(feat_dim));
        }
    }

    /// With `g` set, charge the `NeighborApply` backward kernel that turns
    /// weight gradients into `dx`.
    pub(crate) fn charge_edge_weighting_backward(&self, dx: &Matrix, ctx: &mut ExecCtx) {
        if self.g.is_some() {
            // g' applies to both dst and src (Fig 3c): same traversal cost.
            let mut stats = neighbor_apply::stats(&self.layer, dx.cols(), ctx.sim.device().num_sms);
            stats.global_write_bytes = dx.bytes();
            ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        }
    }
}

/// One edge of an edge-weighted kernel: `acc[j] += k(lhs[j], w[j])`, where
/// `w[j] = g(x_s[j], x_d[j])` is rounded to `f32` before `k` sees it, as if
/// it had been stored, and `Dot`'s scalar is summed once per edge.
#[inline(always)]
fn fold_edge(
    acc: &mut [f32],
    lhs: &[f32],
    srow: &[f32],
    drow: &[f32],
    g: EdgeOp,
    k: impl Fn(f32, f32) -> f32,
) {
    #[inline(always)]
    fn fold(
        acc: &mut [f32],
        lhs: &[f32],
        srow: &[f32],
        drow: &[f32],
        w: impl Fn(f32, f32) -> f32,
        k: impl Fn(f32, f32) -> f32,
    ) {
        for (((o, &l), &a), &b) in acc.iter_mut().zip(lhs).zip(srow).zip(drow) {
            *o += k(l, w(a, b));
        }
    }
    match g {
        EdgeOp::ElemMul => fold(acc, lhs, srow, drow, |a, b| a * b, k),
        EdgeOp::ElemAdd => fold(acc, lhs, srow, drow, |a, b| a + b, k),
        EdgeOp::Dot => {
            let dot = neighbor_apply::dot(srow, drow);
            fold(acc, lhs, srow, drow, |_, _| dot, k)
        }
    }
}

/// CSR edge id of the (src, dst) pair; linear scan of the dst's slice is
/// fine because sampled degrees are small and even (§IV-B, Fig 8).
fn edge_id(layer: &LayerGraph, d: u32, s: u32) -> usize {
    let srcs = layer.csr.srcs(d);
    let base = layer.csr.edge_range(d).start;
    base + srcs.iter().position(|&x| x == s).expect("edge exists")
}

impl Op for Pull {
    fn name(&self) -> &str {
        "pull"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let (x, weights) = (inputs[0], inputs.get(1).copied().map(Operand::dense));
        self.charge_edge_weighting(x.cols(), ctx);
        let out = self.compute(&x, weights);
        let stats = self.forward_stats(x.cols(), ctx.sim.device().num_sms);
        ctx.sim.record_gpu(Phase::Aggregation, stats);
        out
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let (x, weights) = (inputs[0], inputs.get(1).copied().map(Operand::dense));
        let (dx, dw) = self.compute_backward(&x, weights, grad);
        // Backward is the same traversal in reverse (f' ≡ f, Fig 3b).
        let mut stats = self.forward_stats(x.cols(), ctx.sim.device().num_sms);
        // The modeled kernel writes weight gradients whether the host
        // materialises them or not.
        let dw_bytes = self.h.map_or(0, |_| self.edge_tensor_bytes(dx.cols()));
        stats.global_write_bytes = dx.bytes() + dw_bytes;
        ctx.sim.record_gpu(Phase::Aggregation, stats);
        self.charge_edge_weighting_backward(&dx, ctx);
        if weights.is_some() {
            vec![Some(dx), dw]
        } else {
            vec![Some(dx)]
        }
    }

    fn out_shape(&self, in_shapes: &[(usize, usize)], _params: &ParamStore) -> (usize, usize) {
        (self.layer.num_dst, in_shapes[0].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::napa::test_layer;
    use gt_tensor::sparse;

    /// Layer: dst 0 ← {1, 2}, dst 1 ← {1}, over 3 srcs.
    fn layer() -> Arc<LayerGraph> {
        test_layer(3, 2, &[(1, 0), (2, 0), (1, 1)])
    }

    fn feats() -> Matrix {
        Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.])
    }

    #[test]
    fn matches_spmm_oracle() {
        let l = layer();
        for agg in [Reduce::Sum, Reduce::Mean, Reduce::Max] {
            let pull = Pull::new(Arc::clone(&l), agg);
            let got = pull.compute(&feats(), None);
            let oracle = sparse::spmm(&l.csr, &feats(), agg);
            assert!(
                got.max_abs_diff(&oracle) < 1e-6,
                "agg {agg:?} diverged from oracle"
            );
        }
    }

    #[test]
    fn weighted_matches_oracle() {
        let l = layer();
        let w = Matrix::from_vec(3, 2, vec![0.5, 1.0, 2.0, 0.1, 1.5, 0.5]);
        let pull = Pull::weighted(Arc::clone(&l), Reduce::Sum, HFn::Mul);
        let got = pull.compute(&feats(), Some(&w));
        let oracle = sparse::spmm_weighted(&l.csr, &feats(), &w, Reduce::Sum);
        assert!(got.max_abs_diff(&oracle) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "layer has 3 dst / 1 src, features have 2 rows")]
    fn edge_weighted_features_shorter_than_the_dst_space_are_refused_by_name() {
        let l = test_layer(1, 3, &[(0, 2)]);
        Pull::edge_weighted(l, Reduce::Sum, EdgeOp::ElemMul, HFn::Mul)
            .compute(&Matrix::zeros(2, 4), None);
    }

    #[test]
    #[should_panic(expected = "weighted aggregation: Max is not supported")]
    fn weighted_max_is_refused_by_name() {
        Pull::weighted(layer(), Reduce::Max, HFn::Mul);
    }

    #[test]
    #[should_panic(expected = "weighted aggregation: Max is not supported")]
    fn edge_weighted_max_is_refused_by_name() {
        Pull::edge_weighted(layer(), Reduce::Max, EdgeOp::ElemMul, HFn::Mul);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Forward and backward over rows of a table read in place — directly
    /// and as the DFG's operand — equal the same kernels over the gathered
    /// copy, bit for bit, for every aggregation mode.
    #[test]
    fn rows_read_in_place_equal_the_gathered_copy() {
        use gt_graph::{EmbeddingTable, VId};
        use gt_tensor::dense::Rows;
        // dst 3 has no edges; dst 2 has a self-loop.
        let edges = [
            (1, 0),
            (2, 0),
            (5, 0),
            (0, 1),
            (1, 1),
            (3, 2),
            (4, 2),
            (2, 2),
            (5, 2),
        ];
        let l = test_layer(6, 4, &edges);
        let f = 5;
        // The table's last row first, then descending, each row twice.
        let t = l.num_src + 4;
        let table = EmbeddingTable::random(t, f, 17);
        let ids: Vec<VId> = (0..l.num_src).map(|r| (t - 1 - r / 2) as VId).collect();
        let view = Rows {
            table: &table,
            ids: &ids,
        };
        let x = Matrix::from_vec(ids.len(), f, table.gather(&ids).into_vec());
        let w = Matrix::from_fn(l.csr.num_edges(), f, |e, c| (e * f + c) as f32 * 0.25 - 3.0);
        let grad = Matrix::from_fn(l.num_dst, f, |r, c| ((r * f + c) % 7) as f32 - 3.0);

        let mut cases = Vec::new();
        for agg in [Reduce::Sum, Reduce::Mean, Reduce::Max] {
            cases.push((Pull::new(Arc::clone(&l), agg), None));
        }
        for agg in [Reduce::Sum, Reduce::Mean] {
            for h in [HFn::Mul, HFn::Add] {
                cases.push((Pull::weighted(Arc::clone(&l), agg, h), Some(&w)));
                for g in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
                    cases.push((Pull::edge_weighted(Arc::clone(&l), agg, g, h), None));
                }
            }
        }
        for (pull, weights) in cases {
            let mode = format!("agg={:?} g={:?} h={:?}", pull.agg, pull.g, pull.h);
            let want = bits(&pull.compute(&x, weights));
            assert_eq!(bits(&pull.compute(&view, weights)), want, "{mode}");
            let operand = Operand::Rows(view);
            assert_eq!(bits(&pull.compute(&operand, weights)), want, "{mode}");
            if pull.agg == Reduce::Max {
                continue;
            }
            let (dx, dw) = pull.compute_backward(&x, weights, &grad);
            for (got, got_dw) in [
                pull.compute_backward(&view, weights, &grad),
                pull.compute_backward(&operand, weights, &grad),
            ] {
                assert_eq!(bits(&got), bits(&dx), "{mode}");
                assert_eq!(got_dw.map(|m| bits(&m)), dw.as_ref().map(bits), "{mode}");
            }
        }
    }

    #[test]
    fn backward_matches_oracle() {
        let l = layer();
        let pull = Pull::new(Arc::clone(&l), Reduce::Mean);
        let grad = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let (dx, dw) = pull.compute_backward(&feats(), None, &grad);
        let oracle = sparse::spmm_backward(&l.csr, &grad, 3, Reduce::Mean);
        assert!(dx.max_abs_diff(&oracle) < 1e-6);
        assert!(dw.is_none());
    }

    #[test]
    fn weighted_backward_finite_difference() {
        let l = layer();
        let pull = Pull::weighted(Arc::clone(&l), Reduce::Mean, HFn::Mul);
        let x0 = feats();
        let w0 = Matrix::from_vec(3, 2, vec![0.5, 1.0, 2.0, 0.1, 1.5, 0.5]);
        let loss = |x: &Matrix, w: &Matrix| pull.compute(x, Some(w)).data().iter().sum::<f32>();
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let (dx, dw) = pull.compute_backward(&x0, Some(&w0), &ones);
        let dw = dw.unwrap();
        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut p = x0.clone();
            p.data_mut()[i] += eps;
            let mut m = x0.clone();
            m.data_mut()[i] -= eps;
            let num = (loss(&p, &w0) - loss(&m, &w0)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        for i in 0..w0.len() {
            let mut p = w0.clone();
            p.data_mut()[i] += eps;
            let mut m = w0.clone();
            m.data_mut()[i] -= eps;
            let num = (loss(&x0, &p) - loss(&x0, &m)) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 1e-2, "dw[{i}]");
        }
    }

    #[test]
    fn charges_aggregation_phase_without_bloat() {
        use gt_sim::{DeviceSpec, SimContext};
        let l = layer();
        let pull = Pull::new(l, Reduce::Mean);
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut params = ParamStore::new();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let f = feats();
        let _ = pull.forward(&[Operand::Dense(&f)], &mut ctx);
        let s = ctx.sim.phase_stats(Phase::Aggregation);
        assert!(s.flops > 0);
        assert_eq!(s.alloc_bytes, 0, "NAPA allocates no conversion buffers");
        assert!(!s.irregular);
    }

    #[test]
    fn out_shape_is_dst_by_feat() {
        let l = layer();
        let pull = Pull::new(l, Reduce::Sum);
        let p = ParamStore::new();
        assert_eq!(pull.out_shape(&[(3, 7)], &p), (2, 7));
    }
}
