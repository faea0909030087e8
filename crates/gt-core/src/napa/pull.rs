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
//!
//! **One body per row walk, two instantiations.** The three row walks — the
//! forward CSR chunk, the backward CSC chunk and the serial
//! `edge_input_grad` pass — are plain-Rust `Walk` bodies. `Isa::run`
//! compiles each twice on `x86_64`: for the baseline target (SSE2) and,
//! where [`has_avx2`] detects it, under `#[target_feature(enable = "avx2")]`.
//! **Never `fma`.** Aggregation is bound by irregular source-row reads, not
//! arithmetic, so unlike the dense band kernel the walks have no AVX-512
//! instantiation, and the two walks that read source
//! rows in CSR order (forward, `edge_input_grad`) also prefetch (T0) every
//! line of the row they will read `PREFETCH_EDGES` edges further on in the
//! chunk's flat edge slice. The CSC walk's random reads are gradient rows
//! of the few destinations, which stay cached; a prefetch there measured
//! slower, so it issues none. Vector lanes are independent output elements
//! and a prefetch only moves when a line arrives, so neither changes the
//! order or the rounding of any one element's operations: both
//! instantiations give the same bits, with or without the hint.
//!
//! The device charges of one layer — Pull's forward and backward and, with
//! `g` set, the edge weighting's — all price the rows
//! [`feature_wise_loaded_rows`] counts; a Pull counts them once.

use crate::config::HFn;
use gt_graph::VId;
use gt_par::ThreadPool;
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::{has_avx2, Matrix, RowSource};
use gt_tensor::dfg::{ExecCtx, Op, Operand, ParamStore};
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use super::neighbor_apply;
use super::schedule::feature_wise_loaded_rows;

/// Output rows per pool chunk (fixed — never derived from the worker count).
const ROW_CHUNK: usize = 64;

/// How far ahead of the edge it reads a row walk prefetches, in edges of
/// its chunk's flat edge slice.
const PREFETCH_EDGES: usize = 8;

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
    /// The first [`feature_wise_loaded_rows`] count of `layer` taken: at
    /// how many SMs, and the rows.
    loaded_rows: OnceLock<(usize, u64)>,
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
            loaded_rows: OnceLock::new(),
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
        self.forward_on(features, weights, Isa::Widest)
    }

    fn forward_on<X: RowSource + ?Sized>(
        &self,
        features: &X,
        weights: Option<&Matrix>,
        isa: Isa,
    ) -> Matrix {
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
                isa.run(Forward {
                    pull: self,
                    features,
                    weights,
                    out: chunk,
                    row_base: ci * ROW_CHUNK,
                })
            });
        out
    }

    /// [`feature_wise_loaded_rows`] of this layer on `num_sms` SMs. The
    /// first count is kept: every charge of the layer prices the same rows.
    /// Another SM count is counted afresh.
    fn loaded_rows(&self, num_sms: usize) -> u64 {
        let count = || feature_wise_loaded_rows(&self.layer, num_sms);
        match *self.loaded_rows.get_or_init(|| (num_sms, count())) {
            (sms, rows) if sms == num_sms => rows,
            _ => count(),
        }
    }

    /// Work this Pull charges the device (forward direction).
    pub fn forward_stats(&self, feat_dim: usize, num_sms: usize) -> KernelStats {
        let layer = &self.layer;
        let row_bytes = (feat_dim * 4) as u64;
        let cache_loaded_bytes = self.loaded_rows(num_sms) * row_bytes;
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
        self.backward_on(features, weights, grad, Isa::Widest)
    }

    fn backward_on<X: RowSource + ?Sized>(
        &self,
        features: &X,
        weights: Option<&Matrix>,
        grad: &Matrix,
        isa: Isa,
    ) -> (Matrix, Option<Matrix>) {
        assert!(
            self.agg != Reduce::Max,
            "Pull backward: Max needs argmax state"
        );
        self.assert_weight_arity(weights);
        let f = features.cols();
        let layer = &self.layer;

        // d_features via CSC: vertex-centric over sources (disjoint rows),
        // row-parallel on the pool like the forward pass.
        let mut dx = Matrix::zeros(features.rows(), f);
        self.pool.for_each_chunk_mut(
            "napa.pull_bwd",
            dx.data_mut(),
            ROW_CHUNK * f,
            |ci, chunk| {
                isa.run(Backward {
                    pull: self,
                    features,
                    weights,
                    grad,
                    dx: chunk,
                    row_base: ci * ROW_CHUNK,
                })
            },
        );

        // d_weights via CSR: serial — dw rows are written in CSR edge order
        // while reading per-dst gradient rows; the loop is cheap relative
        // to dx and keeping it serial avoids a second edge-id index.
        let dw = match (self.h, weights) {
            (Some(_), Some(_)) => {
                let mut dw = Matrix::zeros(layer.csr.num_edges(), f);
                for (d, srcs) in layer.csr.iter() {
                    let scale = self.scale(d);
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
            // The second is what `NeighborApply::compute_backward` returns
            // for this Pull's `d_weights`, each row recomputed where it is
            // consumed.
            let mut dx_na = Matrix::zeros(features.rows(), f);
            isa.run(EdgeInputGrad {
                pull: self,
                features,
                grad,
                g,
                h,
                dx: &mut dx_na,
            });
            dx.axpy(1.0, &dx_na);
        }
        (dx, dw)
    }

    /// Mean's `1 / deg(d)` for destination `d`'s gradient row; 1 otherwise.
    #[inline(always)]
    fn scale(&self, d: u32) -> f32 {
        match self.agg {
            Reduce::Mean => 1.0 / self.layer.csr.degree(d).max(1) as f32,
            _ => 1.0,
        }
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
            let rows = self.loaded_rows(ctx.sim.device().num_sms);
            let stats = neighbor_apply::stats(&self.layer, feat_dim, rows);
            ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
            let _ = ctx.sim.memory.alloc(self.edge_tensor_bytes(feat_dim));
        }
    }

    /// With `g` set, charge the `NeighborApply` backward kernel that turns
    /// weight gradients into `dx`.
    pub(crate) fn charge_edge_weighting_backward(&self, dx: &Matrix, ctx: &mut ExecCtx) {
        if self.g.is_some() {
            // g' applies to both dst and src (Fig 3c): same traversal cost.
            let rows = self.loaded_rows(ctx.sim.device().num_sms);
            let mut stats = neighbor_apply::stats(&self.layer, dx.cols(), rows);
            stats.global_write_bytes = dx.bytes();
            ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
        }
    }
}

/// A row walk: one plain-Rust body, `#[inline(always)]`, that [`Isa::run`]
/// compiles once per instantiation (module doc).
trait Walk {
    fn walk(self);
}

/// Which instantiation runs a walk.
#[derive(Debug, Clone, Copy)]
enum Isa {
    /// The widest the CPU has: AVX2 where detected, else the baseline.
    Widest,
    /// The baseline body alone, which tests hold the dispatcher equal to.
    #[cfg(test)]
    Baseline,
}

impl Isa {
    fn run<W: Walk>(self, w: W) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self, Isa::Widest) && has_avx2() {
            // SAFETY: `walk_avx2` requires the `avx2` target feature, which
            // `has_avx2` has just detected on the running CPU.
            return unsafe { walk_avx2(w) };
        }
        w.walk()
    }
}

/// [`Walk::walk`] compiled for 256-bit vectors. No `fma` (module doc).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn walk_avx2<W: Walk>(w: W) {
    w.walk()
}

/// Prefetch the row of `rows` that `ahead[i + PREFETCH_EDGES]` names, if
/// `ahead` — the ids a walk reads, cut at its chunk's last edge — has it.
#[inline(always)]
fn prefetch_ahead<X: RowSource + ?Sized>(rows: &X, ahead: &[VId], i: usize) {
    if let Some(&v) = ahead.get(i + PREFETCH_EDGES) {
        prefetch(rows.row(v as usize));
    }
}

/// `edge(srow, e)` for each CSR edge `e` in `edges`, in order, with its
/// source row. `srcs` is the CSR's source array cut at the chunk's last
/// edge; each edge first prefetches the row `PREFETCH_EDGES` edges on.
#[inline(always)]
fn each_source<'x, X: RowSource + ?Sized>(
    features: &'x X,
    srcs: &[VId],
    edges: Range<usize>,
    mut edge: impl FnMut(&'x [f32], usize),
) {
    for e in edges {
        prefetch_ahead(features, srcs, e);
        edge(features.row(srcs[e] as usize), e);
    }
}

/// A T0 prefetch of every cache line `row` touches. It is a hint: it reads
/// nothing the program sees, so no value depends on it.
#[inline(always)]
fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = row.as_ptr().cast::<i8>();
        // A row need not start on a line boundary.
        let skew = start.addr() % LINE;
        let first = start.wrapping_sub(skew);
        for line in 0..(skew + size_of_val(row)).div_ceil(LINE) {
            // SAFETY: `_mm_prefetch` requires SSE, which every `x86_64` CPU
            // has, and a prefetch never faults, whatever the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// The forward walk over one chunk of destination rows, in CSR order.
struct Forward<'a, X: ?Sized> {
    pull: &'a Pull,
    features: &'a X,
    weights: Option<&'a Matrix>,
    /// Rows `row_base..` of the output.
    out: &'a mut [f32],
    row_base: usize,
}

impl<X: RowSource + ?Sized> Walk for Forward<'_, X> {
    #[inline(always)]
    fn walk(self) {
        let Forward {
            pull,
            features,
            weights,
            out,
            row_base,
        } = self;
        let (csr, f) = (&pull.layer.csr, features.cols());
        let srcs = &csr.srcs[..csr.indptr[row_base + out.len() / f] as usize];
        for (r, orow) in out.chunks_mut(f).enumerate() {
            let d = row_base + r;
            let edges = csr.edge_range(d as u32);
            let degree = edges.len();
            if degree == 0 {
                continue;
            }
            match (pull.agg, pull.h, pull.g, weights) {
                // Unweighted only: the constructors refuse a weighted Max.
                (Reduce::Max, ..) => {
                    let start = edges.start;
                    each_source(features, srcs, edges, |srow, e| {
                        if e == start {
                            orow.copy_from_slice(srow);
                        } else {
                            for (o, &x) in orow.iter_mut().zip(srow) {
                                *o = o.max(x);
                            }
                        }
                    });
                }
                // The dst row stays hot across its edges.
                (_, Some(HFn::Mul), Some(g), _) => {
                    let drow = features.row(d);
                    each_source(features, srcs, edges, |srow, _| {
                        fold_edge(orow, srow, srow, drow, g, |x, wk| x * wk)
                    });
                }
                (_, Some(HFn::Add), Some(g), _) => {
                    let drow = features.row(d);
                    each_source(features, srcs, edges, |srow, _| {
                        fold_edge(orow, srow, srow, drow, g, |x, wk| x + wk)
                    });
                }
                (_, Some(HFn::Mul), None, Some(w)) => {
                    each_source(features, srcs, edges, |srow, e| {
                        for ((o, &x), &wk) in orow.iter_mut().zip(srow).zip(w.row(e)) {
                            *o += x * wk;
                        }
                    });
                }
                (_, Some(HFn::Add), None, Some(w)) => {
                    each_source(features, srcs, edges, |srow, e| {
                        for ((o, &x), &wk) in orow.iter_mut().zip(srow).zip(w.row(e)) {
                            *o += x + wk;
                        }
                    });
                }
                _ => {
                    each_source(features, srcs, edges, |srow, _| {
                        for (o, &x) in orow.iter_mut().zip(srow) {
                            *o += x;
                        }
                    });
                }
            }
            if pull.agg == Reduce::Mean {
                let inv = 1.0 / degree as f32;
                for o in orow.iter_mut() {
                    *o *= inv;
                }
            }
        }
    }
}

/// The backward walk over one chunk of source rows of `dx`, in CSC order.
struct Backward<'a, X: ?Sized> {
    pull: &'a Pull,
    features: &'a X,
    weights: Option<&'a Matrix>,
    grad: &'a Matrix,
    /// Rows `row_base..` of `d_features`.
    dx: &'a mut [f32],
    row_base: usize,
}

impl<X: RowSource + ?Sized> Walk for Backward<'_, X> {
    #[inline(always)]
    fn walk(self) {
        let Backward {
            pull,
            features,
            weights,
            grad,
            dx,
            row_base,
        } = self;
        let (layer, f) = (&pull.layer, features.cols());
        // `dx` covers the feature rows; only the first `num_src` have edges.
        let sources = layer.num_src.saturating_sub(row_base);
        for (r, xrow) in dx.chunks_mut(f).take(sources).enumerate() {
            let s = row_base + r;
            let dsts = layer.csc.dsts(s as u32);
            for (k, &d) in dsts.iter().enumerate() {
                let scale = pull.scale(d);
                let grow = grad.row(d as usize);
                match (pull.h, pull.g, weights) {
                    (Some(HFn::Mul), Some(g), _) => {
                        // Recompute this edge's weights: no edge id.
                        let (srow, drow) = (features.row(s), features.row(d as usize));
                        fold_edge(xrow, grow, srow, drow, g, |gk, wk| gk * wk * scale);
                    }
                    (Some(HFn::Mul), None, Some(w)) => {
                        // This edge's weight row, by its CSR id.
                        let copy = dsts[..k].iter().filter(|&&x| x == d).count();
                        let e = edge_id(&pull.layer, d, s as u32, copy);
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
    }
}

/// The input gradient that flows through the edge weights, into `dx`.
/// Serial like `NeighborApply::compute_backward`: src and dst rows both
/// accumulate, in CSR edge order, with each `d_weights` row recomputed into
/// one scratch row.
struct EdgeInputGrad<'a, X: ?Sized> {
    pull: &'a Pull,
    features: &'a X,
    grad: &'a Matrix,
    g: EdgeOp,
    h: HFn,
    dx: &'a mut Matrix,
}

impl<X: RowSource + ?Sized> Walk for EdgeInputGrad<'_, X> {
    #[inline(always)]
    fn walk(self) {
        let EdgeInputGrad {
            pull,
            features,
            grad,
            g,
            h,
            dx,
        } = self;
        let csr = &pull.layer.csr;
        let mut dwrow = vec![0.0f32; features.cols()];
        for (d, srcs) in csr.iter() {
            let scale = pull.scale(d);
            let grow = grad.row(d as usize);
            if h == HFn::Add {
                // `h = Add` passes the scaled gradient through: one row per dst.
                for (o, &g) in dwrow.iter_mut().zip(grow) {
                    *o = g * scale;
                }
            }
            for (&s, e) in srcs.iter().zip(csr.edge_range(d)) {
                prefetch_ahead(features, &csr.srcs, e);
                if h == HFn::Mul {
                    let srow = features.row(s as usize);
                    for ((o, &g), &x) in dwrow.iter_mut().zip(grow).zip(srow) {
                        *o = g * x * scale;
                    }
                }
                neighbor_apply::scatter_edge_grad(dx, g, features, s as usize, d as usize, &dwrow);
            }
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

/// CSR id of copy `copy` (0 for the first) of the edge `s → d`. CSR and CSC
/// come from one stable counting sort of the same edge list, so the n-th
/// copy in `s`'s CSC slice is the n-th copy in `d`'s CSR slice. A linear
/// scan of the dst's slice is fine: sampled degrees are small and even
/// (§IV-B, Fig 8).
fn edge_id(layer: &LayerGraph, d: u32, s: u32, copy: usize) -> usize {
    let erange = layer.csr.edge_range(d);
    let pos = layer.csr.srcs[erange.clone()]
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x == s)
        .nth(copy)
        .expect("edge exists")
        .0;
    erange.start + pos
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

    /// A Pull in every mode over `l`: unweighted `Sum`, `Mean` and `Max`;
    /// stored weights under `h = Mul` and `Add`; and edge weighting by
    /// `ElemMul`, `ElemAdd` and `Dot` under each `h`.
    fn every_mode(l: &Arc<LayerGraph>) -> Vec<Pull> {
        let mut pulls = Vec::new();
        for agg in [Reduce::Sum, Reduce::Mean, Reduce::Max] {
            pulls.push(Pull::new(Arc::clone(l), agg));
        }
        for agg in [Reduce::Sum, Reduce::Mean] {
            for h in [HFn::Mul, HFn::Add] {
                pulls.push(Pull::weighted(Arc::clone(l), agg, h));
                for g in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
                    pulls.push(Pull::edge_weighted(Arc::clone(l), agg, g, h));
                }
            }
        }
        pulls
    }

    /// `w` where `pull` reads stored weights.
    fn weights_for<'a>(pull: &Pull, w: &'a Matrix) -> Option<&'a Matrix> {
        (pull.h.is_some() && pull.g.is_none()).then_some(w)
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

    fn pools() -> [&'static ThreadPool; 3] {
        static POOLS: OnceLock<[&'static ThreadPool; 3]> = OnceLock::new();
        *POOLS.get_or_init(|| [1, 2, 4].map(ThreadPool::leaked))
    }

    /// The dispatcher — the AVX2 instantiation where the CPU has it — gives
    /// the baseline body's bits, forward and backward, at pool widths 1, 2
    /// and 4, over a dense matrix and over table rows read in place, on
    /// random layers with empty destinations and widths around a vector.
    #[test]
    fn dispatched_walks_equal_the_baseline_body() {
        use gt_graph::EmbeddingTable;
        use gt_sim::prop;
        use gt_tensor::dense::Rows;
        prop::check("pull_isa", 24, |g| {
            let num_dst = g.range(0..150);
            let num_src = num_dst + g.range(1..60);
            let edges = if num_dst == 0 {
                Vec::new()
            } else {
                g.vec(0..300, |g| {
                    (g.range(0..num_src) as u32, g.range(0..num_dst) as u32)
                })
            };
            let l = test_layer(num_src, num_dst, &edges);
            let f = *g.pick(&[1, 7, 8, 100, 201]);
            let t = num_src + 3;
            let table = EmbeddingTable::random(t, f, g.next_u64());
            let ids: Vec<VId> = (0..num_src).map(|_| g.range(0..t) as VId).collect();
            let view = Rows {
                table: &table,
                ids: &ids,
            };
            let x = Matrix::from_vec(num_src, f, table.gather(&ids).into_vec());
            let mut random = |rows: usize| {
                let data = (0..rows * f).map(|_| g.f64_in(-2.0..2.0) as f32).collect();
                Matrix::from_vec(rows, f, data)
            };
            let (w, grad) = (random(l.csr.num_edges()), random(num_dst));
            for pull in every_mode(&l) {
                let weights = weights_for(&pull, &w);
                let mode = format!("agg={:?} g={:?} h={:?} F={f}", pull.agg, pull.g, pull.h);
                let want = bits(&pull.forward_on(&x, weights, Isa::Baseline));
                let want_bwd = (pull.agg != Reduce::Max).then(|| {
                    let (dx, dw) = pull.backward_on(&x, weights, &grad, Isa::Baseline);
                    (bits(&dx), dw.as_ref().map(bits))
                });
                for pool in pools() {
                    let pull = pull.clone().with_pool(pool);
                    for isa in [Isa::Widest, Isa::Baseline] {
                        let at = format!("{mode} {isa:?} width {}", pool.workers());
                        assert_eq!(bits(&pull.forward_on(&x, weights, isa)), want, "{at}");
                        assert_eq!(bits(&pull.forward_on(&view, weights, isa)), want, "{at}");
                        let Some(want_bwd) = &want_bwd else { continue };
                        for (dx, dw) in [
                            pull.backward_on(&x, weights, &grad, isa),
                            pull.backward_on(&view, weights, &grad, isa),
                        ] {
                            assert_eq!(&(bits(&dx), dw.as_ref().map(bits)), want_bwd, "{at}");
                        }
                    }
                }
            }
        });
    }

    /// Each copy of a duplicate `(src, dst)` edge carries its own weight
    /// row, forward and backward: `d/dx₁ (2·x₁ + 5·x₁) = 7`.
    #[test]
    fn duplicate_edges_read_their_own_weight_rows() {
        let l = test_layer(2, 1, &[(1, 0), (1, 0)]);
        let pull = Pull::weighted(l, Reduce::Sum, HFn::Mul);
        let x = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let w = Matrix::from_vec(2, 1, vec![2.0, 5.0]);
        assert_eq!(pull.compute(&x, Some(&w)).data(), &[28.0]);
        let grad = Matrix::from_vec(1, 1, vec![1.0]);
        let (dx, dw) = pull.compute_backward(&x, Some(&w), &grad);
        assert_eq!(dx.data(), &[0.0, 7.0]);
        assert_eq!(dw.expect("weights have a gradient").data(), &[4.0, 4.0]);
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
