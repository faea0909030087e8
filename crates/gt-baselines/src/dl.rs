//! DL-approach kernels (PyG-style): dense scatter ops + sparse→dense
//! conversion where DL user code needs it (§III, Fig 5a).
//!
//! *Aggregation*: recent DL-approach frameworks fused the gather into the
//! scatter ("several DL approach frameworks have addressed the memory
//! bloat issue on aggregation", §III), so `scatter_sum`/`scatter_mean`
//! runs edge-wise over the index directly — no dense copies, but edge-wise
//! scheduling and its cache bloat remain (Table III marks PyG's cache
//! bloat ○). That is why "PyG exhibits similar performance to Base-GT for
//! GCN" (§VI-A) while still losing on cache traffic.
//!
//! *Edge weighting*: has no fused kernel — user code composes elementwise
//! DL ops, which requires materializing **two** dense per-edge matrices
//! (src and dst copies). This is the memory bloat of Fig 6a ("increases
//! the memory footprint by 5.8×") and why PyG collapses on NGCF.
//!
//! Numerics are delegated to the NAPA reference implementations, which
//! compute the same functions.

use gt_core::config::HFn;
use gt_core::napa::schedule::edge_wise_cache;
use gt_core::napa::{NeighborApply, Pull};
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::{ExecCtx, Op, Operand};
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::Arc;

/// Bytes of one embedding row.
fn row_bytes(f: usize) -> u64 {
    (f * 4) as u64
}

/// Charge the sparse→dense conversion of `copies` dense edge-matrices
/// (each `num_edges × f`), leaving them allocated; returns the bloat bytes.
fn charge_sparse2dense(layer: &LayerGraph, f: usize, copies: u64, ctx: &mut ExecCtx) -> u64 {
    let e = layer.csr.num_edges() as u64;
    let bloat = copies * e * row_bytes(f);
    // The gather reads table rows irregularly and writes the dense copies.
    ctx.sim.record_gpu(
        Phase::Sparse2Dense,
        KernelStats {
            global_read_bytes: bloat,
            global_write_bytes: bloat,
            alloc_bytes: bloat,
            launches: copies,
            ..Default::default()
        },
    );
    // On a real device this is where PyG dies (NGCF on livejournal); the
    // tracker latches the OOM and we keep computing on the host, so the
    // batch report can state both the result and the failure.
    match ctx.sim.memory.alloc(bloat) {
        Ok(()) => bloat,
        Err(_) => 0,
    }
}

/// DL-approach aggregation: fused gather-scatter over the edge index
/// (edge-wise scheduled, no dense copies).
#[derive(Debug, Clone)]
pub struct DlAggregate {
    /// Reference implementation carrying the subgraph and `f`/`h` modes.
    pub pull: Pull,
}

impl DlAggregate {
    /// Unweighted (GCN) aggregation.
    pub fn new(layer: Arc<LayerGraph>, agg: Reduce) -> Self {
        DlAggregate {
            pull: Pull::new(layer, agg),
        }
    }

    /// Weighted (NGCF) aggregation.
    pub fn weighted(layer: Arc<LayerGraph>, agg: Reduce, h: HFn) -> Self {
        DlAggregate {
            pull: Pull::weighted(layer, agg, h),
        }
    }

    /// Edge-wise scatter work: per-edge blocks → cache bloat; atomic
    /// per-edge output updates.
    fn charge_scatter(&self, f: usize, ctx: &mut ExecCtx) {
        let layer = &self.pull.layer;
        let cache = edge_wise_cache(layer, row_bytes(f), ctx.sim.device().num_sms);
        let e = layer.csr.num_edges() as u64;
        ctx.sim.record_gpu(
            Phase::Aggregation,
            KernelStats {
                flops: e * f as u64,
                global_read_bytes: cache.loaded_bytes() + layer.csr.storage_bytes(),
                global_write_bytes: e * row_bytes(f),
                cache_loaded_bytes: cache.loaded_bytes(),
                launches: 1,
                ..Default::default()
            },
        );
    }
}

impl Op for DlAggregate {
    fn name(&self) -> &str {
        "dl_aggregate"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let (x, w) = (
            inputs[0].dense(),
            inputs.get(1).copied().map(Operand::dense),
        );
        let out = self.pull.compute(x, w);
        self.charge_scatter(x.cols(), ctx);
        out
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let (x, w) = (
            inputs[0].dense(),
            inputs.get(1).copied().map(Operand::dense),
        );
        let (dx, dw) = self.pull.compute_backward(x, w, grad);
        self.charge_scatter(x.cols(), ctx);
        if self.pull.h.is_some() {
            vec![Some(dx), dw]
        } else {
            vec![Some(dx)]
        }
    }
}

/// DL-approach edge weighting: two dense gathers (src and dst matrices),
/// then an elementwise DL op — "they cannot avoid the issue on edge weight
/// calculation that relies on DL operation-based user code" (§III).
#[derive(Debug, Clone)]
pub struct DlEdgeWeight {
    /// Reference implementation (subgraph + `g`).
    pub na: NeighborApply,
}

impl DlEdgeWeight {
    /// Weight `layer`'s edges with `g` the DL-approach way.
    pub fn new(layer: Arc<LayerGraph>, g: EdgeOp) -> Self {
        DlEdgeWeight {
            na: NeighborApply::new(layer, g),
        }
    }

    fn charge_elementwise(&self, f: usize, ctx: &mut ExecCtx) {
        let e = self.na.layer.csr.num_edges() as u64;
        ctx.sim.record_gpu(
            Phase::EdgeWeighting,
            KernelStats {
                flops: e * f as u64,
                global_read_bytes: 2 * e * row_bytes(f),
                global_write_bytes: e * row_bytes(f),
                launches: 1,
                ..Default::default()
            },
        );
    }
}

impl Op for DlEdgeWeight {
    fn name(&self) -> &str {
        "dl_edge_weight"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let x = inputs[0].dense();
        let f = x.cols();
        // Two dense copies: src matrix and dst matrix (Fig 5a bottom).
        let bloat = charge_sparse2dense(&self.na.layer, f, 2, ctx);
        let out = self.na.compute(x);
        self.charge_elementwise(f, ctx);
        ctx.sim.memory.free(bloat);
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
        let f = x.cols();
        let bloat = charge_sparse2dense(&self.na.layer, f, 2, ctx);
        let dx = self.na.compute_backward(x, grad);
        self.charge_elementwise(f, ctx);
        ctx.sim.memory.free(bloat);
        vec![Some(dx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::convert::{coo_to_csc, coo_to_csr};
    use gt_graph::{Coo, Csr};
    use gt_sim::{DeviceSpec, SimContext};
    use gt_tensor::dfg::ParamStore;

    fn layer() -> Arc<LayerGraph> {
        let coo = Coo::from_edges(4, &[(1, 0), (2, 0), (3, 1), (0, 1)]);
        let (csr_full, _) = coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=2].to_vec(), csr_full.srcs.clone());
        let (csc, _) = coo_to_csc(&coo);
        Arc::new(LayerGraph {
            csr,
            csc,
            num_dst: 2,
            num_src: 4,
        })
    }

    fn ctx_parts() -> (SimContext, ParamStore) {
        (SimContext::new(DeviceSpec::tiny()), ParamStore::new())
    }

    #[test]
    fn dl_aggregate_matches_napa_numerics() {
        let l = layer();
        let x = Matrix::from_vec(4, 2, vec![1., 1., 2., 2., 3., 3., 4., 4.]);
        let dl = DlAggregate::new(Arc::clone(&l), Reduce::Mean);
        let napa = Pull::new(l, Reduce::Mean);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let got = dl.forward(&[Operand::Dense(&x)], &mut ctx);
        assert!(got.max_abs_diff(&napa.compute(&x, None)) < 1e-6);
    }

    #[test]
    fn dl_aggregate_is_fused_but_edge_wise() {
        let l = layer();
        let x = Matrix::zeros(4, 8);
        let dl = DlAggregate::new(l, Reduce::Sum);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let _ = dl.forward(&[Operand::Dense(&x)], &mut ctx);
        // Fused scatter: no sparse→dense copies for plain aggregation...
        assert_eq!(ctx.sim.phase_stats(Phase::Sparse2Dense).alloc_bytes, 0);
        // ...but edge-wise scheduling still bloats the cache.
        assert!(ctx.sim.phase_stats(Phase::Aggregation).cache_loaded_bytes > 0);
    }

    #[test]
    fn dl_edge_weight_allocates_two_copies() {
        let l = layer();
        let x = Matrix::zeros(4, 8);
        let w = DlEdgeWeight::new(l, EdgeOp::ElemMul);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let out = w.forward(&[Operand::Dense(&x)], &mut ctx);
        assert_eq!(out.rows(), 4);
        assert_eq!(ctx.sim.phase_stats(Phase::Sparse2Dense).alloc_bytes, 256);
    }

    #[test]
    fn oom_latches_on_tiny_device() {
        // 64 MiB device; build a bloat larger than that.
        let edges: Vec<(u32, u32)> = (1..5000u32).map(|s| (s, 0)).collect();
        let coo = Coo::from_edges(5000, &edges);
        let (csr_full, _) = coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=1].to_vec(), csr_full.srcs.clone());
        let (csc, _) = coo_to_csc(&coo);
        let l = Arc::new(LayerGraph {
            csr,
            csc,
            num_dst: 1,
            num_src: 5000,
        });
        let x = Matrix::zeros(5000, 4096); // 2 × 5000 edges × 16 KiB ≈ 156 MB
        let dl = DlEdgeWeight::new(l, EdgeOp::ElemMul);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let _ = dl.forward(&[Operand::Dense(&x)], &mut ctx);
        assert!(ctx.sim.memory.oom().is_some());
    }
}
