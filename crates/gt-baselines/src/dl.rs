//! What the DL approach (PyG, PyG-MT, SALIENT) pays: dense scatter ops and
//! sparse→dense conversion where DL user code needs it (§III, Fig 5a).
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

use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dfg::ExecCtx;

/// Charge the sparse→dense conversion of `copies` dense edge-matrices
/// (each `num_edges × f`), leaving them allocated; returns the bloat bytes.
pub(crate) fn charge_sparse2dense(
    layer: &LayerGraph,
    f: usize,
    copies: u64,
    ctx: &mut ExecCtx,
) -> u64 {
    let bloat = copies * layer.csr.num_edges() as u64 * (f * 4) as u64;
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

#[cfg(test)]
mod tests {
    use crate::frameworks::BaselineKind::Pyg;
    use crate::priced::{Kernel, Priced};
    use crate::test_layer;
    use gt_core::napa::{NeighborApply, Pull};
    use gt_sample::LayerGraph;
    use gt_sim::{DeviceSpec, Phase, SimContext};
    use gt_tensor::dense::Matrix;
    use gt_tensor::dfg::{ExecCtx, Op, Operand, ParamStore};
    use gt_tensor::sparse::{EdgeOp, Reduce};
    use std::sync::Arc;

    fn layer() -> Arc<LayerGraph> {
        test_layer(4, 2, &[(1, 0), (2, 0), (3, 1), (0, 1)])
    }

    fn ctx_parts() -> (SimContext, ParamStore) {
        (SimContext::new(DeviceSpec::tiny()), ParamStore::new())
    }

    /// PyG's aggregation.
    fn dl_aggregate(l: Arc<LayerGraph>) -> Priced {
        Priced::new(Pyg, Kernel::Pull(Pull::new(l, Reduce::Mean)))
    }

    /// PyG's edge weighting.
    fn dl_edge_weight(l: Arc<LayerGraph>) -> Priced {
        Priced::new(
            Pyg,
            Kernel::NeighborApply(NeighborApply::new(l, EdgeOp::ElemMul)),
        )
    }

    #[test]
    fn dl_aggregate_matches_napa_numerics() {
        let l = layer();
        let x = Matrix::from_vec(4, 2, vec![1., 1., 2., 2., 3., 3., 4., 4.]);
        let dl = dl_aggregate(Arc::clone(&l));
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
        let dl = dl_aggregate(l);
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
        let w = dl_edge_weight(l);
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
        let l = test_layer(5000, 1, &edges);
        let x = Matrix::zeros(5000, 4096); // 2 × 5000 edges × 16 KiB ≈ 156 MB
        let dl = dl_edge_weight(l);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let _ = dl.forward(&[Operand::Dense(&x)], &mut ctx);
        assert!(ctx.sim.memory.oom().is_some());
    }
}
