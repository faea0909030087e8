//! What the Graph approach (DGL, FeatGraph, G3; ROC) pays: format
//! translations and edge-wise SpMM/SDDMM scheduling (§III, Fig 5b/5c).
//!
//! DGL keeps the sampled subgraphs in COO. Forward aggregation needs "src
//! node information per dst vertex", so each layer pays a COO→CSR device
//! sort before SpMM; backward needs the transpose, paying COO→CSC (Fig 16a:
//! translation is 64.5% of DGL's GCN time on products). ROC keeps CSR
//! resident, so its forward SpMM skips the sort, but backward still wants
//! CSC and SDDMM expands CSR→COO first (§VII). Both SpMM and SDDMM
//! allocate one thread block per *edge*, so embeddings of shared endpoints
//! are loaded into many SMs — the cache bloat of Fig 6b (+81.9% loaded
//! data on average).

use gt_graph::convert::translation_stats;
use gt_sample::LayerGraph;
use gt_sim::Phase;
use gt_tensor::dfg::ExecCtx;

/// Charge one COO→CSR (or CSC, or CSR→COO) translation for `layer`.
pub(crate) fn charge_translation(layer: &LayerGraph, ctx: &mut ExecCtx) {
    let e = layer.csr.num_edges() as u64;
    let stats = translation_stats(e, layer.num_src as u64);
    let _ = ctx.sim.memory.alloc(stats.alloc_bytes);
    ctx.sim.record_gpu(Phase::FormatTranslation, stats);
    // Sort temporaries die after the translation; the structure stays.
    ctx.sim.memory.free(2 * e * 4);
}

#[cfg(test)]
mod tests {
    use crate::frameworks::BaselineKind::Dgl;
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
        // A hub: dsts 0..8 all read src 8 → edge-wise duplicates row 8.
        let mut edges: Vec<(u32, u32)> = (0..8u32).map(|d| (8, d)).collect();
        edges.extend((0..8u32).map(|d| (d, d)));
        test_layer(9, 8, &edges)
    }

    fn ctx_parts() -> (SimContext, ParamStore) {
        (SimContext::new(DeviceSpec::tiny()), ParamStore::new())
    }

    /// DGL's aggregation.
    fn edge_wise_aggregate(l: Arc<LayerGraph>) -> Priced {
        Priced::new(Dgl, Kernel::Pull(Pull::new(l, Reduce::Mean)))
    }

    /// DGL's edge weighting.
    fn edge_wise_edge_weight(l: Arc<LayerGraph>) -> Priced {
        Priced::new(
            Dgl,
            Kernel::NeighborApply(NeighborApply::new(l, EdgeOp::ElemMul)),
        )
    }

    #[test]
    fn aggregation_charges_translation_each_direction() {
        let l = layer();
        let x = Matrix::zeros(9, 4);
        let agg = edge_wise_aggregate(l);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let out = agg.forward(&[Operand::Dense(&x)], &mut ctx);
        assert!(ctx.sim.phase_us(Phase::FormatTranslation) > 0.0);
        let fwd_translation = ctx.sim.phase_us(Phase::FormatTranslation);
        let g = Matrix::zeros(out.rows(), out.cols());
        agg.backward(&[Operand::Dense(&x)], &out, &g, &mut ctx);
        assert!(ctx.sim.phase_us(Phase::FormatTranslation) > fwd_translation * 1.9);
    }

    #[test]
    fn edge_wise_cache_bloat_exceeds_napa() {
        let l = layer();
        let ew_stats = edge_wise_edge_weight(Arc::clone(&l)).stats(16, 4);
        let napa_stats = NeighborApply::new(l, EdgeOp::ElemMul).stats(16, 4);
        assert!(
            ew_stats.cache_loaded_bytes > napa_stats.cache_loaded_bytes,
            "edge-wise {} !> feature-wise {}",
            ew_stats.cache_loaded_bytes,
            napa_stats.cache_loaded_bytes
        );
    }

    #[test]
    fn numerics_match_napa() {
        let l = layer();
        let x = Matrix::from_fn(9, 3, |r, c| (r * 3 + c) as f32);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let agg = edge_wise_aggregate(Arc::clone(&l));
        let napa = Pull::new(Arc::clone(&l), Reduce::Mean);
        assert!(
            agg.forward(&[Operand::Dense(&x)], &mut ctx)
                .max_abs_diff(&napa.compute(&x, None))
                < 1e-6
        );
        let ew = edge_wise_edge_weight(Arc::clone(&l));
        let napa_w = NeighborApply::new(l, EdgeOp::ElemMul);
        assert!(
            ew.forward(&[Operand::Dense(&x)], &mut ctx)
                .max_abs_diff(&napa_w.compute(&x))
                < 1e-6
        );
    }

    #[test]
    fn no_memory_bloat_for_graph_approach() {
        let l = layer();
        let x = Matrix::zeros(9, 4);
        let ew = edge_wise_edge_weight(l);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let _ = ew.forward(&[Operand::Dense(&x)], &mut ctx);
        assert_eq!(ctx.sim.phase_stats(Phase::Sparse2Dense).alloc_bytes, 0);
    }
}
