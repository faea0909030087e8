//! Graph-approach kernels (DGL-style): COO-resident SpMM/SDDMM simulation
//! with edge-wise thread scheduling (§III, Fig 5b/5c).
//!
//! The framework keeps the sampled subgraphs in COO. Forward aggregation
//! needs "src node information per dst vertex", so each layer pays a
//! COO→CSR device sort before SpMM; backward needs the transpose, paying
//! COO→CSC (Fig 16a: translation is 64.5% of DGL's GCN time on products).
//! Both SpMM and SDDMM allocate one thread block per *edge*, so embeddings
//! of shared endpoints are loaded into many SMs — the cache bloat of
//! Fig 6b (+81.9% loaded data on average).

use gt_core::config::HFn;
use gt_core::napa::schedule::edge_wise_cache;
use gt_core::napa::{NeighborApply, Pull};
use gt_graph::convert::translation_stats;
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::{ExecCtx, Op, Operand};
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::Arc;

fn row_bytes(f: usize) -> u64 {
    (f * 4) as u64
}

/// Charge one COO→CSR (or CSC) translation for `layer`.
fn charge_translation(layer: &LayerGraph, ctx: &mut ExecCtx) {
    let stats = translation_stats(layer.csr.num_edges() as u64, layer.num_src as u64);
    let _ = ctx.sim.memory.alloc(stats.alloc_bytes);
    ctx.sim.record_gpu(Phase::FormatTranslation, stats);
    // Sort temporaries die after the translation; the structure stays.
    let e = layer.csr.num_edges() as u64;
    ctx.sim.memory.free(2 * e * 4);
}

/// Edge-wise SpMM work: cache bloat + atomic per-edge output updates.
fn edge_wise_agg_stats(layer: &LayerGraph, f: usize, num_sms: usize) -> KernelStats {
    let cache = edge_wise_cache(layer, row_bytes(f), num_sms);
    let e = layer.csr.num_edges() as u64;
    KernelStats {
        flops: e * f as u64,
        global_read_bytes: cache.loaded_bytes() + layer.csr.storage_bytes(),
        // Atomic accumulation writes once per edge, not once per dst.
        global_write_bytes: e * row_bytes(f),
        cache_loaded_bytes: cache.loaded_bytes(),
        launches: 1,
        ..Default::default()
    }
}

/// Graph-approach aggregation (SpMM over simulated sparse matrix).
#[derive(Debug, Clone)]
pub struct EdgeWiseAggregate {
    /// Reference numerics (subgraph + modes).
    pub pull: Pull,
    /// Charge COO→CSR/CSC translations (DGL keeps COO resident). ROC keeps
    /// CSR resident, so its SpMM skips the translation.
    pub translate: bool,
}

impl EdgeWiseAggregate {
    /// Unweighted aggregation with per-direction COO translations (DGL).
    pub fn new(layer: Arc<LayerGraph>, agg: Reduce) -> Self {
        EdgeWiseAggregate {
            pull: Pull::new(layer, agg),
            translate: true,
        }
    }

    /// Weighted aggregation with translations (DGL).
    pub fn weighted(layer: Arc<LayerGraph>, agg: Reduce, h: HFn) -> Self {
        EdgeWiseAggregate {
            pull: Pull::weighted(layer, agg, h),
            translate: true,
        }
    }

    /// Unweighted aggregation over resident CSR (ROC).
    pub fn without_translation(layer: Arc<LayerGraph>, agg: Reduce) -> Self {
        EdgeWiseAggregate {
            pull: Pull::new(layer, agg),
            translate: false,
        }
    }

    /// Weighted aggregation over resident CSR (ROC).
    pub fn weighted_no_translation(layer: Arc<LayerGraph>, agg: Reduce, h: HFn) -> Self {
        EdgeWiseAggregate {
            pull: Pull::weighted(layer, agg, h),
            translate: false,
        }
    }
}

impl Op for EdgeWiseAggregate {
    fn name(&self) -> &str {
        "edge_wise_aggregate"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        // FWP SpMM wants CSR; COO-resident frameworks translate first.
        if self.translate {
            charge_translation(&self.pull.layer, ctx);
        }
        let (x, w) = (
            inputs[0].dense(),
            inputs.get(1).copied().map(Operand::dense),
        );
        let out = self.pull.compute(x, w);
        let stats = edge_wise_agg_stats(&self.pull.layer, x.cols(), ctx.sim.device().num_sms);
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
        // BWP traverses dst→src: translate to CSC (Fig 3b) — needed by
        // both COO-resident (DGL) and CSR-resident (ROC) frameworks.
        charge_translation(&self.pull.layer, ctx);
        let (x, w) = (
            inputs[0].dense(),
            inputs.get(1).copied().map(Operand::dense),
        );
        let (dx, dw) = self.pull.compute_backward(x, w, grad);
        let mut stats = edge_wise_agg_stats(&self.pull.layer, x.cols(), ctx.sim.device().num_sms);
        stats.global_write_bytes = dx.bytes() + dw.as_ref().map_or(0, |w| w.bytes());
        ctx.sim.record_gpu(Phase::Aggregation, stats);
        if self.pull.h.is_some() {
            vec![Some(dx), dw]
        } else {
            vec![Some(dx)]
        }
    }
}

/// Graph-approach edge weighting (SDDMM), edge-wise scheduled: COO is
/// already the right format (no translation), but every edge block loads
/// both endpoint embeddings → maximal cache bloat (the Fig 6b measurement).
#[derive(Debug, Clone)]
pub struct EdgeWiseEdgeWeight {
    /// Reference numerics (subgraph + `g`).
    pub na: NeighborApply,
    /// Charge a CSR→COO translation before SDDMM (ROC, §VII).
    pub translate: bool,
}

impl EdgeWiseEdgeWeight {
    /// Weight `layer`'s edges with `g`, edge-wise (COO resident — DGL).
    pub fn new(layer: Arc<LayerGraph>, g: EdgeOp) -> Self {
        EdgeWiseEdgeWeight {
            na: NeighborApply::new(layer, g),
            translate: false,
        }
    }

    /// Edge weighting that must first expand CSR→COO (ROC).
    pub fn with_translation(layer: Arc<LayerGraph>, g: EdgeOp) -> Self {
        EdgeWiseEdgeWeight {
            na: NeighborApply::new(layer, g),
            translate: true,
        }
    }

    /// Work charged per direction (forward/backward symmetric).
    pub fn stats(&self, f: usize, num_sms: usize) -> KernelStats {
        let layer = &self.na.layer;
        let cache = edge_wise_cache(layer, row_bytes(f), num_sms);
        let e = layer.csr.num_edges() as u64;
        KernelStats {
            flops: e * f as u64,
            global_read_bytes: cache.loaded_bytes() + layer.csr.storage_bytes(),
            global_write_bytes: e * row_bytes(f),
            cache_loaded_bytes: cache.loaded_bytes(),
            launches: 1,
            ..Default::default()
        }
    }
}

impl Op for EdgeWiseEdgeWeight {
    fn name(&self) -> &str {
        "edge_wise_edge_weight"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        if self.translate {
            charge_translation(&self.na.layer, ctx);
        }
        let x = inputs[0].dense();
        let out = self.na.compute(x);
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
        let dx = self.na.compute_backward(x, grad);
        let mut stats = self.stats(x.cols(), ctx.sim.device().num_sms);
        stats.global_write_bytes = dx.bytes();
        ctx.sim.record_gpu(Phase::EdgeWeighting, stats);
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
        // A hub: dsts 0..8 all read src 8 → edge-wise duplicates row 8.
        let mut edges: Vec<(u32, u32)> = (0..8u32).map(|d| (8, d)).collect();
        edges.extend((0..8u32).map(|d| (d, d)));
        let coo = Coo::from_edges(9, &edges);
        let (csr_full, _) = coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=8].to_vec(), csr_full.srcs.clone());
        let (csc, _) = coo_to_csc(&coo);
        Arc::new(LayerGraph {
            csr,
            csc,
            num_dst: 8,
            num_src: 9,
        })
    }

    fn ctx_parts() -> (SimContext, ParamStore) {
        (SimContext::new(DeviceSpec::tiny()), ParamStore::new())
    }

    #[test]
    fn aggregation_charges_translation_each_direction() {
        let l = layer();
        let x = Matrix::zeros(9, 4);
        let agg = EdgeWiseAggregate::new(l, Reduce::Mean);
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
        let ew = EdgeWiseEdgeWeight::new(Arc::clone(&l), EdgeOp::ElemMul);
        let ew_stats = ew.stats(16, 4);
        let napa_stats = ew.na.stats(16, 4);
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
        let agg = EdgeWiseAggregate::new(Arc::clone(&l), Reduce::Mean);
        let napa = Pull::new(Arc::clone(&l), Reduce::Mean);
        assert!(
            agg.forward(&[Operand::Dense(&x)], &mut ctx)
                .max_abs_diff(&napa.compute(&x, None))
                < 1e-6
        );
        let ew = EdgeWiseEdgeWeight::new(Arc::clone(&l), EdgeOp::ElemMul);
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
        let ew = EdgeWiseEdgeWeight::new(l, EdgeOp::ElemMul);
        let (mut sim, mut params) = ctx_parts();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let _ = ew.forward(&[Operand::Dense(&x)], &mut ctx);
        assert_eq!(ctx.sim.phase_stats(Phase::Sparse2Dense).alloc_bytes, 0);
    }
}
