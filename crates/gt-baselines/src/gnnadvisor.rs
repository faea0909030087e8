//! GNNAdvisor-style aggregation: neighbor-group partitioning (§VI-A).
//!
//! GNNAdvisor "partitions neighbors into multiple neighbor groups and
//! allocates them to different SMs, which makes multiple SMs updating the
//! same output vector of a dst, thereby requiring synchronization". That
//! balances load when training on a *full* power-law graph, but sampled
//! subgraphs are already balanced (Fig 8), so here it only costs: the dst
//! row is resident in several SMs, partial sums are written back with
//! atomics, and an extra reduction pass merges them.
//!
//! GNNAdvisor has no edge-weighting primitive; NGCF's `g` falls back to
//! the DL-approach ops (see `frameworks.rs`).

use gt_core::napa::Pull;
use gt_sample::LayerGraph;
use gt_sim::{CacheSim, KernelStats, Phase};
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::{ExecCtx, Op, Operand};
use gt_tensor::sparse::Reduce;
use std::sync::Arc;

/// Neighbors per group; GNNAdvisor tunes this for full-graph hubs, which
/// over-partitions the shallow degrees of sampled subgraphs.
pub const GROUP_SIZE: usize = 4;

/// GNNAdvisor aggregation with neighbor grouping.
#[derive(Debug, Clone)]
pub struct NeighborGroupAggregate {
    /// Reference numerics.
    pub pull: Pull,
}

impl NeighborGroupAggregate {
    /// Unweighted aggregation over `layer`.
    pub fn new(layer: Arc<LayerGraph>, agg: Reduce) -> Self {
        NeighborGroupAggregate {
            pull: Pull::new(layer, agg),
        }
    }

    /// Work charged per direction.
    pub fn stats(&self, f: usize, num_sms: usize) -> KernelStats {
        let layer = &self.pull.layer;
        let rb = (f * 4) as u64;
        let mut cache = CacheSim::new(num_sms);
        let mut block = 0usize;
        let mut groups_total = 0u64;
        for (d, srcs) in layer.csr.iter() {
            for group in srcs.chunks(GROUP_SIZE) {
                // Each neighbor group is its own block: the dst row lands
                // on every SM that hosts one of its groups.
                cache.touch_block(block, d as u64, rb);
                for &s in group {
                    cache.touch_block(block, s as u64, rb);
                }
                block += 1;
                groups_total += 1;
            }
        }
        let e = layer.csr.num_edges() as u64;
        KernelStats {
            flops: e * f as u64 + groups_total * f as u64, // + merge pass
            global_read_bytes: cache.loaded_bytes() + layer.csr.storage_bytes(),
            // Atomic partial-sum write per group, then the merged output.
            global_write_bytes: (groups_total + layer.num_dst as u64) * rb,
            cache_loaded_bytes: cache.loaded_bytes(),
            launches: 2, // aggregation + synchronization/merge kernel
            ..Default::default()
        }
    }
}

impl Op for NeighborGroupAggregate {
    fn name(&self) -> &str {
        "neighbor_group_aggregate"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let x = inputs[0].dense();
        let out = self.pull.compute(x, None);
        let stats = self.stats(x.cols(), ctx.sim.device().num_sms);
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
        let x = inputs[0].dense();
        let (dx, _) = self.pull.compute_backward(x, None, grad);
        let mut stats = self.stats(x.cols(), ctx.sim.device().num_sms);
        stats.global_write_bytes = dx.bytes();
        ctx.sim.record_gpu(Phase::Aggregation, stats);
        vec![Some(dx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::convert::{coo_to_csc, coo_to_csr};
    use gt_graph::{Coo, Csr};

    /// One dst with 12 neighbors → 3 groups of 4.
    fn layer() -> Arc<LayerGraph> {
        let edges: Vec<(u32, u32)> = (1..13u32).map(|s| (s, 0)).collect();
        let coo = Coo::from_edges(13, &edges);
        let (csr_full, _) = coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=1].to_vec(), csr_full.srcs.clone());
        let (csc, _) = coo_to_csc(&coo);
        Arc::new(LayerGraph {
            csr,
            csc,
            num_dst: 1,
            num_src: 13,
        })
    }

    #[test]
    fn grouping_duplicates_dst_rows() {
        let l = layer();
        let adv = NeighborGroupAggregate::new(Arc::clone(&l), Reduce::Sum);
        let adv_stats = adv.stats(8, 8);
        let napa_stats = adv.pull.forward_stats(8, 8);
        // 3 groups on (up to) 3 SMs load the dst row up to 3×; NAPA once.
        assert!(adv_stats.cache_loaded_bytes > napa_stats.cache_loaded_bytes);
        // Sync/merge writes exceed NAPA's single output write.
        assert!(adv_stats.global_write_bytes > napa_stats.global_write_bytes);
        assert_eq!(adv_stats.launches, 2);
    }

    #[test]
    fn numerics_still_match() {
        use gt_sim::{DeviceSpec, SimContext};
        use gt_tensor::dfg::ParamStore;
        let l = layer();
        let x = Matrix::from_fn(13, 2, |r, _| r as f32);
        let adv = NeighborGroupAggregate::new(Arc::clone(&l), Reduce::Mean);
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut params = ParamStore::new();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let got = adv.forward(&[Operand::Dense(&x)], &mut ctx);
        let want = adv.pull.compute(&x, None);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }
}
