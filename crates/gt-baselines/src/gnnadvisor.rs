//! What GNNAdvisor pays: neighbor-group partitioning (§VI-A).
//!
//! GNNAdvisor "partitions neighbors into multiple neighbor groups and
//! allocates them to different SMs, which makes multiple SMs updating the
//! same output vector of a dst, thereby requiring synchronization". That
//! balances load when training on a *full* power-law graph, but sampled
//! subgraphs are already balanced (Fig 8), so here it only costs: the dst
//! row is resident in several SMs, partial sums are written back with
//! atomics, and an extra reduction pass merges them.
//!
//! GNNAdvisor has no weighted aggregation and no edge-weighting primitive;
//! NGCF falls back to the DL-approach ops (`crate::priced`).

use gt_sample::LayerGraph;
use gt_sim::{CacheSim, KernelStats};

/// Neighbors per group; GNNAdvisor tunes this for full-graph hubs, which
/// over-partitions the shallow degrees of sampled subgraphs.
const GROUP_SIZE: usize = 4;

/// Neighbor-grouped aggregation's work over `layer`, per direction.
pub(crate) fn stats(layer: &LayerGraph, f: usize, num_sms: usize) -> KernelStats {
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

#[cfg(test)]
mod tests {
    use crate::frameworks::BaselineKind::GnnAdvisor;
    use crate::priced::{Kernel, Priced};
    use crate::test_layer;
    use gt_core::napa::Pull;
    use gt_sample::LayerGraph;
    use gt_tensor::dense::Matrix;
    use gt_tensor::dfg::{ExecCtx, Op, Operand};
    use gt_tensor::sparse::Reduce;
    use std::sync::Arc;

    /// One dst with 12 neighbors → 3 groups of 4.
    fn layer() -> Arc<LayerGraph> {
        let edges: Vec<(u32, u32)> = (1..13u32).map(|s| (s, 0)).collect();
        test_layer(13, 1, &edges)
    }

    /// GNNAdvisor's (unweighted) aggregation.
    fn neighbor_group_aggregate(l: Arc<LayerGraph>) -> Priced {
        Priced::new(GnnAdvisor, Kernel::Pull(Pull::new(l, Reduce::Mean)))
    }

    #[test]
    fn grouping_duplicates_dst_rows() {
        let l = layer();
        let adv_stats = neighbor_group_aggregate(Arc::clone(&l)).stats(8, 8);
        let napa_stats = Pull::new(l, Reduce::Mean).forward_stats(8, 8);
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
        let adv = neighbor_group_aggregate(Arc::clone(&l));
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut params = ParamStore::new();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let got = adv.forward(&[Operand::Dense(&x)], &mut ctx);
        let want = Pull::new(l, Reduce::Mean).compute(&x, None);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }
}
