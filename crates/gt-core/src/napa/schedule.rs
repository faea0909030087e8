//! Cache accounting for destination-centric, feature-wise thread scheduling
//! (Fig 9a).
//!
//! NAPA assigns all features of one destination to one SM (thread blocks are
//! indexed by dst and land on SM `dst % num_sms`). A destination's own
//! embedding is therefore loaded exactly once, and a source embedding is
//! loaded once per SM that references it — far fewer duplicates than
//! edge-wise scheduling, where every edge is its own block and a hub
//! vertex's embedding lands on many SMs (the cache bloat of §III).

use gt_sample::LayerGraph;
use gt_sim::CacheSim;

/// Cache traffic of a feature-wise, dst-centric kernel over `layer`:
/// each dst's block touches its own row and every src row.
/// Returns the populated [`CacheSim`].
pub fn feature_wise_cache(layer: &LayerGraph, row_bytes: u64, num_sms: usize) -> CacheSim {
    let mut cache = CacheSim::new(num_sms);
    for (d, srcs) in layer.csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let block = d as usize; // one block per destination
        cache.touch_block(block, d as u64, row_bytes);
        for &s in srcs {
            cache.touch_block(block, s as u64, row_bytes);
        }
    }
    cache
}

/// Rows [`feature_wise_cache`] loads, in closed form: `loaded_bytes()` of
/// that cache is this count times the row size. A row is loaded once per SM
/// that touches it — SM `d % num_sms` for each destination `d` it feeds,
/// plus its own SM if it is a destination with sources — so one pass over
/// the CSC with a `num_sms`-bit mask per row counts them with no hashing.
/// This is what `Pull` and `NeighborApply` charge per batch; the set model
/// stays as the definition it is tested against.
pub fn feature_wise_loaded_rows(layer: &LayerGraph, num_sms: usize) -> u64 {
    assert!(num_sms > 0, "device must have at least one SM");
    let (csr, csc) = (&layer.csr, &layer.csc);
    let sms = u32::try_from(num_sms).expect("SM count fits the vertex id type");
    let mut mask = vec![0u64; num_sms.div_ceil(64)];
    let mut rows = 0u64;
    for r in 0..csc.num_vertices().max(csr.num_vertices()) as u32 {
        mask.fill(0);
        let mut touch = |d: u32| {
            let sm = d % sms;
            mask[(sm / 64) as usize] |= 1 << (sm % 64);
        };
        if (r as usize) < csc.num_vertices() {
            csc.dsts(r).iter().for_each(|&d| touch(d));
        }
        if (r as usize) < csr.num_vertices() && csr.degree(r) > 0 {
            touch(r);
        }
        rows += mask.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    }
    rows
}

/// Cache traffic of an *edge-wise* kernel over the same layer: each edge is
/// its own block, touching its src and dst rows (Graph-approach, Fig 5c
/// bottom). Exposed here so benches can contrast the two policies directly;
/// the baselines crate uses it for DGL-style kernels.
pub fn edge_wise_cache(layer: &LayerGraph, row_bytes: u64, num_sms: usize) -> CacheSim {
    let mut cache = CacheSim::new(num_sms);
    let mut block = 0usize;
    for (d, srcs) in layer.csr.iter() {
        for &s in srcs {
            cache.touch_block(block, d as u64, row_bytes);
            cache.touch_block(block, s as u64, row_bytes);
            block += 1;
        }
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HFn;
    use crate::data::GraphData;
    use crate::napa::Pull;
    use crate::prepro::run_prepro;
    use gt_graph::{Coo, Csc, Csr};
    use gt_sample::SamplerConfig;
    use gt_sim::{prop, DeviceSpec, KernelStats, Phase, SimContext};
    use gt_tensor::dense::Matrix;
    use gt_tensor::dfg::{ExecCtx, ParamStore};
    use gt_tensor::sparse::{EdgeOp, Reduce};
    use std::sync::Arc;

    /// A layer over `num_src >= num_dst` ids from `(src, dst)` pairs.
    fn layer_from_edges(num_dst: usize, num_src: usize, edges: &[(u32, u32)]) -> LayerGraph {
        let coo = Coo::from_edges(num_src, edges);
        let (csr_full, _) = gt_graph::convert::coo_to_csr(&coo);
        let csr = Csr::new(csr_full.indptr[..=num_dst].to_vec(), csr_full.srcs.clone());
        let (csc, _) = gt_graph::convert::coo_to_csc(&coo);
        LayerGraph {
            csr,
            csc: Csc::new(csc.indptr, csc.dsts),
            num_dst,
            num_src,
        }
    }

    /// A hub layer: many dsts all reading src 0, plus per-dst self rows.
    fn hub_layer(dsts: usize) -> LayerGraph {
        let mut edges = Vec::new();
        for d in 0..dsts as u32 {
            edges.push((dsts as u32, d)); // hub src = id `dsts`
            edges.push((d, d)); // self loop
        }
        layer_from_edges(dsts, dsts + 1, &edges)
    }

    /// What the kernels charge equals the set model it replaced, on hubs,
    /// empty destinations, isolated sources, `num_dst == num_src` and
    /// sampled layers of two generators, below and above one mask word.
    /// One Pull per layer charges every SM count in turn: the count it
    /// keeps from the first is never handed out for another, and each of
    /// its charges — forward, edge weighting, its backward — equals a fresh
    /// count.
    #[test]
    fn loaded_rows_closed_form_equals_the_set_model() {
        prop::check("feature_wise_loaded_rows", prop::CASES, |g| {
            let layers = match g.below(6) {
                0 | 1 => {
                    let seed = g.next_u64();
                    let data = if g.below(2) == 0 {
                        GraphData::synthetic(200, 2400, 4, 3, seed)
                    } else {
                        GraphData::synthetic_learnable(200, 2400, 4, 3, seed)
                    };
                    let batch = g.vec(1..40, |g| g.range(0..200) as u32);
                    let cfg = SamplerConfig {
                        fanout: g.range(1..8),
                        layers: 2,
                        seed,
                        ..Default::default()
                    };
                    run_prepro(&data, &batch, &cfg).layers
                }
                2 => vec![Arc::new(hub_layer(g.range(1..200)))],
                _ => {
                    let num_dst = g.range(0..150);
                    let num_src = (num_dst + g.range(0..3) * g.range(0..100)).max(1);
                    let edges = if num_dst == 0 {
                        Vec::new()
                    } else {
                        g.vec(0..600, |g| {
                            (g.range(0..num_src) as u32, g.range(0..num_dst) as u32)
                        })
                    };
                    vec![Arc::new(layer_from_edges(num_dst, num_src, &edges))]
                }
            };
            let row_bytes = g.range(1..20_000) as u64;
            let feat_dim = g.range(1..300);
            for layer in &layers {
                let pull =
                    Pull::edge_weighted(Arc::clone(layer), Reduce::Mean, EdgeOp::ElemMul, HFn::Add);
                for num_sms in [82, 1, 4, 82, 64, 130] {
                    let at = format!(
                        "{} dst, {} src, {} edges, {num_sms} SMs",
                        layer.num_dst,
                        layer.num_src,
                        layer.num_edges()
                    );
                    let rows = feature_wise_loaded_rows(layer, num_sms);
                    assert_eq!(
                        rows * row_bytes,
                        feature_wise_cache(layer, row_bytes, num_sms).loaded_bytes(),
                        "{at}"
                    );
                    let loaded = rows * (feat_dim * 4) as u64;
                    let charged = |stats: KernelStats| stats.cache_loaded_bytes;
                    assert_eq!(
                        charged(pull.forward_stats(feat_dim, num_sms)),
                        loaded,
                        "{at}"
                    );
                    let mut sim = SimContext::new(DeviceSpec {
                        num_sms,
                        ..DeviceSpec::tiny()
                    });
                    let mut params = ParamStore::new();
                    let mut ctx = ExecCtx {
                        sim: &mut sim,
                        params: &mut params,
                    };
                    pull.charge_edge_weighting(feat_dim, &mut ctx);
                    let fwd = charged(ctx.sim.phase_stats(Phase::EdgeWeighting));
                    assert_eq!(fwd, loaded, "{at}");
                    let dx = Matrix::zeros(layer.num_src, feat_dim);
                    pull.charge_edge_weighting_backward(&dx, &mut ctx);
                    let both = charged(ctx.sim.phase_stats(Phase::EdgeWeighting));
                    assert_eq!(both, 2 * loaded, "{at}");
                }
            }
        });
    }

    #[test]
    fn feature_wise_loads_less_than_edge_wise() {
        let layer = hub_layer(64);
        let fw = feature_wise_cache(&layer, 256, 8);
        let ew = edge_wise_cache(&layer, 256, 8);
        assert!(
            fw.loaded_bytes() <= ew.loaded_bytes(),
            "feature-wise {} > edge-wise {}",
            fw.loaded_bytes(),
            ew.loaded_bytes()
        );
        // The hub row gets duplicated across SMs either way, but edge-wise
        // also duplicates dst rows; with one block per dst, feature-wise
        // loads each dst row exactly once.
        assert!(ew.duplicate_rows() > fw.duplicate_rows());
    }

    #[test]
    fn single_sm_has_no_bloat() {
        let layer = hub_layer(16);
        let fw = feature_wise_cache(&layer, 100, 1);
        assert_eq!(fw.duplicate_rows(), 0);
        assert_eq!(fw.unique_rows(), 17);
    }

    #[test]
    fn dst_rows_loaded_once_feature_wise() {
        let layer = hub_layer(32);
        let fw = feature_wise_cache(&layer, 1, 4);
        // unique rows = 33 (32 dsts + hub); duplicates only from the hub
        // row appearing on up to 4 SMs.
        assert!(fw.duplicate_rows() <= 3);
    }
}
