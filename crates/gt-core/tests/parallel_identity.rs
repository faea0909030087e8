//! Property tests for the pool determinism contract (docs/parallelism.md):
//! preprocessing and the NAPA kernels must produce **bit-identical** output
//! at any worker count — `GT_THREADS=8` equals `GT_THREADS=1` exactly — and
//! repeated runs with the same seed must agree.

use gt_core::data::GraphData;
use gt_core::napa::{NeighborApply, Pull};
use gt_core::prepro::{run_prepro_with_pool, PreproResult};
use gt_par::ThreadPool;
use gt_sample::SamplerConfig;
use gt_sim::prop::{check, CASES};
use gt_tensor::dense::Matrix;
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::OnceLock;

/// The widths under test; pools are created once (their workers persist).
fn pools() -> &'static [&'static ThreadPool; 3] {
    static POOLS: OnceLock<[&'static ThreadPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| {
        [
            ThreadPool::leaked(1),
            ThreadPool::leaked(2),
            ThreadPool::leaked(8),
        ]
    })
}

fn assert_same_prepro(a: &PreproResult, b: &PreproResult) {
    assert_eq!(a.new_to_orig, b.new_to_orig);
    assert_eq!(a.boundaries, b.boundaries);
    assert_eq!(a.features, b.features);
    assert_eq!(a.layers.len(), b.layers.len());
    for (x, y) in a.layers.iter().zip(&b.layers) {
        assert_eq!(x.csr, y.csr);
        assert_eq!(x.csc, y.csc);
        assert_eq!(x.num_dst, y.num_dst);
        assert_eq!(x.num_src, y.num_src);
    }
}

/// Whole-pipeline bit-identity: S, R, and K at widths 2 and 8 equal
/// width 1 exactly, and a same-seed re-run at width 1 is stable.
#[test]
fn prepro_is_bit_identical_across_widths() {
    check("prepro_is_bit_identical_across_widths", CASES, |g| {
        let seed = g.range(0..500) as u64;
        let (batch_len, fanout, layers) = (g.range(4..40), g.range(2..8), g.range(1..3));
        let data = GraphData::synthetic(300, 3000, 8, 4, seed);
        let batch: Vec<u32> = (0..batch_len as u32).collect();
        let cfg = SamplerConfig {
            fanout,
            layers,
            seed,
            ..Default::default()
        };
        let [p1, p2, p8] = pools();
        let serial = run_prepro_with_pool(&data, &batch, &cfg, p1);
        let rerun = run_prepro_with_pool(&data, &batch, &cfg, p1);
        assert_same_prepro(&serial, &rerun);
        for pool in [p2, p8] {
            let par = run_prepro_with_pool(&data, &batch, &cfg, pool);
            assert_same_prepro(&serial, &par);
        }
    });
}

/// NAPA kernel bit-identity: Pull forward/backward and NeighborApply
/// at widths 2 and 8 equal width 1 exactly (f32 `==`, not tolerance).
#[test]
fn napa_kernels_are_bit_identical_across_widths() {
    check("napa_kernels_are_bit_identical_across_widths", CASES, |g| {
        let (seed, dim) = (g.range(0..500) as u64, g.range(1..16));
        let data = GraphData::synthetic(200, 2000, dim, 3, seed);
        let batch: Vec<u32> = (0..16).collect();
        let cfg = SamplerConfig {
            fanout: 5,
            layers: 2,
            seed,
            ..Default::default()
        };
        let [p1, p2, p8] = pools();
        let pre = run_prepro_with_pool(&data, &batch, &cfg, p1);
        let layer = std::sync::Arc::clone(&pre.layers[0]);
        let feats = &pre.features;
        // Any deterministic non-uniform gradient.
        let mut grad = Matrix::zeros(layer.num_dst, dim);
        for (i, x) in grad.data_mut().iter_mut().enumerate() {
            *x = ((i % 7) as f32) - 3.0;
        }

        for agg in [Reduce::Sum, Reduce::Mean] {
            let pull1 = Pull::new(std::sync::Arc::clone(&layer), agg).with_pool(p1);
            let fwd1 = pull1.compute(feats, None);
            let (bwd1, _) = pull1.compute_backward(feats, None, &grad);
            for pool in [p2, p8] {
                let pull = Pull::new(std::sync::Arc::clone(&layer), agg).with_pool(pool);
                assert_eq!(pull.compute(feats, None).data(), fwd1.data());
                let (bwd, _) = pull.compute_backward(feats, None, &grad);
                assert_eq!(bwd.data(), bwd1.data());
            }
        }
        for op in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
            let na1 = NeighborApply::new(std::sync::Arc::clone(&layer), op).with_pool(p1);
            let ew1 = na1.compute(feats);
            for pool in [p2, p8] {
                let na = NeighborApply::new(std::sync::Arc::clone(&layer), op).with_pool(pool);
                assert_eq!(na.compute(feats).data(), ew1.data());
            }
        }
    });
}
