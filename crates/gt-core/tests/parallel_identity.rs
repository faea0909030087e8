//! Property tests for the pool determinism contract (docs/parallelism.md):
//! preprocessing and the NAPA kernels must produce **bit-identical** output
//! at any worker count — `GT_THREADS=8` equals `GT_THREADS=1` exactly — and
//! repeated runs with the same seed must agree.

use gt_core::config::HFn;
use gt_core::data::GraphData;
use gt_core::napa::{NeighborApply, Pull};
use gt_core::orchestrator::{apply_dkp, CostModel, DkpPair};
use gt_core::prepro::{run_prepro_with_pool, PreproResult};
use gt_core::trainer::DkpCounters;
use gt_par::ThreadPool;
use gt_sample::{LayerGraph, SamplerConfig};
use gt_sim::prop::{check, Gen, CASES};
use gt_sim::{DeviceSpec, KernelStats, Phase, SimContext};
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::{Dfg, ExecCtx, Linear, Operand, ParamStore};
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::{Arc, OnceLock};

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

/// A drawn layer with the shapes a kernel must survive whether or not a
/// sampler produces them: a destination with no edges, a self-loop, and a
/// duplicated `(s, d)` edge. CSR and CSC are both in drawn order, so CSC
/// rows are not in CSR order.
fn drawn_layer(g: &mut Gen) -> Arc<LayerGraph> {
    let num_dst = g.range(3..90);
    let num_src = num_dst + g.range(0..60);
    let empty = g.range(0..num_dst) as u32;
    let mut edges = g.vec(1..400, |g| {
        (g.range(0..num_src) as u32, g.range(0..num_dst) as u32)
    });
    edges.retain(|&(_, d)| d != empty);
    let looped = (empty + 1) % num_dst as u32;
    edges.push((looped, looped));
    edges.push(edges[g.range(0..edges.len())]);
    let coo = gt_graph::Coo::from_edges(num_src, &edges);
    let (csr_full, _) = gt_graph::convert::coo_to_csr(&coo);
    let csr = gt_graph::Csr::new(csr_full.indptr[..=num_dst].to_vec(), csr_full.srcs);
    let (csc, _) = gt_graph::convert::coo_to_csc(&coo);
    Arc::new(LayerGraph {
        csr,
        csc,
        num_dst,
        num_src,
    })
}

fn drawn_matrix(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| g.f64_in(-2.0..2.0) as f32);
    Matrix::from_vec(rows, cols, data.collect())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// The edge-weighted Pull against the two kernels it replaces on the host:
/// forward equals `NeighborApply::compute` → `Pull::weighted`, and the input
/// gradient equals `dx_pull + NeighborApply::compute_backward(d_weights)`,
/// bit for bit, for every mode and at every pool width.
#[test]
fn edge_weighted_pull_equals_neighbor_apply_then_pull() {
    check(
        "edge_weighted_pull_equals_neighbor_apply_then_pull",
        64,
        |g| {
            let layer = drawn_layer(g);
            let dim = g.range(1..40);
            let x = drawn_matrix(g, layer.num_src, dim);
            let grad = drawn_matrix(g, layer.num_dst, dim);
            let [p1, _, _] = pools();
            for op in [EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot] {
                let na = NeighborApply::new(Arc::clone(&layer), op).with_pool(p1);
                let w = na.compute(&x);
                for h in [HFn::Mul, HFn::Add] {
                    for agg in [Reduce::Sum, Reduce::Mean] {
                        let mode = format!("g={op:?} h={h:?} agg={agg:?}");
                        let two = Pull::weighted(Arc::clone(&layer), agg, h).with_pool(p1);
                        let fwd = two.compute(&x, Some(&w));
                        let (mut dx, dw) = two.compute_backward(&x, Some(&w), &grad);
                        dx.axpy(1.0, &na.compute_backward(&x, &dw.expect("weighted")));
                        for pool in pools() {
                            let one =
                                Pull::edge_weighted(Arc::clone(&layer), agg, op, h).with_pool(pool);
                            assert_eq!(bits(&one.compute(&x, None)), bits(&fwd), "{mode}");
                            let (got, dw) = one.compute_backward(&x, None, &grad);
                            assert_eq!(bits(&got), bits(&dx), "{mode}");
                            assert!(dw.is_none(), "{mode}: no weight input, no weight gradient");
                        }
                    }
                }
            }
        },
    );
}

/// What one forward + backward of `x → … → Linear` left in the device model
/// and in the parameter store.
#[derive(Debug, PartialEq)]
struct DeviceRun {
    /// Every kernel in issue order: phase, work, modeled latency bits.
    /// Per-phase `KernelStats` and times are sums over these.
    records: Vec<(Phase, KernelStats, u64)>,
    memory_peak: u64,
    out: Vec<u32>,
    dx: Option<Vec<u32>>,
    dw: Vec<u32>,
}

/// `one_node`: the edge-weighted Pull; otherwise NeighborApply → weighted
/// Pull. `dkp`: fuse Pull + Linear into a Cost-DKP node with that
/// `needs_input_grad`.
fn device_run(
    layer: &Arc<LayerGraph>,
    (op, h, agg): (EdgeOp, HFn, Reduce),
    x: &Matrix,
    w: &Matrix,
    one_node: bool,
    dkp: Option<bool>,
) -> DeviceRun {
    let mut params = ParamStore::new();
    params.register("w", w.clone());
    params.register("b", Matrix::zeros(1, w.cols()));
    let mut dfg = Dfg::new();
    let xn = dfg.input(0);
    let (pull, pull_node) = if one_node {
        let pull = Pull::edge_weighted(Arc::clone(layer), agg, op, h);
        let node = dfg.op(pull.clone(), &[xn]);
        (pull, node)
    } else {
        let na = dfg.op(NeighborApply::new(Arc::clone(layer), op), &[xn]);
        let pull = Pull::weighted(Arc::clone(layer), agg, h);
        let node = dfg.op(pull.clone(), &[xn, na]);
        (pull, node)
    };
    let linear_node = dfg.op(Linear::new("w", "b"), &[pull_node]);
    dfg.set_output(linear_node);
    if let Some(needs_input_grad) = dkp {
        let pair = DkpPair {
            pull_node,
            linear_node,
            pull,
            weight: "w".into(),
            bias: "b".into(),
            needs_input_grad,
        };
        let cost = Arc::new(CostModel::from_device(&DeviceSpec::tiny()));
        let counters = Arc::new(DkpCounters::default());
        apply_dkp(&mut dfg, vec![pair], &cost, true, &counters, None);
    }
    let mut sim = SimContext::new(DeviceSpec::tiny());
    let mut ctx = ExecCtx {
        sim: &mut sim,
        params: &mut params,
    };
    let values = dfg.forward(&[Operand::Dense(x)], &mut ctx);
    let out = values.get(linear_node).clone();
    let mut grad = out.clone();
    grad.scale(0.5);
    let dx = dfg.backward(&values, grad, &mut ctx).remove(0);
    DeviceRun {
        records: sim
            .records()
            .iter()
            .map(|r| (r.phase, r.stats, r.modeled_us.to_bits()))
            .collect(),
        memory_peak: sim.memory.peak(),
        out: bits(&out),
        dx: dx.as_ref().map(bits),
        dw: bits(params.grad("w").expect("weight gradient")),
    }
}

/// The device model does not see the host-side fusion: driven through the
/// edge-weighted Pull — as a plain DFG node, and inside a Cost-DKP node with
/// and without an input gradient — a `SimContext` records the kernels, the
/// per-phase work and the memory peak of the two-node graph.
#[test]
fn edge_weighted_pull_charges_the_device_like_two_kernels() {
    check(
        "edge_weighted_pull_charges_the_device_like_two_kernels",
        32,
        |g| {
            let layer = drawn_layer(g);
            let (dim, hid) = (g.range(1..24), g.range(1..12));
            let x = drawn_matrix(g, layer.num_src, dim);
            let w = drawn_matrix(g, dim, hid);
            let modes = (
                *g.pick(&[EdgeOp::ElemMul, EdgeOp::ElemAdd, EdgeOp::Dot]),
                *g.pick(&[HFn::Mul, HFn::Add]),
                *g.pick(&[Reduce::Sum, Reduce::Mean]),
            );
            for dkp in [None, Some(true), Some(false)] {
                let two = device_run(&layer, modes, &x, &w, false, dkp);
                let one = device_run(&layer, modes, &x, &w, true, dkp);
                let charged = |p| two.records.iter().any(|r| r.0 == p && r.1.flops > 0);
                assert!(charged(Phase::EdgeWeighting), "edge weighting is charged");
                assert_eq!(one.dx.is_some(), dkp != Some(false));
                assert_eq!(one, two, "{modes:?} dkp={dkp:?}");
            }
        },
    );
}
