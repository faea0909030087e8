//! DKP drift monitoring end to end: a deliberately mis-fitted cost model
//! is detected, a sliding-window refit restores the correct placement, and
//! a degenerate refit window degrades to the static fallback.

use gt_core::config::ModelConfig;
use gt_core::data::GraphData;
use gt_core::framework::Framework;
use gt_core::napa::Pull;
use gt_core::orchestrator::{CostDkp, CostModel, Dims, DriftConfig, DriftMonitor, Placement};
use gt_core::trainer::{DkpCounters, GraphTensor, GtVariant};
use gt_graph::convert::{coo_to_csc, coo_to_csr};
use gt_graph::{Coo, Csr, VId};
use gt_sample::{LayerGraph, SamplerConfig};
use gt_sim::{DeviceSpec, SimContext, SystemSpec};
use gt_tensor::dfg::{ExecCtx, Op, Operand, ParamStore};
use gt_tensor::init::xavier;
use gt_tensor::sparse::Reduce;
use std::sync::Arc;

fn trainer() -> GraphTensor {
    let mut t = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, 16, 4),
        SystemSpec::tiny(),
    );
    t.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 11,
        ..Default::default()
    };
    t.calibration_batches = 2;
    t.telemetry = gt_telemetry::Telemetry::recording();
    t
}

/// Reference dims where any sane fit prefers combination-first: 4353-dim
/// features shrink to 64, cutting aggregation traffic ~68×.
fn heavy_dims() -> Dims {
    Dims {
        n_src: 30_000,
        n_dst: 8_000,
        n_edges: 60_000,
        n_feat: 4353,
        n_hid: 64,
    }
}

#[test]
fn drift_detects_a_sabotaged_fit_and_refits() {
    let d = GraphData::synthetic(300, 3000, 16, 4, 3);
    let mut t = trainer();
    let batch: Vec<VId> = (0..16).collect();

    // Calibrate; the fitted model prefers combination-first for heavy dims.
    t.train_batch(&d, &batch);
    t.train_batch(&d, &batch);
    let cost = Arc::clone(t.cost_model());
    assert!(cost.fit_error().is_some());
    assert_eq!(
        cost.decide(&heavy_dims(), false, true),
        Placement::CombinationFirst
    );
    assert_eq!(
        t.drift_monitor().decisions(),
        0,
        "pre-fit decisions counted"
    );

    // Sabotage: zero coefficients predict 0 µs for everything. Every APE is
    // exactly 1.0; the zero-cost tie decides aggregation-first.
    cost.set_coefficients([0.0; 4]);
    assert_eq!(
        cost.decide(&heavy_dims(), false, true),
        Placement::AggregationFirst
    );

    // Two batches × two layers = 4 decisions: hand-check the bookkeeping.
    t.train_batch(&d, &batch);
    t.train_batch(&d, &batch);
    let drift = Arc::clone(t.drift_monitor());
    assert_eq!(drift.decisions(), 4);
    let ewma = drift.ewma_ape().unwrap();
    assert!((ewma - 1.0).abs() < 1e-12, "ewma {ewma}");
    assert_eq!(drift.refits(), 0);

    // Keep training: min_decisions (8) arms the trigger, then the window
    // (8 more decisions) collects fresh samples and refits.
    for _ in 0..10 {
        t.train_batch(&d, &batch);
    }
    assert_eq!(drift.refits(), 1, "refit did not fire");
    assert!(!cost.is_static_fallback());
    let err = cost.fit_error().unwrap();
    assert!(err < 0.5, "refit residual too large: {err}");
    // The refit restored the correct placement.
    assert_eq!(
        cost.decide(&heavy_dims(), false, true),
        Placement::CombinationFirst
    );

    // The telemetry counters mirror the monitor exactly.
    let snap = t.telemetry.snapshot();
    assert_eq!(snap.counter("gt_dkp_decisions_total"), drift.decisions());
    assert_eq!(snap.counter("gt_dkp_refits_total"), 1);
    assert!(snap.gauge("gt_dkp_residual_ewma").is_some());
    let events = t.telemetry.events();
    assert!(events.iter().any(|e| e.name == "dkp_decision"));
    assert!(events.iter().any(|e| e.name == "dkp_refit"));
}

#[test]
fn healthy_fit_never_refits() {
    let d = GraphData::synthetic(300, 3000, 16, 4, 3);
    let mut t = trainer();
    let batch: Vec<VId> = (0..16).collect();
    for _ in 0..12 {
        t.train_batch(&d, &batch);
    }
    let drift = t.drift_monitor();
    assert!(drift.decisions() > 0);
    assert_eq!(drift.refits(), 0, "healthy model refitted");
    assert!(!t.cost_model().is_static_fallback());
}

fn layer() -> Arc<LayerGraph> {
    let coo = Coo::from_edges(4, &[(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (2, 2), (0, 2)]);
    let (csr_full, _) = coo_to_csr(&coo);
    let csr = Csr::new(csr_full.indptr[..=3].to_vec(), csr_full.srcs.clone());
    let (csc, _) = coo_to_csc(&coo);
    Arc::new(LayerGraph {
        csr,
        csc,
        num_dst: 3,
        num_src: 4,
    })
}

/// Satellite (f): a refit over a degenerate sample window (every sample the
/// same layer shape → singular normal equations) must latch the static
/// aggregation-first fallback instead of trusting an unfittable model.
#[test]
fn singular_refit_degrades_to_static_fallback() {
    let cost = Arc::new(CostModel::from_device(&DeviceSpec::tiny()));
    // A valid initial fit (varied shapes), then sabotage.
    for i in 1..30u64 {
        let agg = if i % 2 == 0 { (i * 1000) as f64 } else { 0.0 };
        if i % 2 == 0 {
            cost.record_agg_sample(agg, 7.0 + 3.0e-5 * agg);
        } else {
            cost.record_comb_sample(i as usize * 100, 32 + i as usize, 16, 1, (7 + i) as f64);
        }
    }
    assert!(cost.fit().is_some());
    cost.set_coefficients([0.0; 4]);

    let drift = Arc::new(DriftMonitor::new(DriftConfig {
        min_decisions: 2,
        window_decisions: 3,
        ..Default::default()
    }));
    let mut params = ParamStore::new();
    params.register("w", xavier(4, 2, 5));
    let node = CostDkp::new(
        Pull::new(layer(), Reduce::Mean),
        "w".into(),
        None,
        Arc::clone(&cost),
        true,
        false,
        Arc::new(DkpCounters::default()),
        Some(Arc::clone(&drift)),
    );
    let xval = xavier(4, 4, 1);
    let mut sim = SimContext::new(DeviceSpec::tiny());

    // The same shape every iteration: once the window opens, every fresh
    // sample is identical and the refit is singular.
    for _ in 0..8 {
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let out = node.forward(&[Operand::Dense(&xval)], &mut ctx);
        let g = gt_tensor::dense::Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.len()]);
        node.backward(&[Operand::Dense(&xval)], &out, &g, &mut ctx);
    }
    assert_eq!(drift.refits(), 1);
    assert!(
        cost.is_static_fallback(),
        "singular refit did not latch the static fallback"
    );
    // Placement degrades to the framework default, and further decisions
    // stop feeding the monitor (a forced placement carries no signal).
    assert_eq!(
        cost.decide(&heavy_dims(), false, true),
        Placement::AggregationFirst
    );
    let decisions_at_latch = drift.decisions();
    let mut ctx = ExecCtx {
        sim: &mut sim,
        params: &mut params,
    };
    let out = node.forward(&[Operand::Dense(&xval)], &mut ctx);
    let g = gt_tensor::dense::Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.len()]);
    node.backward(&[Operand::Dense(&xval)], &out, &g, &mut ctx);
    assert_eq!(drift.decisions(), decisions_at_latch);
}
