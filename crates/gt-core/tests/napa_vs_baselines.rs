//! Cross-module tests of the work-accounting claims that drive the paper's
//! figures, checked at the kernel level on identical layer graphs.

use gt_core::config::ModelConfig;
use gt_core::data::GraphData;
use gt_core::napa::{NeighborApply, Pull};
use gt_core::prepro::run_prepro;
use gt_core::trainer::{GraphTensor, GtVariant};
use gt_sample::SamplerConfig;
use gt_sim::SystemSpec;
use gt_tensor::sparse::{EdgeOp, Reduce};
use std::sync::Arc;

fn sampled_layers(
    feature_dim: usize,
) -> (Vec<Arc<gt_sample::LayerGraph>>, gt_tensor::dense::Matrix) {
    let data = GraphData::synthetic(400, 6000, feature_dim, 4, 11);
    let batch: Vec<u32> = (0..60).collect();
    let pr = run_prepro(
        &data,
        &batch,
        &SamplerConfig {
            fanout: 6,
            layers: 2,
            seed: 2,
            ..Default::default()
        },
    );
    (pr.layers, pr.features)
}

/// NAPA's stats never charge more cache loads than edge-wise scheduling on
/// the same subgraph — for every layer of a realistic sampled batch.
#[test]
fn feature_wise_cache_dominates_every_layer() {
    let (layers, _) = sampled_layers(32);
    for layer in layers {
        let napa = Pull::new(Arc::clone(&layer), Reduce::Mean).forward_stats(32, 82);
        let edge_wise = gt_core::napa::schedule::edge_wise_cache(&layer, 128, 82);
        // Same normalization: NAPA's counter uses feature_wise_cache with
        // the same row size internally.
        let fw = gt_core::napa::schedule::feature_wise_cache(&layer, 128, 82);
        assert!(fw.loaded_bytes() <= edge_wise.loaded_bytes());
        assert!(napa.cache_loaded_bytes > 0);
    }
}

/// NeighborApply agrees numerically with the SDDMM oracle on every sampled
/// layer.
#[test]
fn edge_weighting_strategies_agree() {
    let (layers, features) = sampled_layers(16);
    for layer in layers {
        let napa = NeighborApply::new(Arc::clone(&layer), EdgeOp::ElemMul).compute(&features);
        let oracle = gt_tensor::sparse::sddmm(&layer.csr, &features);
        assert!(napa.max_abs_diff(&oracle) < 1e-5);
    }
}

/// DKP is a pure performance transform: training trajectories of Base-GT
/// and Dynamic-GT stay numerically close over several epochs.
#[test]
fn dkp_does_not_change_training_trajectory() {
    let data = GraphData::synthetic(300, 4000, 48, 3, 5);
    let mk = |variant| {
        let mut t = GraphTensor::new(variant, ModelConfig::gcn(2, 16, 3), SystemSpec::tiny());
        t.sampler = SamplerConfig {
            fanout: 5,
            layers: 2,
            seed: 31,
            ..Default::default()
        };
        t.lr = 0.1;
        t
    };
    let mut base = mk(GtVariant::Base);
    let mut dynamic = mk(GtVariant::Dynamic);
    for step in 0..10 {
        let batch: Vec<u32> = (step * 20..(step + 1) * 20).collect();
        let lb = gt_core::framework::Framework::train_batch(&mut base, &data, &batch).loss;
        let ld = gt_core::framework::Framework::train_batch(&mut dynamic, &data, &batch).loss;
        assert!(
            (lb - ld).abs() < 1e-3,
            "step {step}: base {lb} vs dynamic {ld}"
        );
    }
}

/// GCN and NGCF differ exactly by the edge-weighting phase: GCN charges
/// none, NGCF charges some, and both train, as does a config built field by
/// field rather than by a preset.
#[test]
fn model_phase_profiles() {
    use gt_sim::Phase;
    let data = GraphData::synthetic(300, 4000, 24, 3, 5);
    let batch: Vec<u32> = (0..40).collect();
    for (model, expect_weighting) in [
        (ModelConfig::gcn(2, 16, 3), false),
        (ModelConfig::ngcf(2, 16, 3), true),
        (hand_built(), false),
    ] {
        let mut t = GraphTensor::new(GtVariant::Base, model, SystemSpec::tiny());
        t.sampler = SamplerConfig {
            fanout: 5,
            layers: 2,
            seed: 3,
            ..Default::default()
        };
        let r = gt_core::framework::Framework::train_batch(&mut t, &data, &batch);
        assert_eq!(r.phase_us(Phase::EdgeWeighting) > 0.0, expect_weighting);
        assert!(r.loss.is_finite());
    }
}

/// A config built field by field: mean aggregation, no edge weighting.
fn hand_built() -> ModelConfig {
    ModelConfig {
        name: "hand-built".into(),
        layers: 2,
        hidden: 16,
        out_dim: 3,
        agg: Reduce::Mean,
        edge: None,
    }
}
