//! Model zoo and training utilities.
//!
//! The paper evaluates GCN and NGCF (§VI) with hidden dimension 64; the
//! NAPA mode system also covers close relatives — "[FastGCN, JK-Net] are a
//! variation of GCN, while [GAT, session-based models] are similar to
//! NGCF" — so this crate additionally ships a simplified
//! dot-product-attention GAT as a configuration preset, plus epoch-level
//! train/evaluate helpers used by the examples.

pub mod recsys;

use gt_core::config::{EdgeWeighting, HFn, ModelConfig};
use gt_core::data::GraphData;
use gt_core::framework::Framework;
use gt_core::trainer::GraphTensor;
use gt_graph::VId;
use gt_sample::BatchIter;
use gt_tensor::loss::accuracy;
use gt_tensor::sparse::{EdgeOp, Reduce};

/// The paper's hidden dimension for both models (§VI).
pub const PAPER_HIDDEN: usize = 64;

/// GCN with the paper's hyperparameters (mean aggregation, no weighting).
pub fn gcn(layers: usize, out_dim: usize) -> ModelConfig {
    ModelConfig::gcn(layers, PAPER_HIDDEN, out_dim)
}

/// NGCF with the paper's hyperparameters (mean aggregation, elementwise-
/// product similarity weights).
pub fn ngcf(layers: usize, out_dim: usize) -> ModelConfig {
    ModelConfig::ngcf(layers, PAPER_HIDDEN, out_dim)
}

/// Simplified GAT: per-edge scalar attention from the src·dst dot product,
/// scaling each source embedding (unnormalized attention — the NAPA mode
/// closest to [34]).
pub fn gat_lite(layers: usize, out_dim: usize) -> ModelConfig {
    ModelConfig {
        name: "GAT-lite".into(),
        layers,
        hidden: PAPER_HIDDEN,
        out_dim,
        agg: Reduce::Mean,
        edge: Some(EdgeWeighting {
            g: EdgeOp::Dot,
            h: HFn::Mul,
        }),
    }
}

/// Loss trajectory of training `trainer` for `epochs` epochs over all
/// vertices of `data` in batches of `batch_size`. Returns per-epoch mean
/// losses.
pub fn train_epochs(
    trainer: &mut GraphTensor,
    data: &GraphData,
    epochs: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<f32> {
    let mut curve = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let mut sum = 0.0f32;
        let mut n = 0usize;
        for batch in BatchIter::new(data.num_vertices(), batch_size, seed + epoch as u64) {
            sum += trainer.train_batch(data, &batch).loss;
            n += 1;
        }
        curve.push(sum / n.max(1) as f32);
    }
    curve
}

/// Classification accuracy of the trained model on `eval_nodes`.
pub fn evaluate(trainer: &mut GraphTensor, data: &GraphData, eval_nodes: &[VId]) -> f64 {
    let logits = trainer.infer_batch(data, eval_nodes);
    let labels = data.batch_labels(eval_nodes);
    accuracy(&logits, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::trainer::GtVariant;
    use gt_sample::SamplerConfig;
    use gt_sim::SystemSpec;

    fn small_trainer(model: ModelConfig) -> GraphTensor {
        let mut t = GraphTensor::new(GtVariant::Dynamic, model, SystemSpec::tiny());
        t.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 3,
            ..Default::default()
        };
        t.lr = 0.3;
        t
    }

    #[test]
    fn presets_have_expected_modes() {
        assert_eq!(gcn(2, 10).agg, Reduce::Mean);
        assert!(gcn(2, 10).edge.is_none());
        assert_eq!(ngcf(2, 2).edge.unwrap().g, EdgeOp::ElemMul);
        assert_eq!(gat_lite(2, 2).edge.unwrap().g, EdgeOp::Dot);
        assert_eq!(gcn(3, 7).hidden, PAPER_HIDDEN);
    }

    #[test]
    fn training_curve_descends_on_learnable_data() {
        let data = GraphData::synthetic_learnable(200, 1600, 8, 2, 5);
        let mut t = small_trainer(gcn(2, 2));
        let curve = train_epochs(&mut t, &data, 6, 32, 9);
        assert_eq!(curve.len(), 6);
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "curve did not descend: {curve:?}");
    }

    #[test]
    fn evaluate_beats_chance_after_training() {
        let data = GraphData::synthetic_learnable(200, 1600, 8, 2, 5);
        let mut t = small_trainer(gcn(2, 2));
        // Low fanout keeps the self-loop signal strong through mean
        // aggregation (self weight (1/(fanout+1))² per layer).
        t.sampler.fanout = 2;
        train_epochs(&mut t, &data, 12, 32, 9);
        let eval: Vec<VId> = (0..100).collect();
        let acc = evaluate(&mut t, &data, &eval);
        assert!(acc > 0.55, "accuracy {acc} not above chance (0.5)");
    }

    #[test]
    fn gat_lite_trains_without_panic() {
        let data = GraphData::synthetic(150, 900, 8, 3, 5);
        let mut t = small_trainer(gat_lite(2, 3));
        let r = t.train_batch(&data, &[0, 1, 2, 3, 4]);
        assert!(r.loss.is_finite());
    }
}
