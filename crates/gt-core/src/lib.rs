//! GraphTensor core: the paper's three contributions.
//!
//! * [`napa`] — the <u>N</u>eighborApply–<u>P</u>ull–<u>A</u>pply programming
//!   model (§IV): pure vertex-centric, destination-centric, feature-wise GNN
//!   kernels over CSR-only per-layer subgraphs. No sparse→dense conversion
//!   (no memory bloat), no COO format translation, no edge-wise cache bloat.
//! * [`orchestrator`] — the GNN kernel orchestrator (§V-A): Dynamic Kernel
//!   Placement rewrites Pull→MatMul pairs in the dataflow graph into a
//!   Cost-DKP node that picks aggregation-first or combination-first at
//!   runtime from a least-squares-fitted cost model (Table I).
//! * [`scheduler`] — the service-wide tensor scheduler (§V-B): splits
//!   preprocessing into per-layer S/R/K/T subtasks, overlaps them across
//!   host cores / PCIe / GPU, relaxes hash-table lock contention (Fig 14),
//!   and pipelines lookup chunks into transfers.
//!
//! [`trainer::GraphTensor`] ties them together behind the [`framework::Framework`]
//! trait that `gt-baselines` also implements, so every evaluation figure
//! compares like with like. [`config::ModelConfig`] holds the model presets
//! (GCN and NGCF from §VI, plus GAT-lite), [`trainer::train_epochs`] and
//! [`trainer::evaluate`] the epoch-level loops, and [`recsys`] NGCF's BPR
//! recommendation task.

pub mod cache;
pub mod config;
pub mod data;
pub mod error;
pub mod framework;
pub mod journal;
pub mod napa;
pub mod orchestrator;
pub mod overload;
pub mod prepro;
pub mod recsys;
pub mod scheduler;
pub mod serve;
pub mod tracing;
pub mod trainer;

pub use cache::{CacheConfig, CacheLookup, CacheStats, ServingCaches};
pub use config::{EdgeWeighting, ModelConfig};
pub use data::GraphData;
pub use error::GtError;
pub use framework::{
    BatchOutcome, BatchReport, DegradeAction, FailReason, Framework, FrameworkTraits, ShedCause,
};
pub use overload::{Completion, Gateway, OverloadConfig, TenancyConfig, TenantQuota};
pub use scheduler::{build_prepro_sim, schedule_prepro_with_faults, PreproStrategy};
pub use serve::{
    DurabilityConfig, QuarantineRecord, RecoveryReport, RequestCtx, ServeCtx, Served, Supervisor,
};
pub use tracing::{FlightDump, RequestTracer, TracerConfig};
pub use trainer::{GraphTensor, GtVariant};

/// The model presets and the epoch-level loops, end to end.
#[cfg(test)]
mod tests {
    use crate::config::{EdgeOp, ModelConfig, Reduce, PAPER_HIDDEN};
    use crate::data::GraphData;
    use crate::framework::Framework;
    use crate::trainer::{evaluate, train_epochs, GraphTensor, GtVariant};
    use gt_graph::VId;
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
        let gcn = ModelConfig::gcn(2, PAPER_HIDDEN, 10);
        assert_eq!(gcn.agg, Reduce::Mean);
        assert!(gcn.edge.is_none());
        let ngcf = ModelConfig::ngcf(2, PAPER_HIDDEN, 2);
        assert_eq!(ngcf.edge.unwrap().g, EdgeOp::ElemMul);
        let gat = ModelConfig::gat_lite(2, PAPER_HIDDEN, 2);
        assert_eq!(gat.edge.unwrap().g, EdgeOp::Dot);
    }

    #[test]
    fn training_curve_descends_on_learnable_data() {
        let data = GraphData::synthetic_learnable(200, 1600, 8, 2, 5);
        let mut t = small_trainer(ModelConfig::gcn(2, PAPER_HIDDEN, 2));
        let curve = train_epochs(&mut t, &data, 6, 32, 9);
        assert_eq!(curve.len(), 6);
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "curve did not descend: {curve:?}");
    }

    #[test]
    fn evaluate_beats_chance_after_training() {
        let data = GraphData::synthetic_learnable(200, 1600, 8, 2, 5);
        let mut t = small_trainer(ModelConfig::gcn(2, PAPER_HIDDEN, 2));
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
        let mut t = small_trainer(ModelConfig::gat_lite(2, PAPER_HIDDEN, 3));
        let r = t.train_batch(&data, &[0, 1, 2, 3, 4]);
        assert!(r.loss.is_finite());
    }
}
