//! # GraphTensor-RS
//!
//! A Rust reproduction of **GraphTensor** (Jang et al., IPDPS 2023): a
//! comprehensive GNN-acceleration framework with pure vertex-centric
//! kernels (the NAPA programming model), dynamic kernel placement, and
//! service-wide tensor scheduling for preprocessing.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — storage formats (COO/CSR/CSC), embeddings, generators;
//! * [`tensor`] — dense/sparse kernels and the autodiff dataflow graph;
//! * [`sim`] — device models, work counters, discrete-event simulation,
//!   and the stage/bubble profiler over its schedules;
//! * [`sample`] — neighbor sampling, VID hash table, reindexing, lookup;
//! * [`telemetry`] — spans, metrics, Chrome-trace / Prometheus exporters;
//! * [`core`] — NAPA, the DKP orchestrator, the tensor scheduler, the
//!   [`core::trainer::GraphTensor`] framework, and the serving
//!   [`core::serve::Supervisor`], whose caches, tracer and journal are
//!   layers it arms; the GCN and NGCF presets, the train/eval
//!   loops and NGCF's BPR recommendation task;
//! * [`baselines`] — PyG / DGL / GNNAdvisor / SALIENT strategy replicas;
//! * [`datasets`] — the ten Table-II workloads as synthetic recipes.
//!
//! ## Quickstart
//!
//! ```
//! use graphtensor::prelude::*;
//!
//! // A small synthetic node-classification workload.
//! let data = GraphData::synthetic_learnable(300, 2400, 16, 2, 7);
//! // Dynamic-GT: NAPA kernels + dynamic kernel placement.
//! let mut trainer = GraphTensor::new(
//!     GtVariant::Dynamic,
//!     ModelConfig::gcn(2, PAPER_HIDDEN, data.num_classes),
//!     SystemSpec::paper_testbed(),
//! );
//! trainer.sampler.fanout = 4;
//! let losses = train_epochs(&mut trainer, &data, 3, 50, 1);
//! assert_eq!(losses.len(), 3);
//! ```

pub use gt_baselines as baselines;
pub use gt_core as core;
pub use gt_datasets as datasets;
pub use gt_graph as graph;
pub use gt_sample as sample;
pub use gt_sim as sim;
pub use gt_telemetry as telemetry;
pub use gt_tensor as tensor;

/// Everything needed for typical use.
pub mod prelude {
    pub use gt_baselines::{Baseline, BaselineKind};
    pub use gt_core::config::{ModelConfig, PAPER_HIDDEN};
    pub use gt_core::data::GraphData;
    pub use gt_core::error::GtError;
    pub use gt_core::framework::{
        BatchOutcome, BatchReport, DegradeAction, FailReason, Framework, ShedCause,
    };
    pub use gt_core::overload::{Completion, Gateway, OverloadConfig};
    pub use gt_core::scheduler::PreproStrategy;
    pub use gt_core::serve::{
        DurabilityConfig, QuarantineRecord, RecoveryReport, ServeCtx, Served, Supervisor,
    };
    pub use gt_core::tracing::{RequestTracer, TracerConfig};
    pub use gt_core::trainer::{evaluate, train_epochs, GraphTensor, GtVariant};
    pub use gt_datasets::{DatasetSpec, Scale};
    pub use gt_sample::{BatchIter, SamplerConfig};
    pub use gt_sim::{CrashSite, FaultPlan, SystemSpec};
    pub use gt_telemetry::{SloSpec, Telemetry};
}
