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
//! compares like with like.

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
