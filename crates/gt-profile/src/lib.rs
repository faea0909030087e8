//! gt-profile: the analysis layer that turns recorded data into answers.
//!
//! gt-sim records *what happened* (DES schedules, kernel records); this
//! crate computes *where the time went* — the machine-checkable form of
//! the paper's Fig 13/14 analysis:
//!
//! - [`StageBreakdown`]: busy time per pipeline stage (S-alg/S-hash, R, K,
//!   T, Pull/NeighborApply/MatMul), built from a DES [`gt_sim::Schedule`]
//!   or recorded kernels.
//! - [`BubbleReport`]: per-resource idle ("bubble") percentages — the
//!   whitespace the service-wide tensor scheduler exists to eliminate.
//! - [`FleetReport`]: fleet health for distributed runs — per-worker
//!   busy/idle/link utilization, stage-level imbalance ratios, per-batch
//!   straggler attribution (the text page the cluster bench writes with
//!   `--fleet-out`).
//!
//! Everything is deterministic and zero-external-dependency, like the rest
//! of the workspace. See `docs/profiling.md`.

pub mod breakdown;
pub mod bubble;
pub mod fleet;
pub mod stage;

pub use breakdown::StageBreakdown;
pub use bubble::{BubbleReport, UnitUtilization};
pub use fleet::{FleetObserver, FleetReport, StragglerSample, WorkerHealth};
pub use stage::{classify_kernel, classify_task, Stage};
