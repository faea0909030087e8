//! gt-profile: the analysis layer that turns recorded data into answers.
//!
//! gt-telemetry records *what happened* (spans, counters, DES schedules);
//! this crate computes *why it took that long* — the machine-checkable form
//! of the paper's Fig 13/14 analysis:
//!
//! - [`StageBreakdown`]: busy time per pipeline stage (S-alg/S-hash, R, K,
//!   T, Pull/NeighborApply/MatMul), built from a DES [`gt_sim::Schedule`],
//!   recorded kernels, or a live span tree.
//! - [`BubbleReport`]: per-resource idle ("bubble") percentages — the
//!   whitespace the service-wide tensor scheduler exists to eliminate.
//! - [`CriticalPath`]: the binding-constraint chain through the subtask DAG
//!   (which stage, on which resource, bound the makespan and why — data
//!   dependency, resource contention, or hash-table lock), plus the
//!   dependency-only lower bound. The chain's durations sum exactly to the
//!   makespan; `dag_path ≤ makespan ≤ total busy` is property-tested.
//! - [`WhatIf`]: headroom per stage — the makespan delta when a stage's
//!   durations are zeroed and the same deterministic list scheduler re-runs.
//! - [`FleetReport`]: fleet health for distributed runs — per-worker
//!   busy/idle/link utilization, stage-level imbalance ratios, per-batch
//!   straggler attribution, hedge effectiveness (the text page the cluster
//!   bench serves at `/fleetz`).
//! - [`report::render`]: a text report; [`trace::profile_to_trace`] /
//!   [`trace::append_profile_tracks`]: extra Perfetto tracks (critical
//!   path, bubbles, what-if markers) that compose with
//!   `gt_sim::schedule_to_trace` output.
//!
//! Everything is deterministic and zero-external-dependency, like the rest
//! of the workspace. See `docs/profiling.md`.

pub mod breakdown;
pub mod bubble;
pub mod critical;
pub mod fleet;
pub mod profile;
pub mod report;
pub mod stage;
pub mod trace;
pub mod whatif;

pub use breakdown::StageBreakdown;
pub use bubble::{BubbleReport, UnitUtilization};
pub use critical::{critical_path, Binding, ChainLink, CriticalPath};
pub use fleet::{FleetObserver, FleetReport, StragglerSample, WorkerHealth};
pub use profile::{profile_schedule, ScheduleProfile};
pub use stage::{classify_kernel, classify_span, classify_spec, classify_task, Stage};
pub use trace::{append_profile_tracks, profile_to_trace};
pub use whatif::{run_with_stage_zeroed, what_if_headroom, WhatIf};
