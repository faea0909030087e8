//! Device and system models for GraphTensor-RS.
//!
//! The original GraphTensor runs CUDA kernels on an RTX 3090 and preprocessing
//! on a 12-core Xeon. This crate supplies the substitute substrate described in
//! `DESIGN.md` §2: kernels execute for real on the CPU while charging their
//! work (FLOPs, global-memory traffic, per-SM cache loads, allocations) to a
//! [`SimContext`]; a roofline model over those counters prices GPU kernel
//! latency, a PCIe model prices transfers, and a discrete-event simulator
//! composes host/GPU/PCIe tasks into end-to-end schedules; [`profile`]
//! attributes a schedule's time to pipeline stages and idle bubbles.
//!
//! Everything here is deterministic: same inputs, same counters, same virtual
//! times.

pub mod cache;
pub mod chaos;
pub mod counters;
pub mod des;
pub mod device;
pub mod fault;
pub mod lru;
pub mod memory;
pub mod profile;
pub mod prop;
pub mod timeline;
pub mod trace;
pub mod transfer;

pub use cache::CacheSim;
pub use chaos::{delivery_order, plan_from_json, plan_to_json, sample_plan, shrink};
pub use counters::{KernelRecord, KernelStats, Phase, SimContext};
pub use des::{Resource, Schedule, ScheduledEvent, Simulator, TaskId, TaskSpec};
pub use device::{DeviceSpec, HostSpec, PcieSpec, SystemSpec};
pub use fault::{ActiveFaults, CrashSite, FaultKind, FaultPlan, FaultRule, IoFault, IoTarget};
pub use lru::{Lru, LruCacheSim};
pub use memory::{MemoryTracker, OutOfMemory};
pub use profile::{BubbleReport, Stage, StageBreakdown};
pub use timeline::{Timeline, TimelineEvent};
pub use trace::{resource_track, schedule_to_trace};
pub use transfer::TransferKind;
