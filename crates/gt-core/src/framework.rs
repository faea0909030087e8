//! The common interface every evaluated framework implements, plus the
//! per-batch report all figures are computed from.
//!
//! The paper compares PyG, DGL, GNNAdvisor, SALIENT, and three GraphTensor
//! variants on identical workloads; implementing them behind one trait on
//! one substrate is what makes the comparison apples-to-apples.

use crate::data::GraphData;
use gt_graph::VId;
use gt_sim::{Phase, Schedule, SimContext};

/// Qualitative properties of a framework — one row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameworkTraits {
    /// Storage format the framework keeps resident ("CSR" or "COO").
    pub initial_format: &'static str,
    /// Suffers GPU memory bloat (sparse→dense conversion)?
    pub memory_bloat: bool,
    /// Performs GPU format translation per batch?
    pub format_translation: bool,
    /// Suffers GPU cache bloat (edge-wise scheduling)?
    pub cache_bloat: bool,
    /// Preprocessing overhead: `'O'` high, `'D'` partial (△), `'X'` none.
    pub prepro_overhead: char,
}

/// Why a batch failed (or kept failing) under the serving supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// A host→device transfer failed (fault-injected or real).
    TransferFailure,
    /// The batch exceeded device memory.
    OutOfMemory,
    /// The batch itself was invalid (empty, out-of-range vertex ids).
    InvalidBatch,
}

/// A degradation the supervisor applied to get a batch through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// The batch was shrunk to fit device memory.
    HalvedBatch {
        /// Original batch size.
        from: usize,
        /// Size actually trained.
        to: usize,
    },
    /// The overload gateway reduced the sampling fanout to cut per-batch
    /// work while the admission queue drains.
    ReducedFanout {
        /// Configured fanout.
        from: usize,
        /// Fanout actually sampled with.
        to: usize,
    },
    /// Both overload rungs at once: the queue was deep enough that the
    /// batch was halved *and* sampled with reduced fanout. Reported as one
    /// composed action so the caller (and the degrade telemetry) sees the
    /// full extent of what it gave up.
    HalvedBatchReducedFanout {
        /// Original batch size.
        from: usize,
        /// Size actually trained.
        to: usize,
        /// Configured fanout.
        fanout_from: usize,
        /// Fanout actually sampled with.
        fanout_to: usize,
    },
}

/// Why the overload gateway refused to serve a batch at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The admission queue was full when the request arrived.
    QueueFull,
    /// The request waited (or provably would wait) past its deadline;
    /// serving it would return an answer nobody is waiting for anymore.
    DeadlineExpired,
    /// The tenant's token-bucket quota was exhausted at admission; one
    /// tenant's burst may not starve the others.
    QuotaExceeded,
}

impl ShedCause {
    /// Stable kebab-case label used in telemetry events and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShedCause::QueueFull => "queue-full",
            ShedCause::DeadlineExpired => "deadline-expired",
            ShedCause::QuotaExceeded => "quota-exceeded",
        }
    }
}

/// Structured outcome of one serving attempt ladder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BatchOutcome {
    /// First attempt trained cleanly.
    #[default]
    Succeeded,
    /// Trained after retrying transient faults.
    Recovered {
        /// Retries spent before success.
        retries: usize,
    },
    /// Trained, but only after a degradation (smaller batch, reduced
    /// fanout).
    Degraded {
        /// What was given up.
        action: DegradeAction,
        /// Retries spent before success.
        retries: usize,
    },
    /// A single attempt failed (trainer-level fail-fast report; the
    /// supervisor turns these into retries or quarantine).
    Failed {
        /// Why the attempt failed.
        reason: FailReason,
    },
    /// Every attempt failed; the batch was quarantined.
    Quarantined {
        /// The final failure reason.
        reason: FailReason,
        /// Attempts spent (including the first).
        attempts: usize,
    },
    /// The overload gateway dropped the batch without serving it (queue
    /// overflow or an expired deadline). No training step happened.
    Shed {
        /// Why the gateway refused the batch.
        cause: ShedCause,
    },
}

impl DegradeAction {
    /// Stable kebab-case label used in telemetry events.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeAction::HalvedBatch { .. } => "halved-batch",
            DegradeAction::ReducedFanout { .. } => "reduced-fanout",
            DegradeAction::HalvedBatchReducedFanout { .. } => "halved-batch+reduced-fanout",
        }
    }
}

impl FailReason {
    /// Stable kebab-case label used in telemetry events and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailReason::TransferFailure => "transfer-failure",
            FailReason::OutOfMemory => "out-of-memory",
            FailReason::InvalidBatch => "invalid-batch",
        }
    }
}

impl BatchOutcome {
    /// True when the batch produced a committed training step.
    pub fn trained(&self) -> bool {
        matches!(
            self,
            BatchOutcome::Succeeded
                | BatchOutcome::Recovered { .. }
                | BatchOutcome::Degraded { .. }
        )
    }

    /// Stable kebab-case label used in telemetry events and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            BatchOutcome::Succeeded => "succeeded",
            BatchOutcome::Recovered { .. } => "recovered",
            BatchOutcome::Degraded { .. } => "degraded",
            BatchOutcome::Failed { .. } => "failed",
            BatchOutcome::Quarantined { .. } => "quarantined",
            BatchOutcome::Shed { .. } => "shed",
        }
    }
}

/// Everything measured while training one batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Training loss of the batch.
    pub loss: f32,
    /// GPU-side accounting (kernel records, memory peaks, counters).
    pub sim: SimContext,
    /// DES schedule of the preprocessing, when the framework models one.
    pub prepro: Option<Schedule>,
    /// Sampled nodes this batch.
    pub num_nodes: usize,
    /// Sampled edges this batch (all hops).
    pub num_edges: usize,
    /// Device out-of-memory, if the run exceeded GPU capacity.
    pub oom: Option<String>,
    /// How the batch resolved (always `Succeeded` outside the supervisor).
    pub outcome: BatchOutcome,
    /// Handle to the telemetry (spans, events, metrics) recorded while this
    /// batch ran; [`gt_telemetry::Telemetry::null`] unless the trainer was
    /// given a recording handle.
    pub telemetry: gt_telemetry::Telemetry,
}

impl BatchReport {
    /// Modeled GPU compute latency (all non-preprocessing phases), µs.
    pub fn gpu_us(&self) -> f64 {
        self.sim
            .records()
            .iter()
            .filter(|r| !r.phase.is_preprocessing())
            .map(|r| r.modeled_us)
            .sum()
    }

    /// GPU latency of one phase, µs.
    pub fn phase_us(&self, phase: Phase) -> f64 {
        self.sim.phase_us(phase)
    }

    /// Preprocessing makespan, µs (0 when not modeled).
    pub fn prepro_us(&self) -> f64 {
        self.prepro.as_ref().map_or(0.0, |s| s.makespan_us)
    }

    /// Steady-state end-to-end batch latency: frameworks that overlap
    /// preprocessing with the previous batch's GPU work pay the max of the
    /// two; others pay the sum (§VI-B).
    pub fn e2e_us(&self, overlapped: bool) -> f64 {
        let p = self.prepro_us();
        let g = self.gpu_us();
        if overlapped {
            p.max(g)
        } else {
            p + g
        }
    }
}

/// A GNN training framework under evaluation.
pub trait Framework {
    /// Display name ("DGL", "Dynamic-GT", ...).
    fn name(&self) -> String;

    /// Table III row.
    fn traits(&self) -> FrameworkTraits;

    /// Whether preprocessing overlaps the previous batch's GPU compute
    /// ("a common practice for the existing deep learning frameworks").
    fn overlaps_batches(&self) -> bool;

    /// Train one batch end to end (preprocess, FWP, BWP, SGD step).
    fn train_batch(&mut self, data: &GraphData, batch: &[VId]) -> BatchReport;
}

/// Machine-readable forms for the serving/report types, implemented over
/// the in-tree JSON layer (the offline build cannot vendor serde proper;
/// see gt-telemetry's crate docs). Unconditional: the write-ahead outcome
/// journal serializes through these exact impls, so telemetry exports and
/// journal records are produced by one serializer.
mod machine_readable {
    use super::*;
    use gt_telemetry::json::obj;
    use gt_telemetry::{Json, ToJson};

    impl ToJson for FailReason {
        fn to_json(&self) -> Json {
            Json::from(self.label())
        }
    }

    impl ToJson for DegradeAction {
        fn to_json(&self) -> Json {
            let mut pairs = vec![("action", Json::from(self.label()))];
            match *self {
                DegradeAction::HalvedBatch { from, to }
                | DegradeAction::ReducedFanout { from, to } => {
                    pairs.extend([("from", from.into()), ("to", to.into())]);
                }
                DegradeAction::HalvedBatchReducedFanout {
                    from,
                    to,
                    fanout_from,
                    fanout_to,
                } => pairs.extend([
                    ("from", from.into()),
                    ("to", to.into()),
                    ("fanout_from", fanout_from.into()),
                    ("fanout_to", fanout_to.into()),
                ]),
            }
            obj(pairs)
        }
    }

    impl ToJson for ShedCause {
        fn to_json(&self) -> Json {
            Json::from(self.label())
        }
    }

    impl ToJson for BatchOutcome {
        fn to_json(&self) -> Json {
            let mut pairs = vec![("outcome", Json::from(self.label()))];
            match self {
                BatchOutcome::Succeeded => {}
                BatchOutcome::Recovered { retries } => pairs.push(("retries", (*retries).into())),
                BatchOutcome::Degraded { action, retries } => {
                    pairs.push(("action", action.to_json()));
                    pairs.push(("retries", (*retries).into()));
                }
                BatchOutcome::Failed { reason } => pairs.push(("reason", reason.to_json())),
                BatchOutcome::Quarantined { reason, attempts } => {
                    pairs.push(("reason", reason.to_json()));
                    pairs.push(("attempts", (*attempts).into()));
                }
                BatchOutcome::Shed { cause } => pairs.push(("cause", cause.to_json())),
            }
            obj(pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::DeviceSpec;

    #[test]
    fn e2e_overlap_semantics() {
        let mut sim = SimContext::new(DeviceSpec::tiny());
        sim.record_gpu(
            Phase::Aggregation,
            gt_sim::KernelStats {
                flops: 100_000_000, // 1000 µs on tiny
                ..Default::default()
            },
        );
        let mut s = gt_sim::Simulator::new(1);
        s.add(gt_sim::TaskSpec::new(
            "S",
            gt_sim::Resource::HostCore,
            400.0,
            Phase::Sampling,
        ));
        let report = BatchReport {
            loss: 0.0,
            sim,
            prepro: Some(s.run()),
            num_nodes: 1,
            num_edges: 1,
            oom: None,
            outcome: BatchOutcome::Succeeded,
            telemetry: gt_telemetry::Telemetry::null(),
        };
        let g = report.gpu_us();
        assert!((report.e2e_us(true) - g.max(400.0)).abs() < 1e-6);
        assert!((report.e2e_us(false) - (g + 400.0)).abs() < 1e-6);
    }

    #[test]
    fn outcomes_render_to_json() {
        use crate::framework::DegradeAction;
        use gt_telemetry::ToJson;
        let o = BatchOutcome::Degraded {
            action: DegradeAction::HalvedBatch { from: 64, to: 16 },
            retries: 2,
        };
        let j = o.to_json();
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("degraded"));
        let action = j.get("action").unwrap();
        assert_eq!(action.get("from").unwrap().as_f64(), Some(64.0));
        assert_eq!(action.get("to").unwrap().as_f64(), Some(16.0));

        let q = BatchOutcome::Quarantined {
            reason: FailReason::OutOfMemory,
            attempts: 4,
        };
        let text = q.to_json().to_json_string();
        assert!(text.contains("\"quarantined\""));
        assert!(text.contains("\"out-of-memory\""));
    }
}
