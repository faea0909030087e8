//! Overload gateway under injected stalls + deadline pressure: the shed
//! ladder engages end to end, the shed/degrade counters reconcile exactly
//! with the completions the caller saw, and the whole resolution sequence
//! is pinned to one digest at every `GT_THREADS` width (docs/fault_model.md
//! §Overload shedding, docs/parallelism.md).
//!
//! The global pool freezes its width at first use, so one process only
//! ever observes one width; CI runs the suite at `GT_THREADS=1` and `=4`,
//! and both are held to [`PINNED_DIGEST`].

use gt_core::config::ModelConfig;
use gt_core::data::GraphData;
use gt_core::framework::{BatchOutcome, ShedCause};
use gt_core::overload::{Gateway, OverloadConfig};
use gt_core::serve::Supervisor;
use gt_core::trainer::{GraphTensor, GtVariant};
use gt_graph::VId;
use gt_sample::SamplerConfig;
use gt_sim::{FaultPlan, SystemSpec};

/// FNV-1a of the resolution sequence: shed set, degrade actions, virtual
/// timestamps, everything.
const PINNED_DIGEST: u64 = 0x07b3_4a97_83ce_b704;

/// Drive a gateway into hard overload — a sustained 50 ms serving stall
/// against 1 ms arrivals, a 120 ms deadline, and a 4-deep queue — assert
/// every reconciliation invariant, and return a deterministic digest of
/// the full resolution sequence.
fn run_scenario() -> String {
    let plan = FaultPlan::new(7).with_serve_delay_window(50_000.0, 0, None);
    let mut trainer = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, 16, 4),
        SystemSpec::tiny(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 11,
        ..Default::default()
    };
    trainer.telemetry = gt_telemetry::Telemetry::recording();
    let telemetry = trainer.telemetry.clone();
    let mut gateway = Gateway::new(
        Supervisor::new(trainer, plan),
        OverloadConfig {
            queue_capacity: 4,
            deadline_us: 120_000.0,
            degrade_watermark: 2,
            halve_watermark: 3,
            reduced_fanout: 2,
        },
    );
    let data = GraphData::synthetic(300, 3000, 16, 4, 3);

    let mut all = Vec::new();
    for i in 0..24usize {
        let batch: Vec<VId> = (0..8).map(|j| ((i * 8 + j) % 300) as VId).collect();
        all.extend(gateway.submit(&data, i as f64 * 1000.0, &batch));
        assert!(gateway.queue_depth() <= 4, "queue overflowed its bound");
    }
    all.extend(gateway.drain(&data));
    assert_eq!(all.len(), 24, "every request must resolve exactly once");

    // The ladder must actually engage: both shed causes and at least one
    // degraded service under this pressure profile.
    let count = |pred: &dyn Fn(&BatchOutcome) -> bool| {
        all.iter().filter(|c| pred(&c.outcome)).count() as u64
    };
    let queue_full = count(&|o| {
        *o == BatchOutcome::Shed {
            cause: ShedCause::QueueFull,
        }
    });
    let expired = count(&|o| {
        *o == BatchOutcome::Shed {
            cause: ShedCause::DeadlineExpired,
        }
    });
    let degraded = count(&|o| matches!(o, BatchOutcome::Degraded { .. }));
    assert!(queue_full > 0, "hard overload must shed at the queue");
    assert!(
        expired > 0,
        "the deadline watchdog must shed stale requests"
    );
    assert!(degraded > 0, "the ladder must degrade under pressure");

    // Counters ↔ outcomes, exactly: the monitoring surface may not drift
    // from what callers were told by even one request.
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.counter("gt_gateway_shed_total"),
        queue_full + expired,
        "shed counter must equal shed completions"
    );
    assert_eq!(
        snapshot.counter("gt_gateway_degraded_total"),
        degraded,
        "degrade counter must equal degraded completions"
    );
    // Deadline sheds never occupied the server.
    for c in &all {
        if matches!(c.outcome, BatchOutcome::Shed { .. }) {
            assert_eq!(
                c.service_us, 0.0,
                "shed request {} was served",
                c.request_index
            );
        }
    }

    let mut digest = String::new();
    for c in &all {
        digest.push_str(&format!(
            "{}:{:?}:q{}:s{}:d{};",
            c.request_index, c.outcome, c.queued_us, c.service_us, c.done_us
        ));
    }
    digest.push_str(&format!(
        "shed={};degraded={degraded}",
        queue_full + expired
    ));
    digest
}

/// The in-process invariants, and the pinned digest, at whatever width
/// this process runs.
#[test]
fn shed_ladder_reconciles_counters_under_stall_and_deadline_pressure() {
    let digest = run_scenario();
    // Determinism within one process, too.
    assert_eq!(digest, run_scenario());
    let got = gt_telemetry::fnv1a(digest.bytes());
    assert_eq!(
        got, PINNED_DIGEST,
        "overload resolution moved: digest {got:#018x}, pinned {PINNED_DIGEST:#018x}"
    );
}
