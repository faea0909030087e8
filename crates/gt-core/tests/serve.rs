//! End-to-end tests of the self-healing serving supervisor: bit-identity
//! when no faults are injected, deterministic outcomes under a seeded
//! fault plan, and the full recovery ladder (retry, degrade, quarantine)
//! on a multi-batch serving loop — with zero panics throughout.

use gt_core::{
    BatchOutcome, BatchReport, DegradeAction, FailReason, Framework, GraphData, ServeCtx,
    Supervisor,
};
use gt_graph::VId;
use gt_sim::{FaultKind, FaultPlan, FaultRule, SystemSpec};

mod common;
use common::{batches, data, trainer};

/// Plain single-node serving: no gateway, no journal, so never an error.
fn serve(sup: &mut Supervisor, d: &GraphData, batch: &[VId]) -> BatchReport {
    sup.serve(d, batch, ServeCtx::default()).unwrap().report
}

#[test]
fn empty_plan_is_bit_identical_to_unsupervised() {
    let d = data();
    let mut raw = trainer();
    let mut sup = Supervisor::new(trainer(), FaultPlan::new(0));
    for b in batches(6) {
        let plain = raw.train_batch(&d, &b);
        let served = serve(&mut sup, &d, &b);
        assert_eq!(plain.loss.to_bits(), served.loss.to_bits());
        assert_eq!(served.outcome, BatchOutcome::Succeeded);
        let (p, s) = (plain.prepro.unwrap(), served.prepro.unwrap());
        assert_eq!(p.makespan_us.to_bits(), s.makespan_us.to_bits());
    }
    assert!(sup.quarantine.is_empty());
    assert_eq!(sup.backoff_paid_us, 0.0);
}

#[test]
fn same_seed_and_plan_give_identical_outcomes() {
    let d = data();
    let plan = FaultPlan::new(42)
        .with_transfer_failure(0.4)
        .with_straggler(0, 4.0)
        .with_rule(FaultRule::transient(
            FaultKind::HashContention { factor: 2.0 },
            0.3,
        ));
    let run = || {
        let mut sup = Supervisor::new(trainer(), plan.clone());
        let reports: Vec<_> = batches(8).iter().map(|b| serve(&mut sup, &d, b)).collect();
        let outcomes: Vec<BatchOutcome> = reports.iter().map(|r| r.outcome).collect();
        let losses: Vec<u32> = reports.iter().map(|r| r.loss.to_bits()).collect();
        (
            outcomes,
            losses,
            sup.quarantine.clone(),
            sup.backoff_paid_us,
        )
    };
    let (o1, l1, q1, b1) = run();
    let (o2, l2, q2, b2) = run();
    assert_eq!(o1, o2);
    assert_eq!(l1, l2);
    assert_eq!(q1, q2);
    assert_eq!(b1.to_bits(), b2.to_bits());
}

#[test]
fn transient_transfer_failures_are_retried_with_backoff() {
    let d = data();
    // 60% failure per attempt: most batches need at least one retry, and
    // with 3 retries almost all eventually clear.
    let plan = FaultPlan::new(7).with_transfer_failure(0.6);
    let mut sup = Supervisor::new(trainer(), plan);
    let reports: Vec<_> = batches(10).iter().map(|b| serve(&mut sup, &d, b)).collect();
    let recovered = reports
        .iter()
        .filter(|r| matches!(r.outcome, BatchOutcome::Recovered { retries } if retries > 0))
        .count();
    assert!(recovered > 0, "no batch ever needed a retry");
    assert!(sup.backoff_paid_us > 0.0);
    for r in &reports {
        match r.outcome {
            BatchOutcome::Succeeded | BatchOutcome::Recovered { .. } => {
                assert!(r.loss.is_finite())
            }
            BatchOutcome::Quarantined { reason, attempts } => {
                assert_eq!(reason, FailReason::TransferFailure);
                assert_eq!(attempts, 4); // 1 attempt + 3 retries
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(
        sup.quarantine.len(),
        reports
            .iter()
            .filter(|r| matches!(r.outcome, BatchOutcome::Quarantined { .. }))
            .count()
    );
}

#[test]
fn always_failing_transfers_quarantine_the_batch() {
    let d = data();
    let mut sup = Supervisor::new(trainer(), FaultPlan::new(1).with_transfer_failure(1.0));
    let r = serve(&mut sup, &d, &batches(1)[0]);
    assert_eq!(
        r.outcome,
        BatchOutcome::Quarantined {
            reason: FailReason::TransferFailure,
            attempts: 4,
        }
    );
    assert!(r.loss.is_nan());
    assert_eq!(sup.quarantine.len(), 1);
    assert_eq!(sup.quarantine[0].batch_index, 0);
    assert_eq!(sup.quarantine[0].attempts, 4);
}

#[test]
fn invalid_batches_are_quarantined_without_touching_the_trainer() {
    let d = data();
    let mut sup = Supervisor::new(trainer(), FaultPlan::new(0));
    // Out-of-range vertex id.
    let r = serve(&mut sup, &d, &[5, 9999]);
    assert_eq!(
        r.outcome,
        BatchOutcome::Quarantined {
            reason: FailReason::InvalidBatch,
            attempts: 0,
        }
    );
    // Empty batch.
    let r = serve(&mut sup, &d, &[]);
    assert!(matches!(r.outcome, BatchOutcome::Quarantined { .. }));
    // Duplicate ids: legal for the sampler (BPR triples) but not for
    // supervised serving, where labels are gathered per batch entry.
    let r = serve(&mut sup, &d, &[1, 1, 1]);
    assert!(matches!(
        r.outcome,
        BatchOutcome::Quarantined {
            reason: FailReason::InvalidBatch,
            attempts: 0,
        }
    ));
    assert_eq!(sup.quarantine.len(), 3);
    // A good batch still trains afterwards.
    let r = serve(&mut sup, &d, &batches(1)[0]);
    assert_eq!(r.outcome, BatchOutcome::Succeeded);
}

#[test]
fn persistent_memory_pressure_halves_the_batch() {
    let d = data();
    let full: Vec<VId> = (0..16).collect();
    let half: Vec<VId> = full[..8].to_vec();
    // Calibrate: find a capacity between the half-batch and full-batch
    // peak footprints so the full batch OOMs but its half fits.
    let peak_of = |b: &[VId]| {
        let mut probe = trainer();
        probe.train_batch(&d, b).sim.memory.peak()
    };
    let (peak_half, peak_full) = (peak_of(&half), peak_of(&full));
    assert!(peak_half < peak_full);
    let device_mem = SystemSpec::tiny().gpu.device_mem_bytes;
    let fraction = ((peak_half + peak_full) / 2) as f64 / device_mem as f64;

    // Pressure afflicts every attempt of batch 0 only.
    let pressure = FaultKind::MemoryPressure { fraction };
    let plan = FaultPlan::new(3).with_rule(FaultRule::once(pressure, 0));
    let mut sup = Supervisor::new(trainer(), plan);
    let r = serve(&mut sup, &d, &full);
    match r.outcome {
        BatchOutcome::Degraded {
            action: DegradeAction::HalvedBatch { from, to },
            retries,
        } => {
            assert_eq!(from, 16);
            assert_eq!(to, 8);
            assert!(retries >= 2, "needs two OOMs before halving");
        }
        other => panic!("expected HalvedBatch degradation, got {other:?}"),
    }
    assert!(r.loss.is_finite());
    // The next batch is unafflicted and trains at full size.
    let r = serve(&mut sup, &d, &full);
    assert_eq!(r.outcome, BatchOutcome::Succeeded);
}

#[test]
fn multi_batch_demo_under_mixed_faults_never_panics() {
    // The acceptance demo: a serving loop under transfer failures, one
    // straggler core, and a forced OOM window — every batch resolves to a
    // structured outcome, nothing panics.
    let d = data();
    let bs = batches(10);
    // Calibrate the pressure against batch 4's actual footprint *in
    // sequence*: the sampler seed advances with each trained batch, so the
    // probe must train the four prior batches first.
    let peak_of = |b: &[VId]| {
        let mut probe = trainer();
        for prior in &bs[..4] {
            probe.train_batch(&d, prior);
        }
        probe.train_batch(&d, b).sim.memory.peak()
    };
    let (peak_half, peak_full) = (peak_of(&bs[4][..8]), peak_of(&bs[4]));
    assert!(peak_half < peak_full);
    let device_mem = SystemSpec::tiny().gpu.device_mem_bytes;
    let fraction = ((peak_half + peak_full) / 2) as f64 / device_mem as f64;

    // Flaky transfers on every batch except the OOM window (batch 4 needs
    // its retry budget for the memory-pressure ladder), plus a straggler.
    let flaky = |from: usize, until: Option<usize>| FaultRule {
        kind: FaultKind::TransferFailure,
        probability: 0.35,
        from_batch: from,
        until_batch: until,
        transient: true,
    };
    let plan = FaultPlan::new(2026)
        .with_rule(flaky(0, Some(4)))
        .with_rule(flaky(5, None))
        .with_straggler(0, 4.0)
        .with_rule(FaultRule::once(FaultKind::MemoryPressure { fraction }, 4)); // forced OOM on batch 4
    let mut sup = Supervisor::new(trainer(), plan);
    let reports: Vec<_> = batches(10).iter().map(|b| serve(&mut sup, &d, b)).collect();

    let trained = reports.iter().filter(|r| r.outcome.trained()).count();
    assert!(trained >= 7, "only {trained}/10 batches trained");
    for r in &reports {
        if r.outcome.trained() {
            assert!(r.loss.is_finite());
        } else {
            assert!(r.loss.is_nan());
        }
    }
    // The forced-OOM batch degraded rather than failing outright.
    assert!(
        matches!(
            reports[4].outcome,
            BatchOutcome::Degraded {
                action: DegradeAction::HalvedBatch { .. },
                ..
            }
        ),
        "batch 4 outcome: {:?}",
        reports[4].outcome
    );
    assert_eq!(sup.batches_served(), 10);
}
