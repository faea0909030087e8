//! Telemetry acceptance tests: the supervisor's counters must agree exactly
//! with the [`BatchOutcome`]s it returns, and a recording handle must not
//! perturb numerics relative to the null handle.

use gt_core::{BatchOutcome, DegradeAction, Framework, ServeCtx, Supervisor};
use gt_graph::VId;
use gt_sim::{FaultKind, FaultPlan, FaultRule, SystemSpec};
use gt_telemetry::Telemetry;

mod common;
use common::{batches, data, trainer};

/// Retries implied by an outcome: the supervisor increments its retry
/// counter once per re-attempt, so `Quarantined { attempts }` paid
/// `attempts - 1` retries (and an up-front rejection paid none).
fn implied_retries(outcome: &BatchOutcome) -> u64 {
    match outcome {
        BatchOutcome::Succeeded | BatchOutcome::Failed { .. } | BatchOutcome::Shed { .. } => 0,
        BatchOutcome::Recovered { retries } | BatchOutcome::Degraded { retries, .. } => {
            *retries as u64
        }
        BatchOutcome::Quarantined { attempts, .. } => attempts.saturating_sub(1) as u64,
    }
}

/// Halving steps implied by a `HalvedBatch { from, to }`: replay the
/// supervisor's shrink rule (halve, never below one vertex) until the
/// final size is reached.
fn implied_halvings(outcome: &BatchOutcome) -> u64 {
    if let BatchOutcome::Degraded {
        action: DegradeAction::HalvedBatch { from, to },
        ..
    } = outcome
    {
        let mut len = *from;
        let mut steps = 0;
        while len > *to {
            len = (len / 2).max(1);
            steps += 1;
        }
        steps
    } else {
        0
    }
}

#[test]
fn mixed_fault_serving_counters_match_outcomes_exactly() {
    let d = data();
    let bs = batches(10);

    // Calibrate memory pressure against batch 4's in-sequence footprint so
    // the full batch OOMs but its half fits (same setup as tests/serve.rs).
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
        .with_rule(FaultRule::once(FaultKind::MemoryPressure { fraction }, 4));

    // Fresh recording handle: Telemetry::null() shares one process-global
    // registry, which other tests in this binary also touch.
    let telemetry = Telemetry::recording();
    let mut t = trainer();
    t.telemetry = telemetry.clone();
    let mut sup = Supervisor::new(t, plan);
    let outcomes: Vec<BatchOutcome> = bs
        .iter()
        .map(|b| {
            sup.serve(&d, b, ServeCtx::default())
                .unwrap()
                .report
                .outcome
        })
        .collect();

    let snap = telemetry.snapshot();
    let count = |label: &str| outcomes.iter().filter(|o| o.label() == label).count() as u64;

    assert_eq!(snap.counter("gt_serve_batches_total"), 10);
    assert_eq!(snap.counter("gt_serve_succeeded_total"), count("succeeded"));
    assert_eq!(snap.counter("gt_serve_recovered_total"), count("recovered"));
    assert_eq!(snap.counter("gt_serve_degraded_total"), count("degraded"));
    assert_eq!(
        snap.counter("gt_serve_quarantined_total"),
        count("quarantined")
    );
    assert_eq!(
        snap.counter("gt_serve_quarantined_total"),
        sup.quarantine.len() as u64
    );

    let expected_retries: u64 = outcomes.iter().map(implied_retries).sum();
    assert!(expected_retries > 0, "plan produced no retries at all");
    assert_eq!(snap.counter("gt_serve_retries_total"), expected_retries);

    let expected_halvings: u64 = outcomes.iter().map(implied_halvings).sum();
    assert!(expected_halvings > 0, "plan produced no OOM halvings");
    assert_eq!(snap.counter("gt_serve_halvings_total"), expected_halvings);

    // Backoff accounting: the metric is added in whole µs, so it tracks the
    // supervisor's float total to within one µs per retry.
    let backoff = snap.counter("gt_serve_backoff_us_total") as f64;
    assert!((backoff - sup.backoff_paid_us).abs() <= expected_retries as f64);

    // Each trained outcome committed exactly one training step.
    let trained = outcomes.iter().filter(|o| o.trained()).count() as u64;
    assert_eq!(snap.counter("gt_train_batches_total"), trained);

    // Every serve call produced one `serve_batch` span and one resolved-outcome event.
    let spans = telemetry.spans();
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.track == "serve" && s.name == "serve_batch")
            .count(),
        10
    );
    let events = telemetry.events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.track == "serve" && e.name == "outcome")
            .count(),
        10
    );
}

#[test]
fn recording_collector_is_bit_identical_to_null() {
    let d = data();
    for seed in [3u64, 11, 29] {
        let mk = |telemetry: Telemetry| {
            let mut t = trainer();
            t.sampler.seed = seed;
            t.telemetry = telemetry;
            t
        };
        let mut plain = mk(Telemetry::null());
        let mut traced = mk(Telemetry::recording());
        for b in batches(4) {
            let a = plain.train_batch(&d, &b);
            let z = traced.train_batch(&d, &b);
            assert_eq!(a.loss.to_bits(), z.loss.to_bits(), "seed {seed}");
            let (pa, pz) = (a.prepro.unwrap(), z.prepro.unwrap());
            assert_eq!(pa.makespan_us.to_bits(), pz.makespan_us.to_bits());
        }
        assert!(!traced.telemetry.spans().is_empty());
    }
}
