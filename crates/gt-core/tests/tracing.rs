//! End-to-end tests of request-scoped causal tracing: span trees through
//! the gateway and supervisor, the flight-recorder dump protocol, SLO
//! burn-rate breaches in virtual time, and exact reconciliation between a
//! dump and the write-ahead outcome journal.
//!
//! The load-bearing property is determinism: every artifact asserted here
//! — trace ids, span trees, alert streams, dump bytes — is a pure
//! function of `(workload, fault plan, seed)`. Two identical runs must
//! produce byte-identical dumps; CI additionally diffs the same artifact
//! across `GT_THREADS={1,4}`.

use gt_core::journal;
use gt_core::tracing::{RESERVOIR, RING_CAPACITY};
use gt_core::{
    DurabilityConfig, Gateway, GtError, OverloadConfig, ServeCtx, Supervisor, TracerConfig,
};
use gt_graph::VId;
use gt_sim::FaultPlan;
use gt_telemetry::{dump_outcomes, from_chrome_json, json::parse, SloSpec};
use std::path::PathBuf;

mod common;
use common::data;

fn supervisor(plan: FaultPlan) -> Supervisor {
    let mut t = common::trainer();
    t.telemetry = gt_telemetry::Telemetry::recording();
    Supervisor::new(t, plan)
}

fn tmp_dir(name: &str) -> PathBuf {
    common::tmp_dir("tracing", name)
}

fn batches(n: usize) -> Vec<Vec<VId>> {
    (0..n)
        .map(|i| {
            ((i * 8) as VId..(i * 8 + 8) as VId)
                .map(|v| v % 300)
                .collect()
        })
        .collect()
}

/// A gateway under a sustained injected stall: service is 50× slower than
/// arrivals, so the run sheds, degrades, blows the latency SLO, and takes
/// a breach dump — deterministically.
fn overloaded_run(durable_dir: Option<&std::path::Path>) -> Gateway {
    let plan = FaultPlan::new(7).with_serve_delay_window(50_000.0, 0, None);
    let mut sup = supervisor(plan);
    sup.enable_tracing(
        TracerConfig {
            seed: 99,
            flight_path: None,
        },
        Some(SloSpec::latency(20_000.0, 0.9)),
    );
    if let Some(dir) = durable_dir {
        sup.make_durable(DurabilityConfig {
            dir: dir.to_path_buf(),
            checkpoint_every: 4,
        })
        .unwrap();
    }
    let cfg = OverloadConfig {
        queue_capacity: 4,
        deadline_us: f64::INFINITY,
        degrade_watermark: 2,
        halve_watermark: 3,
        reduced_fanout: 2,
    };
    let mut g = Gateway::new(sup, cfg);
    let d = data();
    for (i, b) in batches(24).iter().enumerate() {
        g.submit(&d, i as f64 * 1000.0, b);
    }
    g.drain(&d);
    g
}

/// Sustained overload must breach the SLO and freeze exactly one breach
/// dump, whose reason names the firing rule.
#[test]
fn overload_breaches_the_slo_and_dumps_once() {
    let g = overloaded_run(None);
    let tracer = g.supervisor.tracer.as_ref().unwrap();
    assert!(tracer.breached(), "hard overload must breach the SLO");
    assert!(tracer.slo_state().starts_with("breach:"));
    assert!(tracer.alerts().iter().any(|a| a.firing));
    let dumps = tracer.dumps();
    assert_eq!(dumps.len(), 1, "exactly one breach dump");
    assert!(
        dumps[0].reason.starts_with("slo-breach:"),
        "{}",
        dumps[0].reason
    );
    // The breach is also visible in the exported metrics.
    let snap = g.supervisor.trainer.telemetry.snapshot();
    assert!(snap.counter("gt_slo_breaches_total") >= 1);
    assert_eq!(snap.gauge("gt_slo_ok"), Some(0.0));
    assert_eq!(snap.counter("gt_flight_dumps_total"), 1);
}

/// The whole trace/SLO/dump chain is a pure function of the workload:
/// identical runs produce byte-identical dump artifacts and identical
/// alert streams. (CI re-checks the same property across GT_THREADS.)
#[test]
fn dumps_and_alerts_are_bit_identical_across_runs() {
    let a = overloaded_run(None);
    let b = overloaded_run(None);
    let ta = a.supervisor.tracer.as_ref().unwrap();
    let tb = b.supervisor.tracer.as_ref().unwrap();
    assert_eq!(ta.alerts(), tb.alerts());
    assert_eq!(ta.dumps().len(), tb.dumps().len());
    for (da, db) in ta.dumps().iter().zip(tb.dumps()) {
        assert_eq!(da.artifact, db.artifact, "dump bytes diverged");
    }
}

/// A breach dump is a valid Chrome trace document: it round-trips through
/// the exporter, its span slices carry trace/span ids, and parent→child
/// causality is expressed as flow events.
#[test]
fn breach_dump_opens_as_a_chrome_trace_with_flows() {
    let g = overloaded_run(None);
    let dump = &g.supervisor.tracer.as_ref().unwrap().dumps()[0].artifact;

    let traces = from_chrome_json(dump).unwrap();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].process, "flight recorder");
    let slices: Vec<_> = traces[0]
        .events
        .iter()
        .filter(|e| e.flow.is_none())
        .collect();
    let flows: Vec<_> = traces[0]
        .events
        .iter()
        .filter(|e| e.flow.is_some())
        .collect();
    assert!(!slices.is_empty());
    assert!(
        !flows.is_empty(),
        "span trees must link parents to children"
    );
    // Flow events come in start/finish pairs sharing the child span id.
    assert_eq!(flows.len() % 2, 0);
    // Every slice names its trace and span.
    for s in &slices {
        assert!(s.args.iter().any(|(k, _)| k == "trace_id"), "{:?}", s.name);
        assert!(s.args.iter().any(|(k, _)| k == "span_id"));
    }
    // The raw text uses the Perfetto flow phases.
    assert!(dump.contains("\"ph\":\"s\""));
    assert!(dump.contains("\"ph\":\"f\""));
    // Segment vocabulary: the S/R/K/T pipeline is visible in the dump.
    for seg in ["\"S\"", "\"R\"", "\"K\"", "\"T\""] {
        assert!(dump.contains(seg), "missing segment {seg}");
    }
}

/// A dump taken from a durable run reconciles *exactly* against the
/// write-ahead journal: for every request in the dump that reached the
/// supervisor, the dump's `outcome_json` equals the journal record's
/// outcome byte for byte.
#[test]
fn breach_dump_reconciles_with_the_journal() {
    let dir = tmp_dir("reconcile");
    let g = overloaded_run(Some(&dir));
    let tracer = g.supervisor.tracer.as_ref().unwrap();
    // Reconcile the *final* ring state (a superset of the breach dump's)
    // so served batches after the breach are covered too.
    let mut t = g
        .supervisor
        .tracer
        .as_ref()
        .map(|t| t.recorder().dump("final"))
        .unwrap();
    // Also sanity-check the breach-time artifact itself.
    let breach = tracer.dumps()[0].artifact.clone();

    let scan = journal::read_journal(dir.join("outcomes.gtj")).unwrap();
    let journaled: std::collections::BTreeMap<_, _> = scan.batch_outcomes().collect();
    assert!(
        !journaled.is_empty(),
        "durable gateway must journal batches"
    );

    for dump in [&mut t, &mut breach.clone()] {
        let outcomes = dump_outcomes(dump).unwrap();
        assert!(!outcomes.is_empty());
        for (batch_index, outcome_json) in &outcomes {
            let journal_json = journaled
                .get(batch_index)
                .unwrap_or_else(|| panic!("batch {batch_index} traced but not journaled"));
            assert_eq!(
                outcome_json, journal_json,
                "outcome divergence at batch {batch_index}"
            );
        }
    }
}

/// Tracing without a gateway: `serve` alone still produces span
/// trees with the S/R/K/T decomposition, parented to a per-request root
/// with deterministic ids.
#[test]
fn supervisor_only_tracing_builds_segment_trees() {
    let mut sup = supervisor(FaultPlan::new(0));
    sup.enable_tracing(TracerConfig::default(), None);
    let d = data();
    for b in batches(3) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let traces = sup.tracer.as_ref().unwrap().recorder().traces();
    assert_eq!(traces.len(), 3);
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.request_index, i);
        assert_eq!(t.batch_index, Some(i));
        assert_eq!(t.outcome, "succeeded");
        let root = t.root_span().unwrap();
        let labels: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        for seg in ["S", "R", "K", "T", "kernel"] {
            assert!(labels.contains(&seg), "request {i} missing segment {seg}");
        }
        // Every non-root span parents to the request root and stays inside
        // the root's envelope.
        let root_span = &t.spans[0];
        for s in &t.spans[1..] {
            assert_eq!(s.parent, Some(root));
            assert!(s.start_us >= root_span.start_us - 1e-9);
            assert!(
                s.start_us + s.dur_us <= root_span.start_us + root_span.dur_us + 1e-9,
                "segment {} escapes the request envelope",
                s.name
            );
        }
    }
    // Identity is a pure function of (seed, request_index).
    let again = {
        let mut sup = supervisor(FaultPlan::new(0));
        sup.enable_tracing(TracerConfig::default(), None);
        let d = data();
        for b in batches(3) {
            sup.serve(&d, &b, ServeCtx::default()).unwrap();
        }
        sup.tracer.unwrap().recorder().traces()
    };
    assert_eq!(traces, again);
}

/// An injected crash site freezes the flight recorder before the error
/// surfaces: the dump names the site and retains the doomed batch.
#[test]
fn injected_crash_takes_a_flight_dump() {
    let dir = tmp_dir("crash");
    let flight = dir.join("flight.json");
    let plan = FaultPlan::new(5).with_crash_at(2, gt_sim::CrashSite::MidJournal);
    let mut sup = supervisor(plan);
    sup.enable_tracing(
        TracerConfig {
            flight_path: Some(flight.clone()),
            ..TracerConfig::default()
        },
        None,
    );
    sup.make_durable(DurabilityConfig {
        dir: dir.clone(),
        checkpoint_every: 0,
    })
    .unwrap();
    let d = data();
    let mut crashed = false;
    for b in batches(4) {
        match sup.serve(&d, &b, ServeCtx::default()) {
            Ok(_) => {}
            Err(GtError::InjectedCrash { site }) => {
                assert_eq!(site, gt_sim::CrashSite::MidJournal);
                crashed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert!(crashed, "crash rule must fire");
    let tracer = sup.tracer.as_ref().unwrap();
    assert_eq!(tracer.dumps().len(), 1);
    assert_eq!(tracer.dumps()[0].reason, "crash:mid-journal");
    // The artifact is on disk too, and carries the reason.
    let on_disk = std::fs::read_to_string(&flight).unwrap();
    let doc = parse(&on_disk).unwrap();
    assert_eq!(
        doc.get("gt_flight_reason").unwrap().as_str(),
        Some("crash:mid-journal")
    );
    // The crashing batch (index 2) is in the ring: its outcome was
    // resolved before the journal append tore.
    let outcomes = dump_outcomes(&on_disk).unwrap();
    assert!(outcomes.iter().any(|(b, _)| *b == 2));
}

/// Tail sampling: abnormal requests always keep their full tree; plain
/// successes beyond the reservoir are demoted to a root-only trace but
/// remain present (and reconcilable).
#[test]
fn tail_sampling_demotes_only_plain_successes() {
    // Three reservoirs' worth of plain successes, all inside the ring.
    let n = 3 * RESERVOIR;
    assert!(n <= RING_CAPACITY);
    let mut sup = supervisor(FaultPlan::new(0));
    sup.enable_tracing(
        TracerConfig {
            seed: 1,
            flight_path: None,
        },
        None,
    );
    let d = data();
    for b in batches(n) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let traces = sup.tracer.as_ref().unwrap().recorder().traces();
    assert_eq!(traces.len(), n);
    let demoted = traces.iter().filter(|t| t.spans.len() == 1).count();
    assert!(demoted > 0, "the reservoir must demote some of {n}");
    assert!(
        traces[..RESERVOIR].iter().all(|t| t.spans.len() > 1),
        "the reservoir floor keeps the early successes"
    );
    // Demoted traces still carry identity and outcome.
    for t in traces.iter().filter(|t| t.spans.len() == 1) {
        assert_eq!(t.outcome, "succeeded");
        assert!(t.batch_index.is_some());
        assert!(!t.outcome_json.is_empty());
    }
    let snap = sup.trainer.telemetry.snapshot();
    assert_eq!(
        snap.counter("gt_trace_requests_total"),
        n as u64,
        "every request is traced"
    );
    assert_eq!(snap.counter("gt_trace_demoted_total"), demoted as u64);

    // Abnormal outcomes bypass the reservoir entirely: past its floor,
    // where plain successes are demoted, quarantined requests (duplicate
    // ids) are never demoted and keep their outcome.
    for _ in 0..RESERVOIR {
        sup.serve(&d, &[5, 5, 6], ServeCtx::default()).unwrap();
    }
    let snap = sup.trainer.telemetry.snapshot();
    assert_eq!(snap.counter("gt_trace_demoted_total"), demoted as u64);
    let traces = sup.tracer.as_ref().unwrap().recorder().traces();
    for t in &traces[n..] {
        assert_eq!(t.outcome, "quarantined");
        assert!(t.outcome_json.contains("invalid-batch"));
    }
}

/// Shed requests are traced (root-only, no batch index) and counted
/// against the SLO even though they never touched the supervisor.
#[test]
fn shed_requests_are_traced_and_counted_bad() {
    let g = overloaded_run(None);
    let traces = g.supervisor.tracer.as_ref().unwrap().recorder().traces();
    let shed: Vec<_> = traces.iter().filter(|t| t.outcome == "shed").collect();
    assert!(!shed.is_empty(), "hard overload must shed");
    for t in &shed {
        assert_eq!(t.batch_index, None);
        assert_eq!(t.spans.len(), 1);
        assert!(t.outcome_json.contains("queue-full") || t.outcome_json.contains("deadline"));
    }
    let snap = g.supervisor.trainer.telemetry.snapshot();
    assert!(snap.counter("gt_slo_bad_total") >= shed.len() as u64);
}
