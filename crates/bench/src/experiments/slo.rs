//! SLO burn-rate breach under sustained overload — the flight-recorder
//! acceptance scenario (docs/telemetry.md §SLOs in virtual time).
//!
//! Not a paper figure: this experiment drives the gateway with arrivals
//! far faster than an injected serve stall lets it drain, so the latency
//! SLO burns its error budget, the multi-window rules fire, and the
//! tracer freezes a flight dump at the breach instant. Everything is
//! priced in DES virtual time, so the breach timeline, the alert stream,
//! and the dump bytes are a pure function of `(workload, seed)` —
//! bit-identical across runs and `GT_THREADS` widths, which is what the
//! identity manifest (`crates/bench/identity.sh`) holds at both widths.

use crate::runner::{print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::error::GtError;
use gt_core::journal;
use gt_core::serve::{DurabilityConfig, Supervisor};
use gt_core::trainer::GtVariant;
use gt_core::{Gateway, OverloadConfig, TracerConfig};
use gt_sim::FaultPlan;
use gt_telemetry::{dump_outcomes, SloAlert, SloSpec};
use std::path::PathBuf;

/// Overload-scenario knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct SloOpts {
    /// Durable-state directory (journal + checkpoint). `None`: a
    /// throwaway directory under the system temp dir, fresh each run.
    pub dir: Option<PathBuf>,
    /// Also write the breach dump here (the tracer's `flight_path`).
    pub flight_out: Option<PathBuf>,
    /// Requests submitted to the gateway, 1 ms apart in virtual time.
    pub requests: usize,
    /// Injected serve stall per batch, virtual µs — the overload source.
    pub stall_us: f64,
    /// The latency objective: completions slower than this are bad.
    pub threshold_us: f64,
}

impl Default for SloOpts {
    fn default() -> Self {
        SloOpts {
            dir: None,
            flight_out: None,
            requests: 24,
            stall_us: 50_000.0,
            threshold_us: 20_000.0,
        }
    }
}

/// What the overloaded run did, in assertable form.
#[derive(Debug)]
pub struct Summary {
    /// Requests submitted.
    pub requests: usize,
    /// `(outcome label, count)` over every traced request.
    pub outcomes: Vec<(String, usize)>,
    /// Every rule transition the SLO engine emitted, in virtual order.
    pub alerts: Vec<SloAlert>,
    /// Final SLO state (`ok` or `breach:<rule>`).
    pub slo_state: String,
    /// `(reason, artifact bytes)` per flight dump taken.
    pub dumps: Vec<(String, usize)>,
    /// Traced requests whose `outcome_json` matched the journal record
    /// byte for byte (every journaled batch in the dump must).
    pub reconciled: usize,
}

/// Drive the overloaded gateway to an SLO breach and reconcile the flight
/// dump against the write-ahead journal. `Err` means the driver could not
/// run or the dump *disagreed* with the journal — the one invariant this
/// experiment exists to hold.
pub fn run(cfg: &ExpConfig, opts: &SloOpts) -> Result<Summary, GtError> {
    let spec = gt_datasets::by_name("reddit2").expect("known dataset");
    let data = cfg.build(&spec);
    let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);

    let plan = FaultPlan::new(cfg.seed).with_serve_delay_window(opts.stall_us, 0, None);
    let mut trainer = cfg.graphtensor(GtVariant::Dynamic, model);
    trainer.telemetry = gt_telemetry::Telemetry::recording();
    let mut sup = Supervisor::new(trainer, plan);
    sup.enable_tracing(
        TracerConfig {
            seed: cfg.seed,
            flight_path: opts.flight_out.clone(),
        },
        Some(SloSpec::latency(opts.threshold_us, 0.9)),
    );
    let dir = opts.dir.clone().unwrap_or_else(|| {
        let d = std::env::temp_dir().join("gt_repro_slo");
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    let durability = DurabilityConfig::new(&dir);
    sup.make_durable(durability.clone())?;

    // Arrivals every 1 ms against a stall tens of ms deep: the queue
    // fills, the gateway sheds and degrades, and the SLO burns.
    let mut g = Gateway::new(
        sup,
        OverloadConfig {
            queue_capacity: 4,
            deadline_us: f64::INFINITY,
            degrade_watermark: 2,
            halve_watermark: 3,
            reduced_fanout: 2,
        },
    );
    for (i, batch) in cfg.batch_stream(&data, opts.requests).enumerate() {
        g.submit(&data, i as f64 * 1000.0, &batch);
    }
    g.drain(&data);

    let tracer = g.supervisor.tracer.as_ref().expect("tracing enabled");
    let traces = tracer.recorder().traces();
    let mut outcomes: Vec<(String, usize)> = Vec::new();
    for t in &traces {
        match outcomes.iter_mut().find(|(l, _)| *l == t.outcome) {
            Some((_, c)) => *c += 1,
            None => outcomes.push((t.outcome.clone(), 1)),
        }
    }

    // Reconcile the final ring (a superset of the breach dump) against
    // the journal: the observability surface may never disagree with the
    // durable record.
    let scan = journal::read_journal(durability.journal_path())?;
    let journaled: std::collections::BTreeMap<_, _> = scan.batch_outcomes().collect();
    let ring = tracer.recorder().dump("final");
    let ring_outcomes = dump_outcomes(&ring).map_err(|e| GtError::Io {
        detail: format!("flight dump is not parseable: {e:?}"),
    })?;
    let mut reconciled = 0usize;
    for (batch_index, outcome_json) in &ring_outcomes {
        match journaled.get(batch_index) {
            Some(j) if j == outcome_json => reconciled += 1,
            other => {
                return Err(GtError::Io {
                    detail: format!(
                        "flight dump disagrees with the journal at batch {batch_index}: \
                         traced {outcome_json}, journaled {other:?}"
                    ),
                })
            }
        }
    }

    Ok(Summary {
        requests: opts.requests,
        outcomes,
        alerts: tracer.alerts().to_vec(),
        slo_state: tracer.slo_state(),
        dumps: tracer
            .dumps()
            .iter()
            .map(|d| (d.reason.clone(), d.artifact.len()))
            .collect(),
        reconciled,
    })
}

/// Print the run: the breach line (`SLO BREACH ...`), the dump line and
/// the reconciliation, all hashed into the identity manifest.
pub fn print(cfg: &ExpConfig, opts: &SloOpts) {
    let s = run(cfg, opts).unwrap_or_else(|e| panic!("slo experiment failed: {e}"));
    let rows: Vec<Vec<String>> = s
        .outcomes
        .iter()
        .map(|(label, count)| vec![label.clone(), count.to_string()])
        .collect();
    print_table(
        &format!(
            "slo: {} requests under a {:.0} µs injected stall ({:.0} µs objective)",
            s.requests, opts.stall_us, opts.threshold_us
        ),
        &["outcome", "requests"],
        &rows,
    );
    for a in &s.alerts {
        println!(
            "  rule {:>6} {} at {:>9.0} µs (burn long {:.2}, short {:.2})",
            a.rule,
            if a.firing { "FIRING " } else { "cleared" },
            a.at_us,
            a.burn_long,
            a.burn_short
        );
    }
    match s.slo_state.as_str() {
        "ok" => println!("  final state: ok (no breach)"),
        state => println!("  SLO BREACH: final state {state}"),
    }
    for (reason, bytes) in &s.dumps {
        println!("  flight dump: {reason} ({bytes} B)");
    }
    if let Some(path) = &opts.flight_out {
        println!("  dump written to {}", path.display());
    }
    println!(
        "  reconciled {} traced request(s) against the journal, byte for byte",
        s.reconciled
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tag: &str) -> SloOpts {
        let dir = std::env::temp_dir().join(format!("gt_bench_slo_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        SloOpts {
            dir: Some(dir),
            ..Default::default()
        }
    }

    /// The acceptance path: overload breaches, dumps once, and the dump
    /// reconciles exactly with the journal.
    #[test]
    fn overload_breaches_dumps_and_reconciles() {
        let cfg = ExpConfig::test();
        let s = run(&cfg, &opts("breach")).unwrap();
        assert!(s.slo_state.starts_with("breach:"), "{}", s.slo_state);
        assert!(s.alerts.iter().any(|a| a.firing));
        assert_eq!(s.dumps.len(), 1);
        assert!(s.dumps[0].0.starts_with("slo-breach:"));
        assert!(s.reconciled > 0, "served batches must reconcile");
        assert!(s.outcomes.iter().any(|(l, _)| l == "shed"));
    }

    /// The breach dump lands on disk via `--flight-out` and the whole
    /// artifact chain is deterministic run to run.
    #[test]
    fn flight_out_is_written_and_deterministic() {
        let cfg = ExpConfig::test();
        let mut a = opts("det_a");
        a.flight_out = Some(a.dir.clone().unwrap().join("flight.json"));
        let mut b = opts("det_b");
        b.flight_out = Some(b.dir.clone().unwrap().join("flight.json"));
        let sa = run(&cfg, &a).unwrap();
        let sb = run(&cfg, &b).unwrap();
        assert_eq!(sa.alerts, sb.alerts);
        assert_eq!(sa.outcomes, sb.outcomes);
        let da = std::fs::read(a.flight_out.unwrap()).unwrap();
        let db = std::fs::read(b.flight_out.unwrap()).unwrap();
        assert!(!da.is_empty());
        assert_eq!(da, db, "breach dumps diverged across identical runs");
    }
}
