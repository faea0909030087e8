//! Fault-tolerant serving: a multi-batch training loop that survives
//! injected transfer failures, a straggler host core, and bursts of device
//! memory pressure — zero panics, every batch resolving to a structured
//! outcome (succeeded / recovered / degraded / quarantined).
//!
//! ```sh
//! cargo run --release --example fault_tolerant_serving
//! ```
//!
//! Every batch goes through the one entry point,
//! `Supervisor::serve(&data, &batch, ServeCtx::default())`. With
//! `--checkpoint-dir DIR` the same call is **durable**: every outcome is
//! journaled (write-ahead) and the parameters are checkpointed
//! crash-consistently. Killing the process at an injected crash point and
//! re-running with the same flags recovers from the journal and finishes
//! with bit-identical parameters:
//!
//! ```sh
//! # Crashes mid-journal-append while serving batch 7 (exit code 3)...
//! cargo run --release --example fault_tolerant_serving -- \
//!     --checkpoint-dir /tmp/gt-serve --crash-at 7 --crash-site mid-journal
//! # ...and the same command recovers, resumes at batch 7, and completes.
//! cargo run --release --example fault_tolerant_serving -- \
//!     --checkpoint-dir /tmp/gt-serve --crash-at 7 --crash-site mid-journal
//! ```
//!
//! Crash sites: `mid-journal`, `mid-checkpoint`, `after-commit`
//! (docs/fault_model.md §Durability & recovery).
//!
//! The fault plan is seeded, so this run is exactly reproducible: same
//! seed, same retries, same outcomes. With an empty plan the supervisor is
//! a pass-through and numerics are bit-identical to the plain trainer.

use graphtensor::prelude::*;
use graphtensor::tensor::checkpoint;
use std::path::PathBuf;

const BATCHES: usize = 20;

fn usage() -> ! {
    eprintln!(
        "usage: fault_tolerant_serving [--checkpoint-dir DIR] [--crash-at N] \
         [--crash-site SITE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut crash_at: Option<usize> = None;
    let mut crash_site = CrashSite::MidJournal;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value())),
            "--crash-at" => crash_at = Some(value().parse().unwrap_or_else(|_| usage())),
            "--crash-site" => {
                crash_site = CrashSite::parse(&value()).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if crash_at.is_some() && checkpoint_dir.is_none() {
        eprintln!("--crash-at needs --checkpoint-dir (a crash without a journal loses work)");
        std::process::exit(2);
    }

    let data = GraphData::synthetic_learnable(2_000, 24_000, 32, 2, 7);
    let mut trainer = GraphTensor::new(
        GtVariant::Prepro,
        gcn(2, data.num_classes),
        SystemSpec::paper_testbed(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 1,
        ..Default::default()
    };
    trainer.lr = 0.3;

    // An unkind environment: 30% of DMAs fail per attempt, host core 0
    // runs 4x slow, and a co-tenant occasionally grabs nearly all device
    // memory (transient — a retry usually clears it). The crash rule is
    // appended LAST: fault rolls hash per rule index, so the other rules
    // fire identically with and without it — which is what makes the
    // crashed-and-recovered run comparable to an uncrashed one.
    let mut plan = FaultPlan::new(2026)
        .with_transfer_failure(0.3)
        .with_straggler(0, 4.0)
        .with_transient_memory_pressure(1e-6, 0.2);
    if let Some(batch) = crash_at {
        plan = plan.with_crash_at(batch, crash_site);
    }
    let mut server = Supervisor::new(trainer, plan);

    // Durable mode: recover over an existing journal, or start a fresh one.
    let mut start = 0usize;
    if let Some(dir) = &checkpoint_dir {
        let cfg = DurabilityConfig::new(dir);
        if cfg.journal_path().exists() {
            let report = server
                .recover(&data, cfg)
                .unwrap_or_else(|e| panic!("recovery failed: {e}"));
            start = report.batches_replayed;
            println!(
                "recovered: {} batches replayed, {} quarantine records, \
                 {} checkpoints verified{}\n",
                report.batches_replayed,
                report.quarantine_restored,
                report.checkpoints_verified,
                if report.torn_tail_dropped {
                    " (torn journal tail dropped)"
                } else {
                    ""
                },
            );
        } else {
            server.make_durable(cfg).expect("create durable state");
        }
    }

    println!("serving batches {start}..{BATCHES} under injected faults...\n");
    let mut trained = 0usize;
    for (i, batch) in BatchIter::new(2_000, 100, 3)
        .take(BATCHES)
        .enumerate()
        .skip(start)
    {
        // One entry point whether or not `--checkpoint-dir` armed the
        // journal; only the durable path can die at an injected crash site.
        let report = match server.serve(&data, &batch, ServeCtx::default()) {
            Ok(served) => served.report,
            Err(GtError::InjectedCrash { site }) => {
                println!("batch {i:>2}: KILLED ({} crash injected)", site.label());
                println!("\nre-run with the same flags to recover");
                std::process::exit(3);
            }
            Err(e) => panic!("durable serving failed: {e}"),
        };
        let desc = match report.outcome {
            BatchOutcome::Succeeded => "ok".to_string(),
            BatchOutcome::Recovered { retries } => {
                format!(
                    "recovered after {retries} retr{}",
                    if retries == 1 { "y" } else { "ies" }
                )
            }
            BatchOutcome::Degraded { action, retries } => match action {
                DegradeAction::HalvedBatch { from, to } => {
                    format!("degraded: batch {from}->{to} nodes ({retries} retries)")
                }
                DegradeAction::ReducedFanout { from, to } => {
                    format!("degraded: fanout {from}->{to} ({retries} retries)")
                }
                DegradeAction::HalvedBatchReducedFanout {
                    from,
                    to,
                    fanout_from,
                    fanout_to,
                } => {
                    format!(
                        "degraded: batch {from}->{to} nodes, fanout \
                         {fanout_from}->{fanout_to} ({retries} retries)"
                    )
                }
            },
            BatchOutcome::Failed { reason } => format!("failed: {reason:?}"),
            BatchOutcome::Quarantined { reason, attempts } => {
                format!("QUARANTINED after {attempts} attempts ({reason:?})")
            }
            BatchOutcome::Shed { cause } => format!("SHED ({})", cause.label()),
        };
        if report.outcome.trained() {
            trained += 1;
            println!("batch {i:>2}: loss {:>7.4}  {desc}", report.loss);
        } else {
            println!("batch {i:>2}: loss     ---  {desc}");
        }
    }

    println!(
        "\n{trained}/{} batches trained this process; {} quarantined; \
         {:.0} µs spent in retry backoff",
        BATCHES - start,
        server.quarantine.len(),
        server.backoff_paid_us,
    );
    for q in &server.quarantine {
        println!(
            "  quarantined batch {} ({} nodes): {:?} after {} attempts",
            q.batch_index,
            q.batch.len(),
            q.reason,
            q.attempts
        );
    }
    if server.is_durable() {
        server.checkpoint_now().expect("final checkpoint");
        let cfg = DurabilityConfig::new(checkpoint_dir.expect("durable implies dir"));
        let image = std::fs::read(cfg.checkpoint_path()).expect("read final checkpoint");
        println!(
            "  final checkpoint {} ({} bytes, fingerprint {:#010x})",
            cfg.checkpoint_path().display(),
            image.len(),
            checkpoint::image_crc(&image),
        );
    }
}
