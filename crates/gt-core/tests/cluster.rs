//! End-to-end tests of the cluster pricing layer.
//!
//! The load-bearing property is that the cluster is a pricing model: at
//! every worker count the parameters, journal and checkpoint are
//! byte-for-byte those of a `Supervisor` without the layer, while the
//! modeled clock, collectives and per-worker schedules move. An injected
//! crash or storage fault under a cluster is the supervisor's typed error,
//! and recovery is the single-node protocol: restart, arm the cluster,
//! recover from the journal (which re-prices every replayed batch), resume.

use gt_core::journal::{self, Record};
use gt_core::{
    ClusterConfig, ClusterSummary, Completion, DurabilityConfig, Gateway, GraphData, GtError,
    OverloadConfig, Partition, ServeCtx, Supervisor, TenancyConfig, TenantQuota,
};
use gt_sim::{ClusterSpec, CrashSite, FaultPlan, IoFault, IoTarget, SystemSpec};
use gt_telemetry::ToJson;
use gt_tensor::checkpoint;
use std::path::{Path, PathBuf};

mod common;
use common::{batches_with_poison as batches, data, trainer};

fn tmp_dir(name: &str) -> PathBuf {
    common::tmp_dir("cluster", name)
}

fn cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        spec: ClusterSpec::tiny(workers),
        partition: Partition::VertexCut,
    }
}

/// A fresh supervisor running `plan` with a `workers`-worker cluster armed.
fn clustered(workers: usize, plan: &FaultPlan) -> Supervisor {
    let mut sup = Supervisor::new(trainer(), plan.clone());
    sup.enable_cluster(cluster_config(workers));
    sup
}

/// [`clustered`], made durable under `dir`.
fn durable_cluster(workers: usize, plan: &FaultPlan, dir: &Path) -> Supervisor {
    let mut sup = clustered(workers, plan);
    sup.make_durable(durability(dir)).unwrap();
    sup
}

fn summary(sup: &Supervisor) -> ClusterSummary {
    sup.cluster().expect("cluster armed").summary()
}

/// The accumulated cross-worker trace, serialized.
fn trace_json(sup: &Supervisor) -> String {
    gt_telemetry::write_chrome_json(&sup.cluster().expect("cluster armed").cluster_traces())
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 2,
    }
}

/// Drive a cluster over the workload the way a deployment does: a crash
/// or storage fault comes back as the supervisor's typed error and is
/// answered by a restart (a fresh supervisor arms the cluster, recovers
/// from the journal, and resumes at the recovered index). Returns the last
/// supervisor, the journaled `(index, outcome)` stream, and the errors
/// that forced a restart.
fn run_cluster(
    workers: usize,
    plan: FaultPlan,
    dir: &Path,
    n: usize,
) -> (Supervisor, Vec<(usize, String)>, Vec<GtError>) {
    let d = data();
    let all = batches(n);
    let mut sup = durable_cluster(workers, &plan, dir);
    let mut restarts = Vec::new();
    while sup.batches_served() < n {
        let b = &all[sup.batches_served()];
        match sup.serve(&d, b, ServeCtx::default()) {
            Ok(_) => {}
            Err(e @ (GtError::InjectedCrash { .. } | GtError::Io { .. })) => {
                restarts.push(e);
                assert!(restarts.len() <= 8, "restart loop: {restarts:?}");
                sup = clustered(workers, &plan);
                sup.recover(&d, durability(dir)).unwrap();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let stream = outcome_stream(dir);
    (sup, stream, restarts)
}

/// The journaled batch outcome stream: (batch_index, outcome JSON).
fn outcome_stream(dir: &Path) -> Vec<(usize, String)> {
    let cfg = DurabilityConfig::new(dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();
    scan.batch_outcomes().collect()
}

#[test]
fn fault_free_cluster_matches_single_node_numerics_at_every_worker_count() {
    let n = 5;
    // Single-node reference.
    let d = data();
    let mut single = Supervisor::new(trainer(), FaultPlan::new(42));
    let mut ref_outcomes = Vec::new();
    for b in batches(n) {
        let r = single.serve(&d, &b, ServeCtx::default()).unwrap().report;
        ref_outcomes.push(r.outcome.to_json().to_json_string());
    }
    let ref_params = checkpoint::to_bytes(single.trainer.params());

    for workers in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("faultfree_w{workers}"));
        let (sup, stream, restarts) = run_cluster(workers, FaultPlan::new(42), &dir, n);
        assert!(restarts.is_empty());
        assert_eq!(
            checkpoint::to_bytes(sup.trainer.params()),
            ref_params,
            "{workers} workers must not perturb the numerics"
        );
        let outcomes: Vec<String> = stream.into_iter().map(|(_, o)| o).collect();
        assert_eq!(outcomes, ref_outcomes);
        let s = summary(&sup).totals;
        if workers == 1 {
            assert_eq!(s.collective_us, 0.0, "a lone worker gathers nothing");
        } else {
            assert!(s.collective_us > 0.0);
        }
        assert!(s.clock_us > 0.0);
    }
}

/// Killing the process at any crash site at any of the first four
/// batches, at any worker count, is the supervisor's `InjectedCrash`;
/// restart + `Supervisor::recover` lands on the fault-free bytes.
#[test]
fn kill_any_worker_at_any_batch_recovers_bit_identically() {
    let n = 5;
    for workers in [1usize, 2, 4] {
        let ref_dir = tmp_dir(&format!("killref_w{workers}"));
        let (ref_sup, ref_stream, _) = run_cluster(workers, FaultPlan::new(42), &ref_dir, n);
        let ref_params = checkpoint::to_bytes(ref_sup.trainer.params());
        for batch in 0..4 {
            for site in [
                CrashSite::MidJournal,
                CrashSite::MidCheckpoint,
                CrashSite::AfterCommit,
            ] {
                let name = format!("kill_w{workers}_b{batch}_{}", site.label());
                let dir = tmp_dir(&name);
                let plan = FaultPlan::new(42).with_crash_at(batch, site);
                let (sup, stream, restarts) = run_cluster(workers, plan, &dir, n);
                assert!(
                    matches!(restarts[..], [GtError::InjectedCrash { site: s }] if s == site),
                    "{name}: {restarts:?}"
                );
                assert_eq!(
                    checkpoint::to_bytes(sup.trainer.params()),
                    ref_params,
                    "{name} must recover to identical bytes"
                );
                assert_eq!(stream, ref_stream, "{name}");
            }
        }
    }
}

/// A crash in the middle of a batch under a cluster is the supervisor's
/// typed `InjectedCrash` naming its site, and one restart (arm the
/// cluster, recover, resume) lands on the fault-free bytes and outcome
/// stream.
#[test]
fn crash_mid_batch_is_recovered_by_the_cluster_layer() {
    let n = 5;
    let ref_dir = tmp_dir("crashref");
    let (ref_sup, ref_stream, _) = run_cluster(2, FaultPlan::new(42), &ref_dir, n);
    let ref_params = checkpoint::to_bytes(ref_sup.trainer.params());
    for site in [
        CrashSite::MidJournal,
        CrashSite::MidCheckpoint,
        CrashSite::AfterCommit,
    ] {
        let dir = tmp_dir(&format!("crash_{}", site.label()));
        let plan = FaultPlan::new(42).with_crash_at(3, site);
        let (sup, stream, restarts) = run_cluster(2, plan, &dir, n);
        assert!(
            matches!(restarts[..], [GtError::InjectedCrash { site: s }] if s == site),
            "crash at {}: {restarts:?}",
            site.label()
        );
        assert_eq!(
            checkpoint::to_bytes(sup.trainer.params()),
            ref_params,
            "crash at {} must recover to identical bytes",
            site.label()
        );
        assert_eq!(stream, ref_stream);
    }
}

/// Recovery resets the armed cluster and the journal replay re-prices
/// every replayed batch: a 4-worker run killed at any crash site ends on
/// the same modeled summary and cross-worker trace bytes as a run that
/// never crashed.
#[test]
fn recovered_cluster_ends_on_the_uncrashed_summary_and_trace() {
    let n = 5;
    let cores = SystemSpec::tiny().host.cores;
    // A straggler on worker 3 makes the per-worker schedules differ.
    let plan = FaultPlan::new(42).with_straggler(3 * cores, 64.0);
    let (ref_sup, _, _) = run_cluster(4, plan.clone(), &tmp_dir("resume_ref"), n);
    for site in [
        CrashSite::MidJournal,
        CrashSite::MidCheckpoint,
        CrashSite::AfterCommit,
    ] {
        let name = format!("resume_{}", site.label());
        let crash = plan.clone().with_crash_at(2, site);
        let (sup, _, restarts) = run_cluster(4, crash, &tmp_dir(&name), n);
        assert_eq!(restarts.len(), 1, "{name}: {restarts:?}");
        assert_eq!(summary(&sup), summary(&ref_sup), "{name}: summary");
        assert!(trace_json(&sup) == trace_json(&ref_sup), "{name}: trace");
    }
}

/// A failed checkpoint write is the same process death as a failed
/// journal append: restart + recover heals either, at any batch, and
/// lands on the fault-free outcome stream and checkpoint.
#[test]
fn storage_faults_on_journal_and_checkpoint_recover_alike() {
    let n = 4;
    let run = |plan: FaultPlan, name: &str| {
        let dir = tmp_dir(name);
        let (mut sup, stream, restarts) = run_cluster(2, plan, &dir, n);
        sup.checkpoint_now().unwrap();
        let params = std::fs::read(DurabilityConfig::new(&dir).checkpoint_path()).unwrap();
        (stream, params, restarts)
    };
    let (ref_stream, ref_params, _) = run(FaultPlan::new(42), "io_ref");
    for target in [IoTarget::Journal, IoTarget::Checkpoint] {
        for fault in [IoFault::Enospc, IoFault::TornWrite] {
            for batch in [1, 3] {
                let plan = FaultPlan::new(42).with_io_fault(batch, target, fault);
                let name = format!("io_{target:?}_{fault:?}_{batch}");
                let (stream, params, restarts) = run(plan, &name);
                assert!(
                    matches!(restarts[..], [GtError::Io { .. }]),
                    "{name}: the fault must fire once: {restarts:?}"
                );
                assert_eq!(stream, ref_stream, "{name}: outcome stream");
                assert!(params == ref_params, "{name}: final checkpoint diverged");
            }
        }
    }
}

/// A straggler core on one worker is priced on that worker's schedule
/// only: it stretches the modeled clock and that worker's busy time, and
/// never touches model bytes or the journal.
#[test]
fn stragglers_are_pure_virtual_time() {
    let n = 5;
    let cores = SystemSpec::tiny().host.cores;
    let run = |plan: FaultPlan, name: &str| run_cluster(4, plan, &tmp_dir(name), n);
    // Worker 3's first core runs 64× slower.
    let (slow, slow_stream, _) = run(FaultPlan::new(42).with_straggler(3 * cores, 64.0), "slow");
    let (fast, fast_stream, _) = run(FaultPlan::new(42), "fast");
    assert_eq!(
        checkpoint::to_bytes(slow.trainer.params()),
        checkpoint::to_bytes(fast.trainer.params()),
        "a straggler must never touch model bytes"
    );
    assert_eq!(slow_stream, fast_stream);
    let (s, f) = (summary(&slow).totals, summary(&fast).totals);
    assert!(s.clock_us > f.clock_us, "{} !> {}", s.clock_us, f.clock_us);
    assert!(s.worker_busy_us[3] > f.worker_busy_us[3]);
    assert_eq!(s.worker_busy_us[0].to_bits(), f.worker_busy_us[0].to_bits());
    assert_eq!(s.collective_us.to_bits(), f.collective_us.to_bits());
}

/// The cluster writes nothing to the journal: a 3-worker run's journal is
/// byte-for-byte a plain supervisor's, and a fresh supervisor replays it.
#[test]
fn cluster_journal_is_untagged_and_replays_cleanly() {
    let n = 6;
    let dir = tmp_dir("untagged");
    run_cluster(3, FaultPlan::new(42), &dir, n);
    let plain_dir = tmp_dir("untagged_plain");
    let mut plain = Supervisor::new(trainer(), FaultPlan::new(42));
    plain.make_durable(durability(&plain_dir)).unwrap();
    let d = data();
    for b in batches(n) {
        plain.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let cfg = DurabilityConfig::new(&dir);
    let journal = std::fs::read(cfg.journal_path()).unwrap();
    assert!(journal == std::fs::read(DurabilityConfig::new(&plain_dir).journal_path()).unwrap());

    let mut fresh = Supervisor::new(trainer(), FaultPlan::new(42));
    let rec = fresh.recover(&d, cfg).unwrap();
    assert_eq!(rec.batches_replayed, n);
}

#[test]
fn shuffled_journal_is_rejected_not_silently_reordered() {
    let n = 4;
    let dir = tmp_dir("shuffled");
    run_cluster(2, FaultPlan::new(42), &dir, n);
    let cfg = DurabilityConfig::new(&dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();

    // Swap the first two batch records and rewrite the journal.
    let mut records = scan.records.clone();
    let batch_pos: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Record::Batch { .. }))
        .map(|(i, _)| i)
        .collect();
    records.swap(batch_pos[0], batch_pos[1]);
    rewrite(&cfg, &records);

    let mut fresh = Supervisor::new(trainer(), FaultPlan::new(42));
    match fresh.recover(&data(), cfg.clone()) {
        Err(GtError::ReplayDiverged { detail, .. }) => {
            assert!(
                detail.contains("out of order"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("swapped journal must diverge, got {other:?}"),
    }
}

#[test]
fn duplicate_batch_record_is_rejected_out_of_order() {
    let n = 4;
    let dir = tmp_dir("dup_record");
    run_cluster(2, FaultPlan::new(42), &dir, n);
    let cfg = DurabilityConfig::new(&dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();

    // Re-append a copy of the first batch record at the tail: replay
    // expects batch `n` there, so the sequential-index check must fire.
    let mut records = scan.records.clone();
    let first_batch = records
        .iter()
        .find(|r| matches!(r, Record::Batch { .. }))
        .unwrap()
        .clone();
    records.push(first_batch);
    rewrite(&cfg, &records);

    let mut fresh = Supervisor::new(trainer(), FaultPlan::new(42));
    match fresh.recover(&data(), cfg.clone()) {
        Err(GtError::ReplayDiverged { detail, .. }) => {
            assert!(
                detail.contains("out of order"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("duplicated record must diverge, got {other:?}"),
    }
}

#[test]
fn feature_dim_partition_serves_identically_to_vertex_cut() {
    let n = 4;
    let run = |partition: Partition, dir: &Path| {
        let mut sup = Supervisor::new(trainer(), FaultPlan::new(42));
        sup.make_durable(DurabilityConfig::new(dir)).unwrap();
        sup.enable_cluster(ClusterConfig {
            partition,
            ..cluster_config(2)
        });
        let d = data();
        for b in batches(n) {
            sup.serve(&d, &b, ServeCtx::default()).unwrap();
        }
        sup
    };
    let vc_dir = tmp_dir("part_vc");
    let fd_dir = tmp_dir("part_fd");
    let vc = run(Partition::VertexCut, &vc_dir);
    let fd = run(Partition::FeatureDim, &fd_dir);
    // Numerics are partition-invariant; only the modeled schedule moves.
    assert_eq!(
        checkpoint::to_bytes(vc.trainer.params()),
        checkpoint::to_bytes(fd.trainer.params())
    );
    // Feature-dim replicates structure work on every worker, so its
    // stages are strictly longer than a vertex cut's.
    assert!(summary(&fd).totals.clock_us > summary(&vc).totals.clock_us);
}

/// A gateway with tenancy in front of a cluster-armed supervisor resolves
/// exactly as in front of a plain one: the same completions, one per
/// submission, and the same final checkpoint bytes.
#[test]
fn gateway_in_front_of_a_cluster_matches_a_gateway_over_a_supervisor() {
    let n = 12;
    let d = data();
    fn day(mut g: Gateway, d: &GraphData, n: usize) -> (Gateway, Vec<Completion>) {
        g.enable_tenancy(TenancyConfig {
            quotas: vec![TenantQuota::unlimited(), TenantQuota::new(500.0, 2.0)],
            quantum: 16,
        });
        let mut done = Vec::new();
        for (i, b) in batches(n).iter().enumerate() {
            done.extend(g.submit_from(d, i as f64 * 40.0, i % 2, b));
        }
        done.extend(g.drain(d));
        (g, done)
    }
    let overload = OverloadConfig {
        queue_capacity: 4,
        degrade_watermark: 2,
        halve_watermark: 3,
        ..OverloadConfig::default()
    };
    let single_dir = tmp_dir("gw_single");
    let mut single = Supervisor::new(trainer(), FaultPlan::new(42));
    single.make_durable(durability(&single_dir)).unwrap();
    let (mut single, single_done) = day(Gateway::new(single, overload.clone()), &d, n);
    single.supervisor.checkpoint_now().unwrap();

    let cluster_dir = tmp_dir("gw_cluster");
    let sup = durable_cluster(4, &FaultPlan::new(42), &cluster_dir);
    let (mut clustered, cluster_done) = day(Gateway::new(sup, overload), &d, n);
    clustered.supervisor.checkpoint_now().unwrap();

    assert_eq!(cluster_done.len(), n, "one completion per submission");
    assert_eq!(cluster_done, single_done);
    assert!(cluster_done.iter().any(|c| c.outcome.trained()));
    assert!(summary(&clustered.supervisor).totals.clock_us > 0.0);
    assert_eq!(
        std::fs::read(durability(&cluster_dir).checkpoint_path()).unwrap(),
        std::fs::read(durability(&single_dir).checkpoint_path()).unwrap(),
        "params.gt must be cmp-equal with and without the cluster"
    );
}

/// Rewrite the journal file from scratch with `records`.
fn rewrite(cfg: &DurabilityConfig, records: &[Record]) {
    let mut j = journal::Journal::create(cfg.journal_path()).unwrap();
    for r in records {
        j.append(r).unwrap();
    }
}
