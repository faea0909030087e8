//! End-to-end tests of the cluster pricing layer.
//!
//! The load-bearing property is that the cluster is a pricing model: at
//! every worker count the parameters, journaled outcome stream and
//! checkpoint are byte-for-byte those of a single `Supervisor`, while the
//! modeled clock, collectives and per-worker schedules move. An injected
//! crash or storage fault under a cluster is the inner supervisor's typed
//! error, and recovery is the single-node protocol: restart, recover from
//! the journal, wrap the recovered supervisor again, resume.

use gt_core::journal::{self, Record};
use gt_core::{
    BatchService, ClusterConfig, ClusterSupervisor, Completion, DurabilityConfig, Gateway,
    GraphData, GtError, OverloadConfig, Partition, ServeCtx, Supervisor, TenancyConfig,
    TenantQuota,
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

/// A durable cluster of `workers` over a fresh supervisor running `plan`.
fn durable_cluster(workers: usize, plan: &FaultPlan, dir: &Path) -> ClusterSupervisor {
    let mut sup = Supervisor::new(trainer(), plan.clone());
    sup.make_durable(durability(dir)).unwrap();
    ClusterSupervisor::new(sup, cluster_config(workers))
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 2,
    }
}

/// Drive a cluster over the workload the way a deployment does: a crash
/// or storage fault comes back as the inner supervisor's typed error and
/// is answered by a restart (a fresh supervisor recovers from the journal,
/// a fresh cluster wraps it, serving resumes at the recovered index).
/// Returns the last cluster, the journaled `(index, outcome)` stream, and
/// the errors that forced a restart.
fn run_cluster(
    workers: usize,
    plan: FaultPlan,
    dir: &Path,
    n: usize,
) -> (ClusterSupervisor, Vec<(usize, String)>, Vec<GtError>) {
    let d = data();
    let all = batches(n);
    let mut cs = durable_cluster(workers, &plan, dir);
    let mut restarts = Vec::new();
    while cs.supervisor.batches_served() < n {
        let b = &all[cs.supervisor.batches_served()];
        match cs.serve(&d, b, ServeCtx::default()) {
            Ok(_) => {}
            Err(e @ (GtError::InjectedCrash { .. } | GtError::Io { .. })) => {
                restarts.push(e);
                assert!(restarts.len() <= 8, "restart loop: {restarts:?}");
                let mut fresh = Supervisor::new(trainer(), plan.clone());
                fresh.recover(&d, durability(dir)).unwrap();
                cs = ClusterSupervisor::new(fresh, cluster_config(workers));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let stream = outcome_stream(dir);
    (cs, stream, restarts)
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
        let (cs, stream, restarts) = run_cluster(workers, FaultPlan::new(42), &dir, n);
        assert!(restarts.is_empty());
        assert_eq!(
            checkpoint::to_bytes(cs.supervisor.trainer.params()),
            ref_params,
            "{workers} workers must not perturb the numerics"
        );
        let outcomes: Vec<String> = stream.into_iter().map(|(_, o)| o).collect();
        assert_eq!(outcomes, ref_outcomes);
        let s = cs.summary().totals;
        if workers == 1 {
            assert_eq!(s.collective_us, 0.0, "a lone worker gathers nothing");
        } else {
            assert!(s.collective_us > 0.0);
        }
        assert!(s.clock_us > 0.0);
    }
}

/// Killing the process at any crash site while any worker coordinates
/// the batch, at any worker count, is the inner supervisor's
/// `InjectedCrash`; restart + `Supervisor::recover` lands on the
/// fault-free bytes.
#[test]
fn kill_any_worker_at_any_batch_recovers_bit_identically() {
    let n = 5;
    for workers in [1usize, 2, 4] {
        let ref_dir = tmp_dir(&format!("killref_w{workers}"));
        let (ref_cs, ref_stream, _) = run_cluster(workers, FaultPlan::new(42), &ref_dir, n);
        let ref_params = checkpoint::to_bytes(ref_cs.supervisor.trainer.params());
        // Batch `b` is coordinated by worker `b % workers`: 0..4 reaches
        // every worker of the largest cluster.
        for batch in 0..4 {
            for site in [
                CrashSite::MidJournal,
                CrashSite::MidCheckpoint,
                CrashSite::AfterCommit,
            ] {
                let name = format!("kill_w{workers}_b{batch}_{}", site.label());
                let dir = tmp_dir(&name);
                let plan = FaultPlan::new(42).with_crash_at(batch, site);
                let (cs, stream, restarts) = run_cluster(workers, plan, &dir, n);
                assert!(
                    matches!(restarts[..], [GtError::InjectedCrash { site: s }] if s == site),
                    "{name}: {restarts:?}"
                );
                assert_eq!(
                    checkpoint::to_bytes(cs.supervisor.trainer.params()),
                    ref_params,
                    "{name} must recover to identical bytes"
                );
                assert_eq!(stream, ref_stream, "{name}");
            }
        }
    }
}

/// A crash in the middle of a batch surfaces through the cluster layer as
/// the inner supervisor's typed `InjectedCrash` naming its site, and one
/// restart (recover, wrap in a fresh cluster, resume) lands on the
/// fault-free bytes and outcome stream.
#[test]
fn crash_mid_batch_is_recovered_by_the_cluster_layer() {
    let n = 5;
    let ref_dir = tmp_dir("crashref");
    let (ref_cs, ref_stream, _) = run_cluster(2, FaultPlan::new(42), &ref_dir, n);
    let ref_params = checkpoint::to_bytes(ref_cs.supervisor.trainer.params());
    for site in [
        CrashSite::MidJournal,
        CrashSite::MidCheckpoint,
        CrashSite::AfterCommit,
    ] {
        let dir = tmp_dir(&format!("crash_{}", site.label()));
        let plan = FaultPlan::new(42).with_crash_at(3, site);
        let (cs, stream, restarts) = run_cluster(2, plan, &dir, n);
        assert!(
            matches!(restarts[..], [GtError::InjectedCrash { site: s }] if s == site),
            "crash at {}: {restarts:?}",
            site.label()
        );
        assert_eq!(
            checkpoint::to_bytes(cs.supervisor.trainer.params()),
            ref_params,
            "crash at {} must recover to identical bytes",
            site.label()
        );
        assert_eq!(stream, ref_stream);
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
        let (mut cs, stream, restarts) = run_cluster(2, plan, &dir, n);
        cs.supervisor.checkpoint_now().unwrap();
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
        checkpoint::to_bytes(slow.supervisor.trainer.params()),
        checkpoint::to_bytes(fast.supervisor.trainer.params()),
        "a straggler must never touch model bytes"
    );
    assert_eq!(slow_stream, fast_stream);
    let (s, f) = (slow.summary().totals, fast.summary().totals);
    assert!(s.clock_us > f.clock_us, "{} !> {}", s.clock_us, f.clock_us);
    assert!(s.worker_busy_us[3] > f.worker_busy_us[3]);
    assert_eq!(s.worker_busy_us[0].to_bits(), f.worker_busy_us[0].to_bits());
    assert_eq!(s.collective_us.to_bits(), f.collective_us.to_bits());
}

#[test]
fn interleaved_worker_tags_replay_cleanly() {
    let n = 6;
    let dir = tmp_dir("interleave");
    let (_cs, _, _) = run_cluster(3, FaultPlan::new(42), &dir, n);
    let cfg = DurabilityConfig::new(&dir);

    // The journal interleaves all three worker tags, strictly increasing
    // per tag.
    let scan = journal::read_journal(cfg.journal_path()).unwrap();
    let tags: Vec<(usize, usize)> = scan
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Batch { index, worker, .. } => {
                Some((worker.expect("cluster records are tagged"), *index))
            }
            _ => None,
        })
        .collect();
    let distinct: std::collections::BTreeSet<usize> = tags.iter().map(|&(w, _)| w).collect();
    assert_eq!(distinct.len(), 3, "all workers must appear: {tags:?}");
    for w in &distinct {
        let per: Vec<usize> = tags
            .iter()
            .filter(|&&(t, _)| t == *w)
            .map(|&(_, i)| i)
            .collect();
        assert!(per.windows(2).all(|p| p[0] < p[1]), "worker {w}: {per:?}");
    }

    // A fresh supervisor replays the interleaved journal without
    // complaint and lands on the same parameters.
    let mut fresh = Supervisor::new(trainer(), FaultPlan::new(42));
    let rec = fresh.recover(&data(), cfg).unwrap();
    assert_eq!(rec.batches_replayed, n);
}

#[test]
fn shuffled_journal_is_rejected_not_silently_reordered() {
    let n = 4;
    let dir = tmp_dir("shuffled");
    let (_cs, _, _) = run_cluster(2, FaultPlan::new(42), &dir, n);
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
fn duplicate_worker_record_trips_the_per_worker_invariant() {
    let n = 4;
    let dir = tmp_dir("dup_tag");
    let (_cs, _, _) = run_cluster(2, FaultPlan::new(42), &dir, n);
    let cfg = DurabilityConfig::new(&dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();

    // Re-append a copy of the first tagged batch record at the tail: its
    // worker has already journaled a later batch, so the per-worker
    // ordering check must fire (before the global index check reads it as
    // a mere gap).
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
                detail.contains("per-worker ordering"),
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
        let mut cs = ClusterSupervisor::new(
            sup,
            ClusterConfig {
                partition,
                ..cluster_config(2)
            },
        );
        let d = data();
        for b in batches(n) {
            cs.serve(&d, &b, ServeCtx::default()).unwrap();
        }
        cs
    };
    let vc_dir = tmp_dir("part_vc");
    let fd_dir = tmp_dir("part_fd");
    let vc = run(Partition::VertexCut, &vc_dir);
    let fd = run(Partition::FeatureDim, &fd_dir);
    // Numerics are partition-invariant; only the modeled schedule moves.
    assert_eq!(
        checkpoint::to_bytes(vc.supervisor.trainer.params()),
        checkpoint::to_bytes(fd.supervisor.trainer.params())
    );
    // Feature-dim replicates structure work on every worker, so its
    // stages are strictly longer than a vertex cut's.
    assert!(fd.summary().totals.clock_us > vc.summary().totals.clock_us);
}

/// A gateway with tenancy composes over the cluster exactly as over a
/// plain supervisor: one completion per submission, and — the numerics
/// still flowing through one inner supervisor — the same final checkpoint
/// bytes.
#[test]
fn gateway_in_front_of_a_cluster_matches_a_gateway_over_a_supervisor() {
    let n = 12;
    let d = data();
    fn day<S: BatchService>(
        mut g: Gateway<S>,
        d: &GraphData,
        n: usize,
    ) -> (Gateway<S>, Vec<Completion>) {
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
    let cs = durable_cluster(4, &FaultPlan::new(42), &cluster_dir);
    let (mut clustered, cluster_done) = day(Gateway::new(cs, overload), &d, n);
    clustered.supervisor.supervisor.checkpoint_now().unwrap();

    assert_eq!(cluster_done.len(), n, "one completion per submission");
    assert_eq!(cluster_done, single_done);
    assert!(cluster_done.iter().any(|c| c.outcome.trained()));
    assert!(clustered.supervisor.summary().totals.clock_us > 0.0);
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
