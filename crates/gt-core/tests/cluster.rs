//! End-to-end cluster robustness tests.
//!
//! The load-bearing property mirrors the single-node durability suite:
//! **kill-any-worker-at-any-batch bit-identity**. A cluster run that loses
//! a worker mid-serving must detect the death, re-replay the partition from
//! the journal, resume at the exact batch index, and finish with byte-for-
//! byte the parameters and outcome stream of a run that never lost anyone —
//! at every worker count. Hedging must be pure virtual time (identical
//! model bytes hedged or not) and its counters must reconcile exactly
//! against the journal's hedge records.

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

fn cluster_config(workers: usize, hedging: bool) -> ClusterConfig {
    ClusterConfig {
        spec: ClusterSpec::tiny(workers),
        partition: Partition::VertexCut,
        hedging,
    }
}

/// Drive a cluster over the workload; returns the supervisor for
/// inspection plus the journaled (index, outcome) stream — the canonical
/// "outcome stream" the acceptance criteria compare.
fn run_cluster(
    workers: usize,
    plan: FaultPlan,
    hedging: bool,
    dir: &Path,
    n: usize,
) -> (ClusterSupervisor, Vec<(usize, String)>) {
    let factory_plan = plan.clone();
    let mut cs = ClusterSupervisor::new(
        move || Supervisor::new(trainer(), factory_plan.clone()),
        cluster_config(workers, hedging),
    );
    cs.make_durable(DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 2,
    })
    .unwrap();
    let d = data();
    // One call per batch, crashes included: a crash recovered after commit
    // hands back the replayed result instead of re-serving.
    for b in batches(n) {
        cs.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    assert_eq!(cs.supervisor.batches_served(), n);
    let stream = outcome_stream(dir);
    (cs, stream)
}

/// The journaled batch outcome stream: (batch_index, outcome JSON).
fn outcome_stream(dir: &Path) -> Vec<(usize, String)> {
    let cfg = DurabilityConfig::new(dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();
    scan.batch_outcomes().collect()
}

/// `(launched, won)` over the journal's hedge records.
fn journaled_hedges(dir: &Path) -> (u64, u64) {
    let scan = journal::read_journal(DurabilityConfig::new(dir).journal_path()).unwrap();
    scan.records.iter().fold((0, 0), |(n, won), r| match r {
        Record::Hedge { backup_won, .. } => (n + 1, won + u64::from(*backup_won)),
        _ => (n, won),
    })
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
        let (cs, stream) = run_cluster(workers, FaultPlan::new(42), true, &dir, n);
        assert_eq!(
            checkpoint::to_bytes(cs.supervisor.trainer.params()),
            ref_params,
            "{workers} workers must not perturb the numerics"
        );
        let outcomes: Vec<String> = stream.into_iter().map(|(_, o)| o).collect();
        assert_eq!(outcomes, ref_outcomes);
        let s = cs.summary().totals;
        assert_eq!(s.recoveries, 0);
        assert_eq!(s.hedges_launched, 0, "uniform workers must not hedge");
        if workers == 1 {
            assert_eq!(s.collective_us, 0.0, "a lone worker gathers nothing");
        } else {
            assert!(s.collective_us > 0.0);
        }
        assert!(s.clock_us > 0.0);
    }
}

#[test]
fn kill_any_worker_at_any_batch_recovers_bit_identically() {
    let n = 5;
    for workers in [1usize, 2, 4] {
        let ref_dir = tmp_dir(&format!("killref_w{workers}"));
        let (ref_cs, ref_stream) = run_cluster(workers, FaultPlan::new(42), false, &ref_dir, n);
        let ref_params = checkpoint::to_bytes(ref_cs.supervisor.trainer.params());
        for kill_batch in [1usize, 3] {
            let victim = kill_batch % workers;
            let dir = tmp_dir(&format!("kill_w{workers}_b{kill_batch}"));
            let plan = FaultPlan::new(42).with_worker_kill(kill_batch, victim);
            let (cs, stream) = run_cluster(workers, plan, false, &dir, n);
            assert_eq!(
                checkpoint::to_bytes(cs.supervisor.trainer.params()),
                ref_params,
                "kill worker {victim} at batch {kill_batch} ({workers} workers) \
                 must recover to identical bytes"
            );
            assert_eq!(stream, ref_stream, "outcome stream must survive the kill");
            let s = cs.summary().totals;
            assert_eq!(s.recoveries, 1);
            assert!(
                s.recovery_virtual_us > 0.0,
                "detection latency must be charged"
            );
            // The victim's partition was adopted by a survivor (unless the
            // cluster is a single worker, which restarts in place).
            if workers > 1 {
                assert!(!cs.alive()[victim]);
                assert!(cs.owners().iter().all(|&o| o != victim));
            } else {
                assert!(cs.alive()[0], "sole worker restarts in place");
            }
        }
    }
}

#[test]
fn crash_mid_batch_is_recovered_by_the_cluster_layer() {
    let n = 5;
    let ref_dir = tmp_dir("crashref");
    let (ref_cs, ref_stream) = run_cluster(2, FaultPlan::new(42), false, &ref_dir, n);
    let ref_params = checkpoint::to_bytes(ref_cs.supervisor.trainer.params());
    for site in [
        CrashSite::MidJournal,
        CrashSite::MidCheckpoint,
        CrashSite::AfterCommit,
    ] {
        let dir = tmp_dir(&format!("crash_{}", site.label()));
        let plan = FaultPlan::new(42).with_crash_at(3, site);
        let (cs, stream) = run_cluster(2, plan, false, &dir, n);
        assert_eq!(
            checkpoint::to_bytes(cs.supervisor.trainer.params()),
            ref_params,
            "crash at {} must recover to identical bytes",
            site.label()
        );
        assert_eq!(stream, ref_stream);
        assert_eq!(cs.summary().totals.recoveries, 1);
    }
}

/// A failed checkpoint write is the same process death as a failed
/// journal append: the cluster recovers from either, at any batch, and
/// lands on the fault-free outcome stream and checkpoint.
#[test]
fn storage_faults_on_journal_and_checkpoint_recover_alike() {
    let n = 4;
    let run = |plan: FaultPlan, name: &str| {
        let dir = tmp_dir(name);
        let (mut cs, stream) = run_cluster(2, plan, false, &dir, n);
        cs.supervisor.checkpoint_now().unwrap();
        let params = std::fs::read(DurabilityConfig::new(&dir).checkpoint_path()).unwrap();
        (stream, params, cs.summary().totals.recoveries)
    };
    let (ref_stream, ref_params, _) = run(FaultPlan::new(42), "io_ref");
    for target in [IoTarget::Journal, IoTarget::Checkpoint] {
        for fault in [IoFault::Enospc, IoFault::TornWrite] {
            for batch in [1, 3] {
                let plan = FaultPlan::new(42).with_io_fault(batch, target, fault);
                let name = format!("io_{target:?}_{fault:?}_{batch}");
                let (stream, params, recoveries) = run(plan, &name);
                assert_eq!(recoveries, 1, "{name}: the fault must fire once");
                assert_eq!(stream, ref_stream, "{name}: outcome stream");
                assert!(params == ref_params, "{name}: final checkpoint diverged");
            }
        }
    }
}

#[test]
fn hedging_is_pure_virtual_time_and_reconciles_with_the_journal() {
    let n = 5;
    let cores = SystemSpec::tiny().host.cores;
    // Worker 3's first core runs 64× slower: its stage time dwarfs the
    // median every batch, so every trained batch hedges.
    let plan = || FaultPlan::new(42).with_straggler(3 * cores, 64.0);

    let hedged_dir = tmp_dir("hedged");
    let (hedged, hedged_stream) = run_cluster(4, plan(), true, &hedged_dir, n);
    let unhedged_dir = tmp_dir("unhedged");
    let (unhedged, unhedged_stream) = run_cluster(4, plan(), false, &unhedged_dir, n);

    assert_eq!(
        checkpoint::to_bytes(hedged.supervisor.trainer.params()),
        checkpoint::to_bytes(unhedged.supervisor.trainer.params()),
        "hedging must never touch model bytes"
    );
    assert_eq!(hedged_stream, unhedged_stream);

    let s = hedged.summary().totals;
    assert!(s.hedges_launched > 0, "the straggler must trigger hedges");
    assert!(s.hedges_won > 0, "a 64× straggler must lose to its backup");
    assert_eq!(unhedged.summary().totals.hedges_launched, 0);

    // The counters reconcile exactly against the journal's hedge records.
    let (launched, won) = journaled_hedges(&hedged_dir);
    assert_eq!((s.hedges_launched, s.hedges_won), (launched, won));

    // Hedging shortens the modeled clock: the backup finishes the
    // straggler's partition earlier than the straggler would.
    assert!(
        hedged.summary().totals.clock_us < unhedged.summary().totals.clock_us,
        "hedged {} !< unhedged {}",
        hedged.summary().totals.clock_us,
        unhedged.summary().totals.clock_us
    );

    // The hedge counters survive a kill-and-recover cycle: they are
    // rebuilt from the journal, not from process memory.
    let plan2 = plan().with_worker_kill(4, 1);
    let dir2 = tmp_dir("hedged_killed");
    let (recovered, _) = run_cluster(4, plan2, true, &dir2, n);
    let (launched2, won2) = journaled_hedges(&dir2);
    let s2 = recovered.summary().totals;
    assert_eq!((s2.hedges_launched, s2.hedges_won), (launched2, won2));
    assert!(s2.recoveries >= 1);
}

#[test]
fn interleaved_worker_tags_replay_cleanly() {
    let n = 6;
    let dir = tmp_dir("interleave");
    let (_cs, _) = run_cluster(3, FaultPlan::new(42), false, &dir, n);
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
    let (_cs, _) = run_cluster(2, FaultPlan::new(42), false, &dir, n);
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
    let (_cs, _) = run_cluster(2, FaultPlan::new(42), false, &dir, n);
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
fn heartbeat_drops_raise_false_suspicions_but_never_recover() {
    let n = 4;
    let dir = tmp_dir("hb_drop");
    // 9 dropped beats widen the gap to 10× the nominal interval — past the
    // phi threshold of 8 — on a worker that is perfectly alive.
    let plan = FaultPlan::new(42).with_heartbeat_drop(1, 1, 9);
    let (cs, stream) = run_cluster(2, plan, false, &dir, n);
    let s = cs.summary().totals;
    assert!(
        s.false_suspicions > 0,
        "the silence must cross the threshold"
    );
    assert_eq!(
        s.recoveries, 0,
        "a false suspicion must never trigger recovery"
    );
    assert!(cs.alive().iter().all(|&a| a));

    // And the run is numerically indistinguishable from fault-free.
    let ref_dir = tmp_dir("hb_ref");
    let (ref_cs, ref_stream) = run_cluster(2, FaultPlan::new(42), false, &ref_dir, n);
    assert_eq!(
        checkpoint::to_bytes(cs.supervisor.trainer.params()),
        checkpoint::to_bytes(ref_cs.supervisor.trainer.params())
    );
    assert_eq!(stream, ref_stream);
}

#[test]
fn false_suspicion_counter_reconciles_exactly_with_injected_drops() {
    let n = 6;
    for workers in [2usize, 4] {
        // Two loud silences (9 dropped beats widen the gap to 10× the
        // smoothed mean, past the phi threshold of 8) on distinct live
        // workers, plus one quiet drop (2× the mean, far under it):
        // exactly two false suspicions at every worker count.
        let plan = FaultPlan::new(42)
            .with_heartbeat_drop(1, 0, 9)
            .with_heartbeat_drop(3, 1, 9)
            .with_heartbeat_drop(4, 0, 1);
        let factory_plan = plan.clone();
        let mut cs = ClusterSupervisor::new(
            move || Supervisor::new(trainer(), factory_plan.clone()),
            cluster_config(workers, false),
        );
        // The trainer's handle defaults to the (null) global; record so
        // the counter is observable.
        cs.supervisor.trainer.telemetry = gt_telemetry::Telemetry::recording();
        let dir = tmp_dir(&format!("hb_sweep_w{workers}"));
        cs.make_durable(DurabilityConfig::new(&dir)).unwrap();
        let d = data();
        for b in batches(n) {
            cs.serve(&d, &b, ServeCtx::default()).unwrap();
        }
        let s = cs.summary().totals;
        assert_eq!(s.false_suspicions, 2, "{workers} workers");
        assert_eq!(s.recoveries, 0, "{workers} workers: drops never recover");
        assert!(cs.alive().iter().all(|&a| a), "{workers} workers");
        let snapshot = cs.supervisor.trainer.telemetry.snapshot();
        assert_eq!(
            snapshot.counter("gt_cluster_false_suspicions_total"),
            s.false_suspicions,
            "{workers} workers: the counter must reconcile exactly \
             against the injected drops"
        );
    }
}

#[test]
fn feature_dim_partition_serves_identically_to_vertex_cut() {
    let n = 4;
    let run = |partition: Partition, dir: &Path| {
        let mut cs = ClusterSupervisor::new(
            move || Supervisor::new(trainer(), FaultPlan::new(42)),
            ClusterConfig {
                partition,
                ..cluster_config(2, true)
            },
        );
        cs.make_durable(DurabilityConfig::new(dir)).unwrap();
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
/// bytes, worker kill and all.
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
    let durability = |dir: &Path| DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 2,
    };

    let single_dir = tmp_dir("gw_single");
    let mut single = Supervisor::new(trainer(), FaultPlan::new(42));
    single.make_durable(durability(&single_dir)).unwrap();
    let (mut single, single_done) = day(Gateway::new(single, overload.clone()), &d, n);
    single.supervisor.checkpoint_now().unwrap();

    let cluster_dir = tmp_dir("gw_cluster");
    let plan = FaultPlan::new(42).with_worker_kill(3, 1);
    let mut cs = ClusterSupervisor::new(
        move || Supervisor::new(trainer(), plan.clone()),
        cluster_config(4, true),
    );
    cs.make_durable(durability(&cluster_dir)).unwrap();
    let (mut clustered, cluster_done) = day(Gateway::new(cs, overload), &d, n);
    clustered.supervisor.supervisor.checkpoint_now().unwrap();

    assert_eq!(cluster_done.len(), n, "one completion per submission");
    assert_eq!(cluster_done, single_done);
    assert!(cluster_done.iter().any(|c| c.outcome.trained()));
    assert_eq!(clustered.supervisor.summary().totals.recoveries, 1);
    assert!(!clustered.supervisor.alive()[1]);
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
