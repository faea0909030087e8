//! Fault-tolerant distributed execution over a simulated worker cluster.
//!
//! The [`ClusterSupervisor`] generalizes single-node serving to N modeled
//! workers (a [`gt_sim::ClusterSpec`]): every batch's measured
//! preprocessing work is partitioned across the alive workers, each
//! partition's S/R/K/T + NAPA subtasks are priced through that worker's own
//! DES instance, and ring all-gather/all-reduce collectives are charged on
//! the modeled network link. On top sits a robustness layer:
//!
//! * **Heartbeat failure detection** — a deterministic [`PhiDetector`] per
//!   worker, fed one virtual-time heartbeat per batch. `WorkerKill` faults
//!   are *detected* after the detector's confirm delay, never assumed.
//! * **Straggler hedging** — when a worker's stage time exceeds 2.5 × the
//!   median, its partition is speculatively re-executed on the fastest
//!   peer; first completion wins,
//!   with a deterministic lowest-index tiebreak. Every hedge is journaled
//!   write-ahead, so the `gt_cluster_hedges_*` counters reconcile exactly
//!   against the journal.
//! * **Partition re-replay recovery** — a killed worker's partition is
//!   adopted by the lowest-index survivor and the serving state is rebuilt
//!   by deterministic journal replay ([`Supervisor::recover`]), resuming at
//!   the exact batch index the kill interrupted.
//!
//! Everything above is traced: every batch becomes a root span on a
//! `cluster` coordinator process linked by flow arrows to per-worker
//! envelope spans (one Perfetto process per worker, wrapping that worker's
//! own S/R/K/T + NAPA subtask slices), hedge executions, heartbeat
//! suspicions, and recovery re-replays — see
//! [`ClusterSupervisor::cluster_traces`]. With
//! [`ClusterSupervisor::enable_tracing`] armed, recoveries and hedge wins
//! also freeze flight-recorder dumps (`cluster-recovery:<worker>`,
//! `hedge-won:<batch>`).
//!
//! **The bit-identity contract.** Numerics (parameters, journal records,
//! checkpoints) flow through exactly one inner [`Supervisor`] regardless of
//! worker count: partitioning, collectives, heartbeats, hedges, and
//! recovery all live in modeled virtual time. A run with any worker count,
//! any `GT_THREADS` width, killed or fault-free, hedged or not, therefore
//! produces byte-identical model state — the cluster layer only changes
//! what the virtual clock reads.

use crate::data::GraphData;
use crate::error::GtError;
use crate::framework::{BatchOutcome, BatchReport};
use crate::prepro::{HopWork, PreproWork};
use crate::scheduler::build_prepro_sim;
use crate::serve::{
    BatchService, DurabilityConfig, RecoveryReport, RequestCtx, ServeCtx, Served, Supervisor,
};
use crate::tracing::TracerConfig;
use gt_graph::VId;
use gt_sim::{
    schedule_to_trace, worker_process, ActiveFaults, ClusterSpec, FleetTotals, Phase, PhiDetector,
    Resource, Schedule, TaskSpec, HEARTBEAT_INTERVAL_US,
};
use gt_telemetry::{Json, Telemetry, Trace, TraceContext};

/// Seed all cluster trace/span identities derive from (hash input, not
/// RNG): batch root spans, per-worker flow arrows, hedge and recovery
/// flows are all pure functions of `(CLUSTER_TRACE_SEED, batch_index)`.
const CLUSTER_TRACE_SEED: u64 = 0x6774_636c; // "gtcl"

/// A hedge launches when a worker's stage time exceeds this multiple of
/// the median stage time.
const HEDGE_FACTOR: f64 = 2.5;

/// How a batch's preprocessing work is split across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Vertex cut: each worker owns a near-equal share of the sampled
    /// nodes, so every per-hop quantity (sampling ops, reindex ops, edges,
    /// structure and feature bytes) scales with the node share.
    VertexCut,
    /// NeutronTP-style feature-dimension tensor split: the feature matrix
    /// is sliced along the embedding dimension, so feature bytes divide by
    /// the partition count while structure work is replicated on every
    /// worker.
    FeatureDim,
}

impl Partition {
    /// Stable label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Partition::VertexCut => "vertex-cut",
            Partition::FeatureDim => "feature-dim",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Partition> {
        match s {
            "vertex-cut" => Some(Partition::VertexCut),
            "feature-dim" => Some(Partition::FeatureDim),
            _ => None,
        }
    }
}

/// Cluster topology + robustness policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker specs and the fabric connecting them.
    pub spec: ClusterSpec,
    /// Work partitioning strategy.
    pub partition: Partition,
    /// Launch a backup when a worker's stage time exceeds 2.5 × the median
    /// stage time.
    pub hedging: bool,
}

impl ClusterConfig {
    /// Hedging on, over `spec`.
    pub fn new(spec: ClusterSpec, partition: Partition) -> Self {
        ClusterConfig {
            spec,
            partition,
            hedging: true,
        }
    }
}

/// Deterministic modeled metrics of a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterSummary {
    /// Worker count (including dead workers).
    pub workers: usize,
    /// Batches the inner supervisor has served.
    pub batches: usize,
    /// Running totals on the cluster clock.
    pub totals: FleetTotals,
}

/// Distributed serving supervisor: partitions batches across a simulated
/// worker cluster and survives worker kills, stragglers, and crashes. See
/// the module docs for the execution and bit-identity model.
pub struct ClusterSupervisor {
    /// Topology + policy.
    pub config: ClusterConfig,
    /// The single inner supervisor carrying all numerics. Public so tests
    /// and experiments can inspect parameters, quarantine, and plan.
    pub supervisor: Supervisor,
    /// Rebuilds a supervisor configured exactly like the original (same
    /// trainer settings, same fault plan) — invoked on every recovery, as
    /// after a real process kill.
    rebuild: Box<dyn Fn() -> Supervisor>,
    durability: Option<DurabilityConfig>,
    /// Liveness per worker.
    alive: Vec<bool>,
    /// `owner[p]` = worker currently executing partition `p`. Partitions
    /// are 1:1 with workers at start; kills reassign them.
    owner: Vec<usize>,
    detectors: Vec<PhiDetector>,
    /// Running totals on the cluster clock ([`summary`](Self::summary)
    /// adds the worker and batch counts).
    totals: FleetTotals,
    /// EMA of recent stage makespans: the deterministic per-batch cost used
    /// to price journal replay during recovery.
    stage_ema_us: f64,
    /// Cluster kills below this batch index already felled a previous
    /// incarnation and must not re-fire (mirrors the inner supervisor's
    /// durability-fault suppression).
    suppress_kills_below: usize,
    /// Per-worker DES schedules of the most recent priced batch (the fleet
    /// observer's input); the Perfetto export is
    /// [`cluster_traces`](Self::cluster_traces).
    last_schedules: Vec<(usize, Schedule)>,
    /// Accumulated coordinator-process trace: batch root spans, collective
    /// slices, hedge/suspicion/recovery events, and the origin of every
    /// cross-process flow arrow.
    coordinator_trace: Trace,
    /// Accumulated per-worker process traces: batch envelope spans (flow
    /// destinations), the worker's own DES subtask slices offset onto the
    /// cluster clock, hedge executions, and lifecycle instants.
    worker_traces: Vec<Trace>,
    /// Tracer config re-armed on the fresh supervisor after every rebuild
    /// (the factory constructs untraced supervisors).
    tracer_config: Option<TracerConfig>,
}

impl ClusterSupervisor {
    /// Wrap the supervisor produced by `factory` in the cluster layer.
    /// `factory` must be a pure constructor: every call yields a
    /// supervisor with identical configuration (trainer settings, serve
    /// config, fault plan), because recovery discards the current one and
    /// replays the journal through a fresh instance.
    pub fn new(factory: impl Fn() -> Supervisor + 'static, config: ClusterConfig) -> Self {
        let n = config.spec.len();
        let supervisor = factory();
        ClusterSupervisor {
            supervisor,
            rebuild: Box::new(factory),
            durability: None,
            alive: vec![true; n],
            owner: (0..n).collect(),
            detectors: vec![PhiDetector::default(); n],
            totals: FleetTotals {
                worker_busy_us: vec![0.0; n],
                worker_idle_us: vec![0.0; n],
                worker_link_us: vec![0.0; n],
                ..FleetTotals::default()
            },
            stage_ema_us: 0.0,
            suppress_kills_below: 0,
            last_schedules: Vec::new(),
            coordinator_trace: Trace::new("cluster"),
            worker_traces: (0..n).map(|w| Trace::new(worker_process(w))).collect(),
            tracer_config: None,
            config,
        }
    }

    /// Arm the inner supervisor's request tracer (and re-arm it with the
    /// same config after every rebuild-and-replay recovery, since the
    /// factory constructs untraced supervisors). From now on cluster
    /// events freeze flight dumps: `cluster-recovery:<worker>` when a
    /// worker's partition is re-replayed, `hedge-won:<batch>` when a
    /// hedged backup beats its straggler.
    pub fn enable_tracing(&mut self, config: TracerConfig) {
        self.supervisor.enable_tracing(config.clone(), None);
        self.tracer_config = Some(config);
    }

    /// Turn on durability (journal + checkpoints under `cfg.dir`). Required
    /// before serving: recovery is the whole point of the cluster layer.
    pub fn make_durable(&mut self, cfg: DurabilityConfig) -> Result<(), GtError> {
        self.supervisor.make_durable(cfg.clone())?;
        self.durability = Some(cfg);
        Ok(())
    }

    /// Liveness per worker.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Current owner of each partition.
    pub fn owners(&self) -> &[usize] {
        &self.owner
    }

    /// Per-worker DES schedules of the most recent priced batch (empty
    /// until a batch trains). The accumulated Perfetto export, one process
    /// per worker, is [`cluster_traces`](Self::cluster_traces).
    pub fn last_schedules(&self) -> &[(usize, Schedule)] {
        &self.last_schedules
    }

    /// The accumulated cross-worker Perfetto trace: the `cluster`
    /// coordinator process first, then one process per worker. Every
    /// batch's root span on the coordinator is linked by flow arrows to
    /// the per-worker executions it fanned out to (and to hedge backups
    /// and recovery re-replays), so skew is visible across processes.
    /// Feed to [`gt_telemetry::write_chrome_json`]; bit-identical across
    /// `GT_THREADS` widths because every timestamp is virtual.
    pub fn cluster_traces(&self) -> Vec<&Trace> {
        let mut out = Vec::with_capacity(1 + self.worker_traces.len());
        out.push(&self.coordinator_trace);
        out.extend(self.worker_traces.iter());
        out
    }

    /// The worker that coordinates (and journal-tags) `batch_index`:
    /// partitions rotate coordination round-robin, so journal records
    /// interleave worker tags while staying strictly increasing per tag.
    pub fn batch_owner(&self, batch_index: usize) -> usize {
        self.owner[batch_index % self.owner.len()]
    }

    /// Deterministic modeled metrics so far.
    pub fn summary(&self) -> ClusterSummary {
        ClusterSummary {
            workers: self.alive.len(),
            batches: self.supervisor.batches_served(),
            totals: self.totals.clone(),
        }
    }

    /// Serve one batch across the cluster: detect kills, recover, serve
    /// the numerics through the inner supervisor (`ctx.worker` is set to
    /// the batch's coordinating worker), price the distributed schedule
    /// (partitions, hedging, collectives), and advance the virtual clock.
    ///
    /// A crash that hit *after* the batch committed is not re-served:
    /// recovery already replayed the batch to completion, and the replayed
    /// result is what comes back.
    pub fn serve(
        &mut self,
        data: &GraphData,
        batch: &[VId],
        ctx: ServeCtx,
    ) -> Result<Served, GtError> {
        let batch_index = self.supervisor.batches_served();
        let active = self.supervisor.plan.active(batch_index, 0);

        self.heartbeat_round(&active);
        self.handle_kills(data, batch_index, &active)?;
        let served = self.serve_with_crash_recovery(data, batch, batch_index, ctx)?;
        if served.report.outcome.trained() {
            self.price_batch(batch_index, &served.report, &active)?;
        }
        Ok(served)
    }

    /// One virtual heartbeat round: every live worker beats once. Dropped
    /// beats widen the observed gap; a live worker whose widened gap
    /// crosses the phi threshold is a *false* suspicion (counted, never
    /// acted on — the next beat exonerates it).
    fn heartbeat_round(&mut self, active: &ActiveFaults) {
        let telemetry = self.supervisor.trainer.telemetry.clone();
        for w in 0..self.config.spec.len() {
            if !self.alive[w] {
                continue;
            }
            let dropped = active.heartbeat_drops(w);
            let gap = HEARTBEAT_INTERVAL_US * f64::from(1 + dropped);
            if dropped > 0 && self.detectors[w].suspects(gap) {
                self.totals.false_suspicions += 1;
                telemetry
                    .counter(
                        "gt_cluster_false_suspicions_total",
                        "Live workers suspected dead from dropped heartbeats",
                    )
                    .inc();
                telemetry.event(
                    "cluster",
                    "false_suspicion",
                    &[("worker", &w), ("gap_us", &gap)],
                );
                self.coordinator_trace.instant(
                    "heartbeats",
                    format!("suspect worker {w}"),
                    "cluster",
                    self.totals.clock_us,
                    args([("worker", w.into()), ("gap_us", gap.into())]),
                );
            }
            self.detectors[w].observe(gap);
        }
    }

    /// Apply active `WorkerKill` faults: mark victims dead, reassign their
    /// partitions to the lowest-index survivor, charge the detector's
    /// confirm delay plus modeled replay time, and rebuild the serving
    /// state by deterministic journal replay.
    fn handle_kills(
        &mut self,
        data: &GraphData,
        batch_index: usize,
        active: &ActiveFaults,
    ) -> Result<(), GtError> {
        if batch_index < self.suppress_kills_below {
            return Ok(());
        }
        let n = self.config.spec.len();
        let mut killed: Vec<usize> = active
            .worker_kills()
            .into_iter()
            .map(|w| w % n)
            .filter(|&w| self.alive[w])
            .collect();
        killed.sort_unstable();
        killed.dedup();
        if killed.is_empty() {
            return Ok(());
        }
        let telemetry = self.supervisor.trainer.telemetry.clone();
        let mut detect_us = 0.0f64;
        for &w in &killed {
            self.alive[w] = false;
            detect_us = detect_us.max(self.detectors[w].confirm_delay_us());
        }
        if !self.alive.iter().any(|&a| a) {
            // Total outage: the lowest-index worker restarts in place, as a
            // real deployment's process manager would.
            self.alive[0] = true;
        }
        let adopter = self.alive.iter().position(|&a| a).expect("one alive");
        for p in 0..self.owner.len() {
            if !self.alive[self.owner[p]] {
                self.owner[p] = adopter;
            }
        }
        for &w in &killed {
            // A restarted incarnation's detector starts fresh.
            self.detectors[w] = PhiDetector::default();
            telemetry.event(
                "cluster",
                "worker_killed",
                &[
                    ("worker", &w),
                    ("batch", &batch_index),
                    ("adopter", &adopter),
                ],
            );
            self.worker_traces[w].instant(
                "lifecycle",
                "killed",
                "cluster",
                self.totals.clock_us,
                args([("batch", batch_index.into()), ("adopter", adopter.into())]),
            );
        }
        // The re-replay is a child of this batch in the cross-worker trace:
        // a recovery slice on the coordinator, flow-linked to the adopter's
        // process, one flow per killed worker.
        let n2 = 2 * n;
        let rec = self.recover_traced(
            data,
            batch_index,
            detect_us,
            format!("re-replay batch #{batch_index}"),
            (n2, &killed, adopter),
            |replayed, replay_us| {
                args([
                    ("killed", format!("{killed:?}").into()),
                    ("adopter", adopter.into()),
                    ("batches_replayed", replayed.into()),
                    ("detect_us", detect_us.into()),
                    ("replay_us", replay_us.into()),
                ])
            },
        )?;
        if rec.batches_replayed != batch_index {
            return Err(GtError::ReplayDiverged {
                batch_index,
                detail: format!(
                    "kill recovery replayed {} batches, expected {batch_index}",
                    rec.batches_replayed
                ),
            });
        }
        self.suppress_kills_below = batch_index + 1;
        Ok(())
    }

    /// Rebuild-and-replay ([`recover_now`](Self::recover_now)) plus all of
    /// its accounting: `detect_us` + modeled replay time on the recovery
    /// clock and counter; a `name`d recovery slice on the coordinator with
    /// `args(replayed, replay_us)`; and per lost worker `w` in
    /// `(flow_base, lost, dest)` a flow arrow (id slot `flow_base + w`) to
    /// `dest`'s process and a `cluster-recovery:<w>` flight dump.
    fn recover_traced(
        &mut self,
        data: &GraphData,
        batch_index: usize,
        detect_us: f64,
        name: String,
        (flow_base, lost, dest): (usize, &[usize], usize),
        args: impl FnOnce(usize, f64) -> Vec<(String, Json)>,
    ) -> Result<RecoveryReport, GtError> {
        let rec = self.recover_now(data, batch_index)?;
        let replay_us = rec.batches_replayed as f64 * self.stage_ema_us;
        self.totals.recovery_virtual_us += detect_us + replay_us;
        self.supervisor
            .trainer
            .telemetry
            .counter(
                "gt_cluster_recovery_us_total",
                "Virtual µs spent detecting failures and replaying partitions",
            )
            .add((detect_us + replay_us) as u64);
        let ctx = TraceContext::for_request(CLUSTER_TRACE_SEED, batch_index);
        self.coordinator_trace.duration(
            "recovery",
            name,
            "cluster",
            self.totals.clock_us,
            detect_us + replay_us,
            args(rec.batches_replayed, replay_us),
        );
        for &w in lost {
            let flow_id = ctx.span_id(flow_base + w);
            self.coordinator_trace.flow_start(
                "recovery",
                "re-replay",
                self.totals.clock_us,
                flow_id,
            );
            self.worker_traces[dest].flow_finish(
                "lifecycle",
                "re-replay",
                self.totals.clock_us,
                flow_id,
            );
        }
        if let Some(tracer) = self.supervisor.tracer.as_mut() {
            for &w in lost {
                tracer.dump_now(&format!("cluster-recovery:{w}"));
            }
        }
        Ok(rec)
    }

    /// Discard the supervisor, rebuild it from the factory, and replay the
    /// journal — the exact protocol a survivor follows when adopting a dead
    /// worker's partition.
    fn recover_now(
        &mut self,
        data: &GraphData,
        batch_index: usize,
    ) -> Result<RecoveryReport, GtError> {
        let cfg = self.durability.clone().ok_or_else(|| GtError::Io {
            detail: "cluster recovery before make_durable".to_string(),
        })?;
        let mut fresh = (self.rebuild)();
        if let Some(tc) = &self.tracer_config {
            fresh.enable_tracing(tc.clone(), None);
        }
        let rec = fresh.recover(data, cfg)?;
        self.supervisor = fresh;
        self.totals.recoveries += 1;
        // The rebuilt counters are process-local state; the journal is the
        // ground truth hedges are restored from.
        (self.totals.hedges_launched, self.totals.hedges_won) = rec.hedges;
        self.supervisor
            .trainer
            .telemetry
            .counter(
                "gt_cluster_recoveries_total",
                "Supervisor rebuild-and-replay recoveries",
            )
            .inc();
        self.supervisor.trainer.telemetry.event(
            "cluster",
            "recovered",
            &[
                ("batch", &batch_index),
                ("batches_replayed", &rec.batches_replayed),
            ],
        );
        Ok(rec)
    }

    /// [`Supervisor::serve`] with crash handling: an injected crash (or
    /// storage fault) kills the owning worker's process mid-batch; the
    /// cluster rebuilds and replays, then re-serves the batch unless the
    /// journal shows it already committed (an after-commit crash).
    fn serve_with_crash_recovery(
        &mut self,
        data: &GraphData,
        batch: &[VId],
        batch_index: usize,
        ctx: ServeCtx,
    ) -> Result<Served, GtError> {
        let owner = self.batch_owner(batch_index);
        let ctx = ServeCtx {
            worker: Some(owner),
            ..ctx
        };
        // Bounded: each recovery suppresses the fault that fired, so the
        // loop can only iterate once per distinct durability rule.
        for _ in 0..8 {
            match self.supervisor.serve(data, batch, ctx) {
                Err(GtError::InjectedCrash { .. }) | Err(GtError::Io { .. }) => {}
                done => return done,
            }
            let n3 = 3 * self.config.spec.len();
            let rec = self.recover_traced(
                data,
                batch_index,
                self.detectors[owner].confirm_delay_us(),
                format!("re-replay batch #{batch_index} (crash)"),
                (n3, &[owner], owner),
                |replayed, _| {
                    args([
                        ("worker", owner.into()),
                        ("batches_replayed", replayed.into()),
                    ])
                },
            )?;
            if rec.batches_replayed == batch_index + 1 {
                // The crash hit after the journal committed: the batch is
                // durable and replay already trained it. Re-serving would
                // double-train; hand back the replayed result instead.
                return Ok(rec.last_replayed.expect("replayed at least one batch"));
            }
        }
        Err(GtError::Io {
            detail: format!("batch {batch_index} could not commit after repeated crashes"),
        })
    }

    /// Price one trained batch's distributed execution: per-worker DES
    /// schedules over the partitioned work, straggler hedging, then ring
    /// collectives. Pure virtual time — no numerics are touched.
    fn price_batch(
        &mut self,
        batch_index: usize,
        report: &BatchReport,
        active: &ActiveFaults,
    ) -> Result<(), GtError> {
        let work = match self.supervisor.trainer.last_work.clone() {
            Some(w) => w,
            None => return Ok(()),
        };
        let telemetry = self.supervisor.trainer.telemetry.clone();
        let spec = self.config.spec.clone();
        let nparts = self.owner.len();
        let alive: Vec<usize> = (0..spec.len()).filter(|&w| self.alive[w]).collect();
        let p = alive.len();
        let strategy = self.supervisor.trainer.prepro_strategy();
        let batch_start = self.totals.clock_us;

        // Per-alive-worker stage time: local DES over the worker's owned
        // partitions plus its share of the NAPA GPU work.
        let (partition, gpu_us) = (self.config.partition, report.gpu_us());
        // Worker `on` executing the partitions `of` owns.
        let price = |owner: &[usize], of: usize, on: usize| {
            let owned: Vec<usize> = owned(owner, of).collect();
            let work_w = partition_work(&work, partition, &owned, nparts);
            let gpu_share = gpu_us * owned.len() as f64 / nparts as f64;
            price_worker(&work_w, &spec, on, strategy, gpu_share, active)
        };
        let mut stage: Vec<(usize, f64)> = Vec::with_capacity(p);
        self.last_schedules.clear();
        for &w in &alive {
            let schedule = price(&self.owner, w, w);
            self.totals.worker_busy_us[w] += busy_us(&schedule);
            stage.push((w, schedule.makespan_us));
            self.last_schedules.push((w, schedule));
        }

        // Straggler hedging: if the slowest stage exceeds HEDGE_FACTOR ×
        // median, re-execute the victim's partitions on the fastest peer;
        // the first completion wins (ties go to the original — the backup
        // must strictly improve).
        // `(victim, backup, start_us, dur_us, won)` of this batch's hedge,
        // if one launched — folded into the cross-worker trace below.
        let mut hedge_slice: Option<(usize, usize, f64, f64, bool)> = None;
        if self.config.hedging && p >= 2 {
            let mut times: Vec<f64> = stage.iter().map(|&(_, t)| t).collect();
            times.sort_by(f64::total_cmp);
            let median = if times.len() % 2 == 1 {
                times[times.len() / 2]
            } else {
                0.5 * (times[times.len() / 2 - 1] + times[times.len() / 2])
            };
            let launch_at = HEDGE_FACTOR * median;
            let (vi, &(victim, victim_t)) = stage
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(b.0.cmp(&a.0)))
                .expect("p >= 2");
            if victim_t > launch_at {
                let &(backup, backup_own_t) = stage
                    .iter()
                    .filter(|&&(w, _)| w != victim)
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .expect("p >= 2");
                let backup_run = price(&self.owner, victim, backup);
                let backup_finish = launch_at.max(backup_own_t) + backup_run.makespan_us;
                let backup_won = backup_finish < victim_t;
                hedge_slice = Some((
                    victim,
                    backup,
                    batch_start + launch_at.max(backup_own_t),
                    backup_run.makespan_us,
                    backup_won,
                ));
                self.supervisor
                    .journal_hedge(batch_index, victim, backup, backup_won)?;
                self.totals.hedges_launched += 1;
                telemetry
                    .counter(
                        "gt_cluster_hedges_launched_total",
                        "Backup executions launched for straggling workers",
                    )
                    .inc();
                if backup_won {
                    self.totals.hedges_won += 1;
                    self.totals.worker_busy_us[backup] += busy_us(&backup_run);
                    stage[vi].1 = backup_finish;
                    telemetry
                        .counter(
                            "gt_cluster_hedges_won_total",
                            "Hedged backups that beat the straggler",
                        )
                        .inc();
                }
                telemetry.event(
                    "cluster",
                    "hedge",
                    &[
                        ("batch", &batch_index),
                        ("victim", &victim),
                        ("backup", &backup),
                        ("backup_won", &backup_won),
                    ],
                );
            }
        }

        let max_stage = stage.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        for &(w, t) in &stage {
            self.totals.worker_idle_us[w] += max_stage - t;
        }
        self.stage_ema_us = if self.stage_ema_us == 0.0 {
            max_stage
        } else {
            0.8 * self.stage_ema_us + 0.2 * max_stage
        };

        // Ring collectives on the shared fabric, stretched by the worst
        // active link degradation (the ring moves at its slowest hop).
        let degrade = alive
            .iter()
            .filter_map(|&w| active.link_degrade(w))
            .fold(1.0, f64::max);
        let param_bytes: u64 = {
            let params = self.supervisor.trainer.params();
            let mut names: Vec<&str> = params.names().collect();
            names.sort_unstable();
            names.iter().map(|n| params.get(n).bytes()).sum()
        };
        let collective = degrade
            * (spec.all_gather_us(work.total_feature_bytes as f64 / p as f64, p)
                + spec.all_reduce_us(param_bytes as f64, p));
        self.totals.collective_us += collective;
        for &w in &alive {
            self.totals.worker_link_us[w] += collective;
        }
        self.totals.clock_us += max_stage + collective;
        telemetry
            .counter(
                "gt_cluster_collective_us_total",
                "Virtual µs spent in all-gather/all-reduce collectives",
            )
            .add(collective as u64);
        for (w, schedule) in &self.last_schedules {
            telemetry
                .counter_with(
                    "gt_cluster_worker_busy_us_total",
                    "Virtual µs spent executing subtasks, by worker",
                    &[("worker", &w.to_string())],
                )
                .add(busy_us(schedule) as u64);
        }

        // Fold the batch into the cross-worker trace: a root span on the
        // coordinator, one flow-linked envelope per worker wrapping that
        // worker's own S/R/K/T + NAPA subtask slices (offset onto the
        // cluster clock), the collective tail, and any hedge execution.
        // Span/flow identities derive from (seed, batch_index) only.
        let ctx = TraceContext::for_request(CLUSTER_TRACE_SEED, batch_index);
        let n = spec.len();
        self.coordinator_trace.duration(
            "batches",
            format!("batch #{batch_index}"),
            "cluster",
            batch_start,
            max_stage + collective,
            args([
                ("trace_id", format!("{:016x}", ctx.trace_id).into()),
                ("workers", p.into()),
                ("stage_us", max_stage.into()),
                ("collective_us", collective.into()),
            ]),
        );
        self.coordinator_trace.duration(
            "batches",
            "collective",
            "cluster",
            batch_start + max_stage,
            collective,
            args([("degrade", degrade.into())]),
        );
        for (w, schedule) in &self.last_schedules {
            let flow_id = ctx.span_id(*w);
            self.coordinator_trace
                .flow_start("batches", "partition", batch_start, flow_id);
            let parts: Vec<String> = owned(&self.owner, *w).map(|q| q.to_string()).collect();
            let parts = parts.join(",");
            let wt = &mut self.worker_traces[*w];
            wt.flow_finish("batch", "partition", batch_start, flow_id);
            wt.duration(
                "batch",
                format!("batch #{batch_index}"),
                "cluster",
                batch_start,
                schedule.makespan_us,
                args([("batch", batch_index.into()), ("parts", parts.into())]),
            );
            let local = schedule_to_trace(schedule, &worker_process(*w));
            for mut e in local.events {
                e.ts_us += batch_start;
                wt.events.push(e);
            }
        }
        if let Some((victim, backup, start_us, dur_us, won)) = hedge_slice {
            let flow_id = ctx.span_id(n + victim);
            self.coordinator_trace
                .flow_start("batches", "hedge", start_us, flow_id);
            let wt = &mut self.worker_traces[backup];
            wt.flow_finish("hedge", "hedge", start_us, flow_id);
            wt.duration(
                "hedge",
                format!("hedge batch #{batch_index} (for worker {victim})"),
                "cluster",
                start_us,
                dur_us,
                args([("victim", victim.into()), ("backup_won", won.into())]),
            );
            if won {
                if let Some(tracer) = self.supervisor.tracer.as_mut() {
                    tracer.dump_now(&format!("hedge-won:{batch_index}"));
                }
            }
        }
        Ok(())
    }
}

impl BatchService for ClusterSupervisor {
    fn serve(&mut self, data: &GraphData, batch: &[VId], ctx: ServeCtx) -> Result<Served, GtError> {
        ClusterSupervisor::serve(self, data, batch, ctx)
    }

    fn note_shed(&mut self, request: RequestCtx, outcome: &BatchOutcome) {
        self.supervisor.note_shed(request, outcome);
    }

    fn telemetry(&self) -> Telemetry {
        self.supervisor.trainer.telemetry.clone()
    }

    fn fanout(&self) -> usize {
        self.supervisor.trainer.sampler.fanout
    }
}

/// The partition indices worker `w` currently owns.
fn owned(owner: &[usize], w: usize) -> impl Iterator<Item = usize> + '_ {
    (0..owner.len()).filter(move |&q| owner[q] == w)
}

/// Trace-event args from `(key, value)` pairs.
fn args<const N: usize>(pairs: [(&str, Json); N]) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Virtual µs a schedule's resources spent executing subtasks.
fn busy_us(schedule: &Schedule) -> f64 {
    schedule.events.iter().map(|e| e.end_us - e.start_us).sum()
}

/// Near-equal integer split: part `idx` of `total` over `parts`.
fn split_u64(total: u64, parts: usize, idx: usize) -> u64 {
    let parts = parts as u64;
    let idx = idx as u64;
    total / parts + u64::from(idx < total % parts)
}

/// Sum of the integer splits owned by `owned` — the adopter of a dead
/// worker's partition gets exactly the dead worker's share on top of its
/// own, so the total across workers is conserved to the unit.
fn split_owned(total: u64, owned: &[usize], parts: usize) -> u64 {
    owned.iter().map(|&i| split_u64(total, parts, i)).sum()
}

/// The slice of `work` a worker owning partitions `owned` executes.
/// Feature bytes always divide (a vertex cut shares nodes; a feature-dim
/// split slices the feature matrix along the embedding dimension);
/// structure work divides under a vertex cut and replicates in full on
/// every worker under a feature-dim split.
fn partition_work(
    work: &PreproWork,
    partition: Partition,
    owned: &[usize],
    parts: usize,
) -> PreproWork {
    let split = |total: u64| split_owned(total, owned, parts);
    let structure = |total: u64| match partition {
        Partition::VertexCut => split(total),
        Partition::FeatureDim => total,
    };
    PreproWork {
        hops: work
            .hops
            .iter()
            .map(|h| HopWork {
                sample_alg_ops: structure(h.sample_alg_ops),
                sample_hash_ops: structure(h.sample_hash_ops),
                reindex_ops: structure(h.reindex_ops),
                nodes_added: structure(h.nodes_added),
                edges: structure(h.edges),
                structure_bytes: structure(h.structure_bytes),
                feature_bytes: split(h.feature_bytes),
            })
            .collect(),
        batch_nodes: structure(work.batch_nodes),
        batch_feature_bytes: split(work.batch_feature_bytes),
        total_nodes: structure(work.total_nodes),
        total_feature_bytes: split(work.total_feature_bytes),
    }
}

/// Price one worker's local schedule: its partition's S/R/K/T pipeline on
/// its own cores/PCIe, a NAPA GPU task gated on preprocessing completion,
/// under any straggler faults targeting this worker's cores (global core
/// `c` maps to worker `c / cores`, local core `c % cores`).
fn price_worker(
    work_w: &PreproWork,
    spec: &ClusterSpec,
    w: usize,
    strategy: crate::scheduler::PreproStrategy,
    gpu_us: f64,
    active: &ActiveFaults,
) -> Schedule {
    let sys = &spec.workers[w];
    let mut sim = build_prepro_sim(work_w, sys, strategy);
    if gpu_us > 0.0 {
        let deps: Vec<usize> = (0..sim.len()).collect();
        sim.add(TaskSpec::new("NAPA", Resource::Gpu, gpu_us, Phase::Aggregation).after(&deps));
    }
    let local = active.stragglers_on_worker(w, sys.host.cores);
    sim.run_with_faults(&local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PreproStrategy;
    use gt_sim::FaultKind;

    fn work() -> PreproWork {
        PreproWork {
            hops: vec![
                HopWork {
                    sample_alg_ops: 101,
                    sample_hash_ops: 53,
                    reindex_ops: 77,
                    nodes_added: 31,
                    edges: 97,
                    structure_bytes: 1003,
                    feature_bytes: 2001,
                },
                HopWork {
                    sample_alg_ops: 11,
                    sample_hash_ops: 7,
                    reindex_ops: 13,
                    nodes_added: 5,
                    edges: 17,
                    structure_bytes: 103,
                    feature_bytes: 201,
                },
            ],
            batch_nodes: 8,
            batch_feature_bytes: 512,
            total_nodes: 44,
            total_feature_bytes: 2202,
        }
    }

    fn hop_fields(h: &HopWork) -> [u64; 7] {
        [
            h.sample_alg_ops,
            h.sample_hash_ops,
            h.reindex_ops,
            h.nodes_added,
            h.edges,
            h.structure_bytes,
            h.feature_bytes,
        ]
    }

    #[test]
    fn vertex_cut_conserves_every_field_to_the_unit() {
        let w = work();
        let parts = 3;
        let pieces: Vec<PreproWork> = (0..parts)
            .map(|i| partition_work(&w, Partition::VertexCut, &[i], parts))
            .collect();
        for hop in 0..w.hops.len() {
            let total = hop_fields(&w.hops[hop]);
            let mut sum = [0u64; 7];
            for p in &pieces {
                for (s, f) in sum.iter_mut().zip(hop_fields(&p.hops[hop])) {
                    *s += f;
                }
            }
            assert_eq!(sum, total, "hop {hop} fields must be conserved");
        }
        assert_eq!(
            pieces.iter().map(|p| p.total_nodes).sum::<u64>(),
            w.total_nodes
        );
        assert_eq!(
            pieces.iter().map(|p| p.total_feature_bytes).sum::<u64>(),
            w.total_feature_bytes
        );
    }

    #[test]
    fn adopter_gets_exactly_the_dead_workers_share() {
        let w = work();
        let parts = 3;
        let merged = partition_work(&w, Partition::VertexCut, &[0, 2], parts);
        let p0 = partition_work(&w, Partition::VertexCut, &[0], parts);
        let p2 = partition_work(&w, Partition::VertexCut, &[2], parts);
        for hop in 0..w.hops.len() {
            let a = hop_fields(&merged.hops[hop]);
            let b = hop_fields(&p0.hops[hop]);
            let c = hop_fields(&p2.hops[hop]);
            for i in 0..7 {
                assert_eq!(a[i], b[i] + c[i]);
            }
        }
        assert_eq!(merged.total_nodes, p0.total_nodes + p2.total_nodes);
    }

    #[test]
    fn feature_dim_splits_features_and_replicates_structure() {
        let w = work();
        let piece = partition_work(&w, Partition::FeatureDim, &[1], 4);
        assert_eq!(piece.hops[0].structure_bytes, w.hops[0].structure_bytes);
        assert_eq!(piece.hops[0].sample_alg_ops, w.hops[0].sample_alg_ops);
        assert_eq!(piece.hops[0].edges, w.hops[0].edges);
        assert_eq!(piece.total_nodes, w.total_nodes);
        assert_eq!(piece.hops[0].feature_bytes, w.hops[0].feature_bytes / 4);
        // Feature bytes are conserved across the four slices.
        let total: u64 = (0..4)
            .map(|i| partition_work(&w, Partition::FeatureDim, &[i], 4).total_feature_bytes)
            .sum();
        assert_eq!(total, w.total_feature_bytes);
    }

    #[test]
    fn straggler_faults_map_onto_the_owning_workers_local_core() {
        let spec = ClusterSpec::tiny(2);
        let cores = spec.workers[0].host.cores;
        let w = work();
        // A straggler on worker 1's first core (global index `cores`).
        let active = ActiveFaults {
            faults: vec![FaultKind::StragglerCore {
                core: cores,
                factor: 16.0,
            }],
        };
        let clean = price_worker(
            &w,
            &spec,
            1,
            PreproStrategy::Serial,
            10.0,
            &ActiveFaults::default(),
        );
        let slowed = price_worker(&w, &spec, 1, PreproStrategy::Serial, 10.0, &active);
        assert!(
            slowed.makespan_us > clean.makespan_us,
            "straggler must stretch its worker: {} !> {}",
            slowed.makespan_us,
            clean.makespan_us
        );
        // Worker 0 never sees the fault.
        let other = price_worker(&w, &spec, 0, PreproStrategy::Serial, 10.0, &active);
        assert_eq!(other.makespan_us.to_bits(), clean.makespan_us.to_bits());
    }

    #[test]
    fn near_equal_split_is_exhaustive_and_fair() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 4] {
                let shares: Vec<u64> = (0..parts).map(|i| split_u64(total, parts, i)).collect();
                assert_eq!(shares.iter().sum::<u64>(), total);
                let max = *shares.iter().max().unwrap();
                let min = *shares.iter().min().unwrap();
                assert!(max - min <= 1, "{total}/{parts}: {shares:?}");
            }
        }
    }
}
