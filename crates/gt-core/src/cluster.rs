//! Distributed execution priced over a simulated worker cluster.
//!
//! [`Supervisor::enable_cluster`](crate::serve::Supervisor::enable_cluster) arms a [`Cluster`] layer that prices
//! single-node serving on N modeled workers (a [`gt_sim::ClusterSpec`]):
//! every trained batch's measured preprocessing work is partitioned across
//! the workers (a vertex cut or a NeutronTP-style feature-dimension
//! split), each partition's S/R/K/T + NAPA subtasks are priced through that
//! worker's own DES instance (with any `StragglerCore` fault mapped onto
//! that worker's cores), and ring all-gather/all-reduce collectives are
//! charged on the modeled network link. The worker count is a modeled
//! lever: it changes what the virtual clock reads, never the numerics.
//!
//! Every priced batch becomes a root span on a `cluster` coordinator
//! process linked by flow arrows to per-worker envelope spans (one
//! Perfetto process per worker, wrapping that worker's own S/R/K/T + NAPA
//! subtask slices) — see [`Cluster::cluster_traces`].
//!
//! **The bit-identity contract.** The cluster reads a served batch's
//! report and measured work and writes nothing back: parameters, journal
//! records and checkpoints are byte-identical at any worker count or
//! `GT_THREADS` width. [`Supervisor::recover`](crate::serve::Supervisor::recover) resets an armed cluster and
//! the journal replay re-prices every replayed batch, so a run that crashed
//! and recovered ends on the same summary and trace as one that never
//! crashed.

use crate::framework::BatchReport;
use crate::prepro::{HopWork, PreproWork};
use crate::scheduler::build_prepro_sim;
use crate::trainer::GraphTensor;
use gt_sim::{
    schedule_to_trace, worker_process, ActiveFaults, ClusterSpec, FleetTotals, Phase, Resource,
    Schedule, TaskSpec,
};
use gt_telemetry::{Json, Trace, TraceContext};

/// Seed all cluster trace/span identities derive from (hash input, not
/// RNG): batch root spans and per-worker flow arrows are pure functions
/// of `(CLUSTER_TRACE_SEED, batch_index)`.
const CLUSTER_TRACE_SEED: u64 = 0x6774_636c; // "gtcl"

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

/// Cluster topology and how work is split over it.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker specs and the fabric connecting them.
    pub spec: ClusterSpec,
    /// Work partitioning strategy.
    pub partition: Partition,
}

/// Deterministic modeled metrics of a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterSummary {
    /// Worker count.
    pub workers: usize,
    /// Batches served since the cluster was armed (or reset by recovery).
    pub batches: usize,
    /// Running totals on the cluster clock.
    pub totals: FleetTotals,
}

/// The supervisor's cluster pricing layer: prices every trained batch
/// across a simulated worker cluster. See the module docs for the
/// execution and bit-identity model.
pub struct Cluster {
    config: ClusterConfig,
    /// Batches served since the layer was armed (or reset).
    batches: usize,
    /// Running totals on the cluster clock ([`summary`](Self::summary)
    /// adds the worker and batch counts).
    totals: FleetTotals,
    /// Per-worker DES schedules of the most recent priced batch (the fleet
    /// observer's input); the Perfetto export is
    /// [`cluster_traces`](Self::cluster_traces).
    last_schedules: Vec<(usize, Schedule)>,
    /// Accumulated coordinator-process trace: batch root spans, collective
    /// slices, and the origin of every cross-process flow arrow.
    coordinator_trace: Trace,
    /// Accumulated per-worker process traces: batch envelope spans (flow
    /// destinations) wrapping the worker's own DES subtask slices, offset
    /// onto the cluster clock.
    worker_traces: Vec<Trace>,
}

impl Cluster {
    /// A cluster over `config` with nothing priced yet.
    pub(crate) fn new(config: ClusterConfig) -> Self {
        let n = config.spec.len();
        Cluster {
            batches: 0,
            totals: FleetTotals {
                worker_busy_us: vec![0.0; n],
                worker_idle_us: vec![0.0; n],
                worker_link_us: vec![0.0; n],
                ..FleetTotals::default()
            },
            last_schedules: Vec::new(),
            coordinator_trace: Trace::new("cluster"),
            worker_traces: (0..n).map(|w| Trace::new(worker_process(w))).collect(),
            config,
        }
    }

    /// Forget everything priced so far (recovery replays it back).
    pub(crate) fn reset(&mut self) {
        *self = Cluster::new(self.config.clone());
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
    /// the per-worker executions it fanned out to, so skew is visible
    /// across processes.
    /// Feed to [`gt_telemetry::write_chrome_json`]; bit-identical across
    /// `GT_THREADS` widths because every timestamp is virtual.
    pub fn cluster_traces(&self) -> Vec<&Trace> {
        let mut out = Vec::with_capacity(1 + self.worker_traces.len());
        out.push(&self.coordinator_trace);
        out.extend(self.worker_traces.iter());
        out
    }

    /// Deterministic modeled metrics so far.
    pub fn summary(&self) -> ClusterSummary {
        ClusterSummary {
            workers: self.config.spec.len(),
            batches: self.batches,
            totals: self.totals.clone(),
        }
    }

    /// Price batch `batch_index`, which `trainer` just resolved into
    /// `report` under the `active` faults: if it trained, per-worker DES
    /// schedules over its partitioned work, then ring collectives. Pure
    /// virtual time — no numerics are touched.
    pub(crate) fn price_batch(
        &mut self,
        batch_index: usize,
        trainer: &GraphTensor,
        report: &BatchReport,
        active: &ActiveFaults,
    ) {
        self.batches += 1;
        if !report.outcome.trained() {
            return;
        }
        let Some(work) = &trainer.last_work else {
            return;
        };
        let telemetry = &trainer.telemetry;
        let spec = &self.config.spec;
        let n = spec.len();
        let strategy = trainer.prepro_strategy();
        let batch_start = self.totals.clock_us;

        // Per-worker stage time: local DES over the worker's partition
        // plus its share of the NAPA GPU work.
        let gpu_share = report.gpu_us() / n as f64;
        self.last_schedules.clear();
        for w in 0..n {
            let work_w = partition_work(work, self.config.partition, w, n);
            let schedule = price_worker(&work_w, spec, w, strategy, gpu_share, active);
            self.totals.worker_busy_us[w] += busy_us(&schedule);
            self.last_schedules.push((w, schedule));
        }
        let max_stage = self
            .last_schedules
            .iter()
            .map(|(_, s)| s.makespan_us)
            .fold(0.0, f64::max);
        for (w, schedule) in &self.last_schedules {
            self.totals.worker_idle_us[*w] += max_stage - schedule.makespan_us;
        }

        // Ring collectives on the shared fabric.
        let param_bytes: u64 = {
            let params = trainer.params();
            let mut names: Vec<&str> = params.names().collect();
            names.sort_unstable();
            names.iter().map(|n| params.get(n).bytes()).sum()
        };
        let collective = spec.all_gather_us(work.total_feature_bytes as f64 / n as f64, n)
            + spec.all_reduce_us(param_bytes as f64, n);
        self.totals.collective_us += collective;
        for link_us in &mut self.totals.worker_link_us {
            *link_us += collective;
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
        // cluster clock), and the collective tail. Span/flow identities
        // derive from (seed, batch_index) only.
        let ctx = TraceContext::for_request(CLUSTER_TRACE_SEED, batch_index);
        self.coordinator_trace.duration(
            "batches",
            format!("batch #{batch_index}"),
            "cluster",
            batch_start,
            max_stage + collective,
            args([
                ("trace_id", format!("{:016x}", ctx.trace_id).into()),
                ("workers", n.into()),
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
            Vec::new(),
        );
        for (w, schedule) in &self.last_schedules {
            let flow_id = ctx.span_id(*w);
            self.coordinator_trace
                .flow_start("batches", "partition", batch_start, flow_id);
            let wt = &mut self.worker_traces[*w];
            wt.flow_finish("batch", "partition", batch_start, flow_id);
            wt.duration(
                "batch",
                format!("batch #{batch_index}"),
                "cluster",
                batch_start,
                schedule.makespan_us,
                args([("batch", batch_index.into())]),
            );
            let local = schedule_to_trace(schedule, &worker_process(*w));
            for mut e in local.events {
                e.ts_us += batch_start;
                wt.events.push(e);
            }
        }
    }
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

/// The slice of `work` partition `idx` of `parts` executes (integer
/// splits, conserved to the unit across partitions). Feature bytes always
/// divide (a vertex cut shares nodes; a feature-dim
/// split slices the feature matrix along the embedding dimension);
/// structure work divides under a vertex cut and replicates in full on
/// every worker under a feature-dim split.
fn partition_work(work: &PreproWork, partition: Partition, idx: usize, parts: usize) -> PreproWork {
    let split = |total: u64| split_u64(total, parts, idx);
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
            .map(|i| partition_work(&w, Partition::VertexCut, i, parts))
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
    fn feature_dim_splits_features_and_replicates_structure() {
        let w = work();
        let piece = partition_work(&w, Partition::FeatureDim, 1, 4);
        assert_eq!(piece.hops[0].structure_bytes, w.hops[0].structure_bytes);
        assert_eq!(piece.hops[0].sample_alg_ops, w.hops[0].sample_alg_ops);
        assert_eq!(piece.hops[0].edges, w.hops[0].edges);
        assert_eq!(piece.total_nodes, w.total_nodes);
        assert_eq!(piece.hops[0].feature_bytes, w.hops[0].feature_bytes / 4);
        // Feature bytes are conserved across the four slices.
        let total: u64 = (0..4)
            .map(|i| partition_work(&w, Partition::FeatureDim, i, 4).total_feature_bytes)
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
