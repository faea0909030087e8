//! The one module that names a repo crate.
//!
//! Every call the benchmark makes into `crates/*` is here, so a refactor
//! of the repo knows exactly which public functions it must keep
//! source-compatible (README.md lists them). The rest of the benchmark
//! sees only this module's functions, its plain result structs, and the
//! repo types re-exported below as opaque handles.
//!
//! Two kinds of function live here: the *ops* each workload times from
//! outside (`prepro_op`, `train_op`, `ServeStack::submit`), and the
//! *replays* the traced pass uses to attribute an op's time to layers
//! (`replay_prepro`, `replay_kernels`, `ServeShadow::replay`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gt_baselines::{Baseline, BaselineKind};
use gt_core::cache::{CacheConfig, ServingCaches};
use gt_core::config::ModelConfig;
use gt_core::framework::{BatchOutcome, Framework, ShedCause};
use gt_core::journal::{self, Journal};
use gt_core::napa::{NeighborApply, Pull};
use gt_core::overload::{Completion, Gateway, OverloadConfig, TenancyConfig, TenantQuota};
use gt_core::prepro::run_prepro;
use gt_core::scheduler::{schedule_prepro, PreproStrategy};
use gt_core::serve::{DurabilityConfig, Supervisor};
use gt_core::trainer::{GraphTensor, GtVariant};
use gt_datasets::workload::{self, Arrival, WorkloadSpec};
use gt_datasets::Scale;
use gt_par::ThreadPool;
use gt_sample::{
    lookup_all_with_pool, try_reindex_layer_with_pool, try_sample_batch_with_pool, BatchIter,
};
use gt_sim::{FaultPlan, SystemSpec};
use gt_telemetry::{SpanRecord, Telemetry, Trace};
use gt_tensor::checkpoint;
use gt_tensor::dense::Matrix;
use gt_tensor::dfg::ParamStore;
use gt_tensor::optim::Optimizer;

use crate::spans::{SpanId, SpanLog};
use crate::stats;

pub use gt_core::data::GraphData;
pub use gt_core::prepro::PreproResult;
pub use gt_graph::VId;
pub use gt_sample::SamplerConfig;
pub use gt_telemetry::json::{obj, parse as parse_json};
pub use gt_telemetry::Json;

/// The trainer handle workloads hold.
pub type Trainer = GraphTensor;

// ---- environment ----------------------------------------------------------

/// Workers in the library's process-wide `gt-par` pool (`GT_THREADS`).
pub fn pool_threads() -> usize {
    ThreadPool::global().workers()
}

/// Median wall µs of one empty `for_each_chunk` round trip that really
/// dispatches (one chunk per worker), over `rounds` rounds.
pub fn pool_dispatch_us(rounds: usize) -> f64 {
    let pool = ThreadPool::global();
    let chunks = pool.workers().max(2);
    let walls: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = std::time::Instant::now();
            pool.for_each_chunk("bench.dispatch", chunks, 1, |i, _| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&walls)
}

fn testbed() -> SystemSpec {
    SystemSpec::paper_testbed()
}

// ---- datasets and inputs --------------------------------------------------

/// Generate Table-II dataset `name` at `1/divisor` of its paper size.
pub fn build_dataset(name: &str, divisor: usize, seed: u64) -> GraphData {
    let spec = gt_datasets::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    spec.build(Scale::Custom(divisor), seed)
}

/// `(vertices, edges, feature dim)` of a built dataset.
pub fn dataset_shape(data: &GraphData) -> (usize, usize, usize) {
    (
        data.num_vertices(),
        data.graph.num_edges(),
        data.feature_dim(),
    )
}

/// Endless stream of full-size training batches: seeded shuffles of the
/// vertex set, a fresh shuffle (seed + epoch) whenever one is used up.
pub struct Batches {
    vertices: usize,
    size: usize,
    seed: u64,
    epoch: u64,
    iter: BatchIter,
}

impl Batches {
    /// Batches of `size` (capped at the graph size) over `data`.
    pub fn new(data: &GraphData, size: usize, seed: u64) -> Self {
        let vertices = data.num_vertices();
        let size = size.min(vertices);
        Batches {
            vertices,
            size,
            seed,
            epoch: 0,
            iter: BatchIter::new(vertices, size, seed),
        }
    }

    /// The next batch; the short batch at the end of an epoch is skipped
    /// so every op does the same amount of work.
    pub fn next_batch(&mut self) -> Vec<VId> {
        loop {
            match self.iter.next() {
                Some(b) if b.len() == self.size => return b,
                Some(_) => {}
                None => {
                    self.epoch += 1;
                    self.iter = BatchIter::new(
                        self.vertices,
                        self.size,
                        self.seed.wrapping_add(self.epoch),
                    );
                }
            }
        }
    }
}

/// Sampler settings; `seed` is the base the per-op seed advances from.
pub fn sampler(fanout: usize, layers: usize, seed: u64) -> SamplerConfig {
    SamplerConfig {
        fanout,
        layers,
        seed,
        ..Default::default()
    }
}

/// The sampler a trainer uses for its `nth` batch (the trainers add their
/// batch counter to the base seed).
pub fn sampler_for_batch(base: &SamplerConfig, nth: usize) -> SamplerConfig {
    let mut cfg = base.clone();
    cfg.seed = cfg.seed.wrapping_add(nth as u64);
    cfg
}

// ---- preprocessing --------------------------------------------------------

/// Which GraphTensor build a trainer is; fixes the preprocessing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// NAPA + DKP + the service-wide tensor scheduler (train workloads).
    Prepro,
    /// NAPA + DKP, serialized preprocessing (what `repro serving` serves).
    Dynamic,
}

impl Variant {
    fn strategy(self) -> PreproStrategy {
        match self {
            Variant::Prepro => PreproStrategy::PipelinedRelaxed,
            Variant::Dynamic => PreproStrategy::Serial,
        }
    }
}

/// The `prepro-stream` op: S/R/K for one batch, then the pipelined
/// schedule of the measured work. Returns the schedule's makespan
/// (virtual µs).
pub fn prepro_op(data: &GraphData, batch: &[VId], cfg: &SamplerConfig) -> f64 {
    let pr = run_prepro(data, batch, cfg);
    schedule_prepro(&pr.work, &testbed(), PreproStrategy::PipelinedRelaxed).makespan_us
}

/// Output check for preprocessing: every gathered feature row equals the
/// embedding-table row of the vertex it stands for.
pub fn prepro_features_match(data: &GraphData, batch: &[VId], cfg: &SamplerConfig) -> bool {
    let pr = run_prepro(data, batch, cfg);
    pr.features.rows() == pr.new_to_orig.len()
        && pr
            .new_to_orig
            .iter()
            .enumerate()
            .all(|(new, &orig)| pr.features.row(new) == data.features.row(orig))
}

/// Where a replay records: the span log, the op the spans belong to, and
/// the per-op counts gathered on the way (`(metric, value)`).
pub struct Replay<'a> {
    pub log: &'a mut SpanLog,
    pub op: usize,
    pub counts: &'a mut Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        self.log.time(name, Some(parent), self.op, f).1
    }

    /// Record a per-op count under `metric`.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        self.counts.push((metric, value));
    }
}

/// Replay one batch's preprocessing under `parent`: `run_prepro` as a
/// whole, then the three `gt-sample` calls it is made of as its children
/// (so its self time is the glue), then the schedule.
pub fn replay_prepro(
    r: &mut Replay,
    parent: SpanId,
    variant: Variant,
    data: &GraphData,
    batch: &[VId],
    cfg: &SamplerConfig,
) -> PreproResult {
    let (run, pr) = r.log.time("prepro.run", Some(parent), r.op, || {
        run_prepro(data, batch, cfg)
    });

    let pool = ThreadPool::global();
    let sample = r.time("gt-sample.sample", run, || {
        try_sample_batch_with_pool(&data.graph, batch, cfg, pool)
            .expect("benchmark batches are valid")
    });
    for (k, hop) in sample.hops.iter().enumerate() {
        let (dst, src) = (sample.boundaries[k], sample.boundaries[k + 1]);
        let layer = r.time("gt-sample.reindex", run, || {
            try_reindex_layer_with_pool(hop, &sample.vidmap, dst, src, pool)
                .expect("sampled ids are mapped")
        });
        std::hint::black_box(layer);
    }
    let ids = sample.new_to_orig();
    let rows = r.time("gt-sample.lookup", run, || {
        lookup_all_with_pool(&data.features, &ids, pool)
    });
    std::hint::black_box(rows);

    let work = &pr.work;
    r.count("gt-sample.nodes_per_op", work.total_nodes as f64);
    r.count(
        "gt-sample.edges_per_op",
        work.hops.iter().map(|h| h.edges).sum::<u64>() as f64,
    );
    r.count(
        "gt-sample.hash_ops_per_op",
        work.hops.iter().map(|h| h.sample_hash_ops).sum::<u64>() as f64,
    );

    let sys = testbed();
    let makespan = r.time("scheduler.schedule", parent, || {
        schedule_prepro(work, &sys, variant.strategy()).makespan_us
    });
    r.count("scheduler.makespan_us", makespan);
    pr
}

// ---- trainer --------------------------------------------------------------

/// The GNN a train workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Gcn,
    Ngcf,
}

fn model_config(model: Model, dataset: &str) -> ModelConfig {
    let out_dim = gt_datasets::by_name(dataset)
        .unwrap_or_else(|| panic!("unknown dataset {dataset}"))
        .out_dim;
    match model {
        Model::Gcn => ModelConfig::gcn(2, 64, out_dim),
        Model::Ngcf => ModelConfig::ngcf(2, 64, out_dim),
    }
}

/// A GraphTensor trainer on the paper testbed: 2 layers, hidden 64, the
/// dataset's output width. `recording` swaps the null telemetry collector
/// for an in-memory one.
pub fn trainer(
    variant: Variant,
    model: Model,
    dataset: &str,
    sampler: &SamplerConfig,
    recording: bool,
) -> Trainer {
    let variant = match variant {
        Variant::Prepro => GtVariant::Prepro,
        Variant::Dynamic => GtVariant::Dynamic,
    };
    let mut t = GraphTensor::new(variant, model_config(model, dataset), testbed());
    t.sampler = sampler.clone();
    if recording {
        t.telemetry = Telemetry::recording();
    }
    t
}

/// What one train op did.
#[derive(Debug, Clone, Copy)]
pub struct TrainStat {
    /// Training loss of the batch.
    pub loss: f32,
    /// The batch produced a committed step with a finite loss.
    pub trained: bool,
    /// Modeled steady-state batch latency, virtual µs.
    pub modeled_us: f64,
}

/// The train op: `GraphTensor::train_batch` on one batch.
pub fn train_op(t: &mut Trainer, data: &GraphData, batch: &[VId]) -> TrainStat {
    let overlapped = t.overlaps_batches();
    let r = t.train_batch(data, batch);
    TrainStat {
        loss: r.loss,
        trained: r.outcome.trained() && r.loss.is_finite(),
        modeled_us: r.e2e_us(overlapped),
    }
}

/// Forward-only inference on one batch (result discarded).
pub fn infer_op(t: &mut Trainer, data: &GraphData, batch: &[VId]) {
    std::hint::black_box(t.infer_batch(data, batch));
}

/// DKP placements so far: `(aggregation-first, combination-first)`.
pub fn dkp_decisions(t: &Trainer) -> (usize, usize) {
    t.dkp_decisions()
}

/// The independent implementation the loss check replays against: the
/// DGL-style baseline (COO SpMM/SDDMM) with the same model, initial
/// parameters, learning rate and sampler seed schedule.
pub struct Reference(Baseline);

impl Reference {
    pub fn new(model: Model, dataset: &str, sampler: &SamplerConfig) -> Self {
        let mut b = Baseline::new(BaselineKind::Dgl, model_config(model, dataset), testbed());
        b.sampler = sampler.clone();
        Reference(b)
    }

    /// Train one batch and return its loss.
    pub fn train_loss(&mut self, data: &GraphData, batch: &[VId]) -> f32 {
        self.0.train_batch(data, batch).loss
    }
}

/// Replay the kernels of one train step under `parent`, on the batch's
/// real preprocessing result and the trainer's current parameters, in
/// aggregation-first order (Pull then MatMul per layer; backward skips the
/// first layer's Pull, as the DKP node does). A batch the DKP placed
/// combination-first did different work, which shows up as a negative
/// `trainer.unattributed_ms`.
pub fn replay_kernels(r: &mut Replay, parent: SpanId, t: &Trainer, pr: &PreproResult) {
    struct Layer {
        na: Option<NeighborApply>,
        pull: Pull,
        edge_weights: Option<Matrix>,
        aggregated: Matrix,
    }
    let model = &t.model;
    let params = t.params();
    let mut inputs: Vec<Matrix> = Vec::new(); // inputs of layers 1.., layer 0 reads pr.features
    let mut layers: Vec<Layer> = Vec::new();
    let mut out = None;
    let (mut flops, mut edge_elems) = (0u64, 0u64);

    for l in 0..model.layers {
        let x = if l == 0 { &pr.features } else { &inputs[l - 1] };
        let graph = &pr.layers[l];
        let edges = graph.csr.num_edges() as u64;
        let (na, pull) = match model.edge {
            Some(e) => (
                Some(NeighborApply::new(Arc::clone(graph), e.g)),
                Pull::weighted(Arc::clone(graph), model.agg, e.h),
            ),
            None => (None, Pull::new(Arc::clone(graph), model.agg)),
        };
        let edge_weights = na
            .as_ref()
            .map(|na| r.time("napa.neighbor_apply_fwd", parent, || na.compute(x)));
        let aggregated = r.time("napa.pull_fwd", parent, || {
            pull.compute(x, edge_weights.as_ref())
        });
        edge_elems += edges * x.cols() as u64 * if na.is_some() { 2 } else { 1 };
        let w = params.get(&model.weight_name(l));
        let mut z = r.time("dense.matmul", parent, || aggregated.matmul(w));
        z.add_row_vector(params.get(&model.bias_name(l)).row(0));
        flops += 2 * (aggregated.rows() * aggregated.cols() * w.cols()) as u64;
        if l + 1 < model.layers {
            inputs.push(z.relu());
        } else {
            out = Some(z);
        }
        layers.push(Layer {
            na,
            pull,
            edge_weights,
            aggregated,
        });
    }

    // Any dense matrix of the output's shape serves as dL/dout: kernel time
    // depends on shapes and zero patterns, not on the values.
    let mut grad = out.expect("model has at least one layer");
    let mut shadow = ParamStore::new();
    for l in (0..model.layers).rev() {
        let layer = &layers[l];
        let (wn, bn) = (model.weight_name(l), model.bias_name(l));
        let w = params.get(&wn);
        let dw = r.time("dense.matmul_ta", parent, || {
            layer.aggregated.transpose_a_matmul(&grad)
        });
        let da = r.time("dense.matmul_tb", parent, || grad.matmul_transpose_b(w));
        flops += 4 * (layer.aggregated.rows() * layer.aggregated.cols() * w.cols()) as u64;
        shadow.register(wn.clone(), w.clone());
        shadow.register(bn.clone(), params.get(&bn).clone());
        shadow.accumulate_grad(&wn, &dw);
        shadow.accumulate_grad(&bn, &Matrix::from_vec(1, grad.cols(), grad.column_sums()));
        if l == 0 {
            break;
        }
        let x = &inputs[l - 1];
        let edges = layer.pull.layer.csr.num_edges() as u64;
        let (dx, dweights) = r.time("napa.pull_bwd", parent, || {
            layer
                .pull
                .compute_backward(x, layer.edge_weights.as_ref(), &da)
        });
        edge_elems += edges * x.cols() as u64;
        if let (Some(na), Some(dweights)) = (&layer.na, dweights) {
            let dx_edges = r.time("napa.neighbor_apply_bwd", parent, || {
                na.compute_backward(x, &dweights)
            });
            std::hint::black_box(dx_edges);
            edge_elems += edges * x.cols() as u64;
        }
        grad = x.relu_grad(&dx);
    }
    r.time("optim.step", parent, || {
        Optimizer::sgd(t.lr).step(&mut shadow)
    });
    r.count("dense.flops_per_op", flops as f64);
    r.count("napa.edge_elems_per_op", edge_elems as f64);
}

/// Save the trainer's parameters crash-consistently (tmp + fsync + rename
/// + dir fsync); returns the checkpoint's size in bytes.
pub fn checkpoint_save(t: &Trainer, path: &Path) -> u64 {
    checkpoint::save_file(t.params(), path).expect("checkpoint save");
    std::fs::metadata(path).map_or(0, |m| m.len())
}

// ---- serving --------------------------------------------------------------

/// Tally of how the requests resolved by one or more gateway calls ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Resolved {
    /// Completions that trained (served, possibly degraded).
    pub trained: u32,
    /// Of those, served degraded.
    pub degraded: u32,
    /// Shed: deadline expired / tenant quota exceeded / queue full.
    pub shed_deadline: u32,
    pub shed_quota: u32,
    pub shed_queue: u32,
    /// Neither trained nor shed: failed or quarantined.
    pub failed: u32,
    /// Sum over trained completions of `done_us - at_us`, virtual µs.
    pub modeled_us: f64,
}

impl Resolved {
    /// Every completion counted.
    pub fn total(&self) -> u32 {
        self.trained + self.shed_deadline + self.shed_quota + self.shed_queue + self.failed
    }

    pub fn add(&mut self, o: &Resolved) {
        self.trained += o.trained;
        self.degraded += o.degraded;
        self.shed_deadline += o.shed_deadline;
        self.shed_quota += o.shed_quota;
        self.shed_queue += o.shed_queue;
        self.failed += o.failed;
        self.modeled_us += o.modeled_us;
    }
}

// The scenario constants of `repro serving` (EXPERIMENTS.md "serving"):
// mean arrival gap and deadline as multiples of the probed service time.
const GAP_FACTOR: f64 = 1.1;
const DEADLINE_FACTOR: f64 = 6.0;
const CHECKPOINT_EVERY: usize = 64;
/// Distinct days generated per stack.
const DAY_POOL: usize = 8;
const SERVE_DATASET: &str = "reddit2";

/// The shipped serving stack as `repro serving` wires it: Dynamic-GT
/// behind a supervisor with caches and a durable journal/checkpoint,
/// behind the multi-tenant admission gateway; plus the calibrated days of
/// open-loop arrivals it is driven with, back to back.
pub struct ServeStack {
    gateway: Gateway,
    /// `DAY_POOL` generated days laid end to end in virtual time; the
    /// cycle repeats, shifted by `cycle_us`, for as long as the run lasts.
    cycle: Vec<Arrival>,
    cycle_us: f64,
    /// Index one past each day's last arrival in `cycle`.
    day_ends: Vec<usize>,
    dir: PathBuf,
    submitted: usize,
    seen: Vec<bool>,
    duplicates: usize,
    /// Wall seconds `workload::generate` took.
    pub workload_gen_s: f64,
}

fn serve_trainer(sampler: &SamplerConfig, recording: bool) -> Trainer {
    trainer(
        Variant::Dynamic,
        Model::Gcn,
        SERVE_DATASET,
        sampler,
        recording,
    )
}

impl ServeStack {
    /// Build the stack over `data` with durable state under `dir`
    /// (created fresh). `day_arrivals` sizes the day; the arrival gap and
    /// the deadline are calibrated to a probed service time.
    pub fn new(
        data: &GraphData,
        sampler: &SamplerConfig,
        dir: &Path,
        day_arrivals: usize,
        recording: bool,
    ) -> Self {
        let seed = sampler.seed;
        let nv = data.num_vertices();
        let mut wl = WorkloadSpec::default_day(seed);

        // Probe: fault-free virtual service time of one request.
        let service_us = {
            let sup = Supervisor::new(serve_trainer(sampler, false), FaultPlan::new(seed));
            let mut g = Gateway::new(sup, OverloadConfig::default());
            let batch = BatchIter::new(nv, wl.batch_size, seed)
                .next()
                .expect("non-empty dataset");
            let mut c = g.submit_from(data, 0.0, 0, &batch);
            c.extend(g.drain(data));
            assert_eq!(c.len(), 1, "probe resolves once");
            c[0].done_us
        };
        wl.mean_gap_us = GAP_FACTOR * service_us;
        wl.duration_us = day_arrivals as f64 * wl.mean_gap_us;
        wl.burst_len_us = wl.duration_us / 20.0;
        // Each day has its own generator seed, so its own hot keys,
        // templates and bursts: a run averages over several of them
        // instead of inheriting one day's luck.
        let t = std::time::Instant::now();
        let (mut cycle, mut day_ends) = (Vec::new(), Vec::new());
        for d in 0..DAY_POOL {
            wl.seed = seed.wrapping_add(d as u64);
            let shift_us = d as f64 * wl.duration_us;
            cycle.extend(workload::generate(&wl, nv).into_iter().map(|a| Arrival {
                at_us: a.at_us + shift_us,
                ..a
            }));
            day_ends.push(cycle.len());
        }
        let workload_gen_s = t.elapsed().as_secs_f64();
        assert!(!cycle.is_empty(), "a day has arrivals");

        let mut sup = Supervisor::new(serve_trainer(sampler, recording), FaultPlan::new(seed));
        sup.enable_caches(CacheConfig {
            embedding_capacity: (nv / 4).max(64),
            subgraph_capacity: 64,
        });
        let _ = std::fs::remove_dir_all(dir);
        sup.make_durable(DurabilityConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ..DurabilityConfig::new(dir)
        })
        .expect("durable state directory");
        let mut gateway = Gateway::new(
            sup,
            OverloadConfig {
                queue_capacity: 16,
                deadline_us: DEADLINE_FACTOR * service_us,
                degrade_watermark: 6,
                halve_watermark: 10,
                reduced_fanout: 2,
            },
        );
        // Tenant 2 (a 20% offered share) is capped at half what it offers.
        let offered_rps = 1e6 / wl.mean_gap_us;
        gateway.enable_tenancy(TenancyConfig {
            quotas: vec![
                TenantQuota::unlimited(),
                TenantQuota::unlimited(),
                TenantQuota::new(0.5 * 0.2 * offered_rps, 2.0),
            ],
            quantum: wl.batch_size,
        });
        ServeStack {
            gateway,
            cycle,
            cycle_us: DAY_POOL as f64 * wl.duration_us,
            day_ends,
            dir: dir.to_path_buf(),
            submitted: 0,
            seen: Vec::new(),
            duplicates: 0,
            workload_gen_s,
        }
    }

    /// True when the next arrival opens a new day.
    pub fn at_day_boundary(&self) -> bool {
        let i = self.submitted % self.cycle.len();
        i == 0 || self.day_ends.binary_search(&i).is_ok()
    }

    /// Virtual arrival time of request `index`.
    fn at_us(&self, index: usize) -> f64 {
        let n = self.cycle.len();
        self.cycle[index % n].at_us + (index / n) as f64 * self.cycle_us
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// The batch the next submit will carry.
    pub fn next_batch(&self) -> &[VId] {
        &self.cycle[self.submitted % self.cycle.len()].batch
    }

    /// The serve op: submit the next arrival and tally what resolved
    /// meanwhile.
    pub fn submit(&mut self, data: &GraphData) -> Resolved {
        let at_us = self.at_us(self.submitted);
        let a = &self.cycle[self.submitted % self.cycle.len()];
        let done = self.gateway.submit_from(data, at_us, a.tenant, &a.batch);
        self.submitted += 1;
        self.tally(&done)
    }

    /// Run the virtual clock forward until the queue is empty.
    pub fn drain(&mut self, data: &GraphData) -> Resolved {
        let done = self.gateway.drain(data);
        self.tally(&done)
    }

    fn tally(&mut self, done: &[Completion]) -> Resolved {
        let mut r = Resolved::default();
        for c in done {
            if self.seen.len() <= c.request_index {
                self.seen.resize(c.request_index + 1, false);
            }
            if std::mem::replace(&mut self.seen[c.request_index], true) {
                self.duplicates += 1;
            }
            match c.outcome {
                o if o.trained() => {
                    r.trained += 1;
                    r.degraded += matches!(o, BatchOutcome::Degraded { .. }) as u32;
                    r.modeled_us += c.done_us - self.at_us(c.request_index);
                }
                BatchOutcome::Shed { cause } => match cause {
                    ShedCause::DeadlineExpired => r.shed_deadline += 1,
                    ShedCause::QuotaExceeded => r.shed_quota += 1,
                    ShedCause::QueueFull => r.shed_queue += 1,
                },
                _ => r.failed += 1,
            }
        }
        r
    }

    /// Requests waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.gateway.queue_depth()
    }

    /// DKP placements of the serving trainer so far.
    pub fn dkp_decisions(&self) -> (usize, usize) {
        self.gateway.supervisor.trainer.dkp_decisions()
    }

    /// `(embedding, subgraph)` cache hit rates so far.
    pub fn cache_hit_rates(&self) -> (f64, f64) {
        let s = self
            .gateway
            .supervisor
            .cache_stats()
            .expect("caches are enabled");
        (s.embedding_hit_rate(), s.subgraph_hit_rate())
    }

    /// Output check, after the final drain: exactly one completion per
    /// arrival, a journal that scans clean with one batch record per
    /// request that was not shed, and a loadable checkpoint once one is due.
    pub fn check(&self, resolved: &Resolved) -> Result<(), String> {
        if self.duplicates > 0 || self.seen.len() != self.submitted || self.seen.contains(&false) {
            return Err(format!(
                "{} arrivals, {} resolved, {} twice",
                self.submitted,
                self.seen.iter().filter(|&&s| s).count(),
                self.duplicates
            ));
        }
        let cfg = DurabilityConfig::new(&self.dir);
        let scan = journal::read_journal(cfg.journal_path()).map_err(|e| e.to_string())?;
        if scan.torn_tail {
            return Err("journal has a torn tail".into());
        }
        let batch_records = scan
            .records
            .iter()
            .filter(|r| journal::record_type(r) == Some("batch"))
            .count();
        let served = (resolved.trained + resolved.failed) as usize;
        if batch_records != served {
            return Err(format!(
                "{batch_records} journal batch records for {served} requests that reached the supervisor"
            ));
        }
        if served >= CHECKPOINT_EVERY {
            checkpoint::load_file(cfg.checkpoint_path())
                .map_err(|e| format!("checkpoint does not load: {e}"))?;
        }
        Ok(())
    }
}

/// Shadow copies of the layers behind the gateway, for the traced pass:
/// a journal, the serving caches, and a plain trainer of the same build.
/// Replaying a request on them attributes the submit's wall time without
/// touching the stack being measured.
pub struct ServeShadow {
    journal: Journal,
    caches: ServingCaches,
    trainer: Trainer,
    sampler: SamplerConfig,
    trained: usize,
    checkpoint: PathBuf,
}

impl ServeShadow {
    /// Shadows writing under `dir` (created fresh).
    pub fn new(data: &GraphData, sampler: &SamplerConfig, dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("shadow directory");
        let cfg = DurabilityConfig::new(dir);
        ServeShadow {
            journal: Journal::create(cfg.journal_path()).expect("shadow journal"),
            caches: ServingCaches::new(CacheConfig {
                embedding_capacity: (data.num_vertices() / 4).max(64),
                subgraph_capacity: 64,
            }),
            trainer: serve_trainer(sampler, false),
            sampler: sampler.clone(),
            trained: 0,
            checkpoint: cfg.checkpoint_path(),
        }
    }

    /// Replay one request under `parent`: journal append (with its fsync),
    /// cache consult, and a plain `train_batch` with its own layer replay
    /// beneath it; then, as asides, a checkpoint save and an inference.
    pub fn replay(&mut self, r: &mut Replay, parent: SpanId, data: &GraphData, batch: &[VId]) {
        let fanout = self.sampler.fanout;
        let record = journal::batch_record(self.trained, batch, &BatchOutcome::Succeeded, fanout);
        r.count(
            "journal.bytes_per_op",
            (record.to_json_string().len() + 8) as f64,
        );
        let journal = &mut self.journal;
        r.time("journal.append", parent, || {
            journal.append(&record).expect("shadow journal append")
        });
        let caches = &mut self.caches;
        r.time("cache.consult", parent, || {
            std::hint::black_box(caches.consult(batch, fanout));
        });

        let cfg = sampler_for_batch(&self.sampler, self.trained);
        let trainer = &mut self.trainer;
        let (train, stat) = r.log.time("trainer.train_batch", Some(parent), r.op, || {
            train_op(trainer, data, batch)
        });
        r.count("trainer.modeled_us", stat.modeled_us);
        self.trained += 1;
        let pr = replay_prepro(r, train, Variant::Dynamic, data, batch, &cfg);
        replay_kernels(r, train, &self.trainer, &pr);
        replay_asides(r, &mut self.trainer, data, batch, &self.checkpoint);
    }
}

/// Spans that belong to an op but are no part of it: a checkpoint of the
/// current parameters and a forward-only inference on the same batch.
pub fn replay_asides(
    r: &mut Replay,
    t: &mut Trainer,
    data: &GraphData,
    batch: &[VId],
    ckpt: &Path,
) {
    let (_, bytes) = r
        .log
        .time("checkpoint.save", None, r.op, || checkpoint_save(t, ckpt));
    r.count("checkpoint.bytes", bytes as f64);
    r.log.time("trainer.infer_batch", None, r.op, || {
        infer_op(t, data, batch)
    });
}

// ---- trace export ---------------------------------------------------------

/// Render the span log as Chrome trace-event JSON through the repo's
/// exporter. Roots go on the `op` track, replays on `replay`, asides on
/// `aside`; `span_id`/`parent_span_id`/`op` land in each slice's args.
pub fn chrome_trace(process: &str, log: &SpanLog) -> String {
    let records: Vec<SpanRecord> = log
        .spans()
        .iter()
        .enumerate()
        .map(|(id, s)| SpanRecord {
            // Collector ids are 1-based; 0 means "no span".
            id: id as u64 + 1,
            parent: s.parent.map(|p| p as u64 + 1),
            name: s.name.to_string(),
            track: match (s.parent, s.name) {
                (Some(_), _) => "replay",
                (None, "checkpoint.save" | "trainer.infer_batch") => "aside",
                (None, _) => "op",
            }
            .to_string(),
            start_us: s.start_us,
            dur_us: s.dur_us,
            args: vec![("op".to_string(), s.op.to_string())],
        })
        .collect();
    gt_telemetry::write_chrome_json(&[&Trace::from_spans(process, &records, &[])])
}
