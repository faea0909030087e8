//! The five workloads: what each one is made of, what one op is, how an
//! op is replayed layer by layer, and how its outputs are checked.
//!
//! Every workload is a closed loop with one driver thread: the next op is
//! issued when the previous one returns. (`serve-day`'s arrivals are
//! open-loop in the gateway's *virtual* time; the wall-clock driver that
//! submits them is still closed-loop.)

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use crate::layers::{
    self, Batches, GraphData, Model, Reference, Replay, Resolved, SamplerConfig, ServeShadow,
    ServeStack, Trainer, VId, Variant,
};
use crate::spans::SpanId;

/// Which of the three shapes a workload has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PreproStream,
    Train(Model),
    ServeDay,
}

/// One row of the workload table. `why` is the line `BENCHMARK.json`
/// carries; README.md has the long form.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Table-II dataset and its size divisor at `[full, smoke]` sizing.
    pub dataset: &'static str,
    pub divisor: [usize; 2],
    /// Timed ops every run does whatever `--seconds` says, at
    /// `[full, smoke]` sizing. `failed_share` and `modeled_op_us_mean` are
    /// taken over exactly these, so they repeat for a given seed.
    /// (`serve-day`: 0, and the day-boundary rule makes it what is left of
    /// the first day after warm-up.)
    pub min_ops: [usize; 2],
    /// The traced pass also runs this workload twice more, telemetry
    /// recording vs null (`telemetry.recording_overhead_pct`).
    pub telemetry_twin: bool,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "prepro-stream",
        why: "Host-side data-loader path alone (run_prepro + schedule_prepro on products/20): gt-sample S/R/K is ~95% of the op and no kernel runs, so a sampling/reindex/lookup gain shows here at full size.",
        kind: Kind::PreproStream,
        dataset: "products",
        divisor: [20, 200],
        min_ops: [256, 8],
        telemetry_twin: false,
    },
    Spec {
        name: "train-light-gcn",
        why: "The paper's default light workload end to end (train_batch, Prepro-GT GCN, F=100): S/R/K ~25%, dense backward ~50%, Pull ~7%, so a prepro gain that costs the kernels shows.",
        kind: Kind::Train(Model::Gcn),
        dataset: "products",
        divisor: [20, 200],
        min_ops: [64, 8],
        telemetry_twin: true,
    },
    Spec {
        name: "train-heavy-gcn",
        why: "Heavy features (wiki-talk/200, F=4353): dense MatMul >=75%, K gather ~12%, sampling <1%, DKP mixes placements; kernel, tiling and arena work shows and prepro work must not.",
        kind: Kind::Train(Model::Gcn),
        dataset: "wiki-talk",
        divisor: [200, 2000],
        min_ops: [16, 4],
        telemetry_twin: false,
    },
    Spec {
        name: "train-light-ngcf",
        why: "NGCF on amazon/200: NeighborApply + edge-weighted Pull are ~70% of the op (GCN's unweighted Pull is ~7%), so a Pull change tuned for GCN that hurts the weighted path shows.",
        kind: Kind::Train(Model::Ngcf),
        dataset: "amazon",
        divisor: [200, 2000],
        min_ops: [32, 4],
        telemetry_twin: false,
    },
    Spec {
        name: "serve-day",
        why: "The serving stack as `repro serving` wires it (gateway, tenancy, caches, fsynced journal, checkpoints, recording telemetry) under a repeated calibrated day: writes beside compute, degrade and sheds.",
        kind: Kind::ServeDay,
        dataset: "reddit2",
        divisor: [20, 200],
        min_ops: [0, 0],
        telemetry_twin: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything about a run's size that is not the dataset.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Index into the `[full, smoke]` pairs of [`Spec`].
    pub idx: usize,
    /// How often an untraced run sets up; `setup_s` is the median.
    pub setup_reps: usize,
    /// Untimed ops that end set-up (DKP calibration is the first three).
    pub warm_ops: usize,
    /// Timed train ops, after the warm-up, whose loss is checked too.
    pub checked_ops: usize,
    /// Arrivals in one `serve-day` day (`repro serving` uses 360).
    pub day_arrivals: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        idx: 0,
        setup_reps: 3,
        warm_ops: 8,
        checked_ops: 5,
        day_arrivals: 360,
    };
    /// `--smoke`: every workload sets up and runs in about two seconds.
    pub const SMOKE: Sizing = Sizing {
        idx: 1,
        setup_reps: 1,
        warm_ops: 4,
        checked_ops: 2,
        day_arrivals: 90,
    };
}

/// Destination vertices per batch, sampling fanout and depth (§VI).
const BATCH: usize = 300;
const FANOUT: usize = 15;
const LAYERS: usize = 2;

/// Scratch directory inside the checkout for durable state and shadow
/// files; removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: Cell<usize>,
}

impl Scratch {
    pub fn new(root: PathBuf) -> Self {
        std::fs::create_dir_all(&root)
            .unwrap_or_else(|e| panic!("scratch directory {}: {e}", root.display()));
        Scratch {
            root,
            next: Cell::new(0),
        }
    }

    /// A path under the scratch root no earlier call returned.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.replace(self.next.get() + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one op resolved. A train or prepro op resolves itself; a gateway
/// submit resolves whatever requests completed or were shed meanwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStat {
    /// Results that trained (for `prepro-stream`: batches preprocessed).
    pub trained: u32,
    /// Requests the gateway shed (by design, under overload).
    pub shed: u32,
    /// Results that neither trained nor were shed.
    pub failed: u32,
    /// Modeled virtual µs, summed over the trained results.
    pub modeled_us: f64,
}

impl OpStat {
    fn one(trained: bool, modeled_us: f64) -> Self {
        OpStat {
            trained: trained as u32,
            shed: 0,
            failed: !trained as u32,
            modeled_us: if trained { modeled_us } else { 0.0 },
        }
    }

    fn of(r: &Resolved) -> Self {
        OpStat {
            trained: r.trained,
            shed: r.shed_deadline + r.shed_quota + r.shed_queue,
            failed: r.failed,
            modeled_us: r.modeled_us,
        }
    }

    pub fn add(&mut self, o: &OpStat) {
        self.trained += o.trained;
        self.shed += o.shed;
        self.failed += o.failed;
        self.modeled_us += o.modeled_us;
    }

    pub fn resolved(&self) -> u32 {
        self.trained + self.shed + self.failed
    }
}

pub trait Workload {
    /// One closed-loop op.
    fn op(&mut self) -> OpStat;

    /// False while stopping here would cut a unit of work in two
    /// (`serve-day` stops on day boundaries so every run sees whole days).
    fn at_boundary(&self) -> bool {
        true
    }

    /// After the last op: resolve whatever is still in flight.
    fn finish(&mut self) -> OpStat {
        OpStat::default()
    }

    /// Check the outputs of the ops run so far.
    fn check(&mut self) -> Result<(), String>;

    /// Name of the root span around [`Workload::op`] in a traced pass.
    fn root_span(&self) -> &'static str;

    /// Replay the layer calls of the op that just returned `stat`, as
    /// children of its root span.
    fn replay(&mut self, r: &mut Replay, root: SpanId, stat: &OpStat);

    /// Per-layer values read off the workload's state at the end.
    fn facts(&self) -> Vec<(&'static str, f64)>;
}

/// Build workload `spec` over `data` and run its warm-up ops. This plus
/// the dataset build is what `setup_s` times. `recording` forces the
/// telemetry collector to recording or null; `None` keeps the workload's
/// own (null on the train workloads, recording on `serve-day`).
pub fn build(
    spec: &'static Spec,
    data: &Arc<GraphData>,
    seed: u64,
    sizing: Sizing,
    scratch: &Scratch,
    recording: Option<bool>,
) -> Box<dyn Workload> {
    let sampler = layers::sampler(FANOUT, LAYERS, seed);
    let mut w: Box<dyn Workload> = match spec.kind {
        Kind::PreproStream => Box::new(PreproStream {
            data: Arc::clone(data),
            batches: Batches::new(data, BATCH, seed),
            sampler,
            ops_done: 0,
            last_batch: Vec::new(),
        }),
        Kind::Train(model) => Box::new(Train {
            model,
            dataset: spec.dataset,
            head_len: sizing.warm_ops + sizing.checked_ops,
            data: Arc::clone(data),
            batches: Batches::new(data, BATCH, seed),
            trainer: layers::trainer(
                Variant::Prepro,
                model,
                spec.dataset,
                &sampler,
                recording.unwrap_or(false),
            ),
            sampler,
            ops_done: 0,
            last_batch: Vec::new(),
            head: Vec::new(),
            checkpoint: scratch.fresh("train").with_extension("gt"),
        }),
        Kind::ServeDay => Box::new(ServeDay {
            data: Arc::clone(data),
            stack: ServeStack::new(
                data,
                &sampler,
                &scratch.fresh("serve"),
                sizing.day_arrivals,
                recording.unwrap_or(true),
            ),
            sampler,
            shadow_dir: scratch.fresh("shadow"),
            shadow: None,
            totals: Resolved::default(),
            last_batch: Vec::new(),
            depth_sum: 0,
        }),
    };
    for _ in 0..sizing.warm_ops {
        w.op();
    }
    w
}

// ---- prepro-stream --------------------------------------------------------

struct PreproStream {
    data: Arc<GraphData>,
    batches: Batches,
    sampler: SamplerConfig,
    ops_done: usize,
    last_batch: Vec<VId>,
}

impl Workload for PreproStream {
    fn op(&mut self) -> OpStat {
        self.last_batch = self.batches.next_batch();
        let cfg = layers::sampler_for_batch(&self.sampler, self.ops_done);
        self.ops_done += 1;
        OpStat::one(true, layers::prepro_op(&self.data, &self.last_batch, &cfg))
    }

    fn check(&mut self) -> Result<(), String> {
        for i in 0..3 {
            let batch = self.batches.next_batch();
            let cfg = layers::sampler_for_batch(&self.sampler, self.ops_done + i);
            if !layers::prepro_features_match(&self.data, &batch, &cfg) {
                return Err(format!(
                    "check batch {i}: gathered features differ from the embedding table"
                ));
            }
        }
        Ok(())
    }

    fn root_span(&self) -> &'static str {
        "prepro.op"
    }

    fn replay(&mut self, r: &mut Replay, root: SpanId, _stat: &OpStat) {
        let cfg = layers::sampler_for_batch(&self.sampler, self.ops_done - 1);
        let pr =
            layers::replay_prepro(r, root, Variant::Prepro, &self.data, &self.last_batch, &cfg);
        std::hint::black_box(pr);
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

// ---- train-* --------------------------------------------------------------

struct Train {
    model: Model,
    dataset: &'static str,
    data: Arc<GraphData>,
    batches: Batches,
    trainer: Trainer,
    sampler: SamplerConfig,
    ops_done: usize,
    last_batch: Vec<VId>,
    /// Batch and loss of the first `head_len` ops (warm-up + checked).
    head: Vec<(Vec<VId>, f32)>,
    head_len: usize,
    checkpoint: PathBuf,
}

/// Largest relative loss difference the reference replay may show. The
/// reference sums in a different order (edge-wise COO kernels, no DKP), so
/// a digest would be too strict; a wrong kernel is off by far more.
const LOSS_TOLERANCE: f32 = 1e-3;

impl Workload for Train {
    fn op(&mut self) -> OpStat {
        self.last_batch = self.batches.next_batch();
        let s = layers::train_op(&mut self.trainer, &self.data, &self.last_batch);
        self.ops_done += 1;
        if self.head.len() < self.head_len {
            self.head.push((self.last_batch.clone(), s.loss));
        }
        OpStat::one(s.trained, s.modeled_us)
    }

    fn check(&mut self) -> Result<(), String> {
        let mut reference = Reference::new(self.model, self.dataset, &self.sampler);
        for (i, (batch, loss)) in self.head.iter().enumerate() {
            let want = reference.train_loss(&self.data, batch);
            let diff = (loss - want).abs() / want.abs().max(f32::MIN_POSITIVE);
            let agrees = loss.is_finite() && diff <= LOSS_TOLERANCE;
            if !agrees {
                return Err(format!(
                    "batch {i}: loss {loss} but the DGL-style reference has {want} (rel diff {diff:e})"
                ));
            }
        }
        Ok(())
    }

    fn root_span(&self) -> &'static str {
        "trainer.train_batch"
    }

    fn replay(&mut self, r: &mut Replay, root: SpanId, stat: &OpStat) {
        r.count("trainer.modeled_us", stat.modeled_us);
        let cfg = layers::sampler_for_batch(&self.sampler, self.ops_done - 1);
        let pr =
            layers::replay_prepro(r, root, Variant::Prepro, &self.data, &self.last_batch, &cfg);
        layers::replay_kernels(r, root, &self.trainer, &pr);
        layers::replay_asides(
            r,
            &mut self.trainer,
            &self.data,
            &self.last_batch,
            &self.checkpoint,
        );
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "dkp.combination_first_share",
            combination_first_share(layers::dkp_decisions(&self.trainer)),
        )]
    }
}

fn combination_first_share((aggregation_first, combination_first): (usize, usize)) -> f64 {
    let total = aggregation_first + combination_first;
    if total == 0 {
        0.0
    } else {
        combination_first as f64 / total as f64
    }
}

// ---- serve-day ------------------------------------------------------------

struct ServeDay {
    data: Arc<GraphData>,
    stack: ServeStack,
    sampler: SamplerConfig,
    /// The traced pass's shadow layers, made on first use under `shadow_dir`.
    shadow: Option<ServeShadow>,
    shadow_dir: PathBuf,
    totals: Resolved,
    last_batch: Vec<VId>,
    depth_sum: usize,
}

impl Workload for ServeDay {
    fn op(&mut self) -> OpStat {
        self.last_batch.clear();
        self.last_batch.extend_from_slice(self.stack.next_batch());
        let r = self.stack.submit(&self.data);
        self.totals.add(&r);
        self.depth_sum += self.stack.queue_depth();
        OpStat::of(&r)
    }

    fn at_boundary(&self) -> bool {
        self.stack.at_day_boundary()
    }

    fn finish(&mut self) -> OpStat {
        let r = self.stack.drain(&self.data);
        self.totals.add(&r);
        OpStat::of(&r)
    }

    fn check(&mut self) -> Result<(), String> {
        self.stack.check(&self.totals)
    }

    fn root_span(&self) -> &'static str {
        "gateway.submit"
    }

    /// One shadow replay per request the submit trained, on the arriving
    /// request's batch (every request is the same size), so the root's
    /// self time is what the gateway and supervisor add around the layers.
    fn replay(&mut self, r: &mut Replay, root: SpanId, stat: &OpStat) {
        let shadow = self
            .shadow
            .get_or_insert_with(|| ServeShadow::new(&self.data, &self.sampler, &self.shadow_dir));
        for _ in 0..stat.trained {
            shadow.replay(r, root, &self.data, &self.last_batch);
        }
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let t = &self.totals;
        let share = |n: u32| n as f64 / t.total().max(1) as f64;
        let (embedding, subgraph) = self.stack.cache_hit_rates();
        vec![
            ("gt-datasets.workload_gen_s", self.stack.workload_gen_s),
            (
                "gateway.queue_depth_mean",
                self.depth_sum as f64 / self.stack.submitted().max(1) as f64,
            ),
            ("gateway.served_share", share(t.trained)),
            ("gateway.degraded_share", share(t.degraded)),
            ("gateway.shed_deadline_share", share(t.shed_deadline)),
            ("gateway.shed_quota_share", share(t.shed_quota)),
            ("gateway.shed_queue_share", share(t.shed_queue)),
            ("cache.embedding_hit_rate", embedding),
            ("cache.subgraph_hit_rate", subgraph),
            (
                "dkp.combination_first_share",
                combination_first_share(self.stack.dkp_decisions()),
            ),
        ]
    }
}

/// The dataset a workload runs on, at the sizing's scale.
pub fn dataset(spec: &Spec, seed: u64, sizing: Sizing) -> Arc<GraphData> {
    Arc::new(layers::build_dataset(
        spec.dataset,
        spec.divisor[sizing.idx],
        seed,
    ))
}
