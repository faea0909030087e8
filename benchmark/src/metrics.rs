//! The metric tables: names, units, directions, bounds. `BENCHMARK.json`
//! repeats them for the driver; a unit test holds the two together.

/// A metric a user of the system would see. The same names on every
/// workload; README.md defines each.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the base's median by which a candidate may be worse before
    /// `compare` calls it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// Reported beside the bounded metrics but not gated: run to run it
/// scattered 10-30% on the 2-core build container, past any bound the
/// benchmark contract allows (README.md, "What is not gated").
pub const INFORMATIONAL: [(&str, &str); 1] = [("op_wall_ms_p90", "ms")];

/// Deterministic figures reported beside the wall metrics. They repeat
/// exactly for one (seed, sizing, code), so `compare` fails them on any
/// drift beyond rounding instead of applying a bound. They are taken over
/// each run's fixed first ops (`Spec::min_ops`), not over however many ops
/// the time limit allowed.
pub const EXACT: [(&str, &str); 2] = [("failed_share", "ratio"), ("modeled_op_us_mean", "vus")];
pub const EXACT_REL_TOLERANCE: f64 = 1e-6;

/// How a per-layer metric is derived in the traced pass.
pub enum From {
    /// Median over ops of the summed duration of spans of this name, ms.
    SpanMs(&'static str),
    /// Same, µs.
    SpanUs(&'static str),
    /// Median over ops of the summed *self* time of spans of this name, ms.
    SelfMs(&'static str),
    /// Mean of the values replays recorded under the metric's own name.
    Count,
    /// Read off the run or the workload's state at the end.
    Fact,
}

/// A metric of one layer (module). No bound: these explain a movement of
/// an end-to-end metric, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub from: From,
}

const fn lower(name: &'static str, unit: &'static str, from: From) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        from,
    }
}

const fn higher(name: &'static str, unit: &'static str, from: From) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        from,
    }
}

pub const PER_LAYER: [PerLayer; 53] = [
    // gt-graph, gt-datasets
    lower("gt-graph.build_s", "s", From::Fact),
    lower("gt-datasets.workload_gen_s", "s", From::Fact),
    // gt-sample
    lower(
        "gt-sample.sample_ms",
        "ms",
        From::SpanMs("gt-sample.sample"),
    ),
    lower(
        "gt-sample.reindex_ms",
        "ms",
        From::SpanMs("gt-sample.reindex"),
    ),
    lower(
        "gt-sample.lookup_ms",
        "ms",
        From::SpanMs("gt-sample.lookup"),
    ),
    lower("gt-sample.nodes_per_op", "count", From::Count),
    lower("gt-sample.edges_per_op", "count", From::Count),
    lower("gt-sample.hash_ops_per_op", "count", From::Count),
    // gt-core::prepro
    lower("prepro.run_ms", "ms", From::SpanMs("prepro.run")),
    lower("prepro.unattributed_ms", "ms", From::SelfMs("prepro.run")),
    // gt-core::scheduler + gt-sim DES
    lower(
        "scheduler.schedule_ms",
        "ms",
        From::SpanMs("scheduler.schedule"),
    ),
    lower("scheduler.makespan_us", "vus", From::Count),
    // gt-core::napa
    lower("napa.pull_fwd_ms", "ms", From::SpanMs("napa.pull_fwd")),
    lower("napa.pull_bwd_ms", "ms", From::SpanMs("napa.pull_bwd")),
    lower(
        "napa.neighbor_apply_fwd_ms",
        "ms",
        From::SpanMs("napa.neighbor_apply_fwd"),
    ),
    lower(
        "napa.neighbor_apply_bwd_ms",
        "ms",
        From::SpanMs("napa.neighbor_apply_bwd"),
    ),
    lower("napa.edge_elems_per_op", "count", From::Count),
    // gt-tensor::dense
    lower("dense.matmul_ms", "ms", From::SpanMs("dense.matmul")),
    lower("dense.matmul_tb_ms", "ms", From::SpanMs("dense.matmul_tb")),
    lower("dense.matmul_ta_ms", "ms", From::SpanMs("dense.matmul_ta")),
    lower("dense.flops_per_op", "flops", From::Count),
    // gt-tensor::optim, gt-tensor::checkpoint
    lower("optim.step_ms", "ms", From::SpanMs("optim.step")),
    lower("checkpoint.save_ms", "ms", From::SpanMs("checkpoint.save")),
    lower("checkpoint.bytes", "bytes", From::Count),
    // gt-core::orchestrator
    lower("dkp.combination_first_share", "ratio", From::Fact),
    // gt-core::trainer
    lower(
        "trainer.train_batch_ms",
        "ms",
        From::SpanMs("trainer.train_batch"),
    ),
    lower(
        "trainer.infer_batch_ms",
        "ms",
        From::SpanMs("trainer.infer_batch"),
    ),
    lower(
        "trainer.unattributed_ms",
        "ms",
        From::SelfMs("trainer.train_batch"),
    ),
    higher("trainer.replay_coverage", "ratio", From::Fact),
    lower("trainer.wall_over_modeled", "ratio", From::Fact),
    // gt-core::serve + gt-core::overload
    lower("gateway.submit_ms", "ms", From::SpanMs("gateway.submit")),
    lower(
        "gateway.unattributed_ms",
        "ms",
        From::SelfMs("gateway.submit"),
    ),
    lower("gateway.queue_depth_mean", "count", From::Fact),
    higher("gateway.served_share", "ratio", From::Fact),
    lower("gateway.degraded_share", "ratio", From::Fact),
    lower("gateway.shed_deadline_share", "ratio", From::Fact),
    lower("gateway.shed_quota_share", "ratio", From::Fact),
    lower("gateway.shed_queue_share", "ratio", From::Fact),
    // gt-core::journal
    lower("journal.append_ms", "ms", From::SpanMs("journal.append")),
    lower("journal.bytes_per_op", "bytes", From::Count),
    // gt-core::cache
    lower("cache.consult_us", "us", From::SpanUs("cache.consult")),
    higher("cache.embedding_hit_rate", "ratio", From::Fact),
    higher("cache.subgraph_hit_rate", "ratio", From::Fact),
    // gt-telemetry
    lower("telemetry.recording_overhead_pct", "%", From::Fact),
    // gt-par
    higher("par.threads", "count", From::Fact),
    lower("par.dispatch_us", "us", From::Fact),
    // allocator, tracing
    lower("alloc.count_per_op", "count", From::Count),
    lower("alloc.bytes_per_op", "bytes", From::Count),
    lower("trace.overhead_pct", "%", From::Fact),
    // the traced pass itself: sample count, and the base of trace.overhead_pct
    higher("op.traced_count", "count", From::Fact),
    higher("op.untraced_per_s", "ops/s", From::Fact),
    // the deterministic pair (see EXACT)
    lower("failed_share", "ratio", From::Fact),
    lower("modeled_op_us_mean", "vus", From::Fact),
];
