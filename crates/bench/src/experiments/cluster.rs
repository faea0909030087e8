//! Distributed cluster pricing run plus modeled cluster metrics for the
//! perf gate (docs/distributed.md).
//!
//! One run serves the workload durably through a [`Supervisor`] with its
//! cluster layer armed ([`Supervisor::enable_cluster`]): every trained
//! batch is priced over `--workers` modeled workers (per-worker DES over
//! the partitioned work, ring collectives). The run checkpoints at the
//! end, so `crates/bench/identity.sh` can `cmp` the checkpoint and the
//! journal across worker counts: the worker count is a modeled lever and
//! must not move a byte.
//!
//! With `--bench-out` the same run is distilled into a
//! schema-stable `BENCH_cluster.json`: per-worker busy/idle/link time,
//! collective time, and the [`FleetReport`]'s skew figures (busy
//! imbalance, worst stage imbalance, straggler attribution). All metrics
//! are DES virtual time, bit-identical at every `GT_THREADS` width, so CI
//! gates them with `benchdiff` against a committed baseline.
//!
//! The run also records the cross-worker Perfetto trace (`--trace-out`)
//! and the rendered fleet health text (`--fleet-out`); both are pure
//! virtual-time artifacts the identity manifest holds at every thread
//! width.

use std::path::{Path, PathBuf};
use std::time::Instant;

use super::chaos::{fresh_dir, DirCleanup};
use crate::benchjson::{BenchConfig, BenchReport, EnvFingerprint, SCHEMA_VERSION};
use crate::runner::{print_table, ExpConfig};
use gt_core::config::ModelConfig;
use gt_core::error::GtError;
use gt_core::serve::{DurabilityConfig, ServeCtx, Supervisor};
use gt_core::trainer::GtVariant;
use gt_core::{ClusterConfig, ClusterSummary, Partition};
use gt_profile::{fleet, FleetObserver, FleetReport};
use gt_sim::{ClusterSpec, FaultPlan, SystemSpec};

/// Run knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct ClusterOpts {
    /// Workers in the simulated cluster.
    pub workers: usize,
    /// How work is split across workers.
    pub partition: Partition,
    /// Batches in the serving stream.
    pub batches: usize,
    /// Serve durably into this directory (journal + final checkpoint) so
    /// `crates/bench/identity.sh` can compare checkpoints across worker
    /// counts and `GT_THREADS` widths; a throwaway directory otherwise.
    pub dir: Option<PathBuf>,
    /// Write the rendered fleet health report here.
    pub fleet_out: Option<PathBuf>,
    /// Write the cross-worker Perfetto trace (coordinator + one process
    /// per worker, flow-linked) here.
    pub trace_out: Option<PathBuf>,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts {
            workers: 4,
            partition: Partition::VertexCut,
            batches: 6,
            dir: None,
            fleet_out: None,
            trace_out: None,
        }
    }
}

/// One cluster run: its modeled summary and the virtual-time artifacts.
#[derive(Debug)]
pub struct Run {
    /// Modeled virtual-time summary.
    pub summary: ClusterSummary,
    /// Distilled fleet health (per-worker utilization, stage imbalance,
    /// straggler attribution).
    pub fleet: FleetReport,
    /// Serialized cross-worker Perfetto trace (virtual time only).
    pub trace_json: String,
    /// Wall-clock µs the run took (informational only).
    pub wall_us: f64,
}

/// The fault plan every run serves under: a persistent straggler on the
/// last worker's first core, so the fleet report's stage imbalance and
/// straggler attribution are live numbers. The core index is outside the
/// inner trainer's own simulator for any multi-worker cluster, so the
/// straggler prices cluster stages without touching the numerics.
fn base_plan(cfg: &ExpConfig, opts: &ClusterOpts, spec: &ClusterSpec) -> FaultPlan {
    let plan = FaultPlan::new(cfg.seed);
    if opts.workers < 2 {
        return plan; // a lone worker's core would be the trainer's own
    }
    let cores = spec.workers[0].host.cores;
    plan.with_straggler((opts.workers - 1) * cores, 64.0)
}

/// Serve the workload durably through one cluster into `dir`; checkpoint
/// at the end.
fn run_once(cfg: &ExpConfig, opts: &ClusterOpts, dir: &Path) -> Result<Run, GtError> {
    let wall = Instant::now();
    let spec = gt_datasets::by_name("reddit2").expect("known dataset");
    let data = cfg.build(&spec);
    let model = ModelConfig::gcn(cfg.layers, 64, spec.out_dim);
    let cluster_spec = ClusterSpec::paper_testbed(opts.workers);
    let mut sup = Supervisor::new(
        cfg.graphtensor(GtVariant::Dynamic, model),
        base_plan(cfg, opts, &cluster_spec),
    );
    sup.make_durable(DurabilityConfig::new(dir))?;
    sup.enable_cluster(ClusterConfig {
        spec: cluster_spec,
        partition: opts.partition,
    });

    let mut observer = FleetObserver::new();
    for (i, batch) in cfg.batch_stream(&data, opts.batches).enumerate() {
        // A trained batch was priced and left its per-worker schedules in
        // `last_schedules`; an untrained one never reaches the fleet.
        let served = sup.serve(&data, &batch, ServeCtx::default())?;
        if served.report.outcome.trained() {
            let cluster = sup.cluster().expect("cluster armed above");
            observer.observe_batch(i, cluster.last_schedules());
        }
    }
    sup.checkpoint_now()?;

    let cluster = sup.cluster().expect("cluster armed above");
    let summary = cluster.summary();
    Ok(Run {
        fleet: FleetReport::build(&observer, &summary.totals),
        trace_json: gt_telemetry::write_chrome_json(&cluster.cluster_traces()),
        summary,
        wall_us: wall.elapsed().as_secs_f64() * 1e6,
    })
}

/// One run into `opts.dir` (emptied first), or into a throwaway directory;
/// [`print()`] and [`report()`] both read it.
pub fn run(cfg: &ExpConfig, opts: &ClusterOpts) -> Run {
    let (dir, _cleanup) = match &opts.dir {
        Some(d) => {
            let _ = std::fs::remove_dir_all(d);
            (d.clone(), None)
        }
        None => {
            let d = fresh_dir("cluster");
            (d.clone(), Some(DirCleanup(d)))
        }
    };
    run_once(cfg, opts, &dir).unwrap_or_else(|e| panic!("cluster experiment failed: {e}"))
}

/// Distill `run` into a schema-stable [`BenchReport`] for
/// `repro cluster --bench-out` / CI's `identity` job. Every modeled metric
/// is virtual time — bit-identical at any `GT_THREADS`.
pub fn report(cfg: &ExpConfig, opts: &ClusterOpts, run: &Run) -> BenchReport {
    let s = &run.summary.totals;

    let mut metrics: Vec<(String, f64)> = vec![
        ("cluster_clock_us".into(), s.clock_us),
        ("collective_us".into(), s.collective_us),
        ("fleet_busy_imbalance".into(), run.fleet.busy_imbalance),
        (
            "fleet_worst_stage_imbalance".into(),
            run.fleet.worst_imbalance.map_or(0.0, |(_, r)| r),
        ),
        (
            "fleet_straggler_batches".into(),
            run.fleet.attribution.first().map_or(0, |a| a.2) as f64,
        ),
    ];
    for w in 0..run.summary.workers {
        metrics.push((format!("worker{w}_busy_us"), s.worker_busy_us[w]));
        metrics.push((format!("worker{w}_idle_us"), s.worker_idle_us[w]));
        metrics.push((format!("worker{w}_link_us"), s.worker_link_us[w]));
    }

    let sys = SystemSpec::paper_testbed();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "cluster".to_string(),
        config: BenchConfig {
            scale_divisor: cfg.scale.divisor() as u64,
            seed: cfg.seed,
            batch: cfg.batch as u64,
            fanout: cfg.fanout as u64,
            layers: cfg.layers as u64,
            measure_batches: opts.batches as u64,
        },
        env: EnvFingerprint {
            threads: gt_par::ThreadPool::global().workers() as u64,
            gpu: sys.gpu.name.to_string(),
            host: sys.host.name.to_string(),
            host_cores: sys.host.cores as u64,
        },
        metrics,
        wall: vec![("wall_campaign_us".into(), run.wall_us)],
    }
}

/// Print `run`'s modeled per-worker time, the fleet report, and where the
/// artifacts went.
pub fn print(opts: &ClusterOpts, run: &Run) {
    let s = &run.summary.totals;
    let rows: Vec<Vec<String>> = (0..run.summary.workers)
        .map(|w| {
            vec![
                format!("worker{w}"),
                format!("{:.1}", s.worker_busy_us[w]),
                format!("{:.1}", s.worker_idle_us[w]),
            ]
        })
        .collect();
    print_table(
        &format!(
            "cluster: {} workers ({}), {} batches, modeled clock {:.1}µs, collectives {:.1}µs",
            opts.workers,
            opts.partition.label(),
            run.summary.batches,
            s.clock_us,
            s.collective_us
        ),
        &["worker", "busy µs", "idle µs"],
        &rows,
    );
    if let Some(dir) = &opts.dir {
        println!("  durable state (journal + checkpoint): {}", dir.display());
    }
    let fleet_text = fleet::render(&run.fleet);
    println!("fleet health:");
    for line in fleet_text.lines() {
        println!("  {line}");
    }
    if let Some(path) = &opts.fleet_out {
        match std::fs::write(path, &fleet_text) {
            Ok(()) => println!("  wrote fleet report to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write fleet report to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, &run.trace_json) {
            Ok(()) => println!(
                "  wrote cross-worker trace to {} (open at https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write cluster trace to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workers: usize) -> ClusterOpts {
        ClusterOpts {
            workers,
            batches: 4,
            ..Default::default()
        }
    }

    /// A run's fleet report and cross-worker trace are deterministic,
    /// observe every trained batch, and span one Perfetto process per
    /// worker plus the coordinator, flow-linked.
    #[test]
    fn fleet_report_and_cluster_trace_are_deterministic() {
        let cfg = ExpConfig::test();
        let o = opts(3);
        let a = run(&cfg, &o);
        let b = run(&cfg, &o);
        assert_eq!(fleet::render(&a.fleet), fleet::render(&b.fleet));
        assert_eq!(a.trace_json, b.trace_json);
        assert_eq!(a.fleet.batches, o.batches, "every trained batch observed");
        assert_eq!(a.fleet.workers.len(), o.workers);
        assert_eq!(
            a.fleet.attribution.first().map(|a| a.0),
            Some(2),
            "the base plan's straggler binds the collectives"
        );
        for process in ["\"cluster\"", "\"worker 0\"", "\"worker 1\""] {
            assert!(
                a.trace_json.contains(process),
                "trace missing process {process}"
            );
        }
        assert!(
            a.trace_json.contains("\"ph\":\"s\"") && a.trace_json.contains("\"ph\":\"f\""),
            "trace must contain cross-process flow arrows"
        );
    }

    /// The bench report is deterministic and survives a JSON round-trip
    /// — the property the `benchdiff` equality gate rests on.
    #[test]
    fn report_is_deterministic() {
        let cfg = ExpConfig::test();
        let o = opts(2);
        let a = report(&cfg, &o, &run(&cfg, &o));
        let b = report(&cfg, &o, &run(&cfg, &o));
        assert_eq!(a.metrics, b.metrics);
        assert!(a
            .metrics
            .iter()
            .any(|(n, v)| n == "collective_us" && *v > 0.0));
        let back: BenchReport = a.to_json_string().parse().unwrap();
        assert_eq!(back, a);
    }
}
