//! Distributed cluster campaign — worker-kill bit-identity over a seed
//! corpus plus modeled cluster metrics for the perf gate
//! (docs/distributed.md).
//!
//! Every campaign run serves the same workload twice through the
//! [`ClusterSupervisor`]: once fault-free and once with a seeded
//! `WorkerKill` at a derived (worker, batch). The oracle demands the
//! killed run detect the death, re-replay its partition from the
//! journal, and finish with byte-identical parameters and journaled
//! outcome stream — the distributed restatement of the single-node
//! durability contract. On a violation the process exits 4, same as the
//! chaos campaign.
//!
//! With `--bench-out` the experiment distills the fault-free run (plus
//! one canonical kill) into a schema-stable `BENCH_cluster.json`:
//! per-worker busy/idle/link time, collective time, modeled recovery
//! time, hedge launch/win counters, and the [`FleetReport`]'s skew
//! figures (busy imbalance, worst stage imbalance, straggler
//! attribution). All metrics are DES virtual time, bit-identical at
//! every `GT_THREADS` width and worker count sweep, so CI gates them
//! with `benchdiff` against a committed baseline.
//!
//! Every run also records the cross-worker Perfetto trace
//! (`--trace-out`) and the rendered fleet health text (`--fleet-out`,
//! also mounted at `/fleetz` with `--serve-metrics`); both are pure
//! virtual-time artifacts the identity manifest holds at every thread
//! width.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::chaos::{fresh_dir, DirCleanup};
use crate::benchjson::{BenchConfig, BenchReport, EnvFingerprint, SCHEMA_VERSION};
use crate::runner::{print_table, ExpConfig};
use gt_core::config::ModelConfig;
use gt_core::error::GtError;
use gt_core::journal;
use gt_core::serve::{DurabilityConfig, ServeCtx, Supervisor};
use gt_core::tracing::TracerConfig;
use gt_core::trainer::GtVariant;
use gt_core::{ClusterConfig, ClusterSummary, ClusterSupervisor, Partition};
use gt_profile::{fleet, FleetObserver, FleetReport};
use gt_sim::{ClusterSpec, FaultPlan, SystemSpec};
use gt_telemetry::http::MetricsServer;

/// Campaign knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct ClusterOpts {
    /// Workers in the simulated cluster.
    pub workers: usize,
    /// How work is split across workers.
    pub partition: Partition,
    /// Batches in the serving stream.
    pub batches: usize,
    /// Directed kill: which worker dies (with `kill_at`); overrides the
    /// seeded campaign.
    pub kill_worker: Option<usize>,
    /// Directed kill: the batch at which the worker dies.
    pub kill_at: Option<usize>,
    /// Read campaign seeds (one integer per line, `#` comments) from this
    /// file instead of deriving them from `--seed`.
    pub seeds_file: Option<PathBuf>,
    /// Seeds sampled when no seeds file is given; seed `i` is
    /// `cfg.seed + i`.
    pub seeds: usize,
    /// Persist the canonical killed run's durable state (journal +
    /// recovered checkpoint) here so `crates/bench/identity.sh` can
    /// compare checkpoints across worker counts and `GT_THREADS` widths.
    pub dir: Option<PathBuf>,
    /// Arm the request tracer on every run: cross-worker trace spans
    /// accumulate and cluster events (recoveries, hedge wins) freeze
    /// flight dumps. Purely observational — on by default, and the
    /// oracle holds with it on or off.
    pub tracing: bool,
    /// Write the fault-free reference's rendered fleet health report
    /// (the `/fleetz` page) here.
    pub fleet_out: Option<PathBuf>,
    /// Write the fault-free reference's cross-worker Perfetto trace
    /// (coordinator + one process per worker, flow-linked) here.
    pub trace_out: Option<PathBuf>,
    /// Serve `/metrics`, `/healthz`, and the fleet report at `/fleetz`
    /// on this port after the campaign, self-scrape both pages, and
    /// shut down (port 0 binds an ephemeral port).
    pub serve_metrics: Option<u16>,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts {
            workers: 4,
            partition: Partition::VertexCut,
            batches: 6,
            kill_worker: None,
            kill_at: None,
            seeds_file: None,
            seeds: 8,
            dir: None,
            tracing: true,
            fleet_out: None,
            trace_out: None,
            serve_metrics: None,
        }
    }
}

/// One cluster run: modeled summary plus the bit-comparable artifacts.
#[derive(Debug)]
pub struct Run {
    /// Modeled virtual-time summary.
    pub summary: ClusterSummary,
    /// Serialized final model parameters.
    pub params: Vec<u8>,
    /// Journaled `(batch_index, outcome JSON)` stream.
    pub stream: Vec<(usize, String)>,
    /// Distilled fleet health (per-worker utilization, stage imbalance,
    /// straggler attribution).
    pub fleet: FleetReport,
    /// Serialized cross-worker Perfetto trace (virtual time only).
    pub trace_json: String,
    /// Flight-dump reasons frozen during the run (`cluster-recovery:*`,
    /// `hedge-won:*`); empty when tracing is off. Dumps frozen before a
    /// rebuild-and-replay recovery die with the old supervisor, exactly
    /// as a real process death loses its in-memory ring.
    pub dump_reasons: Vec<String>,
}

/// One campaign's totals.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Killed runs executed (stops at the first violation).
    pub runs: usize,
    /// Runs bit-identical to the fault-free reference.
    pub clean: usize,
    /// `(seed, detail)` of the violating run, if any.
    pub violation: Option<(u64, String)>,
    /// The fault-free reference run's modeled summary.
    pub reference: ClusterSummary,
    /// The reference run's rendered fleet health report (the `/fleetz`
    /// page body).
    pub fleet_text: String,
    /// The reference run's cross-worker Perfetto trace JSON.
    pub trace_json: String,
}

/// The base fault plan every run shares: a persistent straggler on the
/// last worker's first core, so the hedging path is exercised and the
/// report's hedge counters are live numbers. The core index is outside
/// the inner trainer's own simulator for any multi-worker cluster, so
/// the straggler prices cluster stages without touching the numerics.
fn base_plan(cfg: &ExpConfig, opts: &ClusterOpts, spec: &ClusterSpec) -> FaultPlan {
    let plan = FaultPlan::new(cfg.seed);
    if opts.workers < 2 {
        return plan; // a 1-worker cluster can neither hedge nor adopt
    }
    let cores = spec.workers[0].host.cores;
    plan.with_straggler((opts.workers - 1) * cores, 64.0)
}

/// Drive one cluster over the workload into `dir`; checkpoint at the end.
fn run_once(
    cfg: &ExpConfig,
    opts: &ClusterOpts,
    plan: FaultPlan,
    dir: &Path,
) -> Result<Run, GtError> {
    let spec = gt_datasets::by_name("reddit2").expect("known dataset");
    let data = cfg.build(&spec);
    let model = ModelConfig::gcn(cfg.layers, 64, spec.out_dim);
    let exp = *cfg;
    let factory = move || {
        Supervisor::new(
            exp.graphtensor(GtVariant::Dynamic, model.clone()),
            plan.clone(),
        )
    };
    let cluster_cfg = ClusterConfig::new(ClusterSpec::paper_testbed(opts.workers), opts.partition);
    let mut cs = ClusterSupervisor::new(factory, cluster_cfg);
    cs.make_durable(DurabilityConfig::new(dir))?;
    if opts.tracing {
        cs.enable_tracing(TracerConfig::default());
    }

    let mut observer = FleetObserver::new();
    for (i, batch) in cfg.batch_stream(&data, opts.batches).enumerate() {
        // A trained batch was priced and left its per-worker schedules in
        // `last_schedules`; an untrained one never reaches the fleet.
        if cs
            .serve(&data, &batch, ServeCtx::default())?
            .report
            .outcome
            .trained()
        {
            observer.observe_batch(i, cs.last_schedules());
        }
    }
    cs.supervisor.checkpoint_now()?;

    let summary = cs.summary();
    let fleet = FleetReport::build(&observer, &summary.totals);
    let trace_json = gt_telemetry::write_chrome_json(&cs.cluster_traces());
    let dump_reasons = cs
        .supervisor
        .tracer
        .as_ref()
        .map(|t| t.dumps().iter().map(|d| d.reason.clone()).collect())
        .unwrap_or_default();

    let durability = DurabilityConfig::new(dir);
    let scan = journal::read_journal(durability.journal_path())?;
    Ok(Run {
        summary,
        params: std::fs::read(durability.checkpoint_path())?,
        stream: scan.batch_outcomes().collect(),
        fleet,
        trace_json,
        dump_reasons,
    })
}

/// The fault-free reference run in a throwaway directory.
fn reference_run(cfg: &ExpConfig, opts: &ClusterOpts) -> Result<Run, GtError> {
    let spec = ClusterSpec::paper_testbed(opts.workers);
    let dir = fresh_dir("cluster_ref");
    let _cleanup = DirCleanup(dir.clone());
    run_once(cfg, opts, base_plan(cfg, opts, &spec), &dir)
}

/// A killed run in `dir` (or a throwaway) compared against `reference`;
/// `Ok(Ok(summary))` is clean, `Ok(Err(detail))` an oracle violation.
#[allow(clippy::type_complexity)]
fn killed_run(
    cfg: &ExpConfig,
    opts: &ClusterOpts,
    reference: &Run,
    worker: usize,
    kill_at: usize,
    dir: Option<&Path>,
) -> Result<Result<ClusterSummary, String>, GtError> {
    let spec = ClusterSpec::paper_testbed(opts.workers);
    let plan = base_plan(cfg, opts, &spec).with_worker_kill(kill_at, worker);
    let (dir, _cleanup) = match dir {
        Some(d) => {
            let _ = std::fs::remove_dir_all(d);
            (d.to_path_buf(), None)
        }
        None => {
            let d = fresh_dir("cluster_kill");
            (d.clone(), Some(DirCleanup(d)))
        }
    };
    let run = run_once(cfg, opts, plan, &dir)?;
    if run.params != reference.params {
        return Ok(Err(format!(
            "kill worker {worker} at batch {kill_at}: recovered checkpoint diverged \
             from the fault-free reference ({} vs {} bytes)",
            run.params.len(),
            reference.params.len()
        )));
    }
    if run.stream != reference.stream {
        return Ok(Err(format!(
            "kill worker {worker} at batch {kill_at}: journaled outcome stream \
             diverged ({} vs {} records)",
            run.stream.len(),
            reference.stream.len()
        )));
    }
    if run.summary.totals.recoveries == 0 {
        return Ok(Err(format!(
            "kill worker {worker} at batch {kill_at}: the kill was never detected \
             (0 recoveries)"
        )));
    }
    Ok(Ok(run.summary))
}

/// Derive a (worker, kill batch) from a campaign seed.
fn kill_site(seed: u64, opts: &ClusterOpts) -> (usize, usize) {
    // Decorrelates consecutive corpus seeds.
    let z = gt_telemetry::splitmix64(seed);
    let worker = (z % opts.workers as u64) as usize;
    let kill_at = ((z >> 16) % opts.batches as u64) as usize;
    (worker, kill_at)
}

/// Run the campaign: one fault-free reference, then a killed run per
/// seed, each demanded bit-identical. Stops at the first violation.
pub fn run_campaign(cfg: &ExpConfig, opts: &ClusterOpts) -> Result<CampaignSummary, GtError> {
    let reference = reference_run(cfg, opts)?;
    let mut summary = CampaignSummary {
        runs: 0,
        clean: 0,
        violation: None,
        reference: reference.summary.clone(),
        fleet_text: fleet::render(&reference.fleet),
        trace_json: reference.trace_json.clone(),
    };
    if let (Some(worker), Some(kill_at)) = (opts.kill_worker, opts.kill_at) {
        // Directed single kill (`--kill-worker W --kill-at N`).
        summary.runs = 1;
        match killed_run(cfg, opts, &reference, worker, kill_at, opts.dir.as_deref())? {
            Ok(_) => summary.clean = 1,
            Err(detail) => summary.violation = Some((cfg.seed, detail)),
        }
        return Ok(summary);
    }
    let seeds: Vec<u64> = match &opts.seeds_file {
        Some(path) => super::chaos::read_seeds(path)?,
        None => (0..opts.seeds as u64)
            .map(|i| cfg.seed.wrapping_add(i))
            .collect(),
    };
    for (i, &seed) in seeds.iter().enumerate() {
        let (worker, kill_at) = kill_site(seed, opts);
        // The last seed's durable state lands in `--checkpoint-dir` so CI
        // can compare recovered checkpoints across sweeps.
        let dir = if i + 1 == seeds.len() {
            opts.dir.as_deref()
        } else {
            None
        };
        summary.runs += 1;
        match killed_run(cfg, opts, &reference, worker, kill_at, dir)? {
            Ok(_) => summary.clean += 1,
            Err(detail) => {
                summary.violation = Some((seed, detail));
                return Ok(summary);
            }
        }
    }
    Ok(summary)
}

/// Distill the cluster into a schema-stable [`BenchReport`] for
/// `repro cluster --bench-out` / CI's `identity` job: the
/// fault-free run's modeled metrics plus one canonical kill's recovery
/// cost. Everything is virtual time — bit-identical at any
/// `GT_THREADS`.
pub fn report(cfg: &ExpConfig, opts: &ClusterOpts) -> BenchReport {
    let wall = Instant::now();
    let reference =
        reference_run(cfg, opts).unwrap_or_else(|e| panic!("cluster experiment failed: {e}"));
    let s = &reference.summary.totals;
    let (worker, kill_at) = (opts.workers - 1, opts.batches / 2);
    let killed = killed_run(cfg, opts, &reference, worker, kill_at, None)
        .unwrap_or_else(|e| panic!("cluster kill run failed: {e}"))
        .unwrap_or_else(|detail| panic!("cluster kill run violated the oracle: {detail}"));
    let wall_us = wall.elapsed().as_secs_f64() * 1e6;

    let mut metrics: Vec<(String, f64)> = vec![
        ("cluster_clock_us".into(), s.clock_us),
        ("collective_us".into(), s.collective_us),
        ("hedges_launched_total".into(), s.hedges_launched as f64),
        ("hedges_won_total".into(), s.hedges_won as f64),
        (
            "hedge_win_rate".into(),
            if s.hedges_launched == 0 {
                0.0
            } else {
                s.hedges_won as f64 / s.hedges_launched as f64
            },
        ),
        ("false_suspicions_total".into(), s.false_suspicions as f64),
        (
            "recovery_virtual_us".into(),
            killed.totals.recovery_virtual_us,
        ),
        ("recoveries_total".into(), killed.totals.recoveries as f64),
        (
            "fleet_busy_imbalance".into(),
            reference.fleet.busy_imbalance,
        ),
        (
            "fleet_worst_stage_imbalance".into(),
            reference.fleet.worst_imbalance.map_or(0.0, |(_, r)| r),
        ),
        (
            "fleet_straggler_batches".into(),
            reference.fleet.attribution.first().map_or(0, |a| a.2) as f64,
        ),
    ];
    for w in 0..reference.summary.workers {
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
        wall: vec![("wall_campaign_us".into(), wall_us)],
    }
}

/// Print the campaign; exits 4 when the bit-identity oracle is violated
/// (same convention as the chaos campaign).
pub fn print(cfg: &ExpConfig, opts: &ClusterOpts) {
    let summary =
        run_campaign(cfg, opts).unwrap_or_else(|e| panic!("cluster campaign failed: {e}"));
    let s = &summary.reference.totals;
    print_table(
        &format!(
            "cluster: {} workers ({}), {} kills × {} batches (oracle: bit-identical recovery)",
            opts.workers,
            opts.partition.label(),
            summary.runs,
            opts.batches
        ),
        &["verdict", "runs"],
        &[
            vec!["clean".to_string(), summary.clean.to_string()],
            vec![
                "violation".to_string(),
                usize::from(summary.violation.is_some()).to_string(),
            ],
        ],
    );
    let rows: Vec<Vec<String>> = (0..summary.reference.workers)
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
            "fault-free modeled time: clock {:.1}µs, collectives {:.1}µs, \
             hedges {}/{} won",
            s.clock_us, s.collective_us, s.hedges_won, s.hedges_launched
        ),
        &["worker", "busy µs", "idle µs"],
        &rows,
    );
    if let Some(dir) = &opts.dir {
        println!(
            "  recovered durable state (journal + checkpoint): {}",
            dir.display()
        );
    }
    println!("fleet health (reference run):");
    for line in summary.fleet_text.lines() {
        println!("  {line}");
    }
    if let Some(path) = &opts.fleet_out {
        match std::fs::write(path, &summary.fleet_text) {
            Ok(()) => println!("  wrote fleet report to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write fleet report to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, &summary.trace_json) {
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
    if let Some(port) = opts.serve_metrics {
        serve_and_scrape(port, &summary.fleet_text);
    }
    if let Some((seed, detail)) = &summary.violation {
        println!("  seed {seed} VIOLATED the oracle: {detail}");
        std::process::exit(4);
    }
}

/// Mount the fleet report at `/fleetz` next to `/metrics`, self-scrape
/// both pages, and shut down — CI's `identity` job's proof that the
/// labeled exposition and the fleet page actually render over HTTP.
fn serve_and_scrape(port: u16, fleet_text: &str) {
    let server = MetricsServer::start(port, gt_telemetry::global())
        .unwrap_or_else(|e| panic!("failed to bind metrics server on port {port}: {e}"));
    server.set_page("/fleetz", fleet_text);
    let addr = server.addr();
    for path in ["/metrics", "/fleetz"] {
        let body = scrape(server.port(), path);
        println!(
            "  self-scrape {path}: 200 OK ({} bytes) at {addr}",
            body.len()
        );
    }
    let metrics = scrape(server.port(), "/metrics");
    assert!(
        metrics.contains("gt_build_info{"),
        "labeled series must render in the exposition:\n{metrics}"
    );
    println!("  labeled series render in /metrics (gt_build_info)");
    let fleetz = scrape(server.port(), "/fleetz");
    assert_eq!(fleetz, fleet_text, "/fleetz must serve the fleet report");
    println!("  /fleetz serves the fleet report byte-for-byte");
    server.shutdown();
}

/// Minimal HTTP GET against the local metrics server; panics unless the
/// response is a 200 and returns the body.
fn scrape(port: u16, path: &str) -> String {
    let mut conn = TcpStream::connect(("127.0.0.1", port))
        .unwrap_or_else(|e| panic!("connect 127.0.0.1:{port}: {e}"));
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response for {path}: {response}"));
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "GET {path} must answer 200, got: {head}"
    );
    body.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workers: usize) -> ClusterOpts {
        ClusterOpts {
            workers,
            batches: 4,
            seeds: 2,
            ..Default::default()
        }
    }

    /// The seeded campaign over a small corpus is clean: every derived
    /// (worker, batch) kill recovers bit-identically.
    #[test]
    fn seeded_kill_campaign_is_clean() {
        let cfg = ExpConfig::test();
        for workers in [1usize, 2] {
            let summary = run_campaign(&cfg, &opts(workers)).unwrap();
            assert_eq!(summary.runs, 2, "{workers} workers");
            assert_eq!(
                summary.violation, None,
                "{workers} workers: campaign must be clean"
            );
            assert_eq!(summary.clean, 2, "{workers} workers");
        }
    }

    /// A directed kill (`--kill-worker`/`--kill-at`) runs exactly one
    /// comparison and is clean.
    #[test]
    fn directed_kill_is_clean() {
        let cfg = ExpConfig::test();
        let mut o = opts(2);
        o.kill_worker = Some(1);
        o.kill_at = Some(2);
        let summary = run_campaign(&cfg, &o).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.violation, None);
    }

    /// Tracing is purely observational: a traced and an untraced
    /// reference produce byte-identical parameters and journal streams,
    /// and a traced kill freezes a `cluster-recovery:<w>` flight dump
    /// while still matching the fault-free reference bit-for-bit.
    #[test]
    fn flight_dumps_do_not_perturb_the_oracle() {
        let cfg = ExpConfig::test();
        // 3 workers so the base straggler plan actually hedges (a
        // 2-worker cluster never can) and the hedge-won dump fires.
        let o = opts(3);
        let traced = reference_run(&cfg, &o).unwrap();
        let mut quiet = o.clone();
        quiet.tracing = false;
        let untraced = reference_run(&cfg, &quiet).unwrap();
        assert_eq!(
            traced.params, untraced.params,
            "tracing perturbed the checkpoint bytes"
        );
        assert_eq!(
            traced.stream, untraced.stream,
            "tracing perturbed the journal stream"
        );
        assert!(untraced.dump_reasons.is_empty());
        // The fault-free reference hedges (base plan straggler), so its
        // dumps are exactly the hedge wins — never a recovery.
        assert!(
            !traced.dump_reasons.is_empty()
                && traced
                    .dump_reasons
                    .iter()
                    .all(|r| r.starts_with("hedge-won:")),
            "unexpected fault-free dumps: {:?}",
            traced.dump_reasons
        );

        let spec = ClusterSpec::paper_testbed(o.workers);
        let plan = base_plan(&cfg, &o, &spec).with_worker_kill(2, 1);
        let dir = fresh_dir("dumps");
        let _cleanup = DirCleanup(dir.clone());
        let killed = run_once(&cfg, &o, plan, &dir).unwrap();
        assert_eq!(
            killed.params, traced.params,
            "dump froze mid-recovery state"
        );
        assert_eq!(killed.stream, traced.stream);
        assert!(
            killed
                .dump_reasons
                .iter()
                .any(|r| r.starts_with("cluster-recovery:")),
            "kill must freeze a recovery dump: {:?}",
            killed.dump_reasons
        );
    }

    /// The reference run's fleet report and cross-worker trace are
    /// deterministic, observe every trained batch, and span one Perfetto
    /// process per worker plus the coordinator, flow-linked.
    #[test]
    fn fleet_report_and_cluster_trace_are_deterministic() {
        let cfg = ExpConfig::test();
        // 3 workers: the smallest fleet whose median makespan the base
        // straggler can exceed — a 2-worker cluster can never hedge.
        let o = opts(3);
        let a = reference_run(&cfg, &o).unwrap();
        let b = reference_run(&cfg, &o).unwrap();
        assert_eq!(fleet::render(&a.fleet), fleet::render(&b.fleet));
        assert_eq!(a.trace_json, b.trace_json);
        assert_eq!(a.fleet.batches, o.batches, "every trained batch observed");
        assert_eq!(a.fleet.workers.len(), o.workers);
        assert!(
            a.fleet.totals.hedges_launched > 0,
            "the base straggler plan must exercise hedging"
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
        let a = report(&cfg, &o);
        let b = report(&cfg, &o);
        assert_eq!(a.metrics, b.metrics);
        assert!(a
            .metrics
            .iter()
            .any(|(n, v)| n == "recovery_virtual_us" && *v > 0.0));
        let back: BenchReport = a.to_json_string().parse().unwrap();
        assert_eq!(back, a);
    }
}
