//! One run of one workload: set-up, the timed closed loop, the traced
//! pass, the output check, and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::layers::{self, obj, Json, Replay};
use crate::metrics::{From, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile, segment_median_rate};
use crate::workloads::{self, OpStat, Scratch, Sizing, Spec, Workload};

/// Arguments of a single-workload run.
pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// `benchmark/out`: trace files and scratch state go here.
    pub out_dir: PathBuf,
}

/// What a run produced: the contract's result line plus the facts the
/// human report and `result.json` carry beside it.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational `(name, value, unit)`: the deterministic pair, sample
    /// counts, the environment.
    pub info: Vec<(&'static str, f64, &'static str)>,
    pub check_error: Option<String>,
}

impl RunResult {
    /// The last line of standard output the driver reads.
    pub fn result_line(&self) -> Json {
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// `{name: {"value", "unit"}}` in the given order.
pub fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

/// Wall times and outcomes of a timed closed loop.
struct Timed {
    wall_s: Vec<f64>,
    stats: Vec<OpStat>,
    /// Ops in the fixed prefix the deterministic metrics are taken over.
    prefix: usize,
    /// Resident-set high-water mark when the prefix ended, MB.
    prefix_rss_mb: f64,
}

impl Timed {
    fn totals(&self, range: std::ops::Range<usize>) -> OpStat {
        let mut t = OpStat::default();
        for s in &self.stats[range] {
            t.add(s);
        }
        t
    }

    /// `(failed_share, modeled_op_us_mean)` over the fixed prefix.
    fn exact(&self) -> (f64, f64) {
        let t = self.totals(0..self.prefix);
        (
            (t.shed + t.failed) as f64 / t.resolved().max(1) as f64,
            t.modeled_us / t.trained.max(1) as f64,
        )
    }
}

/// Issue ops back to back for at least `seconds`, at least `min_ops`, and
/// up to the workload's next boundary.
fn timed_loop(w: &mut dyn Workload, seconds: f64, min_ops: usize) -> Timed {
    let mut t = Timed {
        wall_s: Vec::new(),
        stats: Vec::new(),
        prefix: 0,
        prefix_rss_mb: 0.0,
    };
    let start = Instant::now();
    loop {
        let op = Instant::now();
        let stat = w.op();
        t.wall_s.push(op.elapsed().as_secs_f64());
        t.stats.push(stat);
        if t.wall_s.len() >= min_ops && w.at_boundary() {
            if t.prefix == 0 {
                t.prefix = t.wall_s.len();
                t.prefix_rss_mb = peak_rss_mb();
            }
            if start.elapsed().as_secs_f64() >= seconds {
                return t;
            }
        }
    }
}

/// Restart the kernel's resident-set high-water mark at the current RSS,
/// so `peak_rss_mb` is the peak while ops run (the dataset plus an op's
/// transients) and set-up's short-lived build buffers, whose overlap is a
/// matter of timing, do not decide it. The mark is read when the run's
/// fixed first ops end, not at the end of the time limit: `serve-day`
/// records telemetry and grows with every op, so a later reading would
/// measure how many ops the machine managed. Memory the set-ups freed is
/// handed back to the kernel first: how much of it malloc still holds is a
/// matter of which thread freed what when, and left in, it made the mark on
/// `serve-day` either ~45 or ~69 MB (one 28 MB feature table apart) from run
/// to run of the same seed. Best effort: where the kernel refuses the reset,
/// the mark keeps covering the whole process.
fn reset_peak_rss() {
    alloc::release_free_memory();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(stolen, all)` CPU ticks of the machine: time the
/// hypervisor ran something else on this VM's CPUs shows up as stolen.
fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

fn environment(data: &layers::GraphData) -> Vec<(&'static str, f64, &'static str)> {
    let (v, e, f) = layers::dataset_shape(data);
    vec![
        ("gt_threads", layers::pool_threads() as f64, "count"),
        (
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
            "count",
        ),
        ("dataset_vertices", v as f64, "count"),
        ("dataset_edges", e as f64, "count"),
        ("dataset_feature_dim", f as f64, "count"),
    ]
}

pub fn run(args: &RunArgs) -> RunResult {
    let scratch = Scratch::new(args.out_dir.join(format!("tmp-{}", std::process::id())));
    if args.trace {
        run_traced(args, &scratch)
    } else {
        run_untraced(args, &scratch)
    }
}

/// The end-to-end pass: tracing off, counting allocator off.
fn run_untraced(args: &RunArgs, scratch: &Scratch) -> RunResult {
    let (spec, sizing) = (args.spec, args.sizing);
    // Set up several times and report the median, so one slow page-fault
    // storm does not decide `setup_s`. Only the last set-up is kept.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..sizing.setup_reps {
        drop(built.take());
        let t = Instant::now();
        let data = workloads::dataset(spec, args.seed, sizing);
        let w = workloads::build(spec, &data, args.seed, sizing, scratch, None);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((data, w));
    }
    let (data, mut w) = built.expect("at least one set-up");

    reset_peak_rss();
    let ticks_before = cpu_ticks();
    let timed = timed_loop(&mut *w, args.seconds, spec.min_ops[sizing.idx]);
    let ticks_after = cpu_ticks();
    let stolen_share = (ticks_after.0 - ticks_before.0) / (ticks_after.1 - ticks_before.1).max(1.0);
    let tail = w.finish();
    let check = w.check();

    let n = timed.wall_s.len();
    let failed = (timed.totals(0..n).failed + tail.failed) as u64;
    let trained: Vec<u32> = timed.stats.iter().map(|s| s.trained).collect();
    // Percentiles are over the ops that trained something. Elsewhere that
    // is every op; a `serve-day` submit that only queued or shed returns in
    // microseconds, and counting those would put the median between two
    // modes, flipping with the shed share.
    let wall_ms: Vec<f64> = timed
        .wall_s
        .iter()
        .zip(&trained)
        .filter(|(_, &t)| t > 0)
        .map(|(s, _)| s * 1e3)
        .collect();
    let samples = wall_ms.len();
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "ops_per_s" => segment_median_rate(&timed.wall_s, &trained, 5),
        "op_wall_ms_p50" => percentile(&wall_ms, 50.0),
        "peak_rss_mb" => timed.prefix_rss_mb,
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    let (failed_share, modeled) = timed.exact();
    let mut info = vec![
        ("op_wall_ms_p90", percentile(&wall_ms, 90.0), "ms"),
        ("failed_share", failed_share, "ratio"),
        ("modeled_op_us_mean", modeled, "vus"),
        ("timed_ops", n as f64, "count"),
        ("exact_prefix_ops", timed.prefix as f64, "count"),
        ("op_wall_samples", samples as f64, "count"),
        (
            "samples_beyond_p90",
            (samples - (0.9 * samples as f64).ceil() as usize) as f64,
            "count",
        ),
        ("timed_wall_s", timed.wall_s.iter().sum(), "s"),
        ("host_cpu_stolen_share", stolen_share, "ratio"),
        ("setups", setups.len() as f64, "count"),
    ];
    info.extend(environment(&data));
    RunResult {
        correct: check.is_ok() && failed == 0,
        attempted: n as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
        info,
        check_error: check.err(),
    }
}

/// Shares of `--seconds` the traced pass gives its phases: untraced ops
/// (the base of `trace.overhead_pct`), traced ops with replays, and the
/// recording-vs-null telemetry comparison where the workload has one.
const UNTRACED_SHARE: f64 = 0.25;
const TELEMETRY_SHARE: f64 = 0.2;

/// The per-layer pass: a root span around every op, the counting
/// allocator on while the op runs, the layer replays after it.
fn run_traced(args: &RunArgs, scratch: &Scratch) -> RunResult {
    let (spec, sizing) = (args.spec, args.sizing);
    let mut facts: BTreeMap<&'static str, f64> = BTreeMap::new();

    let t = Instant::now();
    let data = workloads::dataset(spec, args.seed, sizing);
    facts.insert("gt-graph.build_s", t.elapsed().as_secs_f64());
    let mut w = workloads::build(spec, &data, args.seed, sizing, scratch, None);

    // Phase A: untraced, as in the end-to-end pass.
    let untraced = timed_loop(
        &mut *w,
        args.seconds * UNTRACED_SHARE,
        spec.min_ops[sizing.idx],
    );
    let untraced_rate = untraced.wall_s.len() as f64 / untraced.wall_s.iter().sum::<f64>();
    let (failed_share, modeled) = untraced.exact();
    facts.insert("op.untraced_per_s", untraced_rate);
    facts.insert("failed_share", failed_share);
    facts.insert("modeled_op_us_mean", modeled);

    // Phase B: traced ops, each followed by its replay.
    let has_twin = spec.telemetry_twin;
    let traced_share = 1.0 - UNTRACED_SHARE - if has_twin { TELEMETRY_SHARE } else { 0.0 };
    let mut log = SpanLog::new();
    let mut counts: Vec<(&'static str, f64)> = Vec::new();
    let mut traced = OpStat::default();
    let mut ops = 0usize;
    let start = Instant::now();
    loop {
        let root_name = w.root_span();
        let ((root, stat), calls, bytes) =
            alloc::counted(|| log.time(root_name, None, ops, || w.op()));
        counts.push(("alloc.count_per_op", calls as f64));
        counts.push(("alloc.bytes_per_op", bytes as f64));
        let mut replay = Replay {
            log: &mut log,
            op: ops,
            counts: &mut counts,
        };
        w.replay(&mut replay, root, &stat);
        traced.add(&stat);
        ops += 1;
        if w.at_boundary() && start.elapsed().as_secs_f64() >= args.seconds * traced_share {
            break;
        }
    }

    // Phase C: the same workload twice more, telemetry recording vs null,
    // op by op in turn so both see the same machine weather.
    if has_twin {
        let twin =
            |recording| workloads::build(spec, &data, args.seed, sizing, scratch, Some(recording));
        let (mut rec, mut null) = (twin(true), twin(false));
        let (mut rec_ms, mut null_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            for (twin, walls) in [(&mut rec, &mut rec_ms), (&mut null, &mut null_ms)] {
                let t = Instant::now();
                twin.op();
                walls.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if rec.at_boundary() && start.elapsed().as_secs_f64() >= args.seconds * TELEMETRY_SHARE
            {
                break;
            }
        }
        rec.finish();
        null.finish();
        facts.insert(
            "telemetry.recording_overhead_pct",
            (mean(&rec_ms) / mean(&null_ms) - 1.0) * 100.0,
        );
    }

    let tail = w.finish();
    let check = w.check();
    facts.extend(w.facts());

    // Derived facts of the traced pass.
    let dur = log.dur_us();
    let own = log.self_us();
    let root_us = log.per_op(w.root_span(), &dur);
    let traced_rate = ops as f64 / (root_us.iter().sum::<f64>() / 1e6);
    facts.insert("op.traced_count", ops as f64);
    facts.insert(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
    );
    facts.insert("par.threads", layers::pool_threads() as f64);
    facts.insert("par.dispatch_us", layers::pool_dispatch_us(2000));
    let train_us: f64 = log.per_op("trainer.train_batch", &dur).iter().sum();
    if train_us > 0.0 {
        let train_self_us: f64 = log.per_op("trainer.train_batch", &own).iter().sum();
        facts.insert("trainer.replay_coverage", 1.0 - train_self_us / train_us);
        let modeled: f64 = counts
            .iter()
            .filter(|(k, _)| *k == "trainer.modeled_us")
            .map(|(_, v)| v)
            .sum();
        if modeled > 0.0 {
            facts.insert("trainer.wall_over_modeled", train_us / modeled);
        }
    }

    let per_op_median =
        |span: &str, value: &[f64], scale: f64| median(&log.per_op(span, value)) / scale;
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.from {
                From::SpanMs(span) => per_op_median(span, &dur, 1e3),
                From::SpanUs(span) => per_op_median(span, &dur, 1.0),
                From::SelfMs(span) => per_op_median(span, &own, 1e3),
                From::Count => mean(
                    &counts
                        .iter()
                        .filter(|(k, _)| *k == m.name)
                        .map(|&(_, v)| v)
                        .collect::<Vec<f64>>(),
                ),
                From::Fact => facts.get(m.name).copied().unwrap_or(0.0),
            };
            (m.name, v, m.unit)
        })
        .collect();

    let trace_path = args.out_dir.join(format!("trace-{}.json", spec.name));
    let written = std::fs::write(
        &trace_path,
        layers::chrome_trace(&format!("gt-benchmark {}", spec.name), &log),
    );
    let mut info = vec![("trace_spans", log.spans().len() as f64, "count")];
    info.extend(environment(&data));
    let n = untraced.wall_s.len();
    let failed = (untraced.totals(0..n).failed + traced.failed + tail.failed) as u64;
    RunResult {
        correct: check.is_ok() && written.is_ok() && failed == 0,
        attempted: (n + ops) as u64,
        failed,
        metrics,
        info,
        check_error: check.err().or_else(|| {
            written
                .err()
                .map(|e| format!("{}: {e}", trace_path.display()))
        }),
    }
}
