//! The million-user serving scenario (EXPERIMENTS.md "serving"): an
//! open-loop diurnal workload against the multi-tenant cached gateway.
//!
//! Not a paper figure: this experiment composes the serving stack the
//! paper's training pipeline grew into — the seeded workload generator
//! ([`gt_datasets::workload`]), the fair-queue admission gateway with
//! per-tenant token-bucket quotas ([`gt_core::Gateway`]), and the
//! skew-exploiting serving caches ([`gt_core::ServingCaches`]) — and
//! distills one compressed "day" of traffic into BENCH metrics:
//!
//! * cache hit rates (the Zipf hot set and template repeats must pay off),
//! * served/shed/degraded totals, broken down by shed cause and tenant,
//! * offered load vs p99 latency over fixed windows of the day,
//! * the virtual timestamps at which each shed-ladder rung first engaged.
//!
//! The arrival rate is calibrated against a probed service time, so the
//! run sweeps from under- to over-capacity as the diurnal curve rises:
//! the trough is a pass-through, the peak (and the flash-crowd bursts)
//! engage degradation, deadline sheds, and tenant 2's quota. Everything
//! is priced in DES virtual time, so the whole report is a pure function
//! of `(config, seed)` — bit-identical across runs and `GT_THREADS`
//! widths, which is what lets the identity manifest hash
//! `BENCH_serving.json`.

use std::path::PathBuf;

use crate::benchjson::{BenchConfig, BenchReport, EnvFingerprint};
use crate::runner::{percentile, print_table, ExpConfig};
use gt_core::cache::CacheStats;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::error::GtError;
use gt_core::framework::{BatchOutcome, ShedCause};
use gt_core::serve::{DurabilityConfig, Supervisor};
use gt_core::trainer::GtVariant;
use gt_core::{CacheConfig, Completion, Gateway, OverloadConfig, TenancyConfig, TenantQuota};
use gt_datasets::workload::{self, WorkloadSpec};
use gt_sim::{FaultPlan, SystemSpec};

/// The scenario's dataset (the paper's serving-friendly light graph).
const DATASET: &str = "reddit2";

/// Baseline arrivals over the day at gap = `GAP_FACTOR` × service time.
const BASELINE_ARRIVALS: f64 = 360.0;

/// Mean inter-arrival gap as a multiple of the probed service time: just
/// above 1.0, so the diurnal peak (×1.6) and bursts (×3) overload while
/// the trough stays under capacity.
const GAP_FACTOR: f64 = 1.1;

/// Request deadline as a multiple of the probed service time.
const DEADLINE_FACTOR: f64 = 6.0;

/// Fixed windows the day is sliced into for the p99-vs-load curve.
const WINDOWS: usize = 6;

/// Serving-scenario knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone, Default)]
pub struct ServingOpts {
    /// Durable-state directory (journal + checkpoint). `None`: a
    /// throwaway directory under the system temp dir, fresh each run.
    pub dir: Option<PathBuf>,
}

/// Offered load and tail latency over one fixed slice of the day.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Requests that arrived in the window, per virtual second.
    pub offered_rps: f64,
    /// Nearest-rank p99 of arrival→completion latency for requests
    /// arriving in the window; the deadline when none were served.
    pub p99_us: f64,
}

/// What the day of traffic did, in assertable form.
#[derive(Debug)]
pub struct Summary {
    /// The generated workload (calibrated gap, derived duration).
    pub spec: WorkloadSpec,
    /// Probed fault-free service time of one batch, virtual µs.
    pub service_us: f64,
    /// The deadline the gateway enforced, virtual µs.
    pub deadline_us: f64,
    /// Every request's resolution, exactly one per arrival.
    pub completions: Vec<Completion>,
    /// Serving-cache totals at end of day.
    pub cache: CacheStats,
    /// Offered load vs p99, one entry per fixed window.
    pub windows: Vec<WindowStat>,
    /// Virtual µs at which the first degraded completion resolved
    /// (`duration_us` when the ladder never engaged).
    pub first_degrade_us: f64,
    /// Virtual µs of the first deadline/queue-full shed (`duration_us`
    /// when none).
    pub first_shed_us: f64,
    /// Virtual µs of the first quota shed (`duration_us` when none).
    pub first_quota_shed_us: f64,
}

impl Summary {
    /// Completions that trained (served, possibly degraded).
    pub fn served(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.outcome.trained())
            .count()
    }

    /// Completions shed for `cause`.
    pub fn shed_by(&self, cause: ShedCause) -> usize {
        self.completions
            .iter()
            .filter(|c| c.outcome == BatchOutcome::Shed { cause })
            .count()
    }

    /// Completions served degraded (any ladder rung).
    pub fn degraded(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| matches!(c.outcome, BatchOutcome::Degraded { .. }))
            .count()
    }
}

/// Probe the fault-free virtual service time of one workload-sized batch
/// on this config — the unit the arrival rate and deadline scale from.
fn probe_service_us(cfg: &ExpConfig, data: &gt_core::GraphData, batch_size: usize) -> f64 {
    let spec = gt_datasets::by_name(DATASET).expect("known dataset");
    let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
    let sup = Supervisor::new(
        cfg.graphtensor(GtVariant::Dynamic, model),
        FaultPlan::new(cfg.seed),
    );
    let mut g = Gateway::new(sup, OverloadConfig::default());
    let batch = gt_sample::BatchIter::new(data.num_vertices(), batch_size, cfg.seed)
        .next()
        .expect("non-empty dataset");
    let mut c = g.submit(data, 0.0, &batch);
    c.extend(g.drain(data));
    assert_eq!(c.len(), 1);
    assert!(c[0].done_us > 0.0, "probe batch must cost virtual time");
    c[0].done_us
}

/// The workload the scenario runs: `default_day` with the gap calibrated
/// to the probed service time and the duration scaled to match.
fn calibrated_spec(cfg: &ExpConfig, service_us: f64) -> WorkloadSpec {
    let mut wl = WorkloadSpec::default_day(cfg.seed);
    wl.mean_gap_us = GAP_FACTOR * service_us;
    wl.duration_us = BASELINE_ARRIVALS * wl.mean_gap_us;
    wl.burst_len_us = wl.duration_us / 20.0;
    wl
}

/// Run one compressed day of traffic through the durable, cached,
/// multi-tenant gateway; [`print()`] and [`report()`] both read the result.
/// `Err` means the durable serving layer failed — the traffic itself
/// cannot fail, only resolve.
pub fn run(cfg: &ExpConfig, opts: &ServingOpts) -> Result<Summary, GtError> {
    let spec = gt_datasets::by_name(DATASET).expect("known dataset");
    let data = cfg.build(&spec);
    let nv = data.num_vertices();
    let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);

    let wl_probe = WorkloadSpec::default_day(cfg.seed);
    let service_us = probe_service_us(cfg, &data, wl_probe.batch_size);
    let wl = calibrated_spec(cfg, service_us);
    let deadline_us = DEADLINE_FACTOR * service_us;
    let arrivals = workload::generate(&wl, nv);

    let mut sup = Supervisor::new(
        cfg.graphtensor(GtVariant::Dynamic, model),
        FaultPlan::new(cfg.seed),
    );
    sup.trainer.telemetry = gt_telemetry::Telemetry::recording();
    sup.enable_caches(CacheConfig {
        embedding_capacity: (nv / 4).max(64),
        subgraph_capacity: 64,
    });
    let dir = opts.dir.clone().unwrap_or_else(|| {
        let d = std::env::temp_dir().join("gt_repro_serving");
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    // Checkpoint sparsely: every committed checkpoint bumps the parameter
    // epoch and retires cached subgraphs, and a serving process that
    // checkpointed every few requests would never keep a warm cache.
    sup.make_durable(DurabilityConfig {
        checkpoint_every: 64,
        ..DurabilityConfig::new(&dir)
    })?;

    let mut g = Gateway::new(
        sup,
        OverloadConfig {
            queue_capacity: 16,
            deadline_us,
            degrade_watermark: 6,
            halve_watermark: 10,
            reduced_fanout: 2,
        },
    );
    // Tenant 2 (a 20% offered share) is quota-capped at half what it
    // offers; tenants 0 and 1 are unlimited and share by deficit round
    // robin.
    let offered_rps = 1e6 / wl.mean_gap_us;
    g.enable_tenancy(TenancyConfig {
        quotas: vec![
            TenantQuota::unlimited(),
            TenantQuota::unlimited(),
            TenantQuota::new(0.5 * 0.2 * offered_rps, 2.0),
        ],
        quantum: wl.batch_size,
    });

    let mut completions: Vec<Completion> = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        completions.extend(g.submit_from(&data, a.at_us, a.tenant, &a.batch));
    }
    completions.extend(g.drain(&data));
    assert_eq!(
        completions.len(),
        arrivals.len(),
        "every arrival must resolve exactly once"
    );

    // p99-vs-load curve: bucket each request by its *arrival* window (a
    // request's latency belongs to the load level that produced it).
    let win_us = wl.duration_us / WINDOWS as f64;
    let mut offered = [0usize; WINDOWS];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for (a, c) in arrivals.iter().zip(&completions) {
        let w = ((a.at_us / win_us) as usize).min(WINDOWS - 1);
        offered[w] += 1;
        if c.outcome.trained() {
            latencies[w].push(c.done_us - a.at_us);
        }
    }
    let windows: Vec<WindowStat> = (0..WINDOWS)
        .map(|w| WindowStat {
            offered_rps: offered[w] as f64 * 1e6 / win_us,
            p99_us: if latencies[w].is_empty() {
                deadline_us
            } else {
                percentile(&latencies[w], 99.0)
            },
        })
        .collect();

    // Shed-ladder engagement points: the virtual instant each rung first
    // resolved a request, `duration_us` when a rung never fired.
    let first = |pred: &dyn Fn(&Completion) -> bool| {
        completions
            .iter()
            .filter(|c| pred(c))
            .map(|c| c.done_us)
            .fold(wl.duration_us, f64::min)
    };
    let first_degrade_us = first(&|c| matches!(c.outcome, BatchOutcome::Degraded { .. }));
    let first_shed_us = first(&|c| {
        matches!(
            c.outcome,
            BatchOutcome::Shed {
                cause: ShedCause::DeadlineExpired | ShedCause::QueueFull
            }
        )
    });
    let first_quota_shed_us = first(&|c| {
        c.outcome
            == BatchOutcome::Shed {
                cause: ShedCause::QuotaExceeded,
            }
    });

    let cache = g
        .supervisor
        .cache_stats()
        .expect("caches enabled just above");
    Ok(Summary {
        spec: wl,
        service_us,
        deadline_us,
        completions,
        cache,
        windows,
        first_degrade_us,
        first_shed_us,
        first_quota_shed_us,
    })
}

/// Distill the day `s` into a schema-stable [`BenchReport`] for
/// `repro serving --bench-out` / CI's `identity` job.
pub fn report(cfg: &ExpConfig, s: &Summary) -> BenchReport {
    let tenants = s.spec.tenant_weights.len();
    let mut metrics: Vec<(String, f64)> = vec![
        (
            "embedding_cache_hit_rate".into(),
            s.cache.embedding_hit_rate(),
        ),
        (
            "subgraph_cache_hit_rate".into(),
            s.cache.subgraph_hit_rate(),
        ),
        ("cache_saved_us_total".into(), s.cache.saved_us),
        ("service_us".into(), s.service_us),
        ("deadline_us".into(), s.deadline_us),
        ("arrivals_total".into(), s.completions.len() as f64),
        ("served_total".into(), s.served() as f64),
        ("degraded_total".into(), s.degraded() as f64),
        (
            "shed_deadline_total".into(),
            s.shed_by(ShedCause::DeadlineExpired) as f64,
        ),
        (
            "shed_queue_full_total".into(),
            s.shed_by(ShedCause::QueueFull) as f64,
        ),
        (
            "shed_quota_total".into(),
            s.shed_by(ShedCause::QuotaExceeded) as f64,
        ),
        (
            "throughput_served_per_s".into(),
            s.served() as f64 * 1e6 / s.spec.duration_us,
        ),
        ("first_degrade_us".into(), s.first_degrade_us),
        ("first_shed_us".into(), s.first_shed_us),
        ("first_quota_shed_us".into(), s.first_quota_shed_us),
    ];
    for t in 0..tenants {
        let served = s
            .completions
            .iter()
            .filter(|c| c.tenant == t && c.outcome.trained())
            .count();
        let shed = s
            .completions
            .iter()
            .filter(|c| c.tenant == t && matches!(c.outcome, BatchOutcome::Shed { .. }))
            .count();
        metrics.push((format!("tenant{t}_served_total"), served as f64));
        metrics.push((format!("tenant{t}_shed_total"), shed as f64));
    }
    for (w, stat) in s.windows.iter().enumerate() {
        metrics.push((format!("win{w}_offered_rps"), stat.offered_rps));
        metrics.push((format!("win{w}_p99_us"), stat.p99_us));
    }

    let sys = SystemSpec::paper_testbed();
    BenchReport {
        experiment: "serving".to_string(),
        config: BenchConfig {
            scale_divisor: cfg.scale.divisor() as u64,
            seed: cfg.seed,
            batch: s.spec.batch_size as u64,
            fanout: cfg.fanout as u64,
            layers: cfg.layers as u64,
            measure_batches: s.completions.len() as u64,
        },
        env: EnvFingerprint {
            gpu: sys.gpu.name.to_string(),
            host: sys.host.name.to_string(),
            host_cores: sys.host.cores as u64,
        },
        metrics,
    }
}

/// Print the day `s`: totals, the p99-vs-load curve, and engagement points.
pub fn print(s: &Summary) {
    let rows: Vec<Vec<String>> = s
        .windows
        .iter()
        .enumerate()
        .map(|(w, stat)| {
            vec![
                format!("{w}"),
                format!("{:.1}", stat.offered_rps),
                format!("{:.0}", stat.p99_us),
            ]
        })
        .collect();
    print_table(
        &format!(
            "serving: {} arrivals over {:.1} virtual ms ({:.0} µs service, {:.0} µs deadline)",
            s.completions.len(),
            s.spec.duration_us / 1e3,
            s.service_us,
            s.deadline_us
        ),
        &["window", "offered rps", "p99 µs"],
        &rows,
    );
    println!(
        "  served {} ({} degraded); shed: {} deadline, {} queue-full, {} quota",
        s.served(),
        s.degraded(),
        s.shed_by(ShedCause::DeadlineExpired),
        s.shed_by(ShedCause::QueueFull),
        s.shed_by(ShedCause::QuotaExceeded),
    );
    println!(
        "  caches: embedding hit rate {:.1}%, subgraph hit rate {:.1}%, {:.0} µs saved",
        100.0 * s.cache.embedding_hit_rate(),
        100.0 * s.cache.subgraph_hit_rate(),
        s.cache.saved_us,
    );
    println!(
        "  ladder engaged: degrade at {:.0} µs, shed at {:.0} µs, quota at {:.0} µs \
         (= day end when never)",
        s.first_degrade_us, s.first_shed_us, s.first_quota_shed_us,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::serve::ServeCtx;

    fn opts(tag: &str) -> ServingOpts {
        let dir = std::env::temp_dir().join(format!("gt_bench_serving_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ServingOpts { dir: Some(dir) }
    }

    /// The acceptance path: the skewed workload keeps the embedding cache
    /// hot (>50% hit rate), the diurnal peak engages the shed ladder, and
    /// tenant 2 trips its quota — all in one deterministic day.
    #[test]
    fn day_hits_caches_and_engages_the_ladder() {
        let cfg = ExpConfig::test();
        let s = run(&cfg, &opts("day")).unwrap();
        assert!(
            s.cache.embedding_hit_rate() > 0.5,
            "skewed workload must keep the embedding cache hot: {:.3}",
            s.cache.embedding_hit_rate()
        );
        assert!(
            s.cache.subgraph_hit_rate() > 0.0,
            "template repeats must hit the subgraph cache"
        );
        assert!(s.served() > 0, "the trough must serve");
        assert!(
            s.shed_by(ShedCause::DeadlineExpired) + s.shed_by(ShedCause::QueueFull) > 0,
            "the peak must shed"
        );
        assert!(
            s.shed_by(ShedCause::QuotaExceeded) > 0,
            "tenant 2 must trip its quota"
        );
        assert!(
            s.completions
                .iter()
                .all(|c| !matches!(c.outcome, BatchOutcome::Shed { cause: ShedCause::QuotaExceeded } if c.tenant != 2)),
            "only the capped tenant may be quota-shed"
        );
        assert!(
            s.first_degrade_us < s.spec.duration_us,
            "ladder must engage"
        );
        // The p99-vs-load curve covers the day, and the tail grows with
        // load: the deadline bounds queueing, not end-to-end latency, so
        // p99 may exceed it but must spread between trough and peak.
        assert_eq!(s.windows.len(), WINDOWS);
        assert!(s.windows.iter().all(|w| w.p99_us > 0.0));
        assert!(s.windows.iter().all(|w| w.offered_rps > 0.0));
        let p99_min = s.windows.iter().map(|w| w.p99_us).fold(f64::MAX, f64::min);
        let p99_max = s.windows.iter().map(|w| w.p99_us).fold(0.0, f64::max);
        assert!(
            p99_max > p99_min,
            "tail latency must vary with offered load"
        );
    }

    /// The whole report — workload, admission, caches, windows — is a
    /// pure function of the config: bit-identical run to run.
    #[test]
    fn report_is_deterministic() {
        let cfg = ExpConfig::test();
        let bytes = |dir| report(&cfg, &run(&cfg, &opts(dir)).unwrap()).to_json_string();
        assert_eq!(bytes("det_a"), bytes("det_b"));
    }

    /// Checkpoint restore invalidates the caches and the deterministic
    /// replay rebuilds them: a process recovered mid-day reaches the exact
    /// outcomes, parameters, and cache counters of one that never crashed.
    #[test]
    fn recovery_rebuilds_cache_state_and_outcomes() {
        let cfg = ExpConfig::test();
        let spec = gt_datasets::by_name(DATASET).unwrap();
        let data = cfg.build(&spec);
        let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        let wl = WorkloadSpec::default_day(cfg.seed);
        let batches: Vec<_> = workload::generate(&wl, data.num_vertices())
            .into_iter()
            .map(|a| a.batch)
            .take(20)
            .collect();
        let fresh = |dir: &std::path::Path| {
            let mut sup = Supervisor::new(
                cfg.graphtensor(GtVariant::Dynamic, model.clone()),
                FaultPlan::new(cfg.seed),
            );
            sup.enable_caches(CacheConfig::default());
            let _ = std::fs::remove_dir_all(dir);
            (sup, DurabilityConfig::new(dir))
        };

        let serve = |sup: &mut Supervisor, b: &[gt_graph::VId]| {
            let served = sup.serve(&data, b, ServeCtx::default()).unwrap();
            served.report.outcome
        };

        // Reference: serve all 20 batches in one uninterrupted process.
        let dir_a = std::env::temp_dir().join("gt_bench_serving_rec_a");
        let (mut a, dcfg) = fresh(&dir_a);
        a.make_durable(dcfg).unwrap();
        let mut outcomes_a = Vec::new();
        let mut stats_mid = None;
        for (i, b) in batches.iter().enumerate() {
            outcomes_a.push(serve(&mut a, b));
            if i + 1 == 10 {
                stats_mid = a.cache_stats();
            }
        }

        // Crash after 10 batches, rebuild from scratch, recover, resume.
        let dir_b = std::env::temp_dir().join("gt_bench_serving_rec_b");
        let (mut b1, dcfg_b) = fresh(&dir_b);
        b1.make_durable(dcfg_b.clone()).unwrap();
        for b in &batches[..10] {
            serve(&mut b1, b);
        }
        drop(b1);
        let (mut b2, _) = fresh(&std::path::PathBuf::from("/nonexistent"));
        let rep = b2.recover(&data, dcfg_b).unwrap();
        assert_eq!(rep.batches_replayed, 10);
        assert_eq!(
            b2.cache_stats(),
            stats_mid,
            "replay must rebuild the exact cache counters"
        );
        let mut outcomes_b: Vec<_> = outcomes_a[..10].to_vec();
        for b in &batches[10..] {
            outcomes_b.push(serve(&mut b2, b));
        }
        assert_eq!(
            outcomes_a, outcomes_b,
            "recovered day must match uninterrupted"
        );
        assert_eq!(
            a.cache_stats(),
            b2.cache_stats(),
            "end-of-day cache state must match too"
        );
    }
}
