//! The continuous-perf probe behind `repro --bench-out` and the `smoke`
//! experiment: train the Dynamic GraphTensor trainer for a handful of
//! batches and distill the run into a [`BenchReport`].
//!
//! Modeled metrics (latency percentiles, throughput, stage breakdowns)
//! come from the cost model and the DES scheduler, so they are
//! bit-identical across machines and `GT_THREADS` widths — that is what
//! makes a committed `BENCH_smoke.json` baseline meaningful. Wall-clock
//! per-batch times ride along informationally.

use std::time::Instant;

use crate::benchjson::{BenchConfig, BenchReport, EnvFingerprint, SCHEMA_VERSION};
use crate::runner::{percentile, print_table, ExpConfig};
use gt_core::config::ModelConfig;
use gt_core::framework::Framework;
use gt_core::prepro::sample_and_reindex;
use gt_core::trainer::GtVariant;
use gt_core::{build_prepro_sim, PreproStrategy};
use gt_par::ThreadPool;
use gt_profile::{BubbleReport, Stage, StageBreakdown};
use gt_sim::SystemSpec;

/// The probe's representative workload (the paper's light dataset).
const DATASET: &str = "products";

/// Minimum measured batches: percentiles over fewer samples are noise.
const MIN_BATCHES: usize = 9;

/// The host-side request segments sampled per measured batch, in the
/// order of `SEGMENT_LABELS`.
const SEGMENT_PHASES: [gt_sim::Phase; 4] = [
    gt_sim::Phase::Sampling,
    gt_sim::Phase::Reindex,
    gt_sim::Phase::Lookup,
    gt_sim::Phase::Transfer,
];

/// Metric-key labels for [`SEGMENT_PHASES`] (the S/R/K/T vocabulary of
/// `gt_telemetry::SegmentKind`).
const SEGMENT_LABELS: [&str; 4] = ["S", "R", "K", "T"];

/// Run the probe and distill a schema-stable report.
pub fn report(experiment: &str, cfg: &ExpConfig) -> BenchReport {
    let spec = gt_datasets::by_name(DATASET).expect("probe dataset");
    let data = cfg.build(&spec);
    let batch = cfg.batch_ids(&data);
    let mut t = cfg.graphtensor(
        GtVariant::Dynamic,
        ModelConfig::gcn(cfg.layers, 64, spec.out_dim),
    );
    let overlapped = t.overlaps_batches();

    // Warm up once (first batch pays calibration), then measure.
    t.train_batch(&data, &batch);
    let n = cfg.measure_batches.max(MIN_BATCHES);
    let mut e2e_us = Vec::with_capacity(n);
    let mut wall_us = Vec::with_capacity(n);
    let mut gpu_us = Vec::with_capacity(n);
    // Per-request latency segments (the same S/R/K/T vocabulary request
    // traces use), one sample per measured batch.
    let mut seg_us: [Vec<f64>; 4] = Default::default();
    let mut gpu_stages = StageBreakdown::new();
    for _ in 0..n {
        let wall = Instant::now();
        let r = t.train_batch(&data, &batch);
        wall_us.push(wall.elapsed().as_secs_f64() * 1e6);
        e2e_us.push(r.e2e_us(overlapped));
        gpu_us.push(r.gpu_us());
        for (i, phase) in SEGMENT_PHASES.iter().enumerate() {
            seg_us[i].push(r.prepro.as_ref().map_or(0.0, |s| s.phase_busy_us(*phase)));
        }
        gpu_stages.merge(&StageBreakdown::from_kernels(r.sim.records()));
    }
    let mean_e2e = e2e_us.iter().sum::<f64>() / n as f64;

    // The `prepro_*` metrics price Prepro-GT's schedule (pipelined,
    // contention-relaxed) over the same measured work, via gt-profile.
    let work = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global()).work;
    let sys = SystemSpec::paper_testbed();
    let sim = build_prepro_sim(&work, &sys, PreproStrategy::PipelinedRelaxed);
    let schedule = sim.run();
    let stages = StageBreakdown::from_schedule(&schedule);
    let bubbles = BubbleReport::from_schedule(&schedule, sim.host_cores());

    let mut metrics: Vec<(String, f64)> = vec![
        (
            "throughput_samples_per_s".into(),
            batch.len() as f64 * 1e6 / mean_e2e,
        ),
        ("batch_e2e_us_p50".into(), percentile(&e2e_us, 50.0)),
        ("batch_e2e_us_p95".into(), percentile(&e2e_us, 95.0)),
        ("batch_e2e_us_p99".into(), percentile(&e2e_us, 99.0)),
        ("gpu_us_mean".into(), gpu_us.iter().sum::<f64>() / n as f64),
        ("prepro_makespan_us".into(), schedule.makespan_us),
        ("prepro_idle_pct".into(), bubbles.idle_pct()),
    ];
    // Every stage, present or not: a schema-stable key set is what lets
    // benchdiff treat a vanished key as a break rather than noise.
    for stage in Stage::ALL {
        if stage.is_preprocessing() {
            metrics.push((format!("prepro_{}_us", stage.label()), stages.get(stage)));
        }
    }
    for stage in [
        Stage::Pull,
        Stage::NeighborApply,
        Stage::MatMul,
        Stage::Other,
    ] {
        metrics.push((
            format!("gpu_{}_us", stage.label()),
            gpu_stages.get(stage) / n as f64,
        ));
    }
    // Per-request latency-segment percentiles, keyed by the tracing
    // vocabulary (docs/telemetry.md §Tracing contexts): modeled, so they
    // sit under the same benchdiff gate as the e2e percentiles.
    for (i, label) in SEGMENT_LABELS.iter().enumerate() {
        for p in [50.0, 95.0] {
            metrics.push((format!("req_{label}_us_p{p:.0}"), percentile(&seg_us[i], p)));
        }
    }
    for p in [50.0, 95.0] {
        metrics.push((format!("req_kernel_us_p{p:.0}"), percentile(&gpu_us, p)));
    }

    let wall = vec![
        (
            "wall_batch_us_mean".into(),
            wall_us.iter().sum::<f64>() / n as f64,
        ),
        ("wall_batch_us_p50".into(), percentile(&wall_us, 50.0)),
        ("wall_batch_us_p95".into(), percentile(&wall_us, 95.0)),
        ("wall_batch_us_p99".into(), percentile(&wall_us, 99.0)),
    ];

    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: experiment.to_string(),
        config: BenchConfig {
            scale_divisor: cfg.scale.divisor() as u64,
            seed: cfg.seed,
            batch: batch.len() as u64,
            fanout: cfg.fanout as u64,
            layers: cfg.layers as u64,
            measure_batches: n as u64,
        },
        env: EnvFingerprint {
            threads: gt_par::ThreadPool::global().workers() as u64,
            gpu: sys.gpu.name.to_string(),
            host: sys.host.name.to_string(),
            host_cores: sys.host.cores as u64,
        },
        metrics,
        wall,
    }
}

/// The `smoke` experiment: run the probe and print both metric families.
pub fn print(cfg: &ExpConfig) {
    let r = report("smoke", cfg);
    let rows: Vec<Vec<String>> = r
        .metrics
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v:.1}"), "modeled".into()])
        .chain(
            r.wall
                .iter()
                .map(|(k, v)| vec![k.clone(), format!("{v:.1}"), "wall".into()]),
        )
        .collect();
    print_table(
        &format!(
            "perf smoke ({} dst/batch, {} measured batches, {} threads, {} dense kernel)",
            r.config.batch,
            r.config.measure_batches,
            r.env.threads,
            gt_tensor::dense::kernel_isa()
        ),
        &["metric", "value", "kind"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchjson::compare;

    #[test]
    fn probe_is_deterministic_and_round_trips() {
        let cfg = ExpConfig::test();
        let a = report("smoke", &cfg);
        let b = report("smoke", &cfg);
        // Modeled metrics are bit-identical run to run; wall-clock ones
        // are not, which is exactly why they are never gated.
        assert_eq!(a.metrics, b.metrics);
        assert!(!compare(&a, &b).failed());

        let back: BenchReport = a.to_json_string().parse().unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn probe_metrics_are_sane() {
        let r = report("smoke", &ExpConfig::test());
        let get = |k: &str| {
            r.metrics
                .iter()
                .find(|(n, _)| n == k)
                .unwrap_or_else(|| panic!("missing metric {k}"))
                .1
        };
        assert!(get("throughput_samples_per_s") > 0.0);
        let (p50, p95, p99) = (
            get("batch_e2e_us_p50"),
            get("batch_e2e_us_p95"),
            get("batch_e2e_us_p99"),
        );
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
        assert!(get("prepro_makespan_us") > 0.0);
        let idle = get("prepro_idle_pct");
        assert!((0.0..=100.0).contains(&idle));
        // The S/R/K/T family is attributed: at least sampling and
        // transfer see nonzero busy time on a real schedule.
        assert!(get("prepro_S-alg_us") + get("prepro_S-hash_us") + get("prepro_S_us") > 0.0);
        assert!(get("prepro_T_us") > 0.0);
        assert!(get("gpu_MatMul_us") > 0.0);
    }
}
