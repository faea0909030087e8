//! The perf probe behind the `smoke` experiment and its `--bench-out`:
//! train the Dynamic GraphTensor trainer for a handful of batches and
//! distill the run into a [`BenchReport`].
//!
//! Every metric (latency percentiles, throughput, stage breakdowns) comes
//! from the cost model and the DES scheduler, so it is bit-identical
//! across machines and `GT_THREADS` widths — that is what lets the
//! identity manifest hash `BENCH_smoke.json`.

use crate::benchjson::{BenchConfig, BenchReport, EnvFingerprint};
use crate::runner::{percentile, print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::prepro::sample_and_reindex;
use gt_core::trainer::GtVariant;
use gt_core::{build_prepro_sim, PreproStrategy};
use gt_par::ThreadPool;
use gt_sim::{BubbleReport, Phase, Stage, StageBreakdown, SystemSpec};

/// The probe's representative workload (the paper's light dataset).
const DATASET: &str = "products";

/// Minimum measured batches: percentiles over fewer samples are noise.
const MIN_BATCHES: usize = 9;

/// The host-side request segments sampled per measured batch: the DES
/// phase each covers and the stage whose label keys its metrics (the
/// S/R/K/T vocabulary request traces use).
const SEGMENTS: [(Phase, Stage); 4] = [
    (Phase::Sampling, Stage::Sample),
    (Phase::Reindex, Stage::Reindex),
    (Phase::Lookup, Stage::Lookup),
    (Phase::Transfer, Stage::Transfer),
];

/// Run the probe and distill a schema-stable report.
pub fn report(cfg: &ExpConfig) -> BenchReport {
    let spec = gt_datasets::by_name(DATASET).expect("probe dataset");
    let data = cfg.build(&spec);
    let batch = cfg.batch_ids(&data);
    let mut t = cfg.graphtensor(
        GtVariant::Dynamic,
        ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim),
    );
    let overlapped = t.overlaps_batches();

    // Warm up once (first batch pays calibration), then measure.
    t.train_batch(&data, &batch);
    let n = cfg.measure_batches.max(MIN_BATCHES);
    let mut e2e_us = Vec::with_capacity(n);
    let mut gpu_us = Vec::with_capacity(n);
    // Per-request latency segments (the same S/R/K/T vocabulary request
    // traces use), one sample per measured batch.
    let mut seg_us: [Vec<f64>; 4] = Default::default();
    let mut gpu_stages = StageBreakdown::new();
    for _ in 0..n {
        let r = t.train_batch(&data, &batch);
        e2e_us.push(r.e2e_us(overlapped));
        gpu_us.push(r.gpu_us());
        for (seg, (phase, _)) in seg_us.iter_mut().zip(SEGMENTS) {
            seg.push(r.prepro.as_ref().map_or(0.0, |s| s.phase_busy_us(phase)));
        }
        gpu_stages.merge(&StageBreakdown::from_kernels(r.sim.records()));
    }
    let mean_e2e = e2e_us.iter().sum::<f64>() / n as f64;

    // The `prepro_*` metrics price Prepro-GT's schedule (pipelined,
    // contention-relaxed) over the same measured work, via `gt_sim::profile`.
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
    // Every stage, present or not: a schema-stable key set.
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
    // vocabulary (docs/telemetry.md §Tracing contexts).
    for (seg, (_, stage)) in seg_us.iter().zip(SEGMENTS) {
        for p in [50.0, 95.0] {
            let key = format!("req_{}_us_p{p:.0}", stage.label());
            metrics.push((key, percentile(seg, p)));
        }
    }
    for p in [50.0, 95.0] {
        metrics.push((format!("req_kernel_us_p{p:.0}"), percentile(&gpu_us, p)));
    }

    BenchReport {
        experiment: "smoke".to_string(),
        config: BenchConfig {
            scale_divisor: cfg.scale.divisor() as u64,
            seed: cfg.seed,
            batch: batch.len() as u64,
            fanout: cfg.fanout as u64,
            layers: cfg.layers as u64,
            measure_batches: n as u64,
        },
        env: EnvFingerprint {
            gpu: sys.gpu.name.to_string(),
            host: sys.host.name.to_string(),
            host_cores: sys.host.cores as u64,
        },
        metrics,
    }
}

/// The `smoke` experiment's stdout: the probe report `r` as a table. The
/// pool width and dense ISA vary by host, so they go to stderr and the
/// stdout stays byte-identical.
pub fn print(r: &BenchReport) {
    eprintln!(
        "perf smoke: {} threads, {} dense kernel",
        ThreadPool::global().workers(),
        gt_tensor::dense::kernel_isa()
    );
    let rows: Vec<Vec<String>> = r
        .metrics
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v:.1}")])
        .collect();
    print_table(
        &format!(
            "perf smoke ({} dst/batch, {} measured batches, modeled)",
            r.config.batch, r.config.measure_batches,
        ),
        &["metric", "value"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole file is a pure function of the config: the bytes the
    /// identity manifest hashes are the same run to run.
    #[test]
    fn probe_is_deterministic_and_round_trips() {
        let cfg = ExpConfig::test();
        assert_eq!(report(&cfg).to_json_string(), report(&cfg).to_json_string());
    }

    #[test]
    fn probe_metrics_are_sane() {
        let r = report(&ExpConfig::test());
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
