//! Shared experiment plumbing: configuration, framework construction, and
//! batch execution helpers.

use gt_baselines::{Baseline, BaselineKind};
use gt_core::config::ModelConfig;
use gt_core::data::GraphData;
use gt_core::framework::{BatchReport, Framework};
use gt_core::trainer::{GraphTensor, GtVariant};
use gt_datasets::{DatasetSpec, Scale};
use gt_graph::VId;
use gt_sample::SamplerConfig;
use gt_sim::SystemSpec;

/// Experiment configuration shared by every figure.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Dataset scale (divisor of the paper's graph sizes).
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Destination vertices per batch (§VI: 300).
    pub batch: usize,
    /// Sampling fanout per hop.
    pub fanout: usize,
    /// GNN layers (= sampled hops).
    pub layers: usize,
    /// Measured batches averaged per data point.
    pub measure_batches: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: Scale::Small,
            seed: 42,
            batch: 300,
            fanout: 15,
            layers: 2,
            measure_batches: 2,
        }
    }
}

impl ExpConfig {
    /// Unit-test sized configuration.
    pub fn test() -> Self {
        ExpConfig {
            scale: Scale::Test,
            batch: 40,
            fanout: 6,
            measure_batches: 1,
            ..Default::default()
        }
    }

    /// Sampler settings derived from this config.
    pub fn sampler(&self) -> SamplerConfig {
        SamplerConfig {
            fanout: self.fanout,
            layers: self.layers,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Build a dataset at this config's scale.
    pub fn build(&self, spec: &DatasetSpec) -> GraphData {
        spec.build(self.scale, self.seed)
    }

    /// The first training batch for a dataset.
    pub fn batch_ids(&self, data: &GraphData) -> Vec<VId> {
        self.batch_stream(data, 1)
            .next()
            .expect("non-empty dataset")
    }

    /// The first `k` batches of the serving stream: one
    /// [`BatchIter`](gt_sample::BatchIter) epoch per reseed, so the stream
    /// is as long as a run needs while staying deterministic.
    pub fn batch_stream(&self, data: &GraphData, k: usize) -> impl Iterator<Item = Vec<VId>> {
        let (nv, seed) = (data.num_vertices(), self.seed);
        let n = self.batch.min(nv);
        (0u64..)
            .flat_map(move |epoch| gt_sample::BatchIter::new(nv, n, seed.wrapping_add(epoch)))
            .take(k)
    }

    /// A GraphTensor trainer on the paper testbed model.
    pub fn graphtensor(&self, variant: GtVariant, model: ModelConfig) -> GraphTensor {
        let mut t = GraphTensor::new(variant, model, SystemSpec::paper_testbed());
        t.sampler = self.sampler();
        t
    }

    /// A baseline trainer on the paper testbed model.
    pub fn baseline(&self, kind: BaselineKind, model: ModelConfig) -> Baseline {
        let mut b = Baseline::new(kind, model, SystemSpec::paper_testbed());
        b.sampler = self.sampler();
        b
    }

    /// Train `warmup + measure_batches` batches; returns the measured tail.
    pub fn measure<F: Framework>(
        &self,
        fw: &mut F,
        data: &GraphData,
        warmup: usize,
    ) -> Vec<BatchReport> {
        let telemetry = gt_telemetry::global();
        let batch = self.batch_ids(data);
        {
            let _s = telemetry
                .span("bench", "warmup")
                .arg("framework", fw.name())
                .arg("batches", warmup);
            for _ in 0..warmup {
                fw.train_batch(data, &batch);
            }
        }
        let _s = telemetry
            .span("bench", "measure")
            .arg("framework", fw.name())
            .arg("batches", self.measure_batches);
        (0..self.measure_batches)
            .map(|_| fw.train_batch(data, &batch))
            .collect()
    }
}

/// Geometric mean (the paper's "on average" for ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Percentile over an unsorted sample: the sorted value at index
/// `round(p/100 · (n−1))`. This is not nearest-rank (`ceil(p/100 · n) − 1`):
/// for n = 10 and p = 50 it picks index 5 where nearest-rank picks 4.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Format a percentage: `45.6%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Print a fixed-width table: header + rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.456), "45.6%");
    }

    #[test]
    fn config_builds_and_batches() {
        let cfg = ExpConfig::test();
        let spec = gt_datasets::by_name("reddit2").unwrap();
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        assert_eq!(batch.len(), cfg.batch.min(data.num_vertices()));
    }
}
