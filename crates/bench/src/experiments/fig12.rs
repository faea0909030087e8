//! Fig 12a — end-to-end latency decomposition under serialized
//! preprocessing: GNN compute (FWP+BWP) is only ~15.8% of the total; light
//! feature graphs are sampling-bound, heavy ones are lookup/transfer-bound.

use crate::runner::{pct, print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::trainer::GtVariant;
use gt_sim::Phase;

/// One dataset's decomposition (all values in µs).
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Heavy-feature workload?
    pub heavy: bool,
    /// Sampling stage wall time.
    pub sampling_us: f64,
    /// Reindexing stage wall time.
    pub reindex_us: f64,
    /// Embedding-lookup stage wall time.
    pub lookup_us: f64,
    /// Transfer stage wall time.
    pub transfer_us: f64,
    /// GPU FWP+BWP modeled time.
    pub gpu_us: f64,
}

impl Row {
    /// Total end-to-end latency (serialized stages + compute).
    pub fn total_us(&self) -> f64 {
        self.sampling_us + self.reindex_us + self.lookup_us + self.transfer_us + self.gpu_us
    }

    /// Fraction spent preprocessing (paper: 84.2% on average).
    pub fn prepro_fraction(&self) -> f64 {
        1.0 - self.gpu_us / self.total_us()
    }
}

/// Wall-clock span of one phase within a schedule.
fn span(schedule: &gt_sim::Schedule, phase: Phase) -> f64 {
    let start = schedule
        .events
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| e.start_us)
        .fold(f64::INFINITY, f64::min);
    let end = schedule.phase_finish_us(phase);
    if start.is_finite() {
        end - start
    } else {
        0.0
    }
}

/// Measure the serialized decomposition (Dynamic-GT, serial prepro) per
/// workload.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        let mut t = cfg.graphtensor(GtVariant::Dynamic, model);
        // Warm past calibration so the GPU time is the steady-state one.
        for _ in 0..3 {
            t.train_batch(&data, &batch);
        }
        let r = t.train_batch(&data, &batch);
        let s = r.prepro.as_ref().expect("serial prepro schedule");
        rows.push(Row {
            dataset: spec.name.to_string(),
            heavy: spec.heavy(),
            sampling_us: span(s, Phase::Sampling),
            reindex_us: span(s, Phase::Reindex),
            lookup_us: span(s, Phase::Lookup),
            transfer_us: span(s, Phase::Transfer),
            gpu_us: r.gpu_us(),
        });
    }
    rows
}

/// Print the decomposition.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let t = r.total_us();
            vec![
                r.dataset.clone(),
                pct(r.sampling_us / t),
                pct(r.reindex_us / t),
                pct(r.lookup_us / t),
                pct(r.transfer_us / t),
                pct(r.gpu_us / t),
            ]
        })
        .collect();
    print_table(
        "Fig 12a: end-to-end decomposition, serialized prepro (paper: compute ≈15.8%)",
        &["dataset", "S", "R", "K", "T", "FWP+BWP"],
        &table,
    );
    let avg = rows.iter().map(|r| r.prepro_fraction()).sum::<f64>() / rows.len() as f64;
    println!("average preprocessing share: {} (paper 84.2%)", pct(avg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocessing_dominates() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        let avg = rows.iter().map(|r| r.prepro_fraction()).sum::<f64>() / rows.len() as f64;
        assert!(avg > 0.5, "prepro share only {avg}");
    }

    #[test]
    fn heavy_graphs_are_lookup_transfer_bound() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        // Average K+T share must be higher for heavy than light workloads.
        let share = |r: &Row| (r.lookup_us + r.transfer_us) / r.total_us();
        let heavy: Vec<f64> = rows.iter().filter(|r| r.heavy).map(share).collect();
        let light: Vec<f64> = rows.iter().filter(|r| !r.heavy).map(share).collect();
        let h = heavy.iter().sum::<f64>() / heavy.len() as f64;
        let l = light.iter().sum::<f64>() / light.len() as f64;
        assert!(h > l, "heavy K+T {h} !> light K+T {l}");
    }
}
