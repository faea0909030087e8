//! Fig 17 — NAPA's impact: memory footprint (a) and cache loads (b) of
//! Base-GT relative to the competing approaches.
//!
//! Paper: NAPA cuts the FWP/BWP memory footprint by 81.8% on average (no
//! sparse→dense copies) and the data loaded into caches by 44.8%
//! (feature-wise scheduling).

use crate::runner::{pct, print_table, ExpConfig};
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::trainer::GtVariant;

/// One dataset's NAPA-impact measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Peak device memory: DL-approach (PyG) run, bytes.
    pub dl_peak: u64,
    /// Peak device memory: Base-GT run, bytes.
    pub napa_peak: u64,
    /// Cache bytes loaded: edge-wise (DGL) run.
    pub edgewise_cache: u64,
    /// Cache bytes loaded: Base-GT run.
    pub napa_cache: u64,
}

impl Row {
    /// Footprint reduction (paper: 81.8% avg). Only the kernel working set
    /// beyond the input tensors counts — inputs are identical either way.
    pub fn footprint_reduction(&self, input_bytes: u64) -> f64 {
        let dl = self.dl_peak.saturating_sub(input_bytes) as f64;
        let napa = self.napa_peak.saturating_sub(input_bytes) as f64;
        if dl <= 0.0 {
            return 0.0;
        }
        1.0 - napa / dl
    }

    /// Cache-load reduction (paper: 44.8% avg).
    pub fn cache_reduction(&self) -> f64 {
        1.0 - self.napa_cache as f64 / self.edgewise_cache.max(1) as f64
    }
}

/// Input tensor bytes for a dataset batch (features + structures).
fn input_bytes(r: &gt_core::framework::BatchReport, feat_dim: usize) -> u64 {
    (r.num_nodes * feat_dim * 4) as u64
}

/// Measure Fig 17 on the light-feature workloads (as the paper does).
pub fn run(cfg: &ExpConfig) -> Vec<(Row, f64, f64)> {
    let mut out = Vec::new();
    for spec in gt_datasets::light() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        // NGCF exercises both aggregation and weighting paths.
        let model = ModelConfig::ngcf(cfg.layers, PAPER_HIDDEN, spec.out_dim);

        let mut pyg = cfg.baseline(BaselineKind::Pyg, model.clone());
        let rp = pyg.train_batch(&data, &batch);
        let mut dgl = cfg.baseline(BaselineKind::Dgl, model.clone());
        let rd = dgl.train_batch(&data, &batch);
        let mut gt = cfg.graphtensor(GtVariant::Base, model);
        let rg = gt.train_batch(&data, &batch);

        let row = Row {
            dataset: spec.name.to_string(),
            dl_peak: rp.sim.memory.peak(),
            napa_peak: rg.sim.memory.peak(),
            edgewise_cache: rd.sim.total_stats().cache_loaded_bytes,
            napa_cache: rg.sim.total_stats().cache_loaded_bytes,
        };
        let ib = input_bytes(&rg, spec.feature_dim);
        let fr = row.footprint_reduction(ib);
        let cr = row.cache_reduction();
        out.push((row, fr, cr));
    }
    out
}

/// Print the reductions.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(r, fr, cr)| vec![r.dataset.clone(), pct(*fr), pct(*cr)])
        .collect();
    print_table(
        "Fig 17: NAPA impact on light graphs (paper: footprint −81.8%, cache −44.8%)",
        &["dataset", "17a footprint reduction", "17b cache reduction"],
        &table,
    );
    let f = rows.iter().map(|(_, fr, _)| fr).sum::<f64>() / rows.len() as f64;
    let c = rows.iter().map(|(_, _, cr)| cr).sum::<f64>() / rows.len() as f64;
    println!(
        "average: footprint −{} (paper −81.8%), cache −{} (paper −44.8%)",
        pct(f),
        pct(c)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn napa_reduces_both_metrics() {
        let cfg = ExpConfig::test();
        for (row, fr, cr) in run(&cfg) {
            assert!(fr > 0.5, "{}: footprint reduction only {fr}", row.dataset);
            assert!(cr > 0.0, "{}: no cache reduction ({cr})", row.dataset);
            assert!(row.napa_peak <= row.dl_peak);
            assert!(row.napa_cache <= row.edgewise_cache);
        }
    }
}
