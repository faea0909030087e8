//! Fig 6 — challenges in GNN extension frameworks.
//!
//! (a) DL-approach GPU memory footprint, normalized by the input embedding
//!     table (paper: 5.8× on average).
//! (b) Graph-approach SDDMM cache bloat: extra data loaded into SM caches
//!     relative to the unique working set (paper: +81.9% on average).

use crate::runner::{geomean, print_table, ExpConfig};
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::napa::schedule::edge_wise_cache;
use gt_core::prepro::sample_and_reindex;
use gt_par::ThreadPool;
use gt_sim::DeviceSpec;

/// One dataset's bloat measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Fig 6a: peak device memory / input embedding table bytes.
    pub memory_footprint: f64,
    /// Fig 6b: cache bytes loaded / unique working set − 1.
    pub cache_bloat: f64,
}

/// Measure both subfigures for every Table-II workload.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let dev = DeviceSpec::rtx3090();
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);

        // (a) DL-approach (PyG) running NGCF — the edge-weighting path is
        // where DL-approach cannot avoid the bloat (§III).
        let model = ModelConfig::ngcf(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        let mut pyg = cfg.baseline(BaselineKind::Pyg, model);
        let report = pyg.train_batch(&data, &batch);
        let table_bytes = (report.num_nodes * spec.feature_dim * 4) as f64;
        let memory_footprint = report.sim.memory.peak() as f64 / table_bytes;

        // (b) Graph-approach SDDMM cache loads over the same batch.
        let pr = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global());
        let row_bytes = (spec.feature_dim * 4) as u64;
        let mut loaded = 0u64;
        let mut unique = 0u64;
        for layer in &pr.layers {
            let cache = edge_wise_cache(layer, row_bytes, dev.num_sms);
            loaded += cache.loaded_bytes();
            unique += cache.unique_rows() as u64 * row_bytes;
        }
        let cache_bloat = if unique == 0 {
            0.0
        } else {
            loaded as f64 / unique as f64 - 1.0
        };

        rows.push(Row {
            dataset: spec.name.to_string(),
            memory_footprint,
            cache_bloat,
        });
    }
    rows
}

/// Print both subfigures.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{:.2}x", r.memory_footprint),
                format!("+{:.1}%", r.cache_bloat * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig 6: framework challenges (paper: footprint 5.8x avg, cache +81.9% avg)",
        &["dataset", "6a DL mem footprint", "6b Graph cache bloat"],
        &table,
    );
    let gm = geomean(&rows.iter().map(|r| r.memory_footprint).collect::<Vec<_>>());
    let cb = rows.iter().map(|r| r.cache_bloat).sum::<f64>() / rows.len() as f64;
    println!(
        "average: footprint {gm:.2}x (paper 5.8x), cache bloat +{:.1}% (paper +81.9%)",
        cb * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_bloat_and_cache_bloat_are_positive() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(
                r.memory_footprint > 1.0,
                "{}: footprint {} should exceed the table itself",
                r.dataset,
                r.memory_footprint
            );
            assert!(r.cache_bloat >= 0.0, "{}", r.dataset);
        }
        // At least the skewed graphs must show real cache duplication.
        assert!(rows.iter().any(|r| r.cache_bloat > 0.2));
    }
}
