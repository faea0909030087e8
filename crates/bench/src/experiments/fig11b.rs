//! Fig 11b — motivation for DKP: per-layer input-tensor size change when
//! the combination runs before the aggregation.
//!
//! The metric is the total data volume the (aggregation, combination) pair
//! processes: aggregation-first touches `E·F + n_dst·F` elements; running
//! the combination first touches `n_src·F + E·H`. The paper finds
//! wiki-talk's layers shrink by 31.7% on average while other layers can
//! prefer the conventional order.

use crate::runner::{pct, print_table, ExpConfig};
use gt_core::config::PAPER_HIDDEN;
use gt_core::orchestrator::Dims;
use gt_core::prepro::run_prepro;

/// One layer's reduction measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// GNN layer index (execution order).
    pub layer: usize,
    /// The layer's dimensionality.
    pub dims: Dims,
    /// Relative input-volume change of combination-first (positive =
    /// smaller).
    pub reduction: f64,
}

/// Input elements processed by the pair under each order.
fn volumes(d: &Dims) -> (f64, f64) {
    let agg_first = (d.n_edges * d.n_feat + d.n_dst * d.n_feat) as f64;
    let comb_first = (d.n_src * d.n_feat + d.n_edges * d.n_hid) as f64;
    (agg_first, comb_first)
}

/// Measure per-layer reductions for every workload.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        let pr = run_prepro(&data, &batch, &cfg.sampler());
        let mut n_feat = spec.feature_dim;
        for (l, layer) in pr.layers.iter().enumerate() {
            let n_hid = if l + 1 == pr.layers.len() {
                spec.out_dim
            } else {
                PAPER_HIDDEN
            };
            let dims = Dims {
                n_src: layer.num_src,
                n_dst: layer.num_dst,
                n_edges: layer.csr.num_edges(),
                n_feat,
                n_hid,
            };
            let (af, cf) = volumes(&dims);
            rows.push(Row {
                dataset: spec.name.to_string(),
                layer: l + 1,
                dims,
                reduction: 1.0 - cf / af,
            });
            n_feat = n_hid;
        }
    }
    rows
}

/// Print the per-layer reductions.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("L{}", r.layer),
                format!("{}→{}", r.dims.n_feat, r.dims.n_hid),
                pct(r.reduction),
            ]
        })
        .collect();
    print_table(
        "Fig 11b: input-volume reduction of combination-first (paper: wiki-talk ≈31.7% avg; others mixed)",
        &["dataset", "layer", "width", "reduction"],
        &table,
    );
    let wiki: Vec<f64> = rows
        .iter()
        .filter(|r| r.dataset == "wiki-talk")
        .map(|r| r.reduction)
        .collect();
    let avg = wiki.iter().sum::<f64>() / wiki.len().max(1) as f64;
    println!("wiki-talk average: {} (paper ≈31.7%)", pct(avg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_first_layers_reduce_light_last_layers_grow() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        // Heavy features (4353 → 64) shrink hugely at layer 1. The exact
        // ratio depends on the sampled subgraph's E/n_src ratio, which
        // wobbles with the sampler stream — assert a margin well clear of
        // that noise rather than a knife-edge 0.5.
        let wiki1 = rows
            .iter()
            .find(|r| r.dataset == "wiki-talk" && r.layer == 1)
            .unwrap();
        assert!(wiki1.reduction > 0.4, "got {}", wiki1.reduction);
        // products layer 2 (64 → 47) barely reduces width but multiplies
        // rows — combination-first should NOT reduce the volume much.
        let prod2 = rows
            .iter()
            .find(|r| r.dataset == "products" && r.layer == 2)
            .unwrap();
        assert!(prod2.reduction < wiki1.reduction);
    }

    #[test]
    fn every_layer_measured() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 10 * cfg.layers);
    }
}
