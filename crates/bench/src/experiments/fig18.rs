//! Fig 18 — DKP's impact on the two representative workloads: FLOPs and
//! global-memory accesses of Base-GT (static placement) normalized to
//! Dynamic-GT (paper: 5.4× more FLOPs, 1.4× more global accesses without
//! DKP, averaged over products and wiki-talk).

use crate::runner::{print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::trainer::GtVariant;

/// One (dataset, model) DKP-impact measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Base-GT FLOPs / Dynamic-GT FLOPs.
    pub flops_ratio: f64,
    /// Base-GT global bytes / Dynamic-GT global bytes.
    pub gmem_ratio: f64,
    /// Base-GT modeled GPU latency / Dynamic-GT latency.
    pub gpu_ratio: f64,
    /// Decisions (aggregation-first, combination-first) Dynamic-GT made.
    pub decisions: (usize, usize),
}

/// Measure FLOPs/global-access ratios.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for name in ["products", "wiki-talk"] {
        let spec = gt_datasets::by_name(name).unwrap();
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        for (mname, model) in [
            (
                "GCN",
                ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim),
            ),
            (
                "NGCF",
                ModelConfig::ngcf(cfg.layers, PAPER_HIDDEN, spec.out_dim),
            ),
        ] {
            let mut base = cfg.graphtensor(GtVariant::Base, model.clone());
            let rb = base.train_batch(&data, &batch);
            let mut dynamic = cfg.graphtensor(GtVariant::Dynamic, model.clone());
            // Calibrate, then measure a steady batch.
            for _ in 0..3 {
                dynamic.train_batch(&data, &batch);
            }
            let rd = dynamic.train_batch(&data, &batch);
            let sb = rb.sim.total_stats();
            let sd = rd.sim.total_stats();
            rows.push(Row {
                dataset: name.to_string(),
                model: mname.to_string(),
                flops_ratio: sb.flops as f64 / sd.flops.max(1) as f64,
                gmem_ratio: sb.global_bytes() as f64 / sd.global_bytes().max(1) as f64,
                gpu_ratio: rb.gpu_us() / rd.gpu_us().max(1e-9),
                decisions: dynamic.dkp_decisions(),
            });
        }
    }
    rows
}

/// Print the ratios.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.model.clone(),
                format!("{:.2}x", r.flops_ratio),
                format!("{:.2}x", r.gmem_ratio),
                format!("{:.2}x", r.gpu_ratio),
                format!("{}/{}", r.decisions.0, r.decisions.1),
            ]
        })
        .collect();
    print_table(
        "Fig 18: Base-GT work normalized to Dynamic-GT (paper avg: FLOPs 5.4x, global mem 1.4x; \
         here DKP optimizes latency, trading FLOPs for traffic — see EXPERIMENTS.md)",
        &[
            "dataset",
            "model",
            "FLOPs",
            "global mem",
            "latency",
            "AF/CF decisions",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dkp_saves_traffic_on_heavy_features() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        let wiki = rows
            .iter()
            .find(|r| r.dataset == "wiki-talk" && r.model == "GCN")
            .unwrap();
        // Combination-first slashes the memory-bound aggregation's traffic
        // (4353-dim gathers become 64-dim).
        assert!(
            wiki.gmem_ratio > 1.3,
            "no traffic saving on wiki-talk: {}x",
            wiki.gmem_ratio
        );
        // Dynamic actually chose combination-first somewhere.
        assert!(wiki.decisions.1 > 0, "no combination-first decisions");
    }

    #[test]
    fn dynamic_never_slower_than_base() {
        // DKP optimizes modeled latency: it may spend more FLOPs to save
        // memory traffic, but must never lose on latency (it can always
        // fall back to aggregation-first).
        let cfg = ExpConfig::test();
        for r in run(&cfg) {
            assert!(
                r.gpu_ratio > 0.98,
                "{} {}: Dynamic slower than Base ({}x)",
                r.dataset,
                r.model,
                r.gpu_ratio
            );
            assert!(r.flops_ratio.is_finite() && r.flops_ratio > 0.3);
        }
    }
}
