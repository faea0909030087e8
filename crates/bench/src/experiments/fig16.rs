//! Fig 16 — training-latency decomposition for the two representative
//! workloads (products = light, wiki-talk = heavy): aggregation, edge
//! weighting, combination, sparse→dense conversion, format translation.

use crate::runner::{pct, print_table, ExpConfig};
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::trainer::GtVariant;
use gt_sim::Phase;

/// Decomposition of one (framework, model, dataset) run, in µs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Framework name.
    pub framework: String,
    /// Model name ("GCN"/"NGCF").
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// (phase, µs) for the five Fig 16 phases.
    pub phases: Vec<(Phase, f64)>,
}

impl Row {
    /// Total across the decomposed phases.
    pub fn total_us(&self) -> f64 {
        self.phases.iter().map(|(_, us)| us).sum()
    }

    /// µs of one phase.
    pub fn phase_us(&self, p: Phase) -> f64 {
        self.phases
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, us)| *us)
            .unwrap_or(0.0)
    }

    /// Fraction of one phase.
    pub fn share(&self, p: Phase) -> f64 {
        self.phase_us(p) / self.total_us()
    }
}

const PHASES: [Phase; 5] = [
    Phase::Aggregation,
    Phase::EdgeWeighting,
    Phase::Combination,
    Phase::Sparse2Dense,
    Phase::FormatTranslation,
];

/// Measure the decomposition for both representative workloads.
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
            for kind in [BaselineKind::Dgl, BaselineKind::Pyg] {
                let mut b = cfg.baseline(kind, model.clone());
                let r = b.train_batch(&data, &batch);
                rows.push(Row {
                    framework: kind.label().to_string(),
                    model: mname.to_string(),
                    dataset: name.to_string(),
                    phases: PHASES.iter().map(|&p| (p, r.phase_us(p))).collect(),
                });
            }
            let mut t = cfg.graphtensor(GtVariant::Base, model.clone());
            let r = t.train_batch(&data, &batch);
            rows.push(Row {
                framework: "Base-GT".to_string(),
                model: mname.to_string(),
                dataset: name.to_string(),
                phases: PHASES.iter().map(|&p| (p, r.phase_us(p))).collect(),
            });
        }
    }
    rows
}

/// Print the decomposition.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.model.clone(),
                r.framework.clone(),
                pct(r.share(Phase::Aggregation)),
                pct(r.share(Phase::EdgeWeighting)),
                pct(r.share(Phase::Combination)),
                pct(r.share(Phase::Sparse2Dense)),
                pct(r.share(Phase::FormatTranslation)),
                format!("{:.0}us", r.total_us()),
            ]
        })
        .collect();
    print_table(
        "Fig 16: latency decomposition (paper: DGL GCN products ≈64.5% translation; PyG NGCF heavy ≈32.3% s2d)",
        &["dataset", "model", "framework", "aggr", "edgew", "comb", "s2d", "fmt", "total"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        run(&ExpConfig::test())
    }

    #[test]
    fn dgl_translation_dominates_light_gcn() {
        let rows = rows();
        let dgl = rows
            .iter()
            .find(|r| r.framework == "DGL" && r.model == "GCN" && r.dataset == "products")
            .unwrap();
        assert!(
            dgl.share(Phase::FormatTranslation) > 0.3,
            "translation share {} too small",
            dgl.share(Phase::FormatTranslation)
        );
        // Heavy features amortize the translation (§VI-A).
        let heavy = rows
            .iter()
            .find(|r| r.framework == "DGL" && r.model == "GCN" && r.dataset == "wiki-talk")
            .unwrap();
        assert!(heavy.share(Phase::FormatTranslation) < dgl.share(Phase::FormatTranslation));
    }

    #[test]
    fn pyg_ngcf_pays_sparse2dense() {
        let rows = rows();
        let pyg = rows
            .iter()
            .find(|r| r.framework == "PyG" && r.model == "NGCF" && r.dataset == "wiki-talk")
            .unwrap();
        assert!(pyg.share(Phase::Sparse2Dense) > 0.1);
    }

    #[test]
    fn base_gt_has_no_overhead_phases() {
        for r in rows().iter().filter(|r| r.framework == "Base-GT") {
            assert_eq!(r.phase_us(Phase::Sparse2Dense), 0.0);
            assert_eq!(r.phase_us(Phase::FormatTranslation), 0.0);
        }
    }
}
