//! Fig 19 — end-to-end latency (preprocessing + training) across PyG-MT,
//! DGL, SALIENT, Dynamic-GT, and Prepro-GT, normalized to Dynamic-GT.
//!
//! Paper: SALIENT cuts 19.7% (light) / 51.1% (heavy) off Dynamic-GT via
//! pinned transfers; Prepro-GT's service-wide tensor scheduler is another
//! 1.7× beyond that, on average.

use crate::runner::{geomean, print_table, ExpConfig};
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::trainer::GtVariant;
use gt_datasets::DatasetSpec;

/// One dataset's end-to-end measurements (µs per batch, steady state).
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Heavy-feature workload?
    pub heavy: bool,
    /// (framework, e2e µs).
    pub e2e: Vec<(String, f64)>,
}

impl Row {
    /// e2e latency of one framework.
    pub fn get(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    }

    /// Normalized to Dynamic-GT.
    pub fn normalized(&self, name: &str) -> f64 {
        self.get(name) / self.get("Dynamic-GT")
    }
}

/// Run Fig 19 over the given datasets with GCN.
pub fn run(cfg: &ExpConfig, specs: &[DatasetSpec]) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in specs {
        let data = cfg.build(spec);
        let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        let mut e2e = Vec::new();
        for kind in [
            BaselineKind::PygMt,
            BaselineKind::Dgl,
            BaselineKind::Salient,
        ] {
            let mut b = cfg.baseline(kind, model.clone());
            let overlap = b.overlaps_batches();
            let reports = cfg.measure(&mut b, &data, 0);
            let mean =
                reports.iter().map(|r| r.e2e_us(overlap)).sum::<f64>() / reports.len() as f64;
            e2e.push((kind.label().to_string(), mean));
        }
        for variant in [GtVariant::Dynamic, GtVariant::Prepro] {
            let mut t = cfg.graphtensor(variant, model.clone());
            let overlap = t.overlaps_batches();
            let reports = cfg.measure(&mut t, &data, 3);
            let mean =
                reports.iter().map(|r| r.e2e_us(overlap)).sum::<f64>() / reports.len() as f64;
            e2e.push((t.name(), mean));
        }
        rows.push(Row {
            dataset: spec.name.to_string(),
            heavy: spec.heavy(),
            e2e,
        });
    }
    rows
}

/// Print both panels.
pub fn print(cfg: &ExpConfig) {
    for (panel, specs) in [
        ("light", gt_datasets::light()),
        ("heavy", gt_datasets::heavy()),
    ] {
        let rows = run(cfg, &specs);
        let names: Vec<String> = rows[0].e2e.iter().map(|(n, _)| n.clone()).collect();
        let mut header = vec!["dataset"];
        header.extend(names.iter().map(|s| s.as_str()));
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut cols = vec![r.dataset.clone()];
                cols.extend(names.iter().map(|n| format!("{:.2}", r.normalized(n))));
                cols
            })
            .collect();
        print_table(
            &format!("Fig 19 ({panel}): end-to-end latency normalized to Dynamic-GT (paper: Prepro-GT ≈1.7x better than SALIENT)"),
            &header,
            &table,
        );
        let prepro: Vec<f64> = rows.iter().map(|r| r.normalized("Prepro-GT")).collect();
        let salient: Vec<f64> = rows.iter().map(|r| r.normalized("SALIENT")).collect();
        println!(
            "  geomean: SALIENT {:.2}, Prepro-GT {:.2} → Prepro-GT/SALIENT gain {:.2}x",
            geomean(&salient),
            geomean(&prepro),
            geomean(&salient) / geomean(&prepro)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_ordering_holds() {
        let mut cfg = ExpConfig::test();
        cfg.batch = 120; // enough work that scheduling differences dominate
        let specs = [gt_datasets::by_name("reddit2").unwrap()];
        let rows = run(&cfg, &specs);
        let r = &rows[0];
        // Prepro-GT is the best end-to-end.
        for other in ["PyG-MT", "DGL", "SALIENT", "Dynamic-GT"] {
            assert!(
                r.get("Prepro-GT") <= r.get(other) * 1.001,
                "Prepro-GT {} !<= {other} {}",
                r.get("Prepro-GT"),
                r.get(other)
            );
        }
        // Non-overlapping PyG-MT cannot beat the best overlapped system.
        assert!(r.get("PyG-MT") > r.get("Prepro-GT"));
    }

    #[test]
    fn salient_pinned_prepro_beats_pageable() {
        // SALIENT's advantage is preprocessing (pinned + overlap); its
        // PyG-derived kernels can still lose on compute, so the pinned
        // claim is asserted on preprocessing directly.
        let mut cfg = ExpConfig::test();
        cfg.batch = 120;
        let spec = gt_datasets::by_name("gowalla").unwrap();
        let data = cfg.build(&spec);
        let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        let mut sal = cfg.baseline(BaselineKind::Salient, model.clone());
        let mut t = cfg.graphtensor(GtVariant::Dynamic, model);
        let rs = cfg.measure(&mut sal, &data, 0);
        let rd = cfg.measure(&mut t, &data, 0);
        assert!(
            rs[0].prepro_us() < rd[0].prepro_us(),
            "SALIENT prepro {} !< Dynamic-GT prepro {}",
            rs[0].prepro_us(),
            rd[0].prepro_us()
        );
    }
}
