//! Fig 15 — GNN training (GPU kernel) latency across frameworks,
//! normalized to Base-GT: light-feature graphs (a) and heavy (b), for GCN
//! and NGCF.
//!
//! Like the paper, the static baselines are run in both the default
//! aggregation-first order and the hand-programmed combination-first order
//! (where valid); the reported value is their average, with the two
//! individual latencies kept as the error bar.

use crate::runner::{geomean, print_table, ExpConfig};
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::data::GraphData;
use gt_core::trainer::GtVariant;
use gt_datasets::DatasetSpec;

/// Which model a Fig 15 panel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Graph convolutional network (no edge weighting).
    Gcn,
    /// Neural graph collaborative filtering (edge weighting).
    Ngcf,
}

impl Model {
    fn config(self, layers: usize, out_dim: usize) -> ModelConfig {
        match self {
            Model::Gcn => ModelConfig::gcn(layers, PAPER_HIDDEN, out_dim),
            Model::Ngcf => ModelConfig::ngcf(layers, PAPER_HIDDEN, out_dim),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Model::Gcn => "GCN",
            Model::Ngcf => "NGCF",
        }
    }
}

/// One framework's measurement on one dataset.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Mean GPU latency, µs (avg of both orders for static baselines).
    pub mean_us: f64,
    /// (min, max) over the two static orders — the error bar.
    pub range_us: (f64, f64),
    /// Out-of-memory? (PyG/GNNAdvisor NGCF on livejournal in the paper.)
    pub oom: bool,
}

/// One dataset row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Heavy-feature workload?
    pub heavy: bool,
    /// DGL, PyG, GNNAdvisor, Base-GT, Dynamic-GT (in that order).
    pub cells: Vec<(String, Cell)>,
}

fn measure_baseline(
    cfg: &ExpConfig,
    kind: BaselineKind,
    model: &ModelConfig,
    data: &GraphData,
) -> Cell {
    let mut lats = Vec::new();
    let mut oom = false;
    let orders: &[bool] = if model.edge.is_some() {
        &[false] // combination-first is invalid under edge weighting
    } else {
        &[false, true]
    };
    for &comb_first in orders {
        let mut b = cfg.baseline(kind, model.clone());
        b.comb_first = comb_first;
        let reports = cfg.measure(&mut b, data, 0);
        oom |= reports.iter().any(|r| r.oom.is_some());
        lats.push(reports.iter().map(|r| r.gpu_us()).sum::<f64>() / reports.len() as f64);
    }
    let min = lats.iter().copied().fold(f64::INFINITY, f64::min);
    let max = lats.iter().copied().fold(0.0, f64::max);
    Cell {
        mean_us: lats.iter().sum::<f64>() / lats.len() as f64,
        range_us: (min, max),
        oom,
    }
}

fn measure_gt(cfg: &ExpConfig, variant: GtVariant, model: &ModelConfig, data: &GraphData) -> Cell {
    let mut t = cfg.graphtensor(variant, model.clone());
    // Warm through DKP calibration (3 batches) for Dynamic.
    let warmup = if variant == GtVariant::Base { 0 } else { 3 };
    let reports = cfg.measure(&mut t, data, warmup);
    let mean = reports.iter().map(|r| r.gpu_us()).sum::<f64>() / reports.len() as f64;
    Cell {
        mean_us: mean,
        range_us: (mean, mean),
        oom: reports.iter().any(|r| r.oom.is_some()),
    }
}

/// Run one panel (model) over the given datasets.
pub fn run(cfg: &ExpConfig, model: Model, specs: &[DatasetSpec]) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in specs {
        let data = cfg.build(spec);
        let mc = model.config(cfg.layers, spec.out_dim);
        let mut cells = Vec::new();
        for kind in [
            BaselineKind::Dgl,
            BaselineKind::Pyg,
            BaselineKind::GnnAdvisor,
        ] {
            cells.push((
                kind.label().to_string(),
                measure_baseline(cfg, kind, &mc, &data),
            ));
        }
        cells.push((
            "Base-GT".into(),
            measure_gt(cfg, GtVariant::Base, &mc, &data),
        ));
        cells.push((
            "Dynamic-GT".into(),
            measure_gt(cfg, GtVariant::Dynamic, &mc, &data),
        ));
        rows.push(Row {
            dataset: spec.name.to_string(),
            heavy: spec.heavy(),
            cells,
        });
    }
    rows
}

/// Normalized latency of framework `name` in a row (Base-GT = 1.0).
pub fn normalized(row: &Row, name: &str) -> f64 {
    let base = row
        .cells
        .iter()
        .find(|(n, _)| n == "Base-GT")
        .map(|(_, c)| c.mean_us)
        .expect("Base-GT measured");
    row.cells
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.mean_us / base)
        .unwrap_or(f64::NAN)
}

/// Print both panels for one model.
pub fn print(cfg: &ExpConfig, model: Model) {
    for (panel, specs) in [
        ("15a light", gt_datasets::light()),
        ("15b heavy", gt_datasets::heavy()),
    ] {
        let rows = run(cfg, model, &specs);
        let names: Vec<String> = rows[0].cells.iter().map(|(n, _)| n.clone()).collect();
        let mut header = vec!["dataset"];
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        header.extend(name_refs.iter());
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut cols = vec![r.dataset.clone()];
                for (n, c) in &r.cells {
                    if c.oom {
                        cols.push("OOM".into());
                    } else {
                        cols.push(format!("{:.2}", normalized(r, n)));
                    }
                }
                cols
            })
            .collect();
        print_table(
            &format!(
                "Fig {panel}: {} training latency normalized to Base-GT (paper: DGL≈1.5-1.6x, Dynamic-GT <1)",
                model.label()
            ),
            &header,
            &table,
        );
        for n in &names {
            let ratios: Vec<f64> = rows
                .iter()
                .filter(|r| !r.cells.iter().any(|(nn, c)| nn == n && c.oom))
                .map(|r| normalized(r, n))
                .collect();
            print!("  {n}: {:.2}x  ", geomean(&ratios));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_shapes_hold_on_light_graphs() {
        let cfg = ExpConfig::test();
        let specs = [gt_datasets::by_name("products").unwrap()];
        let rows = run(&cfg, Model::Gcn, &specs);
        let r = &rows[0];
        // DGL pays translation → worse than Base-GT.
        assert!(
            normalized(r, "DGL") > 1.1,
            "DGL {} not slower than Base-GT",
            normalized(r, "DGL")
        );
        // Dynamic-GT at least matches Base-GT.
        assert!(normalized(r, "Dynamic-GT") <= 1.05);
    }

    #[test]
    fn ngcf_punishes_dl_approach() {
        let cfg = ExpConfig::test();
        let specs = [gt_datasets::by_name("reddit2").unwrap()];
        let rows = run(&cfg, Model::Ngcf, &specs);
        let r = &rows[0];
        // Sparse2Dense on the weighting path makes PyG worse than Base-GT.
        assert!(
            normalized(r, "PyG") > 1.1,
            "PyG {} not slower on NGCF",
            normalized(r, "PyG")
        );
    }

    #[test]
    fn dynamic_gt_wins_on_heavy_features() {
        let cfg = ExpConfig::test();
        let specs = [gt_datasets::by_name("wiki-talk").unwrap()];
        let rows = run(&cfg, Model::Gcn, &specs);
        let r = &rows[0];
        assert!(
            normalized(r, "Dynamic-GT") < 0.9,
            "Dynamic-GT {} should beat Base-GT on 4353-dim features",
            normalized(r, "Dynamic-GT")
        );
    }
}
