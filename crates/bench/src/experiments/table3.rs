//! Table III — qualitative comparison across GNN frameworks.
//!
//! Rows for the frameworks implemented in this repo (PyG, GNNAdvisor, DGL,
//! ROC, GraphTensor) come from their live
//! [`gt_core::framework::FrameworkTraits`]; the frameworks the paper cites
//! but this repo does not implement (NeuGraph, FlexGraph, FeatGraph, G3)
//! are reproduced as the paper states them.

use crate::runner::print_table;
use gt_baselines::BaselineKind;
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::{Framework, FrameworkTraits};
use gt_core::trainer::GtVariant;
use gt_sim::SystemSpec;

/// One Table-III row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Framework name.
    pub name: String,
    /// "DL", "Graph", or "Ours".
    pub group: &'static str,
    /// The trait flags.
    pub traits: FrameworkTraits,
    /// Whether this row is measured from a live implementation.
    pub implemented: bool,
}

/// Assemble all rows.
pub fn run() -> Vec<Row> {
    let model = ModelConfig::gcn(2, PAPER_HIDDEN, 4);
    let sys = SystemSpec::paper_testbed();
    let mut rows = Vec::new();
    for (kind, group) in [
        (BaselineKind::Pyg, "DL"),
        (BaselineKind::GnnAdvisor, "DL"),
        (BaselineKind::Dgl, "Graph"),
        (BaselineKind::Roc, "Graph"),
    ] {
        let b = gt_baselines::Baseline::new(kind, model.clone(), sys.clone());
        rows.push(Row {
            name: b.name(),
            group,
            traits: b.traits(),
            implemented: true,
        });
    }
    // Paper-stated rows for frameworks not implemented here.
    let stated = |name: &str, group, fmt, mb, ft, cb, po| Row {
        name: name.to_string(),
        group,
        traits: FrameworkTraits {
            initial_format: fmt,
            memory_bloat: mb,
            format_translation: ft,
            cache_bloat: cb,
            prepro_overhead: po,
        },
        implemented: false,
    };
    rows.insert(1, stated("NeuGraph", "DL", "CSR", true, false, true, 'O'));
    rows.insert(3, stated("FlexGraph", "DL", "CSR", true, false, true, 'O'));
    rows.push(stated("FeatGraph", "Graph", "COO", false, true, true, 'D'));
    rows.push(stated("G3", "Graph", "COO", false, true, true, 'O'));
    let gt = gt_core::trainer::GraphTensor::new(GtVariant::Prepro, model, sys);
    rows.push(Row {
        name: "GraphTensor".to_string(),
        group: "Ours",
        traits: gt.traits(),
        implemented: true,
    });
    rows
}

fn mark(b: bool) -> &'static str {
    if b {
        "O"
    } else {
        "X"
    }
}

/// Print the table.
pub fn print() {
    let rows = run();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.to_string(),
                format!("{}{}", r.name, if r.implemented { " *" } else { "" }),
                r.traits.initial_format.to_string(),
                mark(r.traits.memory_bloat).to_string(),
                mark(r.traits.format_translation).to_string(),
                mark(r.traits.cache_bloat).to_string(),
                r.traits.prepro_overhead.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table III: framework comparison (O = suffers, X = free, D = partial; * = implemented & measured in this repo)",
        &["group", "framework", "format", "mem bloat", "fmt trans", "cache bloat", "prepro"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphtensor_is_the_only_all_clear_row() {
        let rows = run();
        let gt = rows.iter().find(|r| r.name == "GraphTensor").unwrap();
        assert!(!gt.traits.memory_bloat);
        assert!(!gt.traits.format_translation);
        assert!(!gt.traits.cache_bloat);
        assert_eq!(gt.traits.prepro_overhead, 'X');
        for r in rows.iter().filter(|r| r.name != "GraphTensor") {
            let clean = !r.traits.memory_bloat
                && !r.traits.format_translation
                && !r.traits.cache_bloat
                && r.traits.prepro_overhead == 'X';
            assert!(!clean, "{} should not be all-clear", r.name);
        }
    }

    #[test]
    fn nine_rows_like_the_paper() {
        assert_eq!(run().len(), 9);
    }
}
