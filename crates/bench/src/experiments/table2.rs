//! Table II — workload characteristics: full-graph shape, sampled-graph
//! shape, lookup output size, and task output dimension, regenerated at
//! the configured scale with the paper's numbers printed for reference.

use crate::runner::{print_table, ExpConfig};
use gt_core::prepro::sample_and_reindex;
use gt_par::ThreadPool;

/// One workload's measured characteristics.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Generated full-graph vertices.
    pub vertices: usize,
    /// Generated full-graph edges.
    pub edges: usize,
    /// Feature dimension (paper-exact).
    pub feature_dim: usize,
    /// Sampled unique vertices per batch.
    pub sampled_vertices: usize,
    /// Sampled edges per batch (all hops).
    pub sampled_edges: usize,
    /// Destination vertices across hops.
    pub dst_vertices: usize,
    /// Lookup output size in bytes.
    pub output_bytes: u64,
    /// Task output dimension (paper-exact).
    pub out_dim: usize,
}

impl Row {
    /// Sampled edges per vertex (paper: 1.3–4.9).
    pub fn edges_per_vertex(&self) -> f64 {
        self.sampled_edges as f64 / self.sampled_vertices.max(1) as f64
    }
}

/// Measure all ten workloads.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        let pr = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global());
        let sampled_edges: usize = pr.layers.iter().map(|l| l.csr.num_edges()).sum();
        // Dst vertices = id space of the second-to-last boundary (every
        // node that is a destination in some hop).
        let dst_vertices = pr.boundaries[pr.boundaries.len() - 2];
        rows.push(Row {
            dataset: spec.name.to_string(),
            vertices: data.num_vertices(),
            edges: data.graph.num_edges(),
            feature_dim: spec.feature_dim,
            sampled_vertices: pr.new_to_orig.len(),
            sampled_edges,
            dst_vertices,
            output_bytes: pr.work.total_feature_bytes,
            out_dim: spec.out_dim,
        });
    }
    rows
}

/// Print the table.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{}", r.vertices),
                format!("{}", r.edges),
                format!("{}", r.feature_dim),
                format!("{}", r.sampled_vertices),
                format!("{}", r.sampled_edges),
                format!("{}", r.dst_vertices),
                format!("{:.1}", r.edges_per_vertex()),
                format!("{:.1}MB", r.output_bytes as f64 / 1e6),
                format!("{}", r.out_dim),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table II at scale ÷{} (paper sampled edges/vertex: 1.3-4.9; feature/out dims exact)",
            match cfg.scale {
                gt_datasets::Scale::Test => 2000,
                gt_datasets::Scale::Small => 200,
                gt_datasets::Scale::Medium => 20,
                gt_datasets::Scale::Custom(d) => d,
            }
        ),
        &[
            "dataset", "vertices", "edges", "feat", "s.vert", "s.edges", "s.dst", "e/v",
            "out size", "out dim",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_graphs_have_low_even_degree() {
        let cfg = ExpConfig::test();
        for r in run(&cfg) {
            let epv = r.edges_per_vertex();
            let bound = (cfg.layers * (cfg.fanout + 1)) as f64;
            assert!(
                epv >= 1.0 && epv <= bound,
                "{}: edges/vertex {epv} out of range (bound {bound})",
                r.dataset
            );
            assert!(r.dst_vertices <= r.sampled_vertices);
            assert_eq!(
                r.output_bytes,
                (r.sampled_vertices * r.feature_dim * 4) as u64
            );
        }
    }

    #[test]
    fn dims_are_paper_exact() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        let wiki = rows.iter().find(|r| r.dataset == "wiki-talk").unwrap();
        assert_eq!(wiki.feature_dim, 4353);
        assert_eq!(wiki.out_dim, 2);
        let products = rows.iter().find(|r| r.dataset == "products").unwrap();
        assert_eq!(products.feature_dim, 100);
        assert_eq!(products.out_dim, 47);
    }
}
