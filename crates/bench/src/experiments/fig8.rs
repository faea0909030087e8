//! Fig 8 — degree distribution of original vs preprocessed (sampled)
//! graphs: sampled graphs have ~3.4× lower average degree and a much
//! tighter distribution, motivating feature-wise scheduling (§IV-B).

use crate::runner::{print_table, ExpConfig};
use gt_core::prepro::sample_and_reindex;
use gt_graph::{Coo, DegreeStats};
use gt_par::ThreadPool;

/// One dataset's degree comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Mean in-degree of the full graph.
    pub orig_mean: f64,
    /// Degree standard deviation of the full graph.
    pub orig_std: f64,
    /// Mean degree of the sampled (batch) graph.
    pub sampled_mean: f64,
    /// Degree standard deviation of the sampled graph.
    pub sampled_std: f64,
    /// Sampled-graph degree CDF points (for Fig 8b/8c curves).
    pub sampled_cdf: Vec<(usize, f64)>,
}

impl Row {
    /// orig/sampled mean-degree ratio (paper: 3.4× on average).
    pub fn ratio(&self) -> f64 {
        self.orig_mean / self.sampled_mean.max(1e-9)
    }
}

/// Measure degree statistics for every workload.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let orig = DegreeStats::of_csr_nonisolated(&data.graph);

        let batch = cfg.batch_ids(&data);
        let pr = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global());
        // Union of all hops in new-id space = "the preprocessed graph".
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for layer in &pr.layers {
            for (d, srcs) in layer.csr.iter() {
                for &s in srcs {
                    src.push(s);
                    dst.push(d);
                }
            }
        }
        let n = pr.new_to_orig.len();
        let coo = Coo::new(n, src, dst);
        let (csr, _) = gt_graph::convert::coo_to_csr(&coo);
        let sampled = DegreeStats::of_csr_nonisolated(&csr);

        rows.push(Row {
            dataset: spec.name.to_string(),
            orig_mean: orig.mean,
            orig_std: orig.std_dev,
            sampled_mean: sampled.mean,
            sampled_std: sampled.std_dev,
            sampled_cdf: sampled.cdf(),
        });
    }
    rows
}

/// Print Fig 8a plus CDF extracts for one light and one heavy graph.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{:.1} ± {:.1}", r.orig_mean, r.orig_std),
                format!("{:.1} ± {:.1}", r.sampled_mean, r.sampled_std),
                format!("{:.1}x", r.ratio()),
            ]
        })
        .collect();
    print_table(
        "Fig 8a: avg degree, original vs sampled (paper: 3.4x lower, near-even)",
        &["dataset", "original", "sampled", "ratio"],
        &table,
    );
    let avg: f64 = rows.iter().map(|r| r.ratio()).sum::<f64>() / rows.len() as f64;
    println!("average degree ratio: {avg:.1}x (paper 3.4x)");
    for name in ["products", "wiki-talk"] {
        if let Some(r) = rows.iter().find(|r| r.dataset == name) {
            let pts: Vec<String> = [0.5, 0.9, 0.99]
                .iter()
                .map(|&q| {
                    let k = r
                        .sampled_cdf
                        .iter()
                        .find(|(_, p)| *p >= q)
                        .map(|(k, _)| *k)
                        .unwrap_or(0);
                    format!("P{:.0}≤{k}", q * 100.0)
                })
                .collect();
            println!(
                "Fig 8b/c ({name}) sampled-degree quantiles: {}",
                pts.join(" ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_flattens_degrees() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        // Power-law originals must be far more skewed than sampled graphs.
        let products = rows.iter().find(|r| r.dataset == "products").unwrap();
        // The sampled union spans `layers` hops; each hop adds at most
        // fanout+1 in-edges per destination.
        let bound = (cfg.layers * (cfg.fanout + 1)) as f64;
        assert!(
            products.sampled_mean <= bound,
            "sampled mean {} exceeds {bound}",
            products.sampled_mean
        );
        assert!(products.orig_std > products.sampled_std);
        assert!(products.ratio() > 1.0);
    }

    #[test]
    fn cdf_terminates_at_one() {
        let cfg = ExpConfig::test();
        for r in run(&cfg) {
            let last = r.sampled_cdf.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "{}", r.dataset);
        }
    }
}
