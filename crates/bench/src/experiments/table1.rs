//! Table I — the DKP cost model: fitted coefficients and residual error.
//!
//! The paper fits the coefficients by least squares over kernel latencies
//! measured in the first epoch and reports a 12.5% prediction error. Here
//! we calibrate Dynamic-GT on one light and one heavy workload and report
//! the fitted coefficients, the residual MAPE, and each layer's placement
//! decision with its predicted costs.

use crate::runner::{print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::framework::Framework;
use gt_core::orchestrator::{CostModel, Dims};
use gt_core::prepro::run_prepro;
use gt_core::trainer::GtVariant;

/// The calibration result.
#[derive(Debug)]
pub struct Result {
    /// Fitted `[c0, c1, c2, c3]`.
    pub coefficients: [f64; 4],
    /// Residual MAPE of the fit (paper: 12.5%).
    pub fit_error: f64,
    /// Number of calibration samples.
    pub samples: usize,
    /// Per-layer decisions: (dataset, layer, dims, af cost, cf cost).
    pub decisions: Vec<(String, usize, Dims, f64, f64)>,
}

/// Calibrate and report.
pub fn run(cfg: &ExpConfig) -> Result {
    // Calibrate on a mix of light and heavy kernels so the fit covers both
    // memory- and compute-bound regimes.
    let spec_light = gt_datasets::by_name("products").unwrap();
    let spec_heavy = gt_datasets::by_name("wiki-talk").unwrap();
    let data_l = cfg.build(&spec_light);
    let data_h = cfg.build(&spec_heavy);
    let mut t = cfg.graphtensor(
        GtVariant::Dynamic,
        ModelConfig::gcn(cfg.layers, 64, spec_light.out_dim),
    );
    t.calibration_batches = 4;
    let bl = cfg.batch_ids(&data_l);
    for _ in 0..2 {
        t.train_batch(&data_l, &bl);
    }
    // Coefficients are fitted per training run (§V-A), so the heavy
    // workload gets its own calibrated trainer; the summary reports the
    // light trainer's fit and each workload's decisions use its own model.
    let mut th = cfg.graphtensor(
        GtVariant::Dynamic,
        ModelConfig::gcn(cfg.layers, 64, spec_heavy.out_dim),
    );
    th.calibration_batches = 4;
    let bh = cfg.batch_ids(&data_h);
    for _ in 0..2 {
        t.train_batch(&data_l, &bl);
        th.train_batch(&data_h, &bh);
    }
    let err = t.cost_model().fit_error().unwrap_or(0.0);
    let coefficients = t.cost_model().coefficients();
    let samples = t.cost_model().num_samples();

    // Decision rows from fresh preprocessing of both datasets, each priced
    // by the trainer calibrated on that workload (as DKP does in practice:
    // coefficients are fitted per training run, §V-A).
    let mut decisions = Vec::new();
    for (spec, data, trainer) in [(&spec_light, &data_l, &t), (&spec_heavy, &data_h, &th)] {
        let pr = run_prepro(data, &cfg.batch_ids(data), &cfg.sampler());
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
            let model: &CostModel = trainer.cost_model();
            decisions.push((
                spec.name.to_string(),
                l + 1,
                dims,
                model.cost_aggregation_first(&dims, l > 0),
                model.cost_combination_first(&dims, l > 0),
            ));
            n_feat = n_hid;
        }
    }
    Result {
        coefficients,
        fit_error: err,
        samples,
        decisions,
    }
}

/// Print the calibration summary.
pub fn print(cfg: &ExpConfig) {
    let r = run(cfg);
    println!("\n== Table I: DKP cost model ==");
    println!(
        "fitted coefficients: c0={:.3}us c1={:.3e} c2={:.3e} c3={:.3e} ({} samples)",
        r.coefficients[0], r.coefficients[1], r.coefficients[2], r.coefficients[3], r.samples
    );
    println!(
        "fit residual (MAPE): {:.1}%  (paper reports 12.5%)",
        r.fit_error * 100.0
    );
    let table: Vec<Vec<String>> = r
        .decisions
        .iter()
        .map(|(ds, l, d, af, cf)| {
            vec![
                ds.clone(),
                format!("L{l}"),
                format!("{}x{}→{}", d.n_src, d.n_feat, d.n_hid),
                format!("{af:.0}us"),
                format!("{cf:.0}us"),
                if cf < af { "comb-first" } else { "agg-first" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "per-layer predicted costs and decisions",
        &[
            "dataset",
            "layer",
            "shape",
            "agg-first",
            "comb-first",
            "choice",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_converges_with_low_error() {
        let cfg = ExpConfig::test();
        let r = run(&cfg);
        assert!(r.samples >= 6);
        assert!(
            r.fit_error < 0.40,
            "fit error {:.1}% too high (paper 12.5%)",
            r.fit_error * 100.0
        );
        // The active-set fit keeps rates non-negative; on launch-dominated
        // tiny kernels it may pin individual terms to zero, but something
        // must carry the signal.
        assert!(
            r.coefficients.iter().all(|&c| c >= 0.0),
            "{:?}",
            r.coefficients
        );
        assert!(
            r.coefficients[1..].iter().any(|&c| c > 0.0),
            "all work rates zero: {:?}",
            r.coefficients
        );
    }

    #[test]
    fn heavy_layer1_prefers_combination_first() {
        let cfg = ExpConfig::test();
        let r = run(&cfg);
        let wiki_l1 = r
            .decisions
            .iter()
            .find(|(ds, l, ..)| ds == "wiki-talk" && *l == 1)
            .unwrap();
        assert!(
            wiki_l1.4 < wiki_l1.3,
            "wiki-talk L1 should prefer combination-first ({} !< {})",
            wiki_l1.4,
            wiki_l1.3
        );
    }
}
