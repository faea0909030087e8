//! The DKP cost model (§V-A, Table I).
//!
//! Kernel latency is modeled as an affine function of three work terms:
//!
//! ```text
//! latency ≈ c₀ + c₁·agg_work + c₂·comb_flops + c₃·comb_mem
//! ```
//!
//! * `agg_work` — edge·width products of the aggregation (memory-bound
//!   gather traffic);
//! * `comb_flops` — row·in·out products of the combination's MatMul;
//! * `comb_mem` — row·(in+out) elements the MatMul streams; at GNN layer
//!   shapes MatMuls are usually *memory*-bound, so this term is what makes
//!   the model prefer aggregation-first when the width barely shrinks.
//!
//! Placement economics (Fig 11a): aggregation-first shrinks the MatMul's
//! rows from `n_src` to `n_dst`; combination-first shrinks the aggregation's
//! width from `n_feat` to `n_hid`. BWP mirrors FWP; for the *first* GNN
//! layer (executed last in BWP) aggregation-first skips the aggregation
//! backward entirely, because input features need no gradient — "the
//! aggregation-first's BWP does not need to perform aggregation's BWP for
//! calculating the gradient for MLP parameters".
//!
//! Coefficients start from device-derived defaults and are refined by
//! least-squares over kernel latencies measured during the first training
//! epoch, exactly as §V-A describes; the paper reports 12.5% residual error.

use gt_sim::DeviceSpec;
use gt_tensor::lstsq::{mape, try_lstsq};
use parking_lot::{Mutex, RwLock};

/// Layer dimensionality, the cost model's input (Fig 11a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Source vertices feeding the layer.
    pub n_src: usize,
    /// Destination vertices the layer produces.
    pub n_dst: usize,
    /// Edges in the layer's subgraph.
    pub n_edges: usize,
    /// Input feature dimension.
    pub n_feat: usize,
    /// Hidden (output) dimension of the layer's MLP.
    pub n_hid: usize,
}

/// The two kernel orders DKP chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Aggregate (Pull) first, then combine (MatMul) — the static default
    /// of DGL/PyG/GNNAdvisor.
    AggregationFirst,
    /// Combine first, then aggregate in the hidden dimension.
    CombinationFirst,
}

impl Placement {
    /// Stable label for logs and structured events.
    pub fn label(self) -> &'static str {
        match self {
            Placement::AggregationFirst => "aggregation_first",
            Placement::CombinationFirst => "combination_first",
        }
    }
}

/// Work terms of one combination kernel: `rows×f·h` over `passes` passes.
fn comb_terms(rows: usize, f: usize, h: usize, passes: usize) -> (f64, f64) {
    let flops = (rows * f * h * passes) as f64;
    let mem = (rows * (f + h) * passes) as f64;
    (flops, mem)
}

/// One calibration observation: `[1, agg, comb_flops, comb_mem] → µs`.
type Sample = ([f64; 4], f64);

/// Observation vector of a sample set.
fn b_vec(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|(_, y)| *y).collect()
}

/// The fitted latency model shared by all Cost-DKP nodes of a trainer.
#[derive(Debug)]
pub struct CostModel {
    /// `[c0, c1, c2, c3]` (µs, µs/agg-unit, µs/flop-unit, µs/mem-unit).
    coef: RwLock<[f64; 4]>,
    samples: Mutex<Vec<Sample>>,
    /// Fit residual (MAPE) of the last calibration, if any.
    fit_error: RwLock<Option<f64>>,
    /// Latched when a fit came back singular: the model stops trusting its
    /// (device-seeded, uncalibrated) coefficients and [`CostModel::decide`]
    /// degrades to the static aggregation-first placement every framework
    /// defaults to.
    static_fallback: RwLock<bool>,
}

impl CostModel {
    /// Seed coefficients from the device's roofline: aggregation gathers
    /// ≈8 bytes/unit; combination does 2 FLOPs/flop-unit and streams
    /// ≈4 bytes/mem-unit.
    pub fn from_device(dev: &DeviceSpec) -> Self {
        let bw = dev.effective_bw_per_us(false);
        CostModel {
            coef: RwLock::new([
                dev.kernel_launch_us,
                8.0 / bw,
                2.0 / (dev.peak_flops / 1.0e6),
                4.0 / bw,
            ]),
            samples: Mutex::new(Vec::new()),
            fit_error: RwLock::new(None),
            static_fallback: RwLock::new(false),
        }
    }

    /// Current coefficients.
    pub fn coefficients(&self) -> [f64; 4] {
        *self.coef.read()
    }

    /// Predicted latency (µs) for the given work terms.
    pub fn predict(&self, agg_work: f64, comb_flops: f64, comb_mem: f64) -> f64 {
        let c = self.coef.read();
        c[0] + c[1] * agg_work + c[2] * comb_flops + c[3] * comb_mem
    }

    /// Record a measured aggregation kernel (first-epoch calibration).
    pub fn record_agg_sample(&self, agg_work: f64, latency_us: f64) {
        self.samples
            .lock()
            .push(([1.0, agg_work, 0.0, 0.0], latency_us));
    }

    /// Record a measured combination kernel.
    pub fn record_comb_sample(
        &self,
        rows: usize,
        f: usize,
        h: usize,
        passes: usize,
        latency_us: f64,
    ) {
        let (flops, mem) = comb_terms(rows, f, h, passes);
        self.samples
            .lock()
            .push(([1.0, 0.0, flops, mem], latency_us));
    }

    /// Number of recorded calibration samples.
    pub fn num_samples(&self) -> usize {
        self.samples.lock().len()
    }

    /// Discard all calibration samples (start of a drift-refit collection
    /// window: the stale epoch's samples must not outvote the fresh ones).
    pub fn clear_samples(&self) {
        self.samples.lock().clear();
    }

    /// Replace the coefficients wholesale. An ops/test hook — production
    /// refits go through [`CostModel::fit`], which also validates the
    /// system's conditioning. Leaves `fit_error` untouched.
    pub fn set_coefficients(&self, coef: [f64; 4]) {
        *self.coef.write() = coef;
    }

    /// Least-squares refit over recorded samples; returns the residual MAPE.
    /// Keeps prior coefficients if the system is singular or underdetermined.
    ///
    /// Coefficients are work rates, so they must be non-negative: a plain
    /// OLS fit over correlated features can go negative and then predict
    /// negative latencies when extrapolated to large layers. We apply the
    /// standard active-set trick: fit, and while any work coefficient is
    /// negative, pin it to zero and refit the rest.
    pub fn fit(&self) -> Option<f64> {
        let samples = self.samples.lock();
        if samples.len() < 6 {
            return None;
        }
        let mut active = [true; 4]; // c0 may stay free; work terms 1..4
        let coef = loop {
            let cols: Vec<usize> = (0..4).filter(|&i| active[i]).collect();
            if cols.is_empty() {
                *self.static_fallback.write() = true;
                return None;
            }
            let mut a = Vec::with_capacity(samples.len() * cols.len());
            let mut b = Vec::with_capacity(samples.len());
            for (row, y) in samples.iter() {
                for &c in &cols {
                    a.push(row[c]);
                }
                b.push(*y);
            }
            let partial = match try_lstsq(&a, cols.len(), &b) {
                Ok(c) => c,
                Err(_) => {
                    // Rank-deficient calibration (e.g. every sample saw the
                    // same layer shape). Rather than trust coefficients we
                    // could not fit, pin DKP to the static placement.
                    *self.static_fallback.write() = true;
                    return None;
                }
            };
            let mut full = [0.0f64; 4];
            for (k, &c) in cols.iter().enumerate() {
                full[c] = partial[k];
            }
            // Pin the most negative work coefficient (indices 1..4) to 0.
            let worst = (1..4)
                .filter(|&i| active[i] && full[i] < 0.0)
                .min_by(|&i, &j| full[i].total_cmp(&full[j]));
            match worst {
                Some(i) => active[i] = false,
                None => break full,
            }
        };
        let predicted: Vec<f64> = samples
            .iter()
            .map(|(r, _)| coef[0] + coef[1] * r[1] + coef[2] * r[2] + coef[3] * r[3])
            .collect();
        let err = mape(&predicted, &b_vec(&samples));
        *self.coef.write() = coef;
        *self.fit_error.write() = Some(err);
        *self.static_fallback.write() = false;
        Some(err)
    }

    /// Residual error of the last fit (Table I reports ≈12.5%).
    pub fn fit_error(&self) -> Option<f64> {
        *self.fit_error.read()
    }

    /// True when a singular calibration fit pinned DKP to the static
    /// aggregation-first placement.
    pub fn is_static_fallback(&self) -> bool {
        *self.static_fallback.read()
    }

    /// FWP + BWP cost of aggregation-first for `d`.
    pub fn cost_aggregation_first(&self, d: &Dims, needs_input_grad: bool) -> f64 {
        let (cf, cm) = comb_terms(d.n_dst, d.n_feat, d.n_hid, 1);
        let fwd = self.predict((d.n_edges * d.n_feat) as f64, cf, cm);
        // BWP: combination' (dX and dW → 2 passes), then aggregation'
        // (skipped entirely when input grads are unneeded).
        let bwd_agg = if needs_input_grad {
            (d.n_edges * d.n_feat) as f64
        } else {
            0.0
        };
        let (bf, bm) = comb_terms(d.n_dst, d.n_feat, d.n_hid, 2);
        fwd + self.predict(bwd_agg, bf, bm)
    }

    /// FWP + BWP cost of combination-first for `d`.
    pub fn cost_combination_first(&self, d: &Dims, needs_input_grad: bool) -> f64 {
        let (cf, cm) = comb_terms(d.n_src, d.n_feat, d.n_hid, 1);
        let fwd = self.predict((d.n_edges * d.n_hid) as f64, cf, cm);
        // BWP: aggregation' in the hidden dim is always needed (dW depends
        // on it), then combination' (dW, plus dX when required).
        let passes = if needs_input_grad { 2 } else { 1 };
        let (bf, bm) = comb_terms(d.n_src, d.n_feat, d.n_hid, passes);
        fwd + self.predict((d.n_edges * d.n_hid) as f64, bf, bm)
    }

    /// Choose the placement for a layer. Weighted (NGCF-style, vector
    /// edge weights folded by `h`) layers cannot commute the MatMul past
    /// the weighting, so they always aggregate first (§VI-A: edge weighting
    /// "is hard to get benefit from kernel scheduling").
    pub fn decide(&self, d: &Dims, weighted: bool, needs_input_grad: bool) -> Placement {
        if weighted || *self.static_fallback.read() {
            return Placement::AggregationFirst;
        }
        if self.cost_combination_first(d, needs_input_grad)
            < self.cost_aggregation_first(d, needs_input_grad)
        {
            Placement::CombinationFirst
        } else {
            Placement::AggregationFirst
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::from_device(&DeviceSpec::rtx3090())
    }

    fn dims(n_src: usize, n_dst: usize, n_edges: usize, n_feat: usize, n_hid: usize) -> Dims {
        Dims {
            n_src,
            n_dst,
            n_edges,
            n_feat,
            n_hid,
        }
    }

    #[test]
    fn heavy_features_prefer_combination_first() {
        // wiki-talk-like: 4353-dim features, 64 hidden, sparse sampled graph.
        let m = model();
        let d = dims(30_000, 8_000, 60_000, 4353, 64);
        assert_eq!(m.decide(&d, false, true), Placement::CombinationFirst);
    }

    #[test]
    fn light_features_keep_aggregation_first() {
        // Hidden-to-output layer: 64 → 47 barely narrows the aggregation,
        // while combination-first would matmul 16× more rows.
        let m = model();
        let d = dims(50_000, 3_000, 110_000, 64, 47);
        assert_eq!(m.decide(&d, false, true), Placement::AggregationFirst);
    }

    #[test]
    fn weighted_layers_never_swap() {
        let m = model();
        let d = dims(30_000, 8_000, 60_000, 4353, 64);
        assert_eq!(m.decide(&d, true, true), Placement::AggregationFirst);
    }

    #[test]
    fn first_layer_bwp_skip_biases_toward_agg_first() {
        let m = model();
        let d = dims(10_000, 5_000, 40_000, 256, 64);
        let af_with = m.cost_aggregation_first(&d, true);
        let af_without = m.cost_aggregation_first(&d, false);
        assert!(af_without < af_with);
    }

    #[test]
    fn fit_recovers_planted_coefficients() {
        let m = model();
        let truth = [7.0, 3.0e-5, 1.2e-8, 4.0e-6];
        for i in 1..60u64 {
            let agg = if i % 2 == 0 { (i * 1000) as f64 } else { 0.0 };
            let (cf, cm) = if i % 2 == 1 {
                comb_terms(i as usize * 100, 32 + i as usize, 16, 1)
            } else {
                (0.0, 0.0)
            };
            m.samples.lock().push((
                [1.0, agg, cf, cm],
                truth[0] + truth[1] * agg + truth[2] * cf + truth[3] * cm,
            ));
        }
        let err = m.fit().unwrap();
        assert!(err < 1e-6, "residual {err}");
        let c = m.coefficients();
        for i in 0..4 {
            assert!(
                (c[i] - truth[i]).abs() / truth[i] < 1e-5,
                "c[{i}] = {} vs {}",
                c[i],
                truth[i]
            );
        }
        assert_eq!(m.fit_error(), Some(err));
    }

    #[test]
    fn fit_needs_enough_samples() {
        let m = model();
        m.record_agg_sample(1.0, 1.0);
        assert!(m.fit().is_none());
        assert_eq!(m.num_samples(), 1);
    }

    #[test]
    fn singular_fit_degrades_to_static_placement() {
        let m = model();
        // Every sample saw the exact same layer shape: the normal equations
        // are rank-deficient, so the fit must refuse and latch the fallback.
        for _ in 0..8 {
            m.record_comb_sample(100, 32, 16, 1, 50.0);
        }
        assert!(m.fit().is_none());
        assert!(m.is_static_fallback());
        // Even a shape that overwhelmingly favors combination-first now
        // takes the static default.
        let d = dims(30_000, 8_000, 60_000, 4353, 64);
        assert_eq!(m.decide(&d, false, true), Placement::AggregationFirst);
        // A later well-conditioned fit clears the fallback.
        m.samples.lock().clear();
        for i in 1..30u64 {
            let agg = if i % 2 == 0 { (i * 1000) as f64 } else { 0.0 };
            let (cf, cm) = if i % 2 == 1 {
                comb_terms(i as usize * 100, 32 + i as usize, 16, 1)
            } else {
                (0.0, 0.0)
            };
            m.samples.lock().push((
                [1.0, agg, cf, cm],
                7.0 + 3.0e-5 * agg + 1.2e-8 * cf + 4.0e-6 * cm,
            ));
        }
        assert!(m.fit().is_some());
        assert!(!m.is_static_fallback());
        assert_eq!(m.decide(&d, false, true), Placement::CombinationFirst);
    }

    #[test]
    fn prediction_is_monotone_in_work() {
        let m = model();
        assert!(m.predict(1e6, 1e6, 1e6) > m.predict(1e5, 1e6, 1e6));
        assert!(m.predict(1e6, 1e6, 1e6) > m.predict(1e6, 1e5, 1e5));
    }

    #[test]
    fn sample_recorders_tag_the_right_terms() {
        let m = model();
        m.record_agg_sample(123.0, 1.0);
        m.record_comb_sample(10, 4, 2, 2, 1.0);
        let s = m.samples.lock();
        assert_eq!(s[0].0, [1.0, 123.0, 0.0, 0.0]);
        assert_eq!(s[1].0, [1.0, 0.0, 160.0, 120.0]);
    }
}
