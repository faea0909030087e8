//! The Cost-DKP fused node and the DFG rewrite that installs it (Fig 11c).
//!
//! "The kernel orchestrator prepares a new DFG node (Cost-DKP) in advance,
//! and replaces the two nodes with it at the host-side... At runtime,
//! Cost-DKP examines the input tensor's dimensionality and performs the
//! combination first if its reduction rate is higher than the original
//! execution sequence."
//!
//! Combination-first correctness (bottom of Fig 11c): with `f` linear
//! (sum/mean), `MLP(f(X)) = σ(W·f(X) + b) = σ(f(W·X) + b)` — the MatMul
//! commutes past the aggregation, so Cost-DKP transforms all `n_src` rows
//! first and aggregates in the hidden dimension. The bias is added *after*
//! aggregation either way, keeping Sum-aggregation exact too.
//!
//! The node reads its feature input as an [`Operand`]: in the first layer
//! that is rows of the embedding table read in place, which Pull, `X·W` and
//! `Xᵀ·dT` all accept, so no placement needs the gathered matrix.

use super::cost::{CostModel, Dims, Placement};
use super::drift::{DecisionRecord, DriftAction, DriftMonitor};
use crate::napa::Pull;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::{Matrix, RowSource};
use gt_tensor::dfg::{Dfg, ExecCtx, NodeId, Op, Operand, ParamStore};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counters of placement decisions, shared with the trainer for reporting.
#[derive(Debug, Default)]
pub struct DkpCounters {
    /// Times aggregation-first was chosen.
    pub aggregation_first: AtomicUsize,
    /// Times combination-first was chosen.
    pub combination_first: AtomicUsize,
}

impl DkpCounters {
    /// (aggregation-first, combination-first) decision counts.
    pub fn snapshot(&self) -> (usize, usize) {
        (
            self.aggregation_first.load(Ordering::Relaxed),
            self.combination_first.load(Ordering::Relaxed),
        )
    }
}

/// Everything the backward pass needs from the forward pass: the saved
/// intermediate plus the decision's predicted/observed cost so far.
#[derive(Debug)]
struct Stash {
    placement: Placement,
    intermediate: Matrix,
    /// Modeled latency charged during the forward pass, µs.
    observed_fwd_us: f64,
    /// Predicted cost of the chosen placement (FWP + BWP), µs.
    predicted_us: f64,
    /// False when the decision was forced (weighted layer, static
    /// fallback) or the model is not yet fitted — such decisions carry no
    /// information about prediction quality.
    drift_eligible: bool,
}

/// The fused Pull + MatMul node installed by [`apply_dkp`].
#[derive(Debug)]
pub struct CostDkp {
    /// The aggregation half (owns the layer subgraph and `f`/`h` modes).
    pub pull: Pull,
    /// MLP weight parameter name.
    pub weight: String,
    /// MLP bias parameter name.
    pub bias: String,
    /// Shared cost model (Table I).
    pub cost: Arc<CostModel>,
    /// False only for the first GNN layer, whose input features need no
    /// gradient — aggregation-first BWP then skips `f'` entirely (§V-A).
    pub needs_input_grad: bool,
    /// Record (work, latency) calibration samples this epoch.
    pub calibrate: bool,
    /// Shared decision counters.
    pub counters: Arc<DkpCounters>,
    /// Shared drift monitor; when set, every completed decision feeds the
    /// predicted-vs-observed residual and may open a refit window.
    pub drift: Option<Arc<DriftMonitor>>,
    /// Stash of decision state between forward and backward.
    stash: Mutex<Option<Stash>>,
}

impl CostDkp {
    /// Build the fused node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pull: Pull,
        weight: String,
        bias: String,
        cost: Arc<CostModel>,
        needs_input_grad: bool,
        calibrate: bool,
        counters: Arc<DkpCounters>,
        drift: Option<Arc<DriftMonitor>>,
    ) -> Self {
        CostDkp {
            pull,
            weight,
            bias,
            cost,
            needs_input_grad,
            calibrate,
            counters,
            drift,
            stash: Mutex::new(None),
        }
    }

    fn dims(&self, n_feat: usize, params: &ParamStore) -> Dims {
        Dims {
            n_src: self.pull.layer.num_src,
            n_dst: self.pull.layer.num_dst,
            n_edges: self.pull.layer.csr.num_edges(),
            n_feat,
            n_hid: params.get(&self.weight).cols(),
        }
    }

    /// Charge a MatMul of `rows×f · f×h` over `passes` passes; returns its
    /// modeled latency.
    fn charge_matmul(
        &self,
        rows: usize,
        f: usize,
        h: usize,
        passes: usize,
        ctx: &mut ExecCtx,
    ) -> f64 {
        ctx.sim.record_gpu(
            Phase::Combination,
            KernelStats {
                flops: 2 * (rows * f * h * passes) as u64,
                global_read_bytes: ((rows * f + f * h) * 4 * passes) as u64,
                global_write_bytes: (rows * h * 4 * passes) as u64,
                launches: passes as u64,
                ..Default::default()
            },
        )
    }

    fn charge_pull(&self, feat_dim: usize, ctx: &mut ExecCtx) -> f64 {
        let stats = self.pull.forward_stats(feat_dim, ctx.sim.device().num_sms);
        ctx.sim.record_gpu(Phase::Aggregation, stats)
    }

    /// Samples are recorded during first-epoch calibration and again while
    /// the drift monitor has a refit collection window open.
    fn recording_samples(&self) -> bool {
        self.calibrate || self.drift.as_ref().is_some_and(|d| d.is_collecting())
    }

    fn record_agg_sample(&self, d: &Dims, width: usize, latency: f64) {
        if self.recording_samples() {
            self.cost
                .record_agg_sample((d.n_edges * width) as f64, latency);
        }
    }

    fn record_comb_sample(&self, rows: usize, f: usize, h: usize, passes: usize, latency: f64) {
        if self.recording_samples() {
            self.cost.record_comb_sample(rows, f, h, passes, latency);
        }
    }

    /// Feed the completed decision to the drift monitor and apply whatever
    /// it asks for: clear the sample buffer when a collection window opens,
    /// refit when it closes. A singular refit latches the cost model's
    /// static aggregation-first fallback (and `drift_eligible` is false
    /// from then on), so a degenerate window degrades gracefully instead of
    /// looping on garbage coefficients.
    fn complete_decision(&self, stash: &Stash, observed_bwd_us: f64) {
        let Some(drift) = &self.drift else { return };
        if !stash.drift_eligible {
            return;
        }
        let action = drift.record(DecisionRecord {
            placement: stash.placement,
            predicted_us: stash.predicted_us,
            observed_us: stash.observed_fwd_us + observed_bwd_us,
        });
        match action {
            DriftAction::StartedCollection => self.cost.clear_samples(),
            DriftAction::Refit => {
                let _ = self.cost.fit();
            }
            DriftAction::None => {}
        }
    }
}

impl Op for CostDkp {
    fn name(&self) -> &str {
        "cost_dkp"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let (x, weights) = (inputs[0], inputs.get(1).copied().map(Operand::dense));
        let d = self.dims(x.cols(), ctx.params);
        let weighted = self.pull.h.is_some();
        let placement = self.cost.decide(&d, weighted, self.needs_input_grad);
        // A decision only says something about prediction quality when the
        // model actually chose (not forced by weighting or the static
        // fallback) and has been fitted at least once.
        let drift_eligible = self.drift.is_some()
            && !weighted
            && !self.cost.is_static_fallback()
            && self.cost.fit_error().is_some();
        let predicted_us = match placement {
            _ if !drift_eligible => 0.0,
            Placement::AggregationFirst => {
                self.cost.cost_aggregation_first(&d, self.needs_input_grad)
            }
            Placement::CombinationFirst => {
                self.cost.cost_combination_first(&d, self.needs_input_grad)
            }
        };

        // An edge-weighted Pull stands for a NeighborApply node ahead of
        // this one; its device charges come first, as that node's did.
        self.pull.charge_edge_weighting(d.n_feat, ctx);
        let mut observed_fwd_us = 0.0;
        let (mut out, intermediate) = match placement {
            Placement::AggregationFirst => {
                self.counters
                    .aggregation_first
                    .fetch_add(1, Ordering::Relaxed);
                let a = self.pull.compute(&x, weights);
                let lat = self.charge_pull(d.n_feat, ctx);
                self.record_agg_sample(&d, d.n_feat, lat);
                observed_fwd_us += lat;
                let y = a.matmul(ctx.params.get(&self.weight));
                let lat = self.charge_matmul(d.n_dst, d.n_feat, d.n_hid, 1, ctx);
                self.record_comb_sample(d.n_dst, d.n_feat, d.n_hid, 1, lat);
                observed_fwd_us += lat;
                (y, a)
            }
            Placement::CombinationFirst => {
                self.counters
                    .combination_first
                    .fetch_add(1, Ordering::Relaxed);
                debug_assert!(weights.is_none(), "weighted pulls never swap");
                let t = x.matmul(ctx.params.get(&self.weight));
                let lat = self.charge_matmul(d.n_src, d.n_feat, d.n_hid, 1, ctx);
                self.record_comb_sample(d.n_src, d.n_feat, d.n_hid, 1, lat);
                observed_fwd_us += lat;
                let y = self.pull.compute(&t, None);
                let lat = self.charge_pull(d.n_hid, ctx);
                self.record_agg_sample(&d, d.n_hid, lat);
                observed_fwd_us += lat;
                (y, t)
            }
        };
        // The bias goes on after aggregation under either placement.
        out.add_row_vector(ctx.params.get(&self.bias).row(0));
        *self.stash.lock() = Some(Stash {
            placement,
            intermediate,
            observed_fwd_us,
            predicted_us,
            drift_eligible,
        });
        out
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let (x, weights) = (inputs[0], inputs.get(1).copied().map(Operand::dense));
        let d = self.dims(x.cols(), ctx.params);
        let Some(stash) = self.stash.lock().take() else {
            // A backward without its matching forward is a wiring bug; in
            // release serving, drop the gradient contribution rather than
            // poison the whole pipeline.
            debug_assert!(false, "backward without matching forward");
            return vec![None; inputs.len()];
        };
        let db = Matrix::from_vec(1, grad.cols(), grad.column_sums());
        ctx.params.accumulate_grad(&self.bias, &db);

        let mut observed_bwd_us = 0.0;
        let grads = match stash.placement {
            Placement::AggregationFirst => {
                // out = a·W + b with a = pull(x, w).
                let a = &stash.intermediate;
                let dw = a.transpose_a_matmul(grad);
                ctx.params.accumulate_grad(&self.weight, &dw);
                // The model charges both combination passes even when the
                // first layer skips `da` below (docs/MODEL.md).
                let lat = self.charge_matmul(d.n_dst, d.n_feat, d.n_hid, 2, ctx);
                self.record_comb_sample(d.n_dst, d.n_feat, d.n_hid, 2, lat);
                observed_bwd_us += lat;
                if !self.needs_input_grad {
                    // First GNN layer: skip `da = grad·Wᵀ` and f' entirely
                    // (Table I's n_src reduction-factor case).
                    vec![None; inputs.len()]
                } else {
                    let da = grad.matmul_transpose_b(ctx.params.get(&self.weight));
                    let (dx, dwe) = self.pull.compute_backward(&x, weights, &da);
                    let lat = self.charge_pull(d.n_feat, ctx);
                    self.record_agg_sample(&d, d.n_feat, lat);
                    observed_bwd_us += lat;
                    self.pull.charge_edge_weighting_backward(&dx, ctx);
                    if weights.is_some() {
                        vec![Some(dx), dwe]
                    } else {
                        vec![Some(dx)]
                    }
                }
            }
            Placement::CombinationFirst => {
                // out = pull(x·W) + b with t = x·W stashed.
                let t = &stash.intermediate;
                let da = grad; // bias add is identity for the grad
                let (dt, _) = self.pull.compute_backward(t, None, da);
                let lat = self.charge_pull(d.n_hid, ctx);
                self.record_agg_sample(&d, d.n_hid, lat);
                observed_bwd_us += lat;
                let dw = x.transpose_a_matmul(&dt);
                ctx.params.accumulate_grad(&self.weight, &dw);
                let comb_passes = if self.needs_input_grad { 2 } else { 1 };
                let lat = self.charge_matmul(d.n_src, d.n_feat, d.n_hid, comb_passes, ctx);
                self.record_comb_sample(d.n_src, d.n_feat, d.n_hid, comb_passes, lat);
                observed_bwd_us += lat;
                if self.needs_input_grad {
                    vec![Some(dt.matmul_transpose_b(ctx.params.get(&self.weight)))]
                } else {
                    vec![None]
                }
            }
        };
        self.complete_decision(&stash, observed_bwd_us);
        grads
    }
}

/// A Pull → MatMul pair the trainer registered for rewriting.
#[derive(Debug)]
pub struct DkpPair {
    /// The Pull node in the DFG.
    pub pull_node: NodeId,
    /// The consuming MatMul (Linear) node.
    pub linear_node: NodeId,
    /// A clone of the Pull op (subgraph + modes).
    pub pull: Pull,
    /// The Linear's weight parameter name.
    pub weight: String,
    /// The Linear's bias parameter name.
    pub bias: String,
    /// Whether the Pull's feature input requires gradients.
    pub needs_input_grad: bool,
}

/// Rewrite every registered Pull → MatMul pair into a Cost-DKP node.
/// Returns the number of pairs fused. Pass a drift monitor to have every
/// completed decision feed the predicted-vs-observed residual (and trigger
/// sliding-window refits); `None` keeps the fitted model frozen, which is
/// right for forward-only inference where the full decision cost is never
/// observed.
pub fn apply_dkp(
    dfg: &mut Dfg,
    pairs: Vec<DkpPair>,
    cost: &Arc<CostModel>,
    calibrate: bool,
    counters: &Arc<DkpCounters>,
    drift: Option<&Arc<DriftMonitor>>,
) -> usize {
    let mut fused = 0;
    for p in pairs {
        debug_assert_eq!(dfg.node_name(p.pull_node), "pull");
        debug_assert_eq!(dfg.node_name(p.linear_node), "matmul");
        let node = CostDkp::new(
            p.pull,
            p.weight,
            p.bias,
            Arc::clone(cost),
            p.needs_input_grad,
            calibrate,
            Arc::clone(counters),
            drift.map(Arc::clone),
        );
        dfg.fuse_pair(p.pull_node, p.linear_node, Box::new(node));
        fused += 1;
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::napa::test_layer;
    use gt_sample::LayerGraph;
    use gt_sim::{DeviceSpec, SimContext};
    use gt_tensor::dfg::Linear;
    use gt_tensor::init::xavier;
    use gt_tensor::sparse::Reduce;

    fn layer() -> Arc<LayerGraph> {
        test_layer(
            4,
            3,
            &[(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (2, 2), (0, 2)],
        )
    }

    /// One forward + backward (L = sum(out)) of [`pull_linear`].
    struct Run {
        out: Matrix,
        input_grads: Vec<Option<Matrix>>,
        dw: Matrix,
        db: Matrix,
        /// (aggregation-first, combination-first) decisions taken.
        decisions: (usize, usize),
    }

    /// X (→ NeighborApply when `weighted`) → Pull → Linear(`feat`→`hid`);
    /// `fuse` installs the Cost-DKP node with that `needs_input_grad`,
    /// `None` runs the graph unfused as the reference.
    fn pull_linear(weighted: bool, (feat, hid): (usize, usize), fuse: Option<bool>) -> Run {
        use crate::config::HFn;
        use crate::napa::NeighborApply;
        use gt_tensor::sparse::EdgeOp;
        let l = layer();
        let mut params = ParamStore::new();
        params.register("w", xavier(feat, hid, 3));
        params.register("b", xavier(1, hid, 4));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let (pull, pn) = if weighted {
            let na = dfg.op(NeighborApply::new(Arc::clone(&l), EdgeOp::ElemMul), &[x]);
            let pull = Pull::weighted(Arc::clone(&l), Reduce::Sum, HFn::Mul);
            let pn = dfg.op(pull.clone(), &[x, na]);
            (pull, pn)
        } else {
            let pull = Pull::new(Arc::clone(&l), Reduce::Mean);
            let pn = dfg.op(pull.clone(), &[x]);
            (pull, pn)
        };
        let ln = dfg.op(Linear::new("w", "b"), &[pn]);
        dfg.set_output(ln);
        let counters = Arc::new(DkpCounters::default());
        if let Some(needs_input_grad) = fuse {
            let cost = Arc::new(CostModel::from_device(&DeviceSpec::tiny()));
            let pairs = vec![DkpPair {
                pull_node: pn,
                linear_node: ln,
                pull,
                weight: "w".into(),
                bias: "b".into(),
                needs_input_grad,
            }];
            assert_eq!(apply_dkp(&mut dfg, pairs, &cost, true, &counters, None), 1);
        }
        let xval = xavier(4, feat, 9);
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
        let out = vals.get(ln).clone();
        let ones = Matrix::from_vec(out.rows(), hid, vec![1.0; out.len()]);
        let input_grads = dfg.backward(&vals, ones, &mut ctx);
        Run {
            out,
            input_grads,
            dw: params.grad("w").unwrap().clone(),
            db: params.grad("b").unwrap().clone(),
            decisions: counters.snapshot(),
        }
    }

    #[test]
    fn fused_matches_unfused_numerics() {
        let fused = pull_linear(false, (8, 3), Some(true));
        let unfused = pull_linear(false, (8, 3), None);
        assert!(fused.out.max_abs_diff(&unfused.out) < 1e-4);
        assert!(fused.dw.max_abs_diff(&unfused.dw) < 1e-4);
        let (af, cf) = fused.decisions;
        assert_eq!(af + cf, 1, "exactly one decision made");
    }

    /// The first layer's backward computes no input gradient under either
    /// placement. Aggregation-first (neither `da = grad·Wᵀ` nor `f'`) is the
    /// unfused graph's arithmetic, operation for operation; combination-first
    /// reorders the weight-gradient sum, so it agrees to rounding.
    #[test]
    fn first_layer_skip_keeps_weight_grads_exact() {
        // feat > hid places the unweighted pair combination-first; hid > feat
        // would widen the aggregation, so it stays aggregation-first like the
        // weighted pair, which never swaps.
        let cases = [
            (false, (8, 3), (0, 1)),
            (false, (3, 8), (1, 0)),
            (true, (3, 8), (1, 0)),
        ];
        for (weighted, dims, placed) in cases {
            let case = format!("weighted={weighted} dims={dims:?}");
            let unfused = pull_linear(weighted, dims, None);
            assert!(
                unfused.input_grads[0].is_some(),
                "{case}: unfused reaches x"
            );
            let first = pull_linear(weighted, dims, Some(false));
            assert_eq!(first.decisions, placed, "{case}");
            assert!(first.input_grads.iter().all(Option::is_none), "{case}");
            assert_eq!(first.db.data(), unfused.db.data(), "{case}");
            let inner = pull_linear(weighted, dims, Some(true));
            assert_eq!(inner.decisions, placed, "{case}");
            if placed == (1, 0) {
                assert_eq!(first.dw.data(), unfused.dw.data(), "{case}");
                // With the input gradient requested, it is the unfused one too.
                assert_eq!(inner.input_grads, unfused.input_grads, "{case}");
                assert_eq!(inner.dw.data(), unfused.dw.data(), "{case}");
            } else {
                assert!(first.dw.max_abs_diff(&unfused.dw) < 1e-4, "{case}");
                // Skipping the input gradient leaves the weight gradient alone.
                assert_eq!(first.dw.data(), inner.dw.data(), "{case}");
                let (dx, dx_ref) = (&inner.input_grads[0], &unfused.input_grads[0]);
                let diff = dx.as_ref().unwrap().max_abs_diff(dx_ref.as_ref().unwrap());
                assert!(diff < 1e-4, "{case}");
            }
        }
    }

    /// Both placements must agree numerically. We force each side by
    /// constructing dims that make the decision unambiguous.
    #[test]
    fn placements_agree_on_both_orders() {
        let l = layer();
        for (feat, hid) in [(64usize, 2usize), (2, 64)] {
            let mut params = ParamStore::new();
            params.register("w", xavier(feat, hid, 5));
            params.register("b", xavier(1, hid, 6));
            let cost = Arc::new(CostModel::from_device(&DeviceSpec::rtx3090()));
            let counters = Arc::new(DkpCounters::default());
            let pull = Pull::new(Arc::clone(&l), Reduce::Mean);
            let node = CostDkp::new(
                pull.clone(),
                "w".into(),
                "b".into(),
                cost,
                true,
                false,
                counters,
                None,
            );
            let xval = xavier(4, feat, 1);
            let mut sim = SimContext::new(DeviceSpec::tiny());
            let mut ctx = ExecCtx {
                sim: &mut sim,
                params: &mut params,
            };
            let fused_out = node.forward(&[Operand::Dense(&xval)], &mut ctx);
            // Reference: aggregate, matmul, then add the bias.
            let a = pull.compute(&xval, None);
            let mut refr = a.matmul(ctx.params.get("w"));
            refr.add_row_vector(ctx.params.get("b").row(0));
            assert!(
                fused_out.max_abs_diff(&refr) < 1e-4,
                "feat={feat} hid={hid} diverged"
            );
        }
    }

    #[test]
    fn calibration_samples_recorded() {
        let l = layer();
        let mut params = ParamStore::new();
        params.register("w", xavier(4, 2, 5));
        params.register("b", Matrix::zeros(1, 2));
        let cost = Arc::new(CostModel::from_device(&DeviceSpec::tiny()));
        let node = CostDkp::new(
            Pull::new(l, Reduce::Mean),
            "w".into(),
            "b".into(),
            Arc::clone(&cost),
            true,
            true,
            Arc::new(DkpCounters::default()),
            None,
        );
        let xval = xavier(4, 4, 1);
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let out = node.forward(&[Operand::Dense(&xval)], &mut ctx);
        assert!(cost.num_samples() >= 2);
        let g = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.len()]);
        node.backward(&[Operand::Dense(&xval)], &out, &g, &mut ctx);
        assert!(cost.num_samples() >= 4);
    }
}
