//! The GraphTensor framework: NAPA kernels + kernel orchestrator +
//! service-wide tensor scheduler, in the three build variants of §VI:
//!
//! * **Base-GT** — NAPA only (destination-centric feature-wise kernels);
//! * **Dynamic-GT** — Base + Dynamic Kernel Placement;
//! * **Prepro-GT** — Dynamic + the service-wide tensor scheduler.
//!
//! All three run S and R on the host, not K: the first layer's kernels read
//! the sampled rows of `data.features` in place, through `new_to_orig`, so
//! the gathered feature matrix is never built (K and its transfer are still
//! priced by the device model and the scheduler).

use crate::config::ModelConfig;
use crate::data::GraphData;
use crate::framework::{BatchOutcome, BatchReport, FailReason, Framework, FrameworkTraits};
use crate::napa::Pull;
use crate::orchestrator::{apply_dkp, CostModel, DkpPair, DriftMonitor};
use crate::prepro::{sample_and_reindex, Sampled};
use crate::scheduler::{schedule_prepro_with_faults, PreproStrategy};
use gt_graph::VId;
use gt_par::ThreadPool;
use gt_sample::{LayerGraph, SamplerConfig};
use gt_sim::{ActiveFaults, SimContext, SystemSpec};
use gt_tensor::dense::{Matrix, Rows};
use gt_tensor::dfg::{Dfg, ExecCtx, Linear, Operand, ParamStore, Relu};
use gt_tensor::loss::softmax_cross_entropy;
use std::sync::Arc;

pub use crate::orchestrator::dkp::DkpCounters;

/// Which GraphTensor build to run (§VI "Evaluation method").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GtVariant {
    /// NAPA, static aggregation-first placement, serialized preprocessing.
    Base,
    /// NAPA + DKP, serialized preprocessing.
    Dynamic,
    /// NAPA + DKP + service-wide tensor scheduling.
    Prepro,
}

impl GtVariant {
    fn label(self) -> &'static str {
        match self {
            GtVariant::Base => "Base-GT",
            GtVariant::Dynamic => "Dynamic-GT",
            GtVariant::Prepro => "Prepro-GT",
        }
    }
}

/// The GraphTensor trainer.
pub struct GraphTensor {
    /// Which of the three builds this instance is.
    pub variant: GtVariant,
    /// The GNN being trained.
    pub model: ModelConfig,
    /// Modeled system (GPU + host + PCIe).
    pub sys: SystemSpec,
    /// Sampling configuration (seed advances per batch).
    pub sampler: SamplerConfig,
    /// SGD learning rate.
    pub lr: f32,
    /// Batches used for DKP cost-model calibration (first-epoch fitting).
    pub calibration_batches: usize,
    /// When set, abort a batch (no parameter update) instead of training
    /// through a failed transfer or an OOM — the serving supervisor turns
    /// such reports into retries/degradations. Off by default so the plain
    /// training path is unchanged.
    pub fail_fast: bool,
    /// Faults to apply to the *next* batch only (taken on use). Set by the
    /// serving supervisor from its [`gt_sim::FaultPlan`].
    pub injected: Option<ActiveFaults>,
    /// Where spans, events, and metrics go. Defaults to the process-wide
    /// handle ([`gt_telemetry::global`], off unless installed otherwise), so
    /// the uninstrumented path costs nothing; swap in
    /// [`gt_telemetry::Telemetry::recording`] to capture traces.
    pub telemetry: gt_telemetry::Telemetry,
    params: ParamStore,
    cost: Arc<CostModel>,
    counters: Arc<DkpCounters>,
    drift: Arc<DriftMonitor>,
    /// (decisions, refits) already emitted as counters.
    drift_emitted: (u64, u64),
    batches_run: usize,
    params_ready: bool,
}

impl GraphTensor {
    /// Build a trainer; parameters initialize lazily on the first batch
    /// (they need the dataset's feature dimension).
    pub fn new(variant: GtVariant, model: ModelConfig, sys: SystemSpec) -> Self {
        let cost = Arc::new(CostModel::from_device(&sys.gpu));
        GraphTensor {
            variant,
            model,
            sampler: SamplerConfig::default(),
            sys,
            lr: 0.01,
            calibration_batches: 3,
            fail_fast: false,
            injected: None,
            telemetry: gt_telemetry::global(),
            params: ParamStore::new(),
            cost,
            counters: Arc::new(DkpCounters::default()),
            drift: Arc::new(DriftMonitor::default()),
            drift_emitted: (0, 0),
            batches_run: 0,
            params_ready: false,
        }
    }

    /// DKP decision counters (aggregation-first, combination-first).
    pub fn dkp_decisions(&self) -> (usize, usize) {
        self.counters.snapshot()
    }

    /// The shared DKP cost model (coefficients, fit error).
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// The DKP drift monitor (residual EWMA, decision/refit counts).
    pub fn drift_monitor(&self) -> &Arc<DriftMonitor> {
        &self.drift
    }

    /// Model parameters (for tests and checkpointing).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Replace the model parameters (checkpoint restore). The store must
    /// contain every weight/bias the model's layer names expect.
    pub fn set_params(&mut self, params: ParamStore) {
        for l in 0..self.model.layers {
            assert!(
                params.contains(&self.model.weight_name(l)),
                "checkpoint missing {}",
                self.model.weight_name(l)
            );
        }
        self.params = params;
        self.params_ready = true;
    }

    fn ensure_params(&mut self, feature_dim: usize) {
        if !self.params_ready {
            self.params = self.model.init_params(feature_dim);
            self.params_ready = true;
        }
    }

    /// Construct the per-batch DFG from NAPA primitives (Fig 10) over the
    /// batch's per-layer subgraphs and note every Pull → MatMul pair for the
    /// orchestrator. Input 0 is the first layer's features.
    fn build_dfg(&self, layers: &[Arc<LayerGraph>]) -> (Dfg, Vec<DkpPair>) {
        let mut dfg = Dfg::new();
        let mut pairs = Vec::new();
        let mut x = dfg.input(0);
        for (l, layer) in layers[..self.model.layers].iter().enumerate() {
            let layer = Arc::clone(layer);
            // An edge-weighted Pull computes `g` per edge itself: the host
            // never holds the `E×F` edge matrix (the device model still
            // prices NeighborApply and its output, docs/MODEL.md).
            let pull_op = match self.model.edge {
                Some(ew) => Pull::edge_weighted(layer, self.model.agg, ew.g, ew.h),
                None => Pull::new(layer, self.model.agg),
            };
            let pull_node = dfg.op(pull_op.clone(), &[x]);
            let w = self.model.weight_name(l);
            let b = self.model.bias_name(l);
            let lin = dfg.op(Linear::new(w.clone(), b.clone()), &[pull_node]);
            pairs.push(DkpPair {
                pull_node,
                linear_node: lin,
                pull: pull_op,
                weight: w,
                bias: Some(b),
                needs_input_grad: l > 0,
            });
            x = if l + 1 < self.model.layers {
                dfg.op(Relu, &[lin])
            } else {
                lin
            };
        }
        dfg.set_output(x);
        (dfg, pairs)
    }

    /// Forward-only inference on one batch: preprocess, run FWP, return the
    /// logits (row `i` = `batch[i]`). No gradients, no parameter update.
    pub fn infer_batch(&mut self, data: &GraphData, batch: &[VId]) -> Matrix {
        self.ensure_params(data.feature_dim());
        let _span = self
            .telemetry
            .span("train", "infer_batch")
            .arg("batch_size", batch.len());
        let mut cfg = self.sampler.clone();
        // Fixed offset, independent of training progress: inference must be
        // a pure function of (params, sampler config) so a trainer restored
        // from a checkpoint scores batches identically to the original.
        cfg.seed = cfg.seed.wrapping_add(0x1FE0);
        let pr = sample_and_reindex(data, batch, &cfg, ThreadPool::global());
        let mut sim = SimContext::new(self.sys.gpu.clone());
        let (mut dfg, pairs) = self.build_dfg(&pr.layers);
        if self.variant != GtVariant::Base {
            // Forward-only: the full decision cost is never observed, so no
            // drift monitor.
            apply_dkp(&mut dfg, pairs, &self.cost, false, &self.counters, None);
        }
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut self.params,
        };
        let values = dfg.forward(&[input_rows(data, &pr)], &mut ctx);
        values.get(dfg.output()).clone()
    }

    /// Publish the drift monitor's state: delta counters, the residual
    /// EWMA gauge, and one structured `dkp_decision` event per completed
    /// decision since the last batch.
    fn emit_drift_telemetry(&mut self, telemetry: &gt_telemetry::Telemetry) {
        let now = (self.drift.decisions(), self.drift.refits());
        let prev = self.drift_emitted;
        telemetry
            .counter(
                "gt_dkp_decisions_total",
                "DKP placement decisions with completed cost observation",
            )
            .add(now.0 - prev.0);
        telemetry
            .counter(
                "gt_dkp_refits_total",
                "DKP cost-model refits triggered by drift",
            )
            .add(now.1 - prev.1);
        if let Some(e) = self.drift.ewma_ape() {
            telemetry
                .gauge(
                    "gt_dkp_residual_ewma",
                    "EWMA of the DKP |observed-predicted|/observed residual",
                )
                .set(e);
        }
        for r in self.drift.drain_recent() {
            let predicted = format!("{:.3}", r.predicted_us);
            let observed = format!("{:.3}", r.observed_us);
            let ape = format!("{:.4}", r.ape());
            telemetry.event(
                "dkp",
                "dkp_decision",
                &[
                    ("placement", &r.placement.label()),
                    ("predicted_us", &predicted),
                    ("observed_us", &observed),
                    ("ape", &ape),
                ],
            );
        }
        if now.1 > prev.1 {
            let fit_error = self
                .cost
                .fit_error()
                .map_or_else(|| "none".to_string(), |e| format!("{e:.4}"));
            let fallback = self.cost.is_static_fallback().to_string();
            telemetry.event(
                "dkp",
                "dkp_refit",
                &[("fit_error", &fit_error), ("static_fallback", &fallback)],
            );
        }
        self.drift_emitted = now;
    }

    /// The variant's preprocessing strategy.
    fn prepro_strategy(&self) -> PreproStrategy {
        match self.variant {
            // Base/Dynamic serialize S→R→K→T like DGL (§VI-B) but still
            // overlap whole batches with GPU compute.
            GtVariant::Base | GtVariant::Dynamic => PreproStrategy::Serial,
            GtVariant::Prepro => PreproStrategy::PipelinedRelaxed,
        }
    }
}

impl Framework for GraphTensor {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn traits(&self) -> FrameworkTraits {
        FrameworkTraits {
            initial_format: "CSR",
            memory_bloat: false,
            format_translation: false,
            cache_bloat: false,
            prepro_overhead: if self.variant == GtVariant::Prepro {
                'X'
            } else {
                'D'
            },
        }
    }

    fn overlaps_batches(&self) -> bool {
        true
    }

    fn train_batch(&mut self, data: &GraphData, batch: &[VId]) -> BatchReport {
        let labels = data.batch_labels(batch);
        self.train_batch_with_loss(data, batch, |logits, _rows| {
            softmax_cross_entropy(logits, &labels)
        })
    }
}

impl GraphTensor {
    /// Train one batch under a caller-supplied loss. The closure receives
    /// the final-layer output (row `i` = the vertex whose *original* id is
    /// `rows[i]`; the batch occupies the first rows in order) and returns
    /// `(loss, ∂loss/∂output)`. This is how non-classification heads (e.g.
    /// BPR ranking for NGCF-style recommendation) plug in.
    pub fn train_batch_with_loss<L>(
        &mut self,
        data: &GraphData,
        batch: &[VId],
        loss_fn: L,
    ) -> BatchReport
    where
        L: FnOnce(&Matrix, &[VId]) -> (f32, Matrix),
    {
        self.ensure_params(data.feature_dim());
        let telemetry = self.telemetry.clone();
        let _batch_span = telemetry
            .span("train", "train_batch")
            .arg("variant", self.variant.label())
            .arg("batch", self.batches_run)
            .arg("batch_size", batch.len())
            .arg("layers", self.model.layers);
        let faults = self.injected.take().unwrap_or_default();
        // Gradients are dead between batches: free them before this batch
        // allocates its own.
        self.params.zero_grads();
        let mut cfg = self.sampler.clone();
        cfg.seed = cfg.seed.wrapping_add(self.batches_run as u64);
        let pr = {
            let _s = telemetry
                .span("train", "sample_and_reindex")
                .arg("phase", "prepro");
            sample_and_reindex(data, batch, &cfg, ThreadPool::global())
        };

        // The preprocessing schedule is a pure function of the measured
        // work, so it can run up front; with an empty fault set it is
        // bit-identical to the unsupervised schedule.
        let prepro = {
            let _s = telemetry
                .span("train", "schedule_prepro")
                .arg("phase", "prepro");
            schedule_prepro_with_faults(&pr.work, &self.sys, self.prepro_strategy(), &faults)
        };

        let mut gpu = self.sys.gpu.clone();
        if let Some(frac) = faults.memory_fraction() {
            gpu.device_mem_bytes = (gpu.device_mem_bytes as f64 * frac) as u64;
        }
        let mut sim = SimContext::new(gpu);
        // Input tensors land in device memory: the features K would gather
        // (the host reads them in place) and the subgraphs.
        let _ = sim.memory.alloc(pr.work.total_feature_bytes);
        for l in &pr.layers {
            let _ = sim.memory.alloc(l.structure_bytes());
        }

        if self.fail_fast {
            let reason = if prepro.has_failures() {
                Some(FailReason::TransferFailure)
            } else if sim.memory.oom().is_some() {
                Some(FailReason::OutOfMemory)
            } else {
                None
            };
            if let Some(reason) = reason {
                // Abort before any parameter update: the supervisor will
                // retry or degrade, and a retried batch must see the same
                // seed, so `batches_run` stays untouched too.
                telemetry.event("train", "fail_fast", &[("reason", &reason.label())]);
                let oom = sim.memory.oom().map(|e| e.to_string());
                return BatchReport {
                    loss: f32::NAN,
                    sim,
                    prepro: Some(prepro),
                    num_nodes: pr.work.total_nodes as usize,
                    num_edges: pr.layers.iter().map(|l| l.csr.num_edges()).sum(),
                    oom,
                    outcome: BatchOutcome::Failed { reason },
                    telemetry: telemetry.clone(),
                };
            }
        }

        let (mut dfg, pairs) = self.build_dfg(&pr.layers);
        if self.variant != GtVariant::Base {
            let calibrate = self.batches_run < self.calibration_batches;
            let (af0, cf0) = self.counters.snapshot();
            apply_dkp(
                &mut dfg,
                pairs,
                &self.cost,
                calibrate,
                &self.counters,
                Some(&self.drift),
            );
            let (af, cf) = self.counters.snapshot();
            telemetry
                .counter(
                    "gt_dkp_aggregation_first_total",
                    "DKP pairs placed aggregation-first",
                )
                .add((af - af0) as u64);
            telemetry
                .counter(
                    "gt_dkp_combination_first_total",
                    "DKP pairs placed combination-first",
                )
                .add((cf - cf0) as u64);
        }

        let (loss, num_edges) = {
            let _s = telemetry
                .span("train", "forward_backward")
                .arg("layers", self.model.layers);
            let mut ctx = ExecCtx {
                sim: &mut sim,
                params: &mut self.params,
            };
            let values = dfg.forward(&[input_rows(data, &pr)], &mut ctx);
            let logits = values.get(dfg.output());
            let (loss, grad) = loss_fn(logits, &pr.new_to_orig);
            let _ = sim_loss_record(ctx.sim, logits);
            dfg.backward(&values, grad, &mut ctx);
            (loss, pr.layers.iter().map(|l| l.csr.num_edges()).sum())
        };

        if self.fail_fast {
            if let Some(oom) = sim.memory.oom() {
                // Intermediates blew the budget mid-compute: do not commit
                // the parameter update (gradients are zeroed at the start of
                // the next attempt, so nothing leaks into it).
                telemetry.event(
                    "train",
                    "fail_fast",
                    &[("reason", &FailReason::OutOfMemory.label())],
                );
                return BatchReport {
                    loss: f32::NAN,
                    sim,
                    prepro: Some(prepro),
                    num_nodes: pr.work.total_nodes as usize,
                    num_edges,
                    oom: Some(oom.to_string()),
                    outcome: BatchOutcome::Failed {
                        reason: FailReason::OutOfMemory,
                    },
                    telemetry: telemetry.clone(),
                };
            }
        }
        {
            let _s = telemetry.span("train", "optimizer_step");
            self.params.sgd_step(self.lr);
        }

        self.batches_run += 1;
        if self.variant != GtVariant::Base && self.batches_run == self.calibration_batches {
            // First-epoch least-squares fit of the DKP cost model (§V-A).
            let _ = self.cost.fit();
        }
        if self.variant != GtVariant::Base {
            self.emit_drift_telemetry(&telemetry);
        }

        let oom = sim.memory.oom().map(|e| e.to_string());
        let report = BatchReport {
            loss,
            sim,
            prepro: Some(prepro),
            num_nodes: pr.work.total_nodes as usize,
            num_edges,
            oom,
            outcome: BatchOutcome::Succeeded,
            telemetry: telemetry.clone(),
        };
        telemetry
            .counter("gt_train_batches_total", "Training batches completed")
            .inc();
        telemetry
            .histogram_us(
                "gt_batch_e2e_us",
                "End-to-end batch latency (overlapped), µs",
            )
            .observe(report.e2e_us(true));
        telemetry
            .histogram_us("gt_prepro_makespan_us", "Preprocessing makespan, µs")
            .observe(report.prepro_us());
        telemetry
            .counter("gt_transfer_bytes_total", "Bytes moved over PCIe")
            .add(pr.work.total_feature_bytes + pr.work.total_structure_bytes());
        report
    }
}

/// The first layer's input: the sampled vertices' rows of the embedding
/// table, read in place (row `new` = `data.features` row `new_to_orig[new]`).
fn input_rows<'a>(data: &'a GraphData, pr: &'a Sampled) -> Operand<'a> {
    Operand::Rows(Rows {
        table: &data.features,
        ids: &pr.new_to_orig,
    })
}

/// Charge the loss kernel (elementwise over the batch logits).
fn sim_loss_record(sim: &mut SimContext, logits: &Matrix) -> f64 {
    sim.record_gpu(
        gt_sim::Phase::Loss,
        gt_sim::KernelStats {
            flops: 4 * logits.len() as u64,
            global_read_bytes: logits.bytes(),
            global_write_bytes: logits.bytes(),
            launches: 1,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sample::BatchIter;
    use gt_sim::Phase;

    fn data() -> GraphData {
        GraphData::synthetic(300, 3000, 16, 4, 3)
    }

    fn trainer(variant: GtVariant, model: ModelConfig) -> GraphTensor {
        let mut t = GraphTensor::new(variant, model, SystemSpec::tiny());
        t.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 11,
            ..Default::default()
        };
        t
    }

    #[test]
    fn gcn_loss_decreases_over_batches() {
        let d = GraphData::synthetic_learnable(300, 3000, 16, 2, 3);
        let mut t = trainer(GtVariant::Base, ModelConfig::gcn(2, 16, 2));
        t.lr = 0.3;
        let batches: Vec<Vec<VId>> = BatchIter::new(300, 32, 5).take(8).collect();
        // Sampled minibatches are noisy; compare epoch-average losses.
        let epoch = |t: &mut GraphTensor| -> f32 {
            batches
                .iter()
                .map(|b| t.train_batch(&d, b).loss)
                .sum::<f32>()
                / batches.len() as f32
        };
        let first = epoch(&mut t);
        let mut last = first;
        for _ in 0..6 {
            last = epoch(&mut t);
        }
        assert!(
            last < first * 0.9,
            "loss did not improve: first epoch {first}, last epoch {last}"
        );
    }

    #[test]
    fn ngcf_trains_and_charges_edge_weighting() {
        let d = data();
        let mut t = trainer(GtVariant::Base, ModelConfig::ngcf(2, 16, 4));
        let r = t.train_batch(&d, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(r.loss.is_finite());
        assert!(r.phase_us(Phase::EdgeWeighting) > 0.0);
        assert!(r.phase_us(Phase::Aggregation) > 0.0);
        assert!(r.phase_us(Phase::Combination) > 0.0);
        // Printed by the set-model (`feature_wise_cache`) accounting that
        // Pull and NeighborApply charged before the closed form.
        assert_eq!(r.sim.total_stats().cache_loaded_bytes, 55552);
    }

    #[test]
    fn inference_through_the_view_equals_a_forward_pass_over_gathered_features() {
        let d = data();
        let batch: Vec<VId> = (0..16).collect();
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for variant in [GtVariant::Base, GtVariant::Dynamic] {
            let mut t = trainer(variant, ModelConfig::gcn(2, 16, 4));
            t.train_batch(&d, &batch);
            let logits = t.infer_batch(&d, &batch);

            // The same forward pass by hand, fed `run_prepro`'s gathered
            // feature matrix.
            let mut cfg = t.sampler.clone();
            cfg.seed = cfg.seed.wrapping_add(0x1FE0);
            let pr = crate::prepro::run_prepro(&d, &batch, &cfg);
            let (mut dfg, pairs) = t.build_dfg(&pr.layers);
            if variant != GtVariant::Base {
                apply_dkp(&mut dfg, pairs, &t.cost, false, &t.counters, None);
            }
            let mut sim = SimContext::new(t.sys.gpu.clone());
            let mut ctx = ExecCtx {
                sim: &mut sim,
                params: &mut t.params,
            };
            let values = dfg.forward(&[Operand::Dense(&pr.features)], &mut ctx);
            assert_eq!(bits(&logits), bits(values.get(dfg.output())), "{variant:?}");
        }
    }

    #[test]
    fn dynamic_matches_base_numerics() {
        let d = data();
        let mut base = trainer(GtVariant::Base, ModelConfig::gcn(2, 16, 4));
        let mut dynamic = trainer(GtVariant::Dynamic, ModelConfig::gcn(2, 16, 4));
        let batch: Vec<VId> = (0..16).collect();
        let rb = base.train_batch(&d, &batch);
        let rd = dynamic.train_batch(&d, &batch);
        assert!(
            (rb.loss - rd.loss).abs() < 1e-4,
            "base {} vs dynamic {}",
            rb.loss,
            rd.loss
        );
        let (af, cf) = dynamic.dkp_decisions();
        assert_eq!(af + cf, 2, "one decision per layer");
        assert_eq!(base.dkp_decisions(), (0, 0));
    }

    #[test]
    fn calibration_fits_after_configured_batches() {
        let d = data();
        let mut t = trainer(GtVariant::Dynamic, ModelConfig::gcn(2, 16, 4));
        t.calibration_batches = 2;
        let batch: Vec<VId> = (0..8).collect();
        t.train_batch(&d, &batch);
        assert!(t.cost_model().fit_error().is_none());
        t.train_batch(&d, &batch);
        assert!(t.cost_model().fit_error().is_some());
        let err = t.cost_model().fit_error().unwrap();
        assert!(err < 0.5, "fit error too large: {err}");
    }

    #[test]
    fn prepro_variant_schedules_pipeline() {
        // Large enough that transfers and sampling dominate chunk overheads.
        let d = GraphData::synthetic(2000, 40_000, 256, 4, 3);
        let mut serial = trainer(GtVariant::Dynamic, ModelConfig::gcn(2, 16, 4));
        let mut pipe = trainer(GtVariant::Prepro, ModelConfig::gcn(2, 16, 4));
        serial.sampler.fanout = 10;
        pipe.sampler.fanout = 10;
        let batch: Vec<VId> = (0..300).collect();
        let rs = serial.train_batch(&d, &batch);
        let rp = pipe.train_batch(&d, &batch);
        assert!(
            rp.prepro_us() < rs.prepro_us(),
            "pipelined {} !< serial {}",
            rp.prepro_us(),
            rs.prepro_us()
        );
    }

    #[test]
    fn no_bloat_counters_for_napa() {
        let d = data();
        let mut t = trainer(GtVariant::Base, ModelConfig::ngcf(2, 16, 4));
        let r = t.train_batch(&d, &[0, 1, 2, 3]);
        // NAPA performs no sparse→dense conversion and no translation.
        assert_eq!(r.phase_us(Phase::Sparse2Dense), 0.0);
        assert_eq!(r.phase_us(Phase::FormatTranslation), 0.0);
        assert!(r.oom.is_none());
    }

    #[test]
    fn report_shapes_are_consistent() {
        let d = data();
        let mut t = trainer(GtVariant::Prepro, ModelConfig::gcn(2, 16, 4));
        let r = t.train_batch(&d, &[0, 1, 2, 3, 4]);
        assert!(r.num_nodes >= 5);
        assert!(r.num_edges >= r.num_nodes); // self-loops guarantee ≥
        assert!(r.gpu_us() > 0.0);
        assert!(r.e2e_us(true) <= r.e2e_us(false));
    }
}
