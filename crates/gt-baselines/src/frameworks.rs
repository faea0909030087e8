//! The baseline [`Framework`] implementations (§VI "Evaluation method").
//!
//! | Baseline   | Kernels                     | Preprocessing                 |
//! |------------|-----------------------------|-------------------------------|
//! | PyG        | DL-approach                 | serial, **single-threaded**   |
//! | PyG-MT     | DL-approach                 | serial, multi-threaded (§VI-B)|
//! | DGL        | Graph-approach (edge-wise)  | serial, multi-threaded        |
//! | GNNAdvisor | neighbor-group (+DL for `g`)| none (excluded from Fig 19)   |
//! | SALIENT    | DL-approach                 | serial, pinned, overlapped    |
//!
//! All of them schedule aggregation before combination statically; like the
//! paper's Fig 15 methodology, [`Baseline::comb_first`] lets the harness
//! also run the hand-programmed combination-first order and average the two.

use crate::dl::{DlAggregate, DlEdgeWeight};
use crate::gnnadvisor::NeighborGroupAggregate;
use crate::graph_approach::{EdgeWiseAggregate, EdgeWiseEdgeWeight};
use gt_core::config::ModelConfig;
use gt_core::data::GraphData;
use gt_core::framework::{BatchOutcome, BatchReport, Framework, FrameworkTraits};
use gt_core::prepro::{run_prepro, PreproResult};
use gt_core::scheduler::{schedule_prepro, PreproStrategy};
use gt_graph::VId;
use gt_sample::{LayerGraph, SamplerConfig};
use gt_sim::{Schedule, SimContext, SystemSpec};
use gt_tensor::dfg::{Dfg, ExecCtx, Linear, Op, Operand, ParamStore, Relu};
use gt_tensor::loss::softmax_cross_entropy;
use std::sync::Arc;

/// Which competing framework to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// PyTorch Geometric 1.7 (DL-approach, single-threaded sampling).
    Pyg,
    /// PyG with the paper's multi-thread-pool sampling retrofit (§VI-B).
    PygMt,
    /// Deep Graph Library 0.8.2 (Graph-approach).
    Dgl,
    /// GNNAdvisor (OSDI'21), renumbering preprocessing disabled.
    GnnAdvisor,
    /// SALIENT (MLSys'22): pinned-memory transfers + batch overlap.
    Salient,
    /// ROC (MLSys'20): CSR-resident Graph-approach — no translation before
    /// SpMM, but SDDMM needs COO, so edge weighting pays a CSR→COO
    /// translation; edge-wise scheduling throughout (§VII, Table III).
    Roc,
}

impl BaselineKind {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Pyg => "PyG",
            BaselineKind::PygMt => "PyG-MT",
            BaselineKind::Dgl => "DGL",
            BaselineKind::GnnAdvisor => "GNNAdvisor",
            BaselineKind::Salient => "SALIENT",
            BaselineKind::Roc => "ROC",
        }
    }
}

/// A baseline trainer emulating one competing framework.
pub struct Baseline {
    /// Which framework this is.
    pub kind: BaselineKind,
    /// The GNN being trained.
    pub model: ModelConfig,
    /// Modeled system.
    pub sys: SystemSpec,
    /// Sampling configuration (seed advances per batch).
    pub sampler: SamplerConfig,
    /// SGD learning rate.
    pub lr: f32,
    /// Run the hand-programmed combination-first order (for Fig 15's
    /// error bars). Only affects unweighted layers, where the reorder is
    /// mathematically valid.
    pub comb_first: bool,
    params: ParamStore,
    batches_run: usize,
    params_ready: bool,
}

impl Baseline {
    /// Build a baseline trainer.
    pub fn new(kind: BaselineKind, model: ModelConfig, sys: SystemSpec) -> Self {
        Baseline {
            kind,
            model,
            sys,
            sampler: SamplerConfig::default(),
            lr: 0.01,
            comb_first: false,
            params: ParamStore::new(),
            batches_run: 0,
            params_ready: false,
        }
    }

    /// This baseline's aggregation kernel for one layer.
    fn agg_op(&self, layer: Arc<LayerGraph>, weighted: bool) -> Box<dyn Op> {
        let agg = self.model.agg;
        match (self.kind, weighted) {
            (BaselineKind::Dgl, false) => Box::new(EdgeWiseAggregate::new(layer, agg)),
            (BaselineKind::Dgl, true) => Box::new(EdgeWiseAggregate::weighted(
                layer,
                agg,
                self.model.edge.unwrap().h,
            )),
            // ROC keeps CSR resident: SpMM needs no translation.
            (BaselineKind::Roc, false) => {
                Box::new(EdgeWiseAggregate::without_translation(layer, agg))
            }
            (BaselineKind::Roc, true) => Box::new(EdgeWiseAggregate::weighted_no_translation(
                layer,
                agg,
                self.model.edge.unwrap().h,
            )),
            (BaselineKind::GnnAdvisor, false) => Box::new(NeighborGroupAggregate::new(layer, agg)),
            // GNNAdvisor lacks weighted aggregation → DL fallback; all
            // PyG-family baselines use DL ops throughout.
            (_, false) => Box::new(DlAggregate::new(layer, agg)),
            (_, true) => Box::new(DlAggregate::weighted(
                layer,
                agg,
                self.model.edge.unwrap().h,
            )),
        }
    }

    /// This baseline's edge-weighting kernel.
    fn edge_op(&self, layer: Arc<LayerGraph>) -> Box<dyn Op> {
        let g = self.model.edge.expect("edge op requires edge weighting").g;
        match self.kind {
            BaselineKind::Dgl => Box::new(EdgeWiseEdgeWeight::new(layer, g)),
            // ROC translates CSR→COO before SDDMM (§VII: "it still needs to
            // perform format translation (CSR to COO) during SDDMM").
            BaselineKind::Roc => Box::new(EdgeWiseEdgeWeight::with_translation(layer, g)),
            // "GNNAdvisor … has no mechanism to compute edge weighting,
            // which cannot cover diverse GNN models" → DL-approach user code.
            _ => Box::new(DlEdgeWeight::new(layer, g)),
        }
    }

    fn build_dfg(&self, pr: &PreproResult) -> Dfg {
        let mut dfg = Dfg::new();
        let mut x = dfg.input(0);
        for l in 0..self.model.layers {
            let layer = Arc::clone(&pr.layers[l]);
            let weighted = self.model.edge.is_some();
            let w = self.model.weight_name(l);
            let b = self.model.bias_name(l);
            let out = if self.comb_first && !weighted {
                // Hand-programmed combination-first (exact for mean `f`).
                let lin = dfg.op(Linear::new(w, b), &[x]);
                dfg.op_boxed(self.agg_op(layer, false), &[lin])
            } else if weighted {
                let na = dfg.op_boxed(self.edge_op(Arc::clone(&layer)), &[x]);
                let agg = dfg.op_boxed(self.agg_op(layer, true), &[x, na]);
                dfg.op(Linear::new(w, b), &[agg])
            } else {
                let agg = dfg.op_boxed(self.agg_op(layer, false), &[x]);
                dfg.op(Linear::new(w, b), &[agg])
            };
            x = if l + 1 < self.model.layers {
                dfg.op(Relu, &[out])
            } else {
                out
            };
        }
        dfg.set_output(x);
        dfg
    }

    fn prepro_schedule(&self, pr: &PreproResult) -> Option<Schedule> {
        match self.kind {
            BaselineKind::GnnAdvisor => None, // "does not support preprocessing"
            BaselineKind::Pyg => {
                // Single-threaded sampling: same serialized plan on a
                // one-core host (>5× slower in the paper's preliminaries).
                let mut sys = self.sys.clone();
                sys.host.cores = 1;
                Some(schedule_prepro(&pr.work, &sys, PreproStrategy::Serial))
            }
            BaselineKind::PygMt | BaselineKind::Dgl | BaselineKind::Roc => {
                Some(schedule_prepro(&pr.work, &self.sys, PreproStrategy::Serial))
            }
            BaselineKind::Salient => Some(schedule_prepro(
                &pr.work,
                &self.sys,
                PreproStrategy::SerialPinned,
            )),
        }
    }
}

impl Framework for Baseline {
    fn name(&self) -> String {
        self.kind.label().to_string()
    }

    fn traits(&self) -> FrameworkTraits {
        match self.kind {
            BaselineKind::Pyg | BaselineKind::PygMt | BaselineKind::Salient => FrameworkTraits {
                initial_format: "CSR",
                memory_bloat: true,
                format_translation: false,
                cache_bloat: true,
                prepro_overhead: if self.kind == BaselineKind::Salient {
                    'D'
                } else {
                    'O'
                },
            },
            BaselineKind::Dgl => FrameworkTraits {
                initial_format: "COO",
                memory_bloat: false,
                format_translation: true,
                cache_bloat: true,
                prepro_overhead: 'D',
            },
            BaselineKind::Roc => FrameworkTraits {
                initial_format: "CSR",
                memory_bloat: false,
                format_translation: true,
                cache_bloat: true,
                prepro_overhead: 'O',
            },
            BaselineKind::GnnAdvisor => FrameworkTraits {
                initial_format: "CSR",
                memory_bloat: true,
                format_translation: false,
                cache_bloat: true,
                prepro_overhead: 'O',
            },
        }
    }

    fn overlaps_batches(&self) -> bool {
        // §VI-B: DGL overlaps sampling/lookup with GPU work; SALIENT's whole
        // point is overlap; PyG (either threading) does not.
        matches!(self.kind, BaselineKind::Dgl | BaselineKind::Salient)
    }

    fn train_batch(&mut self, data: &GraphData, batch: &[VId]) -> BatchReport {
        if !self.params_ready {
            self.params = self.model.init_params(data.feature_dim());
            self.params_ready = true;
        }
        let mut cfg = self.sampler.clone();
        cfg.seed = cfg.seed.wrapping_add(self.batches_run as u64);
        let pr = run_prepro(data, batch, &cfg);

        let mut sim = SimContext::new(self.sys.gpu.clone());
        let _ = sim.memory.alloc(pr.features.bytes());
        for l in &pr.layers {
            let _ = sim.memory.alloc(l.structure_bytes());
        }

        let dfg = self.build_dfg(&pr);
        let labels = data.batch_labels(batch);
        self.params.zero_grads();
        let (loss, num_edges) = {
            let mut ctx = ExecCtx {
                sim: &mut sim,
                params: &mut self.params,
            };
            let values = dfg.forward(&[Operand::Dense(&pr.features)], &mut ctx);
            let logits = values.get(dfg.output());
            let (loss, grad) = softmax_cross_entropy(logits, &labels);
            dfg.backward(&values, grad, &mut ctx);
            (loss, pr.layers.iter().map(|l| l.csr.num_edges()).sum())
        };
        self.params.sgd_step(self.lr);
        self.batches_run += 1;

        let prepro = self.prepro_schedule(&pr);
        let oom = sim.memory.oom().map(|e| e.to_string());
        BatchReport {
            loss,
            sim,
            prepro,
            num_nodes: pr.work.total_nodes as usize,
            num_edges,
            oom,
            outcome: BatchOutcome::Succeeded,
            telemetry: gt_telemetry::global(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::trainer::{GraphTensor, GtVariant};
    use gt_sim::Phase;

    fn data() -> GraphData {
        GraphData::synthetic(300, 3000, 16, 4, 3)
    }

    fn baseline(kind: BaselineKind, model: ModelConfig) -> Baseline {
        let mut b = Baseline::new(kind, model, SystemSpec::tiny());
        b.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 11,
            ..Default::default()
        };
        b
    }

    #[test]
    fn all_baselines_match_graphtensor_loss() {
        // Identical math on every framework: same batch → same loss.
        let d = data();
        let batch: Vec<VId> = (0..16).collect();
        let mut gt = GraphTensor::new(
            GtVariant::Base,
            ModelConfig::gcn(2, 16, 4),
            SystemSpec::tiny(),
        );
        gt.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 11,
            ..Default::default()
        };
        let want = gt.train_batch(&d, &batch).loss;
        for kind in [
            BaselineKind::Pyg,
            BaselineKind::PygMt,
            BaselineKind::Dgl,
            BaselineKind::GnnAdvisor,
            BaselineKind::Salient,
        ] {
            let mut b = baseline(kind, ModelConfig::gcn(2, 16, 4));
            let got = b.train_batch(&d, &batch).loss;
            assert!(
                (got - want).abs() < 1e-5,
                "{kind:?}: {got} vs GraphTensor {want}"
            );
        }
    }

    #[test]
    fn ngcf_losses_also_match() {
        let d = data();
        let batch: Vec<VId> = (0..12).collect();
        let mut gt = GraphTensor::new(
            GtVariant::Base,
            ModelConfig::ngcf(2, 16, 4),
            SystemSpec::tiny(),
        );
        gt.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 11,
            ..Default::default()
        };
        let want = gt.train_batch(&d, &batch).loss;
        for kind in [
            BaselineKind::Pyg,
            BaselineKind::Dgl,
            BaselineKind::GnnAdvisor,
        ] {
            let mut b = baseline(kind, ModelConfig::ngcf(2, 16, 4));
            let got = b.train_batch(&d, &batch).loss;
            assert!((got - want).abs() < 1e-5, "{kind:?}: {got} vs {want}");
        }
    }

    #[test]
    fn dgl_pays_translation_pyg_pays_s2d() {
        let d = data();
        let batch: Vec<VId> = (0..16).collect();
        let mut dgl = baseline(BaselineKind::Dgl, ModelConfig::gcn(2, 16, 4));
        let r = dgl.train_batch(&d, &batch);
        assert!(r.phase_us(Phase::FormatTranslation) > 0.0);
        assert_eq!(r.phase_us(Phase::Sparse2Dense), 0.0);

        // Fused scatter: PyG's plain GCN aggregation no longer converts...
        let mut pyg = baseline(BaselineKind::Pyg, ModelConfig::gcn(2, 16, 4));
        let r = pyg.train_batch(&d, &batch);
        assert_eq!(r.phase_us(Phase::FormatTranslation), 0.0);
        assert_eq!(r.phase_us(Phase::Sparse2Dense), 0.0);
        // ...but NGCF's DL-op edge weighting cannot avoid it (§III).
        let mut pyg_n = baseline(BaselineKind::Pyg, ModelConfig::ngcf(2, 16, 4));
        let rn = pyg_n.train_batch(&d, &batch);
        assert!(rn.phase_us(Phase::Sparse2Dense) > 0.0);
    }

    #[test]
    fn pyg_single_thread_prepro_is_slowest() {
        let d = data();
        let batch: Vec<VId> = (0..32).collect();
        let mut pyg = baseline(BaselineKind::Pyg, ModelConfig::gcn(2, 16, 4));
        let mut mt = baseline(BaselineKind::PygMt, ModelConfig::gcn(2, 16, 4));
        // tiny host has 2 cores; paper's has 12. Use the paper testbed to
        // see the multi-threading gap.
        pyg.sys = SystemSpec::paper_testbed();
        mt.sys = SystemSpec::paper_testbed();
        let rp = pyg.train_batch(&d, &batch);
        let rm = mt.train_batch(&d, &batch);
        assert!(
            rp.prepro_us() > 1.5 * rm.prepro_us(),
            "PyG {} vs PyG-MT {}",
            rp.prepro_us(),
            rm.prepro_us()
        );
    }

    #[test]
    fn gnnadvisor_has_no_prepro_schedule() {
        let d = data();
        let mut adv = baseline(BaselineKind::GnnAdvisor, ModelConfig::gcn(2, 16, 4));
        let r = adv.train_batch(&d, &[0, 1, 2]);
        assert!(r.prepro.is_none());
        assert_eq!(r.prepro_us(), 0.0);
    }

    #[test]
    fn comb_first_is_numerically_equal_for_gcn() {
        let d = data();
        let batch: Vec<VId> = (0..16).collect();
        let mut af = baseline(BaselineKind::Pyg, ModelConfig::gcn(2, 16, 4));
        let mut cf = baseline(BaselineKind::Pyg, ModelConfig::gcn(2, 16, 4));
        cf.comb_first = true;
        let ra = af.train_batch(&d, &batch);
        let rc = cf.train_batch(&d, &batch);
        assert!(
            (ra.loss - rc.loss).abs() < 1e-4,
            "{} vs {}",
            ra.loss,
            rc.loss
        );
    }

    #[test]
    fn salient_overlaps_and_pins() {
        let d = data();
        let mut sal = baseline(BaselineKind::Salient, ModelConfig::gcn(2, 16, 4));
        let mut pygmt = baseline(BaselineKind::PygMt, ModelConfig::gcn(2, 16, 4));
        assert!(sal.overlaps_batches());
        assert!(!pygmt.overlaps_batches());
        let rs = sal.train_batch(&d, &(0..32).collect::<Vec<_>>());
        let rp = pygmt.train_batch(&d, &(0..32).collect::<Vec<_>>());
        assert!(rs.prepro_us() <= rp.prepro_us());
    }

    #[test]
    fn roc_translates_only_for_edge_weighting() {
        let d = data();
        let batch: Vec<VId> = (0..16).collect();
        // GCN (no edge weighting): ROC's resident CSR serves FWP SpMM, so
        // only the BWP CSC translation is charged — less than DGL's two.
        let mut roc = baseline(BaselineKind::Roc, ModelConfig::gcn(2, 16, 4));
        let mut dgl = baseline(BaselineKind::Dgl, ModelConfig::gcn(2, 16, 4));
        let rr = roc.train_batch(&d, &batch);
        let rd = dgl.train_batch(&d, &batch);
        let troc = rr.phase_us(Phase::FormatTranslation);
        let tdgl = rd.phase_us(Phase::FormatTranslation);
        assert!(troc > 0.0, "ROC still pays BWP translation");
        assert!(troc < tdgl, "ROC {troc} !< DGL {tdgl}");
        // NGCF: ROC pays the CSR→COO SDDMM translation the paper describes.
        let mut roc_n = baseline(BaselineKind::Roc, ModelConfig::ngcf(2, 16, 4));
        let rn = roc_n.train_batch(&d, &batch);
        assert!(rn.phase_us(Phase::FormatTranslation) > troc);
        // Numerics still agree with everyone else.
        let mut gt = baseline(BaselineKind::Pyg, ModelConfig::gcn(2, 16, 4));
        assert!((gt.train_batch(&d, &batch).loss - rr.loss).abs() < 1e-5);
    }

    #[test]
    fn table3_traits_match_paper() {
        let mk = |k| baseline(k, ModelConfig::gcn(2, 16, 4));
        let dgl = mk(BaselineKind::Dgl).traits();
        assert_eq!(dgl.initial_format, "COO");
        assert!(!dgl.memory_bloat && dgl.format_translation && dgl.cache_bloat);
        let pyg = mk(BaselineKind::Pyg).traits();
        assert_eq!(pyg.initial_format, "CSR");
        assert!(pyg.memory_bloat && !pyg.format_translation);
    }
}
