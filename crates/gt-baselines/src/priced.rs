//! The one baseline op: a NAPA kernel's numerics at a framework's price.
//!
//! Every baseline computes the same functions as GraphTensor, so the op runs
//! [`Pull`] (aggregation) or [`NeighborApply`] (edge weighting) on its input
//! rows, read in place. What differs is what the framework pays the device
//! model around that kernel — its schedule, not its computation, as
//! FeatGraph separates them — which a [`Pricing`] spells out:
//!
//! * a COO↔CSR/CSC format translation ahead of either pass
//!   ([`crate::graph_approach`]);
//! * the kernel's traffic: edge-wise blocks and their cache bloat, GNNAdvisor's
//!   neighbor groups ([`crate::gnnadvisor`]), or two sparse→dense per-edge
//!   copies feeding an elementwise DL op ([`crate::dl`]);
//! * the backward writes: the gradients returned, or the forward's per-edge
//!   writes again.
//!
//! [`Priced::new`] maps each [`BaselineKind`] to its pricing.

use crate::frameworks::BaselineKind;
use crate::graph_approach::charge_translation;
use crate::{dl, gnnadvisor};
use gt_core::napa::schedule::edge_wise_cache;
use gt_core::napa::{NeighborApply, Pull};
use gt_sample::LayerGraph;
use gt_sim::{KernelStats, Phase};
use gt_tensor::dense::{Matrix, RowSource};
use gt_tensor::dfg::{ExecCtx, Op, Operand};

/// The NAPA kernel a baseline op computes with.
#[derive(Debug)]
pub(crate) enum Kernel {
    /// Aggregation (SpMM); a weighted Pull reads edge values as its second
    /// input.
    Pull(Pull),
    /// Edge weighting (SDDMM), one output row per edge.
    NeighborApply(NeighborApply),
}

/// How the kernel's blocks reach device memory.
#[derive(Debug)]
enum Traffic {
    /// One block per edge, loading both endpoint rows into whichever SM runs
    /// it ([`edge_wise_cache`]): Graph-approach SpMM/SDDMM and the
    /// DL-approach's fused scatter.
    EdgeWise,
    /// GNNAdvisor's neighbor groups ([`gnnadvisor::stats`]).
    NeighborGroups,
    /// Two sparse→dense per-edge copies, then an elementwise DL op over them
    /// ([`dl::charge_sparse2dense`]).
    DenseCopies,
}

/// What a framework pays around one kernel.
#[derive(Debug)]
struct Pricing {
    /// A format translation ahead of the forward and of the backward pass.
    translate: [bool; 2],
    /// How the kernel reads and writes rows.
    traffic: Traffic,
    /// Backward writes the gradients it returns; otherwise it charges the
    /// forward's per-edge writes again.
    writes_grads: bool,
}

/// A baseline's kernel: NAPA numerics, charged at `pricing`.
#[derive(Debug)]
pub(crate) struct Priced {
    kernel: Kernel,
    pricing: Pricing,
}

impl Priced {
    /// `kernel` as `kind` runs it.
    pub fn new(kind: BaselineKind, kernel: Kernel) -> Self {
        use BaselineKind::{Dgl, GnnAdvisor, Roc};
        use Traffic::{DenseCopies, EdgeWise, NeighborGroups};
        let (translate, traffic, writes_grads) = match (kind, &kernel) {
            // COO resident: SpMM sorts to CSR forward and to CSC backward;
            // SDDMM reads COO as is.
            (Dgl, Kernel::Pull(_)) => ([true, true], EdgeWise, true),
            (Dgl, Kernel::NeighborApply(_)) => ([false, false], EdgeWise, true),
            // CSR resident: SpMM still wants CSC backward, and SDDMM
            // expands CSR→COO first (§VII).
            (Roc, Kernel::Pull(_)) => ([false, true], EdgeWise, true),
            (Roc, Kernel::NeighborApply(_)) => ([true, false], EdgeWise, true),
            (GnnAdvisor, Kernel::Pull(p)) if p.h.is_none() => {
                ([false, false], NeighborGroups, true)
            }
            // The DL approach: PyG, PyG-MT, SALIENT, and GNNAdvisor, which
            // has neither weighted aggregation nor edge weighting.
            (_, Kernel::Pull(_)) => ([false, false], EdgeWise, false),
            (_, Kernel::NeighborApply(_)) => ([false, false], DenseCopies, false),
        };
        Priced {
            kernel,
            pricing: Pricing {
                translate,
                traffic,
                writes_grads,
            },
        }
    }

    fn layer(&self) -> &LayerGraph {
        match &self.kernel {
            Kernel::Pull(p) => &p.layer,
            Kernel::NeighborApply(na) => &na.layer,
        }
    }

    fn phase(&self) -> Phase {
        match self.kernel {
            Kernel::Pull(_) => Phase::Aggregation,
            Kernel::NeighborApply(_) => Phase::EdgeWeighting,
        }
    }

    /// The kernel's device work in one pass over `f`-wide rows.
    pub fn stats(&self, f: usize, num_sms: usize) -> KernelStats {
        let layer = self.layer();
        let (edges, row_bytes) = (layer.csr.num_edges() as u64, (f * 4) as u64);
        let (read, cached) = match self.pricing.traffic {
            Traffic::NeighborGroups => return gnnadvisor::stats(layer, f, num_sms),
            Traffic::EdgeWise => {
                let cached = edge_wise_cache(layer, row_bytes, num_sms).loaded_bytes();
                (cached + layer.csr.storage_bytes(), cached)
            }
            // The elementwise op streams the src and dst copies.
            Traffic::DenseCopies => (2 * edges * row_bytes, 0),
        };
        KernelStats {
            flops: edges * f as u64,
            global_read_bytes: read,
            // Edge-wise blocks accumulate atomically: one write per edge.
            global_write_bytes: edges * row_bytes,
            cache_loaded_bytes: cached,
            launches: 1,
            ..Default::default()
        }
    }

    /// Charge what runs ahead of the kernel in pass `pass` (0 forward, 1
    /// backward): the translation, then the sparse→dense copies, whose bytes
    /// it returns.
    fn charge_ahead(&self, pass: usize, f: usize, ctx: &mut ExecCtx) -> u64 {
        if self.pricing.translate[pass] {
            charge_translation(self.layer(), ctx);
        }
        match self.pricing.traffic {
            Traffic::DenseCopies => dl::charge_sparse2dense(self.layer(), f, 2, ctx),
            _ => 0,
        }
    }

    /// Charge the kernel itself, writing `written` bytes where given, then
    /// release the `copies` bytes made ahead of it.
    fn charge_kernel(&self, f: usize, written: Option<u64>, copies: u64, ctx: &mut ExecCtx) {
        let mut stats = self.stats(f, ctx.sim.device().num_sms);
        if let Some(bytes) = written {
            stats.global_write_bytes = bytes;
        }
        ctx.sim.record_gpu(self.phase(), stats);
        ctx.sim.memory.free(copies);
    }
}

impl Op for Priced {
    fn name(&self) -> &str {
        match self.kernel {
            Kernel::Pull(_) => "baseline_pull",
            Kernel::NeighborApply(_) => "baseline_neighbor_apply",
        }
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let (x, w) = (&inputs[0], inputs.get(1).copied().map(Operand::dense));
        let copies = self.charge_ahead(0, x.cols(), ctx);
        let out = match &self.kernel {
            Kernel::Pull(p) => p.compute(x, w),
            Kernel::NeighborApply(na) => na.compute(x),
        };
        self.charge_kernel(x.cols(), None, copies, ctx);
        out
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let (x, w) = (&inputs[0], inputs.get(1).copied().map(Operand::dense));
        let copies = self.charge_ahead(1, x.cols(), ctx);
        let grads = match &self.kernel {
            Kernel::Pull(p) => {
                let (dx, dw) = p.compute_backward(x, w, grad);
                match p.h {
                    Some(_) => vec![Some(dx), dw],
                    None => vec![Some(dx)],
                }
            }
            Kernel::NeighborApply(na) => vec![Some(na.compute_backward(x, grad))],
        };
        let written = self.pricing.writes_grads;
        let written = written.then(|| grads.iter().flatten().map(Matrix::bytes).sum());
        self.charge_kernel(x.cols(), written, copies, ctx);
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frameworks::BaselineKind::*;
    use crate::test_layer;
    use gt_graph::{EmbeddingTable, VId};
    use gt_sim::{DeviceSpec, SimContext};
    use gt_tensor::dense::Rows;
    use gt_tensor::dfg::ParamStore;
    use gt_tensor::sparse::{EdgeOp, Reduce};
    use std::sync::Arc;

    /// What one forward + backward left: output and gradient bits, every
    /// kernel record, and the memory peak.
    type Run = (Vec<u32>, Vec<Vec<u32>>, Vec<(Phase, KernelStats, u64)>, u64);

    fn run(op: &Priced, inputs: &[Operand]) -> Run {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut sim = SimContext::new(DeviceSpec::tiny());
        let mut params = ParamStore::new();
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let out = op.forward(inputs, &mut ctx);
        let grad = Matrix::from_fn(out.rows(), out.cols(), |r, c| (r * 3 + c) as f32 - 2.5);
        let grads = op.backward(inputs, &out, &grad, &mut ctx);
        let records = sim.records();
        let records = records
            .iter()
            .map(|r| (r.phase, r.stats, r.modeled_us.to_bits()));
        (
            bits(&out),
            grads.iter().flatten().map(bits).collect(),
            records.collect(),
            sim.memory.peak(),
        )
    }

    /// Every pricing arm — each framework's aggregation, GCN's and NGCF's,
    /// and its edge weighting — returns the same bits on rows read in place
    /// as on the gathered copy, and leaves the same kernels and memory peak.
    #[test]
    fn rows_in_place_price_and_compute_like_the_gathered_copy() {
        // dst 3 has no edges; dst 2 has a self-loop.
        let edges = [
            (1, 0),
            (2, 0),
            (5, 0),
            (0, 1),
            (1, 1),
            (3, 2),
            (2, 2),
            (5, 2),
        ];
        let l = test_layer(6, 4, &edges);
        let f = 5;
        let t = l.num_src + 4;
        let table = EmbeddingTable::random(t, f, 29);
        // The table's last row first, then descending, each row twice.
        let ids: Vec<VId> = (0..l.num_src).map(|r| (t - 1 - r / 2) as VId).collect();
        let view = Operand::Rows(Rows {
            table: &table,
            ids: &ids,
        });
        let x = Matrix::from_vec(ids.len(), f, table.gather(&ids).into_vec());
        let w = Matrix::from_fn(l.csr.num_edges(), f, |e, c| (e + c) as f32 * 0.5 - 2.0);
        let (agg, g, h) = (Reduce::Mean, EdgeOp::ElemMul, gt_core::config::HFn::Add);
        for kind in [Pyg, PygMt, Dgl, GnnAdvisor, Salient, Roc] {
            let arms = [
                (Kernel::Pull(Pull::new(Arc::clone(&l), agg)), false),
                (Kernel::Pull(Pull::weighted(Arc::clone(&l), agg, h)), true),
                (
                    Kernel::NeighborApply(NeighborApply::new(Arc::clone(&l), g)),
                    false,
                ),
            ];
            for (kernel, weighted) in arms {
                let op = Priced::new(kind, kernel);
                let (mut dense, mut rows) = (vec![Operand::Dense(&x)], vec![view]);
                if weighted {
                    dense.push(Operand::Dense(&w));
                    rows.push(Operand::Dense(&w));
                }
                let dense = run(&op, &dense);
                assert_eq!(run(&op, &rows), dense, "{kind:?} {:?}", op.pricing);
                assert!(!dense.2.is_empty());
            }
        }
    }
}
