//! Baseline GNN frameworks, reimplemented as execution strategies on the
//! GraphTensor-RS substrate (§III, DESIGN.md §2).
//!
//! Every baseline computes *numerically identical* results to GraphTensor
//! — its kernels are NAPA's, reading the sampled rows in place — while
//! charging the device model the way its real counterpart behaves:
//!
//! * [`frameworks`] — the [`gt_core::Framework`] implementations: PyG,
//!   PyG-MT, DGL, GNNAdvisor, SALIENT and ROC, each with its preprocessing
//!   schedule and the pricing of its kernels;
//! * `priced` — the one kernel op: `Pull` or `NeighborApply` numerics, plus
//!   a pricing that says what the framework pays around them;
//! * `dl` — the **DL approach** (PyG, PyG-MT, SALIENT): sparse→dense copies
//!   ahead of DL-op edge weighting → GPU *memory bloat* (Fig 6a);
//! * `graph_approach` — the **Graph approach**: COO-resident DGL pays a
//!   *format translation* per direction, CSR-resident ROC one before
//!   backward SpMM and one before SDDMM; edge-wise SpMM/SDDMM scheduling →
//!   *cache bloat* (Fig 6b);
//! * `gnnadvisor` — GNNAdvisor's neighbor groups balance load but make
//!   several SMs update one destination → synchronization overhead; no
//!   edge-weighting support, so NGCF falls back to DL ops.

mod dl;
pub mod frameworks;
mod gnnadvisor;
mod graph_approach;
mod priced;

pub use frameworks::{Baseline, BaselineKind};

/// A layer over `num_src` sources and `num_dst` destinations from
/// `(src, dst)` edges, CSR and CSC both in `edges` order.
#[cfg(test)]
fn test_layer(
    num_src: usize,
    num_dst: usize,
    edges: &[(u32, u32)],
) -> std::sync::Arc<gt_sample::LayerGraph> {
    use gt_graph::convert::{coo_to_csc, coo_to_csr};
    let coo = gt_graph::Coo::from_edges(num_src.max(num_dst), edges);
    let (csr_full, _) = coo_to_csr(&coo);
    let csr = gt_graph::Csr::new(csr_full.indptr[..=num_dst].to_vec(), csr_full.srcs);
    let (csc, _) = coo_to_csc(&coo);
    std::sync::Arc::new(gt_sample::LayerGraph {
        csr,
        csc,
        num_dst,
        num_src,
    })
}
