//! The NAPA programming model (§IV-B): `NeighborApply`, `Pull`, `Apply`.
//!
//! All three primitives traverse per-layer subgraphs **in CSR only**
//! (dst-indexed), walk destinations rather than edges, and schedule work
//! feature-wise: every feature element belonging to one destination is
//! processed within the same (modeled) SM, so destination embeddings are
//! loaded once and reused (Fig 9). `Apply` is plain dense MLP work and maps
//! to [`gt_tensor::dfg::Linear`]/[`gt_tensor::dfg::Relu`] — "MLP computations
//! are mostly dense matrix transformation, which is already well harmonized
//! with GPU's massive computing".

pub mod neighbor_apply;
pub mod pull;
pub mod schedule;

pub use neighbor_apply::NeighborApply;
pub use pull::Pull;

/// A hand-built layer for kernel tests: `(src, dst)` edges over `num_src`
/// sources and `num_dst` destinations, CSR and CSC both in `edges` order.
#[cfg(test)]
pub(crate) fn test_layer(
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
