//! Reference sparse kernels: SpMM and SDDMM (§III, Fig 5b).
//!
//! Graph-approach frameworks express aggregation as SpMM (`S · D`) and edge
//! weighting as SDDMM (`(D · Dᵀ) ∘ S`). These straightforward sequential
//! implementations are the *correctness oracles*: the scheduling-aware
//! kernels in `gt-core` (feature-wise NAPA) and `gt-baselines` (edge-wise)
//! must produce numerically identical results while charging different
//! cache/memory behaviour.

use crate::dense::Matrix;
use gt_graph::Csr;

/// How aggregated neighbor embeddings are reduced (`f` in §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Plain sum.
    Sum,
    /// Arithmetic mean (GCN's aggregation).
    Mean,
    /// Elementwise max (GraphSAGE-pool style).
    Max,
}

/// SpMM: for every destination `d`, reduce the embeddings of its sources.
/// `features` is indexed by source id; the output row `d` is
/// `reduce_{s ∈ srcs(d)} features[s]`. Destinations without sources get 0.
pub fn spmm(csr: &Csr, features: &Matrix, reduce: Reduce) -> Matrix {
    let f = features.cols();
    let mut out = Matrix::zeros(csr.num_vertices(), f);
    for (d, srcs) in csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let orow = out.row_mut(d as usize);
        match reduce {
            Reduce::Sum | Reduce::Mean => {
                for &s in srcs {
                    for (o, &x) in orow.iter_mut().zip(features.row(s as usize)) {
                        *o += x;
                    }
                }
                if reduce == Reduce::Mean {
                    let inv = 1.0 / srcs.len() as f32;
                    for o in orow.iter_mut() {
                        *o *= inv;
                    }
                }
            }
            Reduce::Max => {
                orow.copy_from_slice(features.row(srcs[0] as usize));
                for &s in &srcs[1..] {
                    for (o, &x) in orow.iter_mut().zip(features.row(s as usize)) {
                        *o = o.max(x);
                    }
                }
            }
        }
    }
    out
}

/// Weighted SpMM: like [`spmm`] but each (dst, src) edge's contribution is
/// first scaled elementwise by its weight vector from `edge_weights`
/// (row = edge id in CSR order). This is `f(h(X))` with `h` = weighted sum.
/// `Max` has no weighted form here and is refused.
pub fn spmm_weighted(
    csr: &Csr,
    features: &Matrix,
    edge_weights: &Matrix,
    reduce: Reduce,
) -> Matrix {
    assert!(
        reduce != Reduce::Max,
        "weighted aggregation: Max is not supported"
    );
    assert_eq!(
        edge_weights.rows(),
        csr.num_edges(),
        "one weight row per edge"
    );
    assert_eq!(edge_weights.cols(), features.cols(), "weight dim mismatch");
    let f = features.cols();
    let mut out = Matrix::zeros(csr.num_vertices(), f);
    for (d, srcs) in csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let range = csr.edge_range(d);
        let orow = out.row_mut(d as usize);
        for (&s, e) in srcs.iter().zip(range) {
            let w = edge_weights.row(e);
            for ((o, &x), &wk) in orow.iter_mut().zip(features.row(s as usize)).zip(w) {
                *o += x * wk;
            }
        }
        if reduce == Reduce::Mean {
            let inv = 1.0 / srcs.len() as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}

/// The per-edge weight function `g` of SDDMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Elementwise product of src and dst embeddings (NGCF's similarity).
    ElemMul,
    /// Elementwise sum.
    ElemAdd,
    /// Scalar dot product broadcast across the feature dim (GAT-like score).
    Dot,
}

/// SDDMM: compute `g(src_embedding, dst_embedding)` for every edge of the
/// graph, in CSR edge order. Output row `e` is the weight vector of edge `e`.
pub fn sddmm(csr: &Csr, features: &Matrix, op: EdgeOp) -> Matrix {
    let f = features.cols();
    let mut out = Matrix::zeros(csr.num_edges(), f);
    for (d, srcs) in csr.iter() {
        let drow: Vec<f32> = features.row(d as usize).to_vec();
        for (&s, e) in srcs.iter().zip(csr.edge_range(d)) {
            let srow = features.row(s as usize);
            let orow = out.row_mut(e);
            match op {
                EdgeOp::ElemMul => {
                    for ((o, &a), &b) in orow.iter_mut().zip(srow).zip(&drow) {
                        *o = a * b;
                    }
                }
                EdgeOp::ElemAdd => {
                    for ((o, &a), &b) in orow.iter_mut().zip(srow).zip(&drow) {
                        *o = a + b;
                    }
                }
                EdgeOp::Dot => {
                    let dot: f32 = srow.iter().zip(&drow).map(|(&a, &b)| a * b).sum();
                    for o in orow.iter_mut() {
                        *o = dot;
                    }
                }
            }
        }
    }
    out
}

/// Scatter gradients from destinations back to sources: the backward of
/// [`spmm`]. `grad` is indexed by dst; returns per-src accumulated grads
/// (`f'` of Fig 3b). For `Mean`, each edge contribution is scaled by
/// 1/deg(dst) to match the forward.
pub fn spmm_backward(csr: &Csr, grad: &Matrix, num_srcs: usize, reduce: Reduce) -> Matrix {
    assert!(
        reduce != Reduce::Max,
        "max backward needs forward argmax state"
    );
    let f = grad.cols();
    let mut out = Matrix::zeros(num_srcs, f);
    for (d, srcs) in csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let scale = match reduce {
            Reduce::Mean => 1.0 / srcs.len() as f32,
            _ => 1.0,
        };
        let grow: Vec<f32> = grad.row(d as usize).iter().map(|&g| g * scale).collect();
        for &s in srcs {
            for (o, &g) in out.row_mut(s as usize).iter_mut().zip(&grow) {
                *o += g;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::convert::coo_to_csr;
    use gt_graph::Coo;

    /// dst 0 ← {1, 2}; dst 1 ← {2}; dst 2 ← {}.
    fn small() -> Csr {
        let coo = Coo::from_edges(3, &[(1, 0), (2, 0), (2, 1)]);
        coo_to_csr(&coo).0
    }

    fn feats() -> Matrix {
        Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.])
    }

    #[test]
    fn spmm_sum_and_mean() {
        let csr = small();
        let s = spmm(&csr, &feats(), Reduce::Sum);
        assert_eq!(s.row(0), &[5., 50.]);
        assert_eq!(s.row(1), &[3., 30.]);
        assert_eq!(s.row(2), &[0., 0.]);
        let m = spmm(&csr, &feats(), Reduce::Mean);
        assert_eq!(m.row(0), &[2.5, 25.]);
        assert_eq!(m.row(1), &[3., 30.]);
    }

    #[test]
    fn spmm_max() {
        let csr = small();
        let m = spmm(&csr, &feats(), Reduce::Max);
        assert_eq!(m.row(0), &[3., 30.]);
    }

    #[test]
    fn sddmm_elem_mul() {
        let csr = small();
        let w = sddmm(&csr, &feats(), EdgeOp::ElemMul);
        assert_eq!(w.rows(), 3);
        // Edge order: (dst 0: srcs 1,2), (dst 1: src 2).
        assert_eq!(w.row(0), &[2. * 1., 20. * 10.]);
        assert_eq!(w.row(1), &[3. * 1., 30. * 10.]);
        assert_eq!(w.row(2), &[3. * 2., 30. * 20.]);
    }

    #[test]
    fn sddmm_dot_broadcasts() {
        let csr = small();
        let w = sddmm(&csr, &feats(), EdgeOp::Dot);
        let expect = 2. * 1. + 20. * 10.;
        assert_eq!(w.row(0), &[expect, expect]);
    }

    #[test]
    fn weighted_spmm_matches_manual() {
        let csr = small();
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let plain = spmm(&csr, &feats(), Reduce::Sum);
        let weighted = spmm_weighted(&csr, &feats(), &ones, Reduce::Sum);
        assert!(plain.max_abs_diff(&weighted) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "weighted aggregation: Max is not supported")]
    fn weighted_spmm_refuses_max() {
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        spmm_weighted(&small(), &feats(), &ones, Reduce::Max);
    }

    #[test]
    fn spmm_backward_transposes() {
        let csr = small();
        let grad = Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 0., 0.]);
        let g = spmm_backward(&csr, &grad, 3, Reduce::Sum);
        // src 1 feeds dst 0 → grad 1; src 2 feeds dsts 0 and 1 → 1 + 2 = 3.
        assert_eq!(g.row(1), &[1., 1.]);
        assert_eq!(g.row(2), &[3., 3.]);
        assert_eq!(g.row(0), &[0., 0.]);
    }

    #[test]
    fn mean_backward_scales_by_degree() {
        let csr = small();
        let grad = Matrix::from_vec(3, 2, vec![2., 2., 4., 4., 0., 0.]);
        let g = spmm_backward(&csr, &grad, 3, Reduce::Mean);
        // dst 0 has degree 2 → each src gets 2/2 = 1; dst 1 degree 1 → 4.
        assert_eq!(g.row(1), &[1., 1.]);
        assert_eq!(g.row(2), &[1. + 4., 1. + 4.]);
    }

    #[test]
    fn finite_difference_check_spmm_mean() {
        // Numerical gradient of L = Σ spmm(X) against spmm_backward.
        let csr = small();
        let x = feats();
        let eps = 1e-2f32;
        let loss = |m: &Matrix| spmm(&csr, m, Reduce::Mean).data().iter().sum::<f32>();
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let analytic = spmm_backward(&csr, &ones, 3, Reduce::Mean);
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2,
                "elem {i}: numeric {num} vs analytic {}",
                analytic.data()[i]
            );
        }
    }
}
