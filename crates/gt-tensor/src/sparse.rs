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

/// How aggregated neighbor embeddings are reduced (`f` in §II-A): the
/// arithmetic mean, which both of the paper's models (GCN and NGCF, §VI)
/// use. It is linear, which is what lets DKP move the MatMul past the
/// aggregation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Arithmetic mean over a destination's sources.
    Mean,
}

/// Mean SpMM: for every destination `d`, average the embeddings of its
/// sources. `features` is indexed by source id; the output row `d` is
/// `mean_{s ∈ srcs(d)} features[s]`. Destinations without sources get 0.
pub fn spmm(csr: &Csr, features: &Matrix) -> Matrix {
    let f = features.cols();
    let mut out = Matrix::zeros(csr.num_vertices(), f);
    for (d, srcs) in csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let orow = out.row_mut(d as usize);
        for &s in srcs {
            for (o, &x) in orow.iter_mut().zip(features.row(s as usize)) {
                *o += x;
            }
        }
        scale_by_inverse_degree(orow, srcs.len());
    }
    out
}

/// Weighted SpMM: like [`spmm`], but each (dst, src) edge contributes its
/// source embedding plus its weight vector from `edge_weights` (row = edge
/// id in CSR order). This is `f(h(X))` with NGCF's `h`, the sum.
pub fn spmm_weighted(csr: &Csr, features: &Matrix, edge_weights: &Matrix) -> Matrix {
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
                *o += x + wk;
            }
        }
        scale_by_inverse_degree(orow, srcs.len());
    }
    out
}

/// The mean's last step: scale an accumulated row by `1 / degree`.
fn scale_by_inverse_degree(row: &mut [f32], degree: usize) {
    let inv = 1.0 / degree as f32;
    for o in row.iter_mut() {
        *o *= inv;
    }
}

/// The per-edge weight function `g` of SDDMM: the elementwise product of
/// the src and dst embeddings, NGCF's similarity (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Elementwise product of src and dst embeddings.
    ElemMul,
}

/// SDDMM: compute `g(src_embedding, dst_embedding)` for every edge of the
/// graph, in CSR edge order. Output row `e` is the weight vector of edge `e`.
pub fn sddmm(csr: &Csr, features: &Matrix) -> Matrix {
    let f = features.cols();
    let mut out = Matrix::zeros(csr.num_edges(), f);
    for (d, srcs) in csr.iter() {
        let drow = features.row(d as usize);
        for (&s, e) in srcs.iter().zip(csr.edge_range(d)) {
            let srow = features.row(s as usize);
            for ((o, &a), &b) in out.row_mut(e).iter_mut().zip(srow).zip(drow) {
                *o = a * b;
            }
        }
    }
    out
}

/// Scatter gradients from destinations back to sources: the backward of
/// [`spmm`]. `grad` is indexed by dst; returns per-src accumulated grads
/// (`f'` of Fig 3b), each edge contribution scaled by 1/deg(dst) to match
/// the forward.
pub fn spmm_backward(csr: &Csr, grad: &Matrix, num_srcs: usize) -> Matrix {
    let f = grad.cols();
    let mut out = Matrix::zeros(num_srcs, f);
    for (d, srcs) in csr.iter() {
        if srcs.is_empty() {
            continue;
        }
        let scale = 1.0 / srcs.len() as f32;
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
    fn spmm_mean() {
        let csr = small();
        let m = spmm(&csr, &feats());
        assert_eq!(m.row(0), &[2.5, 25.]);
        assert_eq!(m.row(1), &[3., 30.]);
        assert_eq!(m.row(2), &[0., 0.]);
    }

    #[test]
    fn sddmm_elem_mul() {
        let csr = small();
        let w = sddmm(&csr, &feats());
        assert_eq!(w.rows(), 3);
        // Edge order: (dst 0: srcs 1,2), (dst 1: src 2).
        assert_eq!(w.row(0), &[2. * 1., 20. * 10.]);
        assert_eq!(w.row(1), &[3. * 1., 30. * 10.]);
        assert_eq!(w.row(2), &[3. * 2., 30. * 20.]);
    }

    #[test]
    fn weighted_spmm_matches_manual() {
        let csr = small();
        let zeros = Matrix::zeros(3, 2);
        assert_eq!(spmm_weighted(&csr, &feats(), &zeros), spmm(&csr, &feats()));
        // dst 0 averages (x₁ + w₀) and (x₂ + w₁).
        let w = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let got = spmm_weighted(&csr, &feats(), &w);
        assert_eq!(
            got.row(0),
            &[(2. + 1. + 3. + 3.) / 2., (20. + 2. + 30. + 4.) / 2.]
        );
        assert_eq!(got.row(1), &[3. + 5., 30. + 6.]);
    }

    #[test]
    fn spmm_backward_transposes() {
        let csr = small();
        let grad = Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 0., 0.]);
        let g = spmm_backward(&csr, &grad, 3);
        // src 1 feeds dst 0 (degree 2) → grad 1/2; src 2 feeds dsts 0 and 1
        // → 1/2 + 2.
        assert_eq!(g.row(1), &[0.5, 0.5]);
        assert_eq!(g.row(2), &[2.5, 2.5]);
        assert_eq!(g.row(0), &[0., 0.]);
    }

    #[test]
    fn mean_backward_scales_by_degree() {
        let csr = small();
        let grad = Matrix::from_vec(3, 2, vec![2., 2., 4., 4., 0., 0.]);
        let g = spmm_backward(&csr, &grad, 3);
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
        let loss = |m: &Matrix| spmm(&csr, m).data().iter().sum::<f32>();
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let analytic = spmm_backward(&csr, &ones, 3);
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
