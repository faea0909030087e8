//! Property-based tests on tensor kernels and autodiff invariants.

use gt_graph::convert::coo_to_csr;
use gt_graph::{Coo, VId};
use gt_sim::prop::{check, Gen, CASES};
use gt_tensor::dense::Matrix;
use gt_tensor::lstsq::lstsq;
use gt_tensor::sparse::{spmm, spmm_backward};

/// Small random matrix.
fn matrix(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| g.f64_in(-2.0..2.0) as f32);
    Matrix::from_vec(rows, cols, data.collect())
}

/// Up to `max_e` random edges over `n` vertices, as a CSR and its COO.
fn graph(g: &mut Gen, n: usize, max_e: usize) -> (gt_graph::Csr, Coo) {
    let es = g.vec(0..max_e, |g| (g.range(0..n) as VId, g.range(0..n) as VId));
    let coo = Coo::from_edges(n, &es);
    (coo_to_csr(&coo).0, coo)
}

/// (A·B)ᵀ = Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_identity() {
    check("matmul_transpose_identity", CASES, |g| {
        let (a, b) = (matrix(g, 4, 3), matrix(g, 3, 5));
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert!(left.max_abs_diff(&right) < 1e-4);
    });
}

/// matmul_transpose_b(A, B) = A · Bᵀ.
#[test]
fn matmul_tb_equivalence() {
    check("matmul_tb_equivalence", CASES, |g| {
        let (a, b) = (matrix(g, 4, 6), matrix(g, 5, 6));
        let fast = a.matmul_transpose_b(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    });
}

/// transpose_a_matmul(A, B) = Aᵀ · B.
#[test]
fn matmul_ta_equivalence() {
    check("matmul_ta_equivalence", CASES, |g| {
        let (a, b) = (matrix(g, 6, 4), matrix(g, 6, 5));
        let fast = a.transpose_a_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    });
}

/// Matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributes() {
    check("matmul_distributes", CASES, |g| {
        let (a, b, c) = (matrix(g, 3, 4), matrix(g, 4, 3), matrix(g, 4, 3));
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-3);
    });
}

/// Mean SpMM equals the product with the row-normalized dense adjacency.
#[test]
fn spmm_matches_dense_adjacency() {
    check("spmm_matches_dense_adjacency", CASES, |g| {
        let ((csr, coo), x) = (graph(g, 8, 40), matrix(g, 8, 3));
        let sparse = spmm(&csr, &x);
        // Dense S (dst × src) from the same edges, each 1 / deg(dst).
        let mut s = Matrix::zeros(8, 8);
        for (src, dst) in coo.edges() {
            *s.at_mut(dst as usize, src as usize) += 1.0 / csr.degree(dst) as f32;
        }
        let dense = s.matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-3);
    });
}

/// SpMM backward is the transpose operator: <spmm(X), G> = <X, spmmᵀ(G)>.
#[test]
fn spmm_backward_is_adjoint() {
    check("spmm_backward_is_adjoint", CASES, |g| {
        let ((csr, _), x, grad) = (graph(g, 6, 25), matrix(g, 6, 2), matrix(g, 6, 2));
        let y = spmm(&csr, &x);
        let gx = spmm_backward(&csr, &grad, 6);
        let dot = |a: &Matrix, b: &Matrix| -> f64 {
            let terms = a.data().iter().zip(b.data());
            terms.map(|(&p, &q)| (p * q) as f64).sum()
        };
        assert!((dot(&y, &grad) - dot(&x, &gx)).abs() < 1e-2);
    });
}

/// Least squares on a consistent system recovers the planted solution.
#[test]
fn lstsq_recovers_planted() {
    check("lstsq_recovers_planted", CASES, |g| {
        let coef = [g.f64_in(-3.0..3.0), g.f64_in(-3.0..3.0)];
        let xs = g.vec(8..20, |g| g.f64_in(-5.0..5.0));
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            // Design matrix [x, 1] with distinct x values enforced by index.
            let xi = x + i as f64 * 11.0;
            a.extend_from_slice(&[xi, 1.0]);
            b.push(coef[0] * xi + coef[1]);
        }
        let got = lstsq(&a, 2, &b).expect("full-rank system");
        assert!((got[0] - coef[0]).abs() < 1e-6);
        assert!((got[1] - coef[1]).abs() < 1e-6);
    });
}

/// ReLU gradient is a mask: grad flows exactly where input > 0.
#[test]
fn relu_grad_mask() {
    check("relu_grad_mask", CASES, |g| {
        let (x, grad) = (matrix(g, 3, 5), matrix(g, 3, 5));
        let gx = x.relu_grad(&grad);
        for i in 0..x.len() {
            if x.data()[i] > 0.0 {
                assert_eq!(gx.data()[i], grad.data()[i]);
            } else {
                assert_eq!(gx.data()[i], 0.0);
            }
        }
    });
}
