//! Training losses: softmax cross-entropy (node classification — GCN's
//! typical head) and mean squared error (link-score regression — NGCF-style
//! recommendation heads).

use crate::dense::Matrix;

/// Softmax cross-entropy over logits with integer class labels.
/// Returns `(mean loss, gradient w.r.t. logits)`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    let n = logits.rows();
    let c = logits.cols();
    let mut grad = Matrix::zeros(n, c);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        assert!(label < c, "label {label} out of range for {c} classes");
        let p_label = exps[label] / sum;
        loss += -(p_label.max(1e-30)).ln();
        let grow = grad.row_mut(r);
        for (k, g) in grow.iter_mut().enumerate() {
            let p = exps[k] / sum;
            *g = (p - if k == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (loss / n as f32, grad)
}

/// Classification accuracy of argmax(logits) against labels.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &l)| {
            let row = logits.row(r);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            argmax == l
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xent_prefers_correct_class() {
        let good = Matrix::from_vec(1, 3, vec![10.0, 0.0, 0.0]);
        let bad = Matrix::from_vec(1, 3, vec![0.0, 10.0, 0.0]);
        let (lg, _) = softmax_cross_entropy(&good, &[0]);
        let (lb, _) = softmax_cross_entropy(&bad, &[0]);
        assert!(lg < 0.01);
        assert!(lb > 5.0);
    }

    #[test]
    fn xent_gradient_numerical_check() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut p = logits.clone();
            p.data_mut()[i] += eps;
            let mut m = logits.clone();
            m.data_mut()[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&p, &labels);
            let (lm, _) = softmax_cross_entropy(&m, &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "elem {i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn xent_grad_rows_sum_to_zero() {
        let logits = Matrix::from_vec(1, 4, vec![0.3, 0.1, -0.5, 2.0]);
        let (_, g) = softmax_cross_entropy(&logits, &[1]);
        let s: f32 = g.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
    }
}
