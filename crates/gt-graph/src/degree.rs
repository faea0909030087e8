//! Degree statistics and CDFs (Fig 8).
//!
//! §IV-B motivates feature-wise scheduling with two observations about
//! *sampled* graphs versus their originals: the average degree is ~3.4×
//! smaller, and the degree distribution is nearly uniform (bounded fanout).
//! [`DegreeStats`] computes the mean, standard deviation, and CDF needed to
//! regenerate Figs 8a–8c.

use crate::{Csr, VId};

/// Summary statistics over per-vertex (in-)degrees.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Per-vertex degree histogram: `hist[k]` = number of vertices with
    /// degree `k`.
    pub hist: Vec<u64>,
    /// Arithmetic mean degree.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Maximum degree observed.
    pub max: usize,
    /// Number of vertices considered.
    pub num_vertices: usize,
}

impl DegreeStats {
    /// Statistics over an explicit degree sequence.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut hist: Vec<u64> = Vec::new();
        let mut n = 0usize;
        let mut sum = 0f64;
        let mut sumsq = 0f64;
        let mut max = 0usize;
        for d in degrees {
            if d >= hist.len() {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
            n += 1;
            sum += d as f64;
            sumsq += (d * d) as f64;
            max = max.max(d);
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            (sumsq / n as f64 - mean * mean).max(0.0)
        };
        DegreeStats {
            hist,
            mean,
            std_dev: var.sqrt(),
            max,
            num_vertices: n,
        }
    }

    /// In-degree statistics of a dst-indexed CSR.
    pub fn of_csr(csr: &Csr) -> Self {
        Self::from_degrees((0..csr.num_vertices() as VId).map(|d| csr.degree(d)))
    }

    /// In-degree statistics excluding isolated (degree-0) vertices — sampled
    /// subgraphs renumber only touched vertices, so comparisons against
    /// originals should skip padding zeros.
    pub fn of_csr_nonisolated(csr: &Csr) -> Self {
        Self::from_degrees(
            (0..csr.num_vertices() as VId)
                .map(|d| csr.degree(d))
                .filter(|&d| d > 0),
        )
    }

    /// CDF points `(degree, P(deg ≤ degree))` for every occupied degree.
    pub fn cdf(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (k, &c) in self.hist.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((k, cum as f64 / self.num_vertices as f64));
            }
        }
        out
    }

    /// Smallest degree k with P(deg ≤ k) ≥ q.
    pub fn quantile(&self, q: f64) -> usize {
        let target = (q * self.num_vertices as f64).ceil() as u64;
        let mut cum = 0u64;
        for (k, &c) in self.hist.iter().enumerate() {
            cum += c;
            if cum >= target {
                return k;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::Coo;

    #[test]
    fn mean_and_std() {
        let s = DegreeStats::from_degrees([2, 2, 2, 2].into_iter());
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        let skew = DegreeStats::from_degrees([0, 0, 0, 8].into_iter());
        assert_eq!(skew.mean, 2.0);
        assert!(skew.std_dev > 3.0);
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let s = DegreeStats::from_degrees([1, 2, 2, 5].into_iter());
        let cdf = s.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn quantiles() {
        let s = DegreeStats::from_degrees([1, 2, 3, 4].into_iter());
        assert_eq!(s.quantile(0.5), 2);
        assert_eq!(s.quantile(1.0), 4);
    }

    #[test]
    fn csr_degrees() {
        let coo = Coo::from_edges(4, &[(0, 1), (2, 1), (3, 1), (1, 2)]);
        let (csr, _) = coo_to_csr(&coo);
        let s = DegreeStats::of_csr(&csr);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.max, 3);
        assert_eq!(s.mean, 1.0);
        let ni = DegreeStats::of_csr_nonisolated(&csr);
        assert_eq!(ni.num_vertices, 2);
        assert_eq!(ni.mean, 2.0);
    }

    #[test]
    fn empty_sequence() {
        let s = DegreeStats::from_degrees(std::iter::empty());
        assert_eq!(s.mean, 0.0);
    }
}
