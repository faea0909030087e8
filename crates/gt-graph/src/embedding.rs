//! Dense per-vertex embedding tables (Fig 1c).
//!
//! An embedding table is one contiguous row-major `f32` buffer: row `v` is
//! vertex `v`'s feature vector. Preprocessing's embedding-lookup stage (K)
//! gathers sampled rows from the global table into a fresh compact table
//! that is then transferred to the device (§II-B, Fig 4b).

use crate::VId;

/// Row-major dense matrix of per-vertex features.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Zero-initialized table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        EmbeddingTable {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        }
    }

    /// Build from an existing buffer; `data.len()` must equal `rows * dim`.
    pub fn from_vec(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "buffer size mismatch");
        EmbeddingTable { rows, dim, data }
    }

    /// Deterministic pseudo-random table (values in [-1, 1]) from a seed.
    ///
    /// A counter-based SplitMix64 stream: element `i` of the row-major
    /// buffer is `(z >> 40) / 2^24 · 2 − 1` for `z` the SplitMix64
    /// finaliser of `seed + (i + 2)·γ` (`γ = 0x9E3779B97F4A7C15`, wrapping).
    /// Every element is a pure function of its index, so any slice of the
    /// table can be filled on its own ([`fill_random`]).
    pub fn random(rows: usize, dim: usize, seed: u64) -> Self {
        let mut table = EmbeddingTable::zeros(rows, dim);
        fill_random(seed, 0, &mut table.data);
        table
    }

    /// Number of rows (vertices).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `v` as a slice.
    #[inline]
    pub fn row(&self, v: VId) -> &[f32] {
        let lo = v as usize * self.dim;
        &self.data[lo..lo + self.dim]
    }

    /// Mutable row `v`.
    pub fn row_mut(&mut self, v: VId) -> &mut [f32] {
        let lo = v as usize * self.dim;
        &mut self.data[lo..lo + self.dim]
    }

    /// The whole buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable whole buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Size in bytes (the normalization denominator of Figs 6a and 17a).
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Bytes of a single row.
    pub fn row_bytes(&self) -> u64 {
        (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Gather `ids` into a new compact table (preprocessing stage K). Row `i`
    /// of the result is `self.row(ids[i])`.
    pub fn gather(&self, ids: &[VId]) -> EmbeddingTable {
        let mut out = EmbeddingTable::zeros(ids.len(), self.dim);
        for (i, &v) in ids.iter().enumerate() {
            out.row_mut(i as VId).copy_from_slice(self.row(v));
        }
        out
    }

    /// Gather a sub-range of `ids` into a caller-provided buffer — the
    /// chunked form used by the pipelined K→T path (§V-B, Fig 14b).
    pub fn gather_into(&self, ids: &[VId], out: &mut [f32]) {
        assert_eq!(out.len(), ids.len() * self.dim, "output buffer mismatch");
        for (i, &v) in ids.iter().enumerate() {
            out[i * self.dim..(i + 1) * self.dim].copy_from_slice(self.row(v));
        }
    }
}

/// The Weyl increment of [`EmbeddingTable::random`]'s counter.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Elements `first..first + out.len()` of the buffer of
/// `EmbeddingTable::random(_, _, seed)`, written into `out`: the closed
/// form that doc states, one element at a time. Chunks of one table can
/// therefore be filled independently and in any order. Inlined into its
/// callers, so a caller compiled for a wider target feature gets the loop
/// vectorised at that width; lanes are independent elements, so the width
/// cannot change a value.
#[inline(always)]
pub fn fill_random(seed: u64, first: usize, out: &mut [f32]) {
    let mut state = seed.wrapping_add((first as u64).wrapping_add(2).wrapping_mul(GAMMA));
    for x in out {
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // 24 bits: exact through `i32` as through `u64`, and `i32` converts
        // to `f32` in one instruction at every vector width.
        *x = ((z >> 40) as i32) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0;
        state = state.wrapping_add(GAMMA);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_contiguous() {
        let mut t = EmbeddingTable::zeros(3, 2);
        t.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = EmbeddingTable::random(10, 8, 42);
        let b = EmbeddingTable::random(10, 8, 42);
        let c = EmbeddingTable::random(10, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|x| (-1.0..=1.0).contains(x)));
        // Not degenerate: values differ.
        assert!(a.data().iter().any(|&x| x != a.data()[0]));
    }

    #[test]
    fn random_is_its_closed_form() {
        // The SplitMix64 stream as first written: a counter stepped by γ
        // before every draw, starting one step past the seed.
        let reference = |rows: usize, dim: usize, seed: u64| -> Vec<f32> {
            let mut state = seed.wrapping_add(GAMMA);
            (0..rows * dim)
                .map(|_| {
                    state = state.wrapping_add(GAMMA);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^= z >> 31;
                    (z >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
                })
                .collect()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, dim, seed) in [(0, 3, 1), (1, 1, 0), (7, 13, u64::MAX), (33, 100, 0xDA7A)] {
            let want = reference(rows, dim, seed);
            assert_eq!(
                bits(EmbeddingTable::random(rows, dim, seed).data()),
                bits(&want)
            );
            // Any slice, filled on its own, is that slice of the table.
            for (lo, hi) in [(0, 0), (0, want.len()), (want.len() / 3, want.len())] {
                let mut part = vec![0.0; hi - lo];
                fill_random(seed, lo, &mut part);
                assert_eq!(bits(&part), bits(&want[lo..hi]));
            }
        }
    }

    #[test]
    fn gather_reorders_rows() {
        let t = EmbeddingTable::from_vec(3, 2, vec![0., 0., 1., 1., 2., 2.]);
        let g = t.gather(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[2., 2.]);
        assert_eq!(g.row(1), &[0., 0.]);
        assert_eq!(g.row(2), &[2., 2.]);
    }

    #[test]
    fn gather_into_chunk() {
        let t = EmbeddingTable::from_vec(3, 2, vec![0., 0., 1., 1., 2., 2.]);
        let mut buf = vec![0.0; 4];
        t.gather_into(&[1, 2], &mut buf);
        assert_eq!(buf, vec![1., 1., 2., 2.]);
    }

    #[test]
    fn byte_accounting() {
        let t = EmbeddingTable::zeros(5, 4);
        assert_eq!(t.bytes(), 80);
        assert_eq!(t.row_bytes(), 16);
    }

    #[test]
    #[should_panic]
    fn from_vec_size_mismatch_rejected() {
        EmbeddingTable::from_vec(2, 2, vec![0.0; 5]);
    }
}
