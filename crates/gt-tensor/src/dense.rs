//! Row-major dense `f32` matrices and the dense kernels behind *combination*
//! (MLP: matmul, bias add, ReLU — the `tf.matmul`/`tf.nn.*` primitives the
//! paper's `Apply` delegates to, §IV-B).
//!
//! All three products (`matmul`, `matmul_transpose_b`, `transpose_a_matmul`)
//! run one band kernel, `band`: the output band is cut into register tiles
//! of `R` rows × `C` feature columns, and each tile accumulates
//! `Σ_k A[r][k]·B[k][j]` with **k ascending per output element**, one rounded
//! multiply and one rounded add per step. Tiling only reorders *which
//! element* is worked on, never the order of one element's sum, so every
//! result equals (`==`) the plain triple loop's.
//!
//! **One body, three instantiations.** The kernel is plain Rust, no
//! intrinsics: `band_body::<R, C>` + `tile::<R, C>`, the register tile a
//! const-generic parameter. `band` compiles it three times on `x86_64` — for
//! the build's baseline target (SSE2) and, behind `is_x86_feature_detected!`,
//! under `#[target_feature(enable = "avx2")]` and
//! `#[target_feature(enable = "avx512f")]`, where the same loops become
//! 256- and 512-bit multiplies and adds — and once everywhere else. The
//! baseline and AVX2 have 16 vector registers and keep the 4×16 tile
//! (`TILE_R` × `TILE_C`); AVX-512 has 32, and its 8×32 tile holds 16 zmm
//! accumulators. The tile, not the width alone, is the gain: on the heavy
//! workload's `X·W` (1903 table rows × 4353 by 4353 × 64, one thread of a
//! 2-vCPU AVX-512 Xeon) AVX2 4×16 ran 21.5 GF/s, `avx512f` 4×16 24.4 and
//! `avx512f` 8×32 39.4. The lanes are independent output elements, so
//! neither vector width nor tile shape can change a result. **Never `fma`:**
//! a fused multiply-add rounds once where the contract says twice, and would
//! break the `==` identity with the scalar loops (and every pinned digest
//! downstream); rustc's `avx512f` implies its `fma` target feature, so CI
//! checks the built binary for fused instructions. [`kernel_isa`] names the
//! instantiation in use, and every product dispatches on that name.
//!
//! **The kernel adds onto `c`.** A tile loads its accumulators from the
//! output band, so `band` computes `c += A·B` and a long sum can be fed to
//! it in k blocks: an `f32` stored and reloaded between blocks is the same
//! `f32`, so the chain `acc = acc + a·b` is unbroken. Callers start from
//! `Matrix::zeros`, i.e. from `+0.0` like the loops they replaced.
//!
//! **`Xᵀ·dY` packs its left operand.** Read in place, column `r` of `X` is
//! one float per `k` step at a stride of a whole row (17 KB at F = 4353): a
//! new page per step and more pages per band than the second-level TLB
//! holds. `transpose_a_matmul` instead copies `TA_K_BLOCK` rows × one band's
//! columns of `X` into a contiguous k-major panel and runs the kernel per
//! block. The panel is a fixed 64 KB array on the worker's stack: together
//! with the block of `dY` it stays L2-resident, and nothing is allocated or
//! kept between calls (a retained per-thread buffer would add to the peak
//! RSS of every workload; a per-band heap one to its allocation traffic).
//!
//! **A left operand can be rows of an embedding table, read in place.**
//! [`Rows`] names rows `ids` of an [`EmbeddingTable`] without copying them
//! (the GraphTensor trainer's first-layer input: the sampled vertices'
//! features). `Rows::matmul` hands the kernel the table and the ids, and a
//! tile looks up its `R` row offsets once, before its k loop;
//! `Rows::transpose_a_matmul` packs its panel from `table.row(ids[k])`. Both
//! read the same floats in the same k order as the product of the gathered
//! matrix, through the same kernel, so the results are `to_bits`-equal.
//!
//! Bands are spread over the deterministic `gt_par` pool (each output row has
//! one writer and band geometry ignores the worker count, so results are
//! bit-identical at any `GT_THREADS`). The FLOP/traffic profile the device
//! model sees is charged by [`crate::dfg`], not here.

use gt_graph::{EmbeddingTable, VId};
use gt_par::ThreadPool;

/// Output rows per matmul pool chunk (fixed, independent of worker count).
const MM_ROW_CHUNK: usize = 32;
/// Output rows per `transpose_a_matmul` pool chunk.
const TA_ROW_CHUNK: usize = 64;
/// Rows of the left operand packed per `transpose_a_matmul` panel.
const TA_K_BLOCK: usize = 256;
/// Register tile of the instantiations with 16 vector registers (baseline
/// and AVX2): output rows × output columns held in accumulators.
const TILE_R: usize = 4;
const TILE_C: usize = 16;

/// The left operand of a band product as a strided view, so `A`, a packed
/// panel of `Aᵀ` and rows of a table read through the same kernel: element
/// `(r, k)` is `data[start(r) + k*ks]`, where `start(r)` is `ids[r]*rs` when
/// the rows are picked by id and `r*rs` otherwise.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    ks: usize,
    ids: Option<&'a [VId]>,
}

impl<'a> Lhs<'a> {
    /// A row-major matrix, `rs` floats per row.
    fn dense(data: &'a [f32], rs: usize) -> Self {
        Lhs {
            data,
            rs,
            ks: 1,
            ids: None,
        }
    }

    /// Offset of row `r`'s first element in `data`.
    #[inline(always)]
    fn start(&self, r: usize) -> usize {
        match self.ids {
            Some(ids) => ids[r] as usize * self.rs,
            None => r * self.rs,
        }
    }

    /// The same operand without its first `n` rows.
    fn skip_rows(self, n: usize) -> Self {
        match self.ids {
            Some(ids) => Lhs {
                ids: Some(&ids[n..]),
                ..self
            },
            None => Lhs {
                data: &self.data[n * self.rs..],
                ..self
            },
        }
    }
}

/// The dispatch predicate of Pull's row walks in `gt-core`, compiled for
/// the baseline and for AVX2: whether this CPU runs their AVX2
/// instantiation. The band kernel here dispatches on [`kernel_isa`].
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The widest instantiation of the band kernel this CPU runs, and the one
/// every product uses: `"avx512f"`, `"avx2"` or `"baseline"`. Wall-clock
/// tables print it; results do not depend on it.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return "avx512f";
    }
    if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// `c[r][j] += Σ_{kk<k} a(r, kk) · b[kk][j]` for the `c.len()/n` rows of the
/// band `c`, k ascending per element (the module contract). `b` is `k×n`
/// row-major. Runs the `isa` instantiation of [`band_body`]: a name
/// [`kernel_isa`] can answer, for an ISA this CPU has.
fn band(isa: &str, c: &mut [f32], n: usize, a: Lhs, k: usize, b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa != "baseline" {
        let wide = match isa {
            "avx512f" if std::arch::is_x86_feature_detected!("avx512f") => band_avx512,
            "avx2" if has_avx2() => band_avx2,
            _ => panic!("this CPU lacks the {isa} instantiation"),
        };
        // SAFETY: each wide instantiation requires the target feature its
        // match arm has just detected on the running CPU.
        return unsafe { wide(c, n, a, k, b) };
    }
    assert_eq!(isa, "baseline", "this CPU lacks the {isa} instantiation");
    band_body::<TILE_R, TILE_C>(c, n, a, k, b)
}

/// [`band_body`] compiled for 256-bit vectors: a 4×16 tile, 8 of the 16 ymm
/// registers as accumulators. No `fma` (module doc).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(c: &mut [f32], n: usize, a: Lhs, k: usize, b: &[f32]) {
    band_body::<TILE_R, TILE_C>(c, n, a, k, b)
}

/// [`band_body`] compiled for 512-bit vectors: an 8×32 tile, 16 of the 32
/// zmm registers as accumulators. No `fma` (module doc).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn band_avx512(c: &mut [f32], n: usize, a: Lhs, k: usize, b: &[f32]) {
    band_body::<8, 32>(c, n, a, k, b)
}

/// The one kernel body, over `R`×`C` register tiles. Full tiles get
/// compile-time bounds (unrolled, accumulators in registers); ragged edge
/// tiles run the same loops with runtime bounds.
#[inline(always)]
fn band_body<const R: usize, const C: usize>(c: &mut [f32], n: usize, a: Lhs, k: usize, b: &[f32]) {
    let rows = c.len() / n;
    for r0 in (0..rows).step_by(R) {
        for j0 in (0..n).step_by(C) {
            let (rw, cw) = (R.min(rows - r0), C.min(n - j0));
            if (rw, cw) == (R, C) {
                tile::<R, C>(c, n, a, k, b, (r0, j0), (R, C));
            } else {
                tile::<R, C>(c, n, a, k, b, (r0, j0), (rw, cw));
            }
        }
    }
}

#[inline(always)]
fn tile<const R: usize, const C: usize>(
    c: &mut [f32],
    n: usize,
    a: Lhs,
    k: usize,
    b: &[f32],
    (r0, j0): (usize, usize),
    (rw, cw): (usize, usize),
) {
    let mut acc = [[0.0f32; C]; R];
    let mut starts = [0usize; R];
    for (r, (arow, start)) in acc.iter_mut().zip(&mut starts).enumerate().take(rw) {
        arow[..cw].copy_from_slice(&c[(r0 + r) * n + j0..][..cw]);
        *start = a.start(r0 + r);
    }
    for kk in 0..k {
        let brow = &b[kk * n + j0..][..cw];
        for (r, arow) in acc.iter_mut().enumerate().take(rw) {
            let av = a.data[starts[r] + kk * a.ks];
            for (o, &bv) in arow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (r, arow) in acc.iter().enumerate().take(rw) {
        c[(r0 + r) * n + j0..][..cw].copy_from_slice(&arow[..cw]);
    }
}

/// `a · b` for the `m` rows of `a`, parallel over bands of output rows.
fn row_banded(label: &'static str, a: Lhs, m: usize, b: &Matrix, isa: &str) -> Matrix {
    let (k, n) = (b.rows, b.cols);
    let mut out = Matrix::zeros(m, n);
    let chunk = MM_ROW_CHUNK * n;
    ThreadPool::global().for_each_chunk_mut(label, &mut out.data, chunk, |ci, c| {
        band(isa, c, n, a.skip_rows(ci * MM_ROW_CHUNK), k, &b.data);
    });
    out
}

/// `aᵀ · rhs` on `pool`: one band of output rows (columns of `a`) per
/// chunk, so every output row has a single writer and no partial sums are
/// combined. Each band packs its columns of `a` into a k-major stack panel,
/// `TA_K_BLOCK` rows at a time, and the kernel adds the blocks onto the
/// zeroed band in ascending `k` (module doc).
fn transpose_a_matmul_on<A: RowSource + ?Sized>(
    a: &A,
    pool: &ThreadPool,
    rhs: &Matrix,
    isa: &str,
) -> Matrix {
    assert_eq!(a.rows(), rhs.rows, "matmul_ta shape mismatch");
    let (k, m, n) = (a.rows(), a.cols(), rhs.cols);
    let mut out = Matrix::zeros(m, n);
    let chunk = TA_ROW_CHUNK * n;
    pool.for_each_chunk_mut("dense.matmul_ta", &mut out.data, chunk, |ci, c| {
        let (col0, w) = (ci * TA_ROW_CHUNK, c.len() / n);
        let mut panel = [0.0f32; TA_K_BLOCK * TA_ROW_CHUNK];
        for k0 in (0..k).step_by(TA_K_BLOCK) {
            let kb = TA_K_BLOCK.min(k - k0);
            for (kk, prow) in panel.chunks_exact_mut(w).take(kb).enumerate() {
                prow.copy_from_slice(&a.row(k0 + kk)[col0..][..w]);
            }
            let lhs = Lhs {
                data: &panel,
                rs: 1,
                ks: w,
                ids: None,
            };
            band(isa, c, n, lhs, kb, &rhs.data[k0 * n..]);
        }
    });
    out
}

/// Row-major `f32` rows read by index: a [`Matrix`], or [`Rows`] of an
/// embedding table read in place. Kernels generic over it have one body for
/// both, and read the same floats from either.
pub trait RowSource: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Floats per row.
    fn cols(&self) -> usize;
    /// Row `r`.
    fn row(&self, r: usize) -> &[f32];
}

/// Rows `ids` of an embedding table, read in place: row `r` of the view is
/// `table.row(ids[r])`. Its products equal, bit for bit, those of the
/// gathered matrix (module doc), which is never built.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// The table the rows live in.
    pub table: &'a EmbeddingTable,
    /// Which table row each view row is.
    pub ids: &'a [VId],
}

impl Rows<'_> {
    /// `self · rhs`: the kernel reads each tile's rows from the table.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.table.dim(), rhs.rows, "matmul shape mismatch");
        let a = Lhs {
            ids: Some(self.ids),
            ..Lhs::dense(self.table.data(), self.table.dim())
        };
        row_banded("dense.matmul", a, self.ids.len(), rhs, kernel_isa())
    }

    /// `selfᵀ · rhs`: the panel is packed from the table's rows.
    pub fn transpose_a_matmul(&self, rhs: &Matrix) -> Matrix {
        transpose_a_matmul_on(self, ThreadPool::global(), rhs, kernel_isa())
    }
}

impl RowSource for Rows<'_> {
    fn rows(&self) -> usize {
        self.ids.len()
    }

    fn cols(&self) -> usize {
        self.table.dim()
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        self.table.row(self.ids[r])
    }
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        Matrix::row(self, r)
    }
}

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a buffer of length `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Immutable element access.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// Zero entries of `self` are multiplied like any other (the old loop
    /// skipped them): adding `0·b` is exact for finite `b`, so results only
    /// differ where a zero meets `∞`/`NaN` (now `NaN`, as IEEE says).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        row_banded("dense.matmul", self.lhs(), self.rows, rhs, kernel_isa())
    }

    /// `self · rhsᵀ`.
    ///
    /// Equal (`==`) to the serial dot it replaced, bit-identical except for
    /// the sign of an exact zero: `f32::sum` starts at `-0.0`, the kernel's
    /// accumulators at `+0.0`, so an element whose products are all `-0.0`
    /// (or that has none, `k == 0`) was `-0.0` and is now `+0.0`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_tb shape mismatch");
        // Transposing `rhs` puts the output's feature columns contiguous for
        // the band kernel; each dot product still sums k ascending.
        row_banded(
            "dense.matmul_tb",
            self.lhs(),
            self.rows,
            &rhs.transpose(),
            kernel_isa(),
        )
    }

    fn lhs(&self) -> Lhs<'_> {
        Lhs::dense(&self.data, self.cols)
    }

    /// `selfᵀ · rhs`.
    pub fn transpose_a_matmul(&self, rhs: &Matrix) -> Matrix {
        transpose_a_matmul_on(self, ThreadPool::global(), rhs, kernel_isa())
    }

    /// Explicit transpose, walked in square tiles so both the reads and the
    /// strided writes stay within a few cache lines per tile.
    pub fn transpose(&self) -> Matrix {
        const T: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        for r0 in (0..rows).step_by(T) {
            for c0 in (0..cols).step_by(T) {
                for r in r0..(r0 + T).min(rows) {
                    let src = &self.data[r * cols + c0..r * cols + (c0 + T).min(cols)];
                    for (c, &v) in src.iter().enumerate() {
                        out.data[(c0 + c) * rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// Add a row vector (bias) to every row.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Column sums (the bias gradient: ∂L/∂b = Σ_rows ∂L/∂y).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x.max(0.0)).collect(),
        }
    }

    /// ReLU backward: grad where the *pre-activation* input was positive.
    pub fn relu_grad(&self, grad_out: &Matrix) -> Matrix {
        assert_eq!(self.shape(), grad_out.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&grad_out.data)
                .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// In-place scale.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Max absolute difference to another matrix (test helper).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])
    }

    fn m32() -> Matrix {
        Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.])
    }

    #[test]
    fn matmul_known_values() {
        let c = m23().matmul(&m32());
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit() {
        let a = m23();
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let expect = a.matmul(&b.transpose());
        let got = a.matmul_transpose_b(&b);
        assert!(expect.max_abs_diff(&got) < 1e-5);
    }

    #[test]
    fn transpose_a_matmul_matches_explicit() {
        let a = m32(); // 3x2 → aᵀ is 2x3
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let expect = a.transpose().matmul(&b);
        let got = a.transpose_a_matmul(&b);
        assert!(expect.max_abs_diff(&got) < 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let a = m23();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_ragged_last_tile() {
        // 70×37: two full 32-tiles plus a ragged one along each axis.
        let a = Matrix::from_fn(70, 37, |r, c| (r * 37 + c) as f32);
        let t = a.transpose();
        assert_eq!(t.shape(), (37, 70));
        for r in 0..70 {
            for c in 0..37 {
                assert_eq!(t.at(c, r), a.at(r, c));
            }
        }
        assert_eq!(t.transpose(), a);
    }

    // The three loops the band kernel replaced, kept verbatim (minus the
    // pool) as the oracle: ikj with a zero skip, a serial `sum()` dot, and
    // the k-outer scatter.
    fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a.data[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += av * b.data[kk * n + j];
                }
            }
        }
        out
    }

    fn ref_matmul_tb(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, n) = (a.rows, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                out.data[i * n + j] = a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum();
            }
        }
        out
    }

    fn ref_ta_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, m, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            for i in 0..m {
                let av = a.data[kk * m + i];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += av * b.data[kk * n + j];
                }
            }
        }
        out
    }

    /// Finite values in (-2, 2) salted with exact `0.0`, `-0.0` and
    /// denormals, so the dropped zero skip and gradual underflow are hit.
    fn salted(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((state >> 40) as u32 % 1000 + 1),
                3 => -f32::from_bits((state >> 40) as u32 % 1000 + 1),
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0,
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    /// Every remainder path of both tiles (4×16 and 8×32): m and n on,
    /// just under and just over a multiple of each, rows across pool chunks,
    /// the empty and the single-step sum, the heavy
    /// workload's 4353-long one, and for `transpose_a_matmul`'s panel a
    /// ragged last band and a ragged last k block around several blocks.
    fn oracle_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in [0, 1, 3, 4, 5, 7, 8, 9, 33, 70] {
            for k in [0, 1, 64] {
                for n in [1, 2, 7, 15, 16, 31, 32, 33, 47, 64, 65] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([(5, 4353, 64), (9, 4353, 47), (4353, 5, 64), (0, 4353, 7)]);
        for (m, n) in [(1, 16), (63, 7), (64, 17), (65, 2), (130, 33)] {
            for k in [255, 256, 257, 513, 4353] {
                shapes.push((m, k, n));
            }
        }
        shapes
    }

    /// Every instantiation this CPU runs, narrowest first: the baseline, then
    /// each wide one it detects. The public products run the last.
    fn kernels() -> Vec<&'static str> {
        let mut isas = vec!["baseline"];
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx2() {
                isas.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push("avx512f");
            }
        }
        isas
    }

    #[test]
    fn kernel_isa_names_what_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let (avx512f, avx2) = (
            std::arch::is_x86_feature_detected!("avx512f"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx512f, avx2) = (false, false);
        let want = match (avx512f, avx2) {
            (true, _) => "avx512f",
            (false, true) => "avx2",
            (false, false) => "baseline",
        };
        assert_eq!(kernel_isa(), want);
        assert_eq!(kernels().last(), Some(&want));
    }

    #[test]
    #[should_panic(expected = "lacks the avx1024 instantiation")]
    fn band_refuses_an_isa_it_was_not_built_for() {
        band("avx1024", &mut [0.0], 1, Lhs::dense(&[1.0], 1), 1, &[1.0]);
    }

    #[test]
    fn products_equal_the_replaced_loops() {
        for (i, (m, k, n)) in oracle_shapes().into_iter().enumerate() {
            let seed = i as u64 + 1;
            let a = salted(m, k, seed);
            let b = salted(k, n, seed + 1000);
            let bt = salted(n, k, seed + 2000);
            let at = salted(k, m, seed + 3000);
            let want_mm = ref_matmul(&a, &b);
            let want_tb = ref_matmul_tb(&a, &bt);
            let want_ta = ref_ta_matmul(&at, &b);
            let mut tb_bits = Vec::new();
            for isa in kernels() {
                // Bit-for-bit, signed zeros included: an accumulator that
                // starts at +0.0 can never become -0.0, so the extra `+ 0·b`
                // is a no-op.
                let got = row_banded("dense.matmul", a.lhs(), m, &b, isa);
                assert_eq!(bits(&got), bits(&want_mm), "{isa} matmul {m}x{k}x{n}");

                // `sum()` starts from -0.0, so the old dot returned -0.0 for
                // an empty or all-(-0.0) sum where the kernel returns +0.0:
                // equal under `==`, which is the contract, but not the same
                // bits. The instantiations do agree bit for bit.
                let got = row_banded("dense.matmul_tb", a.lhs(), m, &bt.transpose(), isa);
                assert_eq!(got.data, want_tb.data, "{isa} matmul_tb {m}x{k}x{n}");
                tb_bits.push(bits(&got));

                let got = transpose_a_matmul_on(&at, ThreadPool::global(), &b, isa);
                assert_eq!(bits(&got), bits(&want_ta), "{isa} matmul_ta {m}x{k}x{n}");
            }
            for (isa, got) in kernels().iter().zip(&tb_bits) {
                assert_eq!(got, &tb_bits[0], "{isa} matmul_tb {m}x{k}x{n}");
            }
            // The public entry points are the dispatched kernel.
            assert_eq!(bits(&a.matmul(&b)), bits(&want_mm));
            assert_eq!(bits(&a.matmul_transpose_b(&bt)), tb_bits[0]);
            assert_eq!(bits(&at.transpose_a_matmul(&b)), bits(&want_ta));
        }
    }

    /// `rows` rows of a salted table three rows taller, picked by ids that
    /// start at the table's last row, descend, and repeat each row twice.
    fn rows_of_table(rows: usize, cols: usize, seed: u64) -> (EmbeddingTable, Vec<VId>) {
        let t = rows + 3;
        let table = EmbeddingTable::from_vec(t, cols, salted(t, cols, seed).into_vec());
        let ids = (0..rows).map(|r| (t - 1 - r / 2) as VId).collect();
        (table, ids)
    }

    fn gathered(view: &Rows) -> Matrix {
        Matrix::from_vec(
            view.ids.len(),
            view.table.dim(),
            view.table.gather(view.ids).into_vec(),
        )
    }

    #[test]
    fn rows_read_in_place_equal_the_gathered_matrix() {
        let pools = [1, 2, 4].map(ThreadPool::new);
        for (i, (m, k, n)) in oracle_shapes().into_iter().enumerate() {
            if m == 0 {
                continue;
            }
            let seed = i as u64 + 1;
            let b = salted(k, n, seed + 1000);
            // `X·W`: m rows of a k-wide table.
            let (table, ids) = rows_of_table(m, k, seed);
            let view = Rows {
                table: &table,
                ids: &ids,
            };
            let x = gathered(&view);
            for isa in kernels() {
                let a = Lhs {
                    ids: Some(view.ids),
                    ..Lhs::dense(table.data(), k)
                };
                let got = row_banded("dense.matmul", a, m, &b, isa);
                let want = row_banded("dense.matmul", x.lhs(), m, &b, isa);
                assert_eq!(bits(&got), bits(&want), "{isa} matmul {m}x{k}x{n}");
            }
            assert_eq!(bits(&view.matmul(&b)), bits(&x.matmul(&b)));

            // `Xᵀ·dY`: k rows of an m-wide table.
            let (table, ids) = rows_of_table(k, m, seed + 3000);
            let view = Rows {
                table: &table,
                ids: &ids,
            };
            let xt = gathered(&view);
            for isa in kernels() {
                let want = bits(&transpose_a_matmul_on(&xt, &pools[0], &b, isa));
                for pool in &pools {
                    let got = transpose_a_matmul_on(&view, pool, &b, isa);
                    let width = pool.workers();
                    assert_eq!(
                        bits(&got),
                        want,
                        "{isa} matmul_ta {m}x{k}x{n}, width {width}"
                    );
                }
            }
            assert_eq!(
                bits(&view.transpose_a_matmul(&b)),
                bits(&xt.transpose_a_matmul(&b))
            );
        }
    }

    #[test]
    fn transpose_a_matmul_identical_at_any_pool_width() {
        // 150 output rows = two full 64-row bands and a ragged third; 300
        // sum terms = one full k block and a ragged second.
        let a = salted(300, 150, 7);
        let b = salted(300, 47, 8);
        let want = bits(&ref_ta_matmul(&a, &b));
        for width in [1, 2, 4] {
            let pool = ThreadPool::new(width);
            for isa in kernels() {
                assert_eq!(
                    bits(&transpose_a_matmul_on(&a, &pool, &b, isa)),
                    want,
                    "{isa}, width {width}"
                );
            }
        }
    }

    #[test]
    fn band_adds_onto_c() {
        // The kernel's contract since the k-blocked panel: `c += A·B`, each
        // element's chain continuing from the value already in `c`.
        for (m, k, n) in [
            (1, 1, 1),
            (4, 16, 16),
            (5, 37, 17),
            (8, 16, 32),
            (9, 300, 47),
            (17, 37, 65),
        ] {
            let a = salted(m, k, 11);
            let b = salted(k, n, 12);
            let c0 = salted(m, n, 13);
            let mut want = c0.clone();
            for i in 0..m {
                for kk in 0..k {
                    for j in 0..n {
                        want.data[i * n + j] += a.data[i * k + kk] * b.data[kk * n + j];
                    }
                }
            }
            for isa in kernels() {
                let mut c = c0.clone();
                band(isa, &mut c.data, n, a.lhs(), k, &b.data);
                assert_eq!(bits(&c), bits(&want), "{isa} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn bias_and_column_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_vector(&[1., 2., 3.]);
        assert_eq!(a.row(0), &[1., 2., 3.]);
        assert_eq!(a.column_sums(), vec![2., 4., 6.]);
    }

    #[test]
    fn relu_and_grad() {
        let x = Matrix::from_vec(1, 4, vec![-1., 0., 2., -3.]);
        assert_eq!(x.relu().data(), &[0., 0., 2., 0.]);
        let g = Matrix::from_vec(1, 4, vec![10., 10., 10., 10.]);
        assert_eq!(x.relu_grad(&g).data(), &[0., 0., 10., 0.]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[9., 12., 15.]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!((a.frobenius() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_rejected() {
        m23().matmul(&m23());
    }
}
