//! Format translation between COO, CSR, and CSC, with work accounting.
//!
//! Graph-approach frameworks keep COO resident and translate to CSR before
//! each forward aggregation (and to CSC before backward), paying a GPU sort:
//! the paper measures this at 64.5% of DGL's GCN time on products (§VI-A).
//! Each conversion here returns both the translated structure (computed
//! exactly, via counting sort — deterministic and stable) and a
//! [`KernelStats`] record that prices what the equivalent GPU translation
//! costs: a multi-pass radix sort over the edge arrays plus a pointer-array
//! scan, launched as many small kernels with irregular access.

use crate::{Coo, Csc, Csr, EId, VId};
use gt_sim::KernelStats;

/// Bytes per vertex/edge id.
const ID: u64 = std::mem::size_of::<VId>() as u64;

/// Number of radix-sort passes a 32-bit GPU sort performs (8 bits/pass).
const SORT_PASSES: u64 = 4;

/// Kernel launches of a device radix sort + scan pipeline (histogram, scan,
/// scatter per pass; pointer build; buffer management).
const SORT_LAUNCHES: u64 = 20;

/// Price the GPU-side translation of an `n`-edge graph with `v` vertices:
/// a multi-pass device radix sort plus pointer-array scan. Public so
/// baseline frameworks can charge translations they conceptually perform
/// even when this crate's exact structures are reused for the numerics.
pub fn translation_stats(n: u64, v: u64) -> KernelStats {
    // Each radix pass streams both id arrays in and out.
    let pass_bytes = 2 * n * ID;
    KernelStats {
        flops: 0,
        global_read_bytes: SORT_PASSES * pass_bytes + n * ID,
        global_write_bytes: SORT_PASSES * pass_bytes + (v + 1) * ID,
        cache_loaded_bytes: 0,
        // Double-buffered temporaries for the sort plus the output arrays.
        alloc_bytes: 2 * n * ID + (n + v + 1) * ID,
        pcie_bytes: 0,
        host_ops: 0,
        launches: SORT_LAUNCHES,
        irregular: true,
    }
}

/// Stable counting sort of per-edge values by a key array; returns the
/// group-boundary pointer array and the values grouped by key, in input
/// order within each group.
pub(crate) fn counting_sort<T: Copy + Default>(
    num_vertices: usize,
    keys: &[VId],
    values: impl IntoIterator<Item = T>,
) -> (Vec<EId>, Vec<T>) {
    let mut counts = vec![0 as EId; num_vertices + 1];
    for &k in keys {
        counts[k as usize + 1] += 1;
    }
    for i in 0..num_vertices {
        counts[i + 1] += counts[i];
    }
    let indptr = counts.clone();
    let mut out = vec![T::default(); keys.len()];
    let mut cursor = counts;
    for (&k, v) in keys.iter().zip(values) {
        let slot = cursor[k as usize];
        out[slot as usize] = v;
        cursor[k as usize] += 1;
    }
    (indptr, out)
}

/// Group an edge list, given as parallel `keys`/`values` columns, by key:
/// the pointer array over `num_keys` keys and the values in key order,
/// input order within a key (a stable counting sort). Grouping the source
/// column by destination gives a CSR's arrays, the destination column by
/// source a CSC's; callers holding the columns outside a [`Coo`] build
/// either without copying them into one. Panics if the columns differ in
/// length or a key is not below `num_keys`.
pub fn group_by_key(num_keys: usize, keys: &[VId], values: &[VId]) -> (Vec<EId>, Vec<VId>) {
    assert_eq!(keys.len(), values.len(), "edge columns differ in length");
    counting_sort(num_keys, keys, values.iter().copied())
}

/// COO → dst-indexed CSR (what forward aggregation needs).
pub fn coo_to_csr(coo: &Coo) -> (Csr, KernelStats) {
    let (indptr, srcs) = group_by_key(coo.num_vertices(), &coo.dst, &coo.src);
    (
        Csr::new(indptr, srcs),
        translation_stats(coo.num_edges() as u64, coo.num_vertices() as u64),
    )
}

/// COO → src-indexed CSC (what backward propagation needs).
pub fn coo_to_csc(coo: &Coo) -> (Csc, KernelStats) {
    let (indptr, dsts) = group_by_key(coo.num_vertices(), &coo.src, &coo.dst);
    (
        Csc::new(indptr, dsts),
        translation_stats(coo.num_edges() as u64, coo.num_vertices() as u64),
    )
}

/// CSR → COO expansion (ROC performs CSR→COO before SDDMM, §VII).
pub fn csr_to_coo(csr: &Csr) -> (Coo, KernelStats) {
    let n = csr.num_edges();
    let mut src = Vec::with_capacity(n);
    let mut dst = Vec::with_capacity(n);
    for (d, ss) in csr.iter() {
        for &s in ss {
            src.push(s);
            dst.push(d);
        }
    }
    // Expansion is a single streaming kernel: read indptr+srcs, write 2 arrays.
    let stats = KernelStats {
        global_read_bytes: csr.storage_bytes(),
        global_write_bytes: 2 * n as u64 * ID,
        alloc_bytes: 2 * n as u64 * ID,
        launches: 1,
        ..Default::default()
    };
    (Coo::new(csr.num_vertices(), src, dst), stats)
}

/// CSR → CSC transpose (needed between FWP and BWP when only CSR is kept).
pub fn csr_to_csc(csr: &Csr) -> (Csc, KernelStats) {
    let (coo, _) = csr_to_coo(csr);
    let (csc, sort) = coo_to_csc(&coo);
    let mut stats = sort;
    stats.global_read_bytes += csr.storage_bytes();
    stats.global_write_bytes += 2 * csr.num_edges() as u64 * ID;
    (csc, stats)
}

/// CSC → CSR transpose.
pub fn csc_to_csr(csc: &Csc) -> (Csr, KernelStats) {
    let n = csc.num_edges();
    let mut src = Vec::with_capacity(n);
    let mut dst = Vec::with_capacity(n);
    for (s, ds) in csc.iter() {
        for &d in ds {
            src.push(s);
            dst.push(d);
        }
    }
    let coo = Coo::new(csc.num_vertices(), src, dst);
    coo_to_csr(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_coo() -> Coo {
        Coo::from_edges(4, &[(0, 1), (1, 2), (2, 1), (3, 1), (3, 2)])
    }

    #[test]
    fn coo_to_csr_groups_by_dst() {
        let (csr, stats) = coo_to_csr(&fig1_coo());
        assert_eq!(csr.srcs(1), &[0, 2, 3]);
        assert_eq!(csr.srcs(2), &[1, 3]);
        assert_eq!(csr.srcs(0), &[] as &[VId]);
        assert!(stats.irregular);
        assert!(stats.launches >= SORT_LAUNCHES);
        assert!(stats.global_bytes() > 0);
    }

    #[test]
    fn coo_to_csc_groups_by_src() {
        let (csc, _) = coo_to_csc(&fig1_coo());
        assert_eq!(csc.dsts(3), &[1, 2]);
        assert_eq!(csc.dsts(0), &[1]);
    }

    #[test]
    fn csr_coo_roundtrip_preserves_edges() {
        let coo = fig1_coo();
        let (csr, _) = coo_to_csr(&coo);
        let (back, _) = csr_to_coo(&csr);
        let mut a: Vec<_> = coo.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn csr_to_csc_transposes() {
        let (csr, _) = coo_to_csr(&fig1_coo());
        let (csc, _) = csr_to_csc(&csr);
        assert_eq!(csc.dsts(3), &[1, 2]);
        assert_eq!(csc.num_edges(), csr.num_edges());
    }

    #[test]
    fn csc_to_csr_roundtrip() {
        let (csr, _) = coo_to_csr(&fig1_coo());
        let (csc, _) = csr_to_csc(&csr);
        let (back, _) = csc_to_csr(&csc);
        assert_eq!(back, csr);
    }

    #[test]
    fn counting_sort_is_stable() {
        // Two edges to dst 1 from srcs 5 then 3 keep their order.
        let coo = Coo::from_edges(6, &[(5, 1), (3, 1)]);
        let (csr, _) = coo_to_csr(&coo);
        assert_eq!(csr.srcs(1), &[5, 3]);
    }

    #[test]
    fn translation_cost_scales_with_edges() {
        let small = translation_stats(100, 10);
        let big = translation_stats(10_000, 10);
        assert!(big.global_bytes() > 50 * small.global_bytes());
        // but launch count is fixed — the overhead that hurts small graphs.
        assert_eq!(small.launches, big.launches);
    }
}
