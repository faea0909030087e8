//! Property-based tests on the graph substrate's invariants.

use gt_graph::convert::{coo_to_csc, coo_to_csr, csc_to_csr, csr_to_coo, csr_to_csc};
use gt_graph::{Coo, DegreeStats, EmbeddingTable, VId};
use gt_sim::prop::{check, Gen, CASES};
use std::collections::BTreeSet;

/// Arbitrary edge list over a small vertex id space.
fn edges(g: &mut Gen, max_v: usize, max_e: usize) -> Vec<(VId, VId)> {
    g.vec(0..max_e, |g| {
        (g.range(0..max_v) as VId, g.range(0..max_v) as VId)
    })
}

/// COO → CSR → COO preserves the edge multiset.
#[test]
fn csr_roundtrip_preserves_edges() {
    check("csr_roundtrip_preserves_edges", CASES, |g| {
        let coo = Coo::from_edges(40, &edges(g, 40, 200));
        let (csr, _) = coo_to_csr(&coo);
        let (back, _) = csr_to_coo(&csr);
        let mut a: Vec<_> = coo.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}

/// CSR and CSC derived from the same COO describe the same edges.
#[test]
fn csr_csc_agree() {
    check("csr_csc_agree", CASES, |g| {
        let coo = Coo::from_edges(30, &edges(g, 30, 150));
        let (csr, _) = coo_to_csr(&coo);
        let (csc, _) = coo_to_csc(&coo);
        assert_eq!(csr.num_edges(), csc.num_edges());
        let mut from_csr: Vec<(VId, VId)> = Vec::new();
        for (d, ss) in csr.iter() {
            for &s in ss {
                from_csr.push((s, d));
            }
        }
        let mut from_csc: Vec<(VId, VId)> = Vec::new();
        for (s, ds) in csc.iter() {
            for &d in ds {
                from_csc.push((s, d));
            }
        }
        from_csr.sort();
        from_csc.sort();
        assert_eq!(from_csr, from_csc);
    });
}

/// Transposing twice preserves the edge multiset and per-dst slices
/// (order within a slice may differ — both sorts are stable but see
/// different intermediate orders).
#[test]
fn double_transpose_identity() {
    let holds = |es: &[(VId, VId)]| {
        let coo = Coo::from_edges(25, es);
        let (csr, _) = coo_to_csr(&coo);
        let (csc, _) = csr_to_csc(&csr);
        let (back, _) = csc_to_csr(&csc);
        assert_eq!(&back.indptr, &csr.indptr);
        for d in 0..csr.num_vertices() as VId {
            let mut a = csr.srcs(d).to_vec();
            let mut b = back.srcs(d).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b, "dst {d} slice mismatch");
        }
    };
    // A past failure: one slice whose order the double transpose reverses.
    holds(&[(7, 0), (0, 0)]);
    check("double_transpose_identity", CASES, |g| {
        holds(&edges(g, 25, 120))
    });
}

/// dedup keeps the first occurrence of every non-loop pair, in input order:
/// equal to a linear filter over a set of seen pairs, and idempotent.
#[test]
fn dedup_keeps_first_occurrences_in_order() {
    let holds = |n: usize, es: &[(VId, VId)]| {
        let mut seen = BTreeSet::new();
        let want: Vec<(VId, VId)> = es
            .iter()
            .copied()
            .filter(|&(s, d)| s != d && seen.insert((s, d)))
            .collect();
        let once = Coo::from_edges(n, es).dedup();
        assert_eq!(once.edges().collect::<Vec<_>>(), want, "n={n} {es:?}");
        assert_eq!(once.num_vertices(), n);
        assert_eq!(once.clone().dedup(), once);
    };
    holds(5, &[]);
    holds(1, &[(0, 0), (0, 0)]);
    // Duplicates, a reverse pair, vertex n-1, ids far beyond the edge
    // count, and a self-loop on a vertex a smaller source already reached.
    holds(
        1000,
        &[
            (999, 3),
            (3, 999),
            (2, 5),
            (5, 5),
            (999, 3),
            (0, 999),
            (3, 999),
            (7, 0),
        ],
    );
    check("dedup_keeps_first_occurrences_in_order", CASES, |g| {
        let n = g.range(1..200);
        let es = edges(g, n, 120);
        // Append a reversed prefix and a repeated one, so reverse pairs and
        // duplicates are common.
        let rev: Vec<(VId, VId)> = es
            .iter()
            .take(g.range(0..40))
            .map(|&(s, d)| (d, s))
            .collect();
        let dup: Vec<(VId, VId)> = es.iter().take(g.range(0..40)).copied().collect();
        holds(n, &[es, rev, dup].concat());
    });
}

/// Degree statistics: the CDF is monotone, ends at 1, and the histogram
/// accounts for every vertex.
#[test]
fn degree_cdf_invariants() {
    check("degree_cdf_invariants", CASES, |g| {
        let coo = Coo::from_edges(30, &edges(g, 30, 200));
        let (csr, _) = coo_to_csr(&coo);
        let s = DegreeStats::of_csr(&csr);
        assert_eq!(s.hist.iter().sum::<u64>(), 30);
        let cdf = s.cdf();
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        if let Some(last) = cdf.last() {
            assert!((last.1 - 1.0).abs() < 1e-9);
        }
        // Mean equals edges / vertices.
        assert!((s.mean - csr.num_edges() as f64 / 30.0).abs() < 1e-9);
    });
}

/// Gather semantics: row i of the gather equals row ids[i] of the table.
#[test]
fn gather_is_row_selection() {
    check("gather_is_row_selection", CASES, |g| {
        let ids = g.vec(0..50, |g| g.range(0..20) as u32);
        let table = EmbeddingTable::random(20, 8, g.range(0..1000) as u64);
        let got = table.gather(&ids);
        assert_eq!(got.rows(), ids.len());
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!(got.row(i as u32), table.row(v));
        }
    });
}

/// Symmetrize yields a graph containing both directions of every edge.
#[test]
fn symmetrize_is_symmetric() {
    check("symmetrize_is_symmetric", CASES, |g| {
        let sym = Coo::from_edges(15, &edges(g, 15, 60)).symmetrize();
        let set: std::collections::HashSet<_> = sym.edges().collect();
        for &(s, d) in &set {
            assert!(set.contains(&(d, s)), "missing reverse of {s}->{d}");
        }
    });
}
