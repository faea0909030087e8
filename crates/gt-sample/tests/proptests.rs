//! Property-based tests on sampling/reindexing invariants.

use gt_graph::convert::coo_to_csr;
use gt_graph::{Coo, VId};
use gt_sample::{reindex_layer, sample_batch, SamplerConfig, VidMap};
use gt_sim::prop::{check, Gen, CASES};

/// A 50-vertex graph and a sorted, distinct batch of its vertices.
fn graph(g: &mut Gen) -> (Coo, Vec<VId>) {
    let es = g.vec(20..200, |g| (g.range(0..50) as VId, g.range(0..50) as VId));
    let mut batch = g.vec(1..8, |g| g.range(0..50) as VId);
    batch.sort();
    batch.dedup();
    (Coo::from_edges(50, &es), batch)
}

/// Sampling invariants: boundaries monotone, batch gets the first ids,
/// every sampled edge is a real edge or a self-loop, new→orig is a
/// bijection onto the sampled set.
#[test]
fn sampling_invariants() {
    check("sampling_invariants", CASES, |g| {
        let (coo, batch) = graph(g);
        let (fanout, layers, seed) = (g.range(1..6), g.range(1..4), g.range(0..100) as u64);
        let (csr, _) = coo_to_csr(&coo);
        let cfg = SamplerConfig {
            fanout,
            layers,
            seed,
            ..Default::default()
        };
        let out = sample_batch(&csr, &batch, &cfg);

        assert_eq!(out.hops.len(), layers);
        assert!(out.boundaries.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.boundaries[0], batch.len());

        let inv = out.new_to_orig();
        assert_eq!(inv.len(), out.num_nodes());
        // First ids are the batch, in order.
        assert_eq!(&inv[..batch.len()], &batch[..]);
        // Bijection: distinct originals.
        let set: std::collections::HashSet<_> = inv.iter().collect();
        assert_eq!(set.len(), inv.len());

        for hop in &out.hops {
            for (&s, &d) in hop.src_orig.iter().zip(&hop.dst_orig) {
                assert!(s == d || csr.srcs(d).contains(&s));
            }
        }
    });
}

/// Reindexed layers: ids within boundaries, CSR/CSC edge multisets
/// match, per-dst degree bounded by fanout + 1.
#[test]
fn reindex_invariants() {
    let holds = |coo: &Coo, batch: &[VId], fanout: usize, seed: u64| {
        let (csr, _) = coo_to_csr(coo);
        let cfg = SamplerConfig {
            fanout,
            layers: 2,
            seed,
            ..Default::default()
        };
        let out = sample_batch(&csr, batch, &cfg);
        for (k, hop) in out.hops.iter().enumerate() {
            let lg = reindex_layer(hop, &out.vidmap, out.boundaries[k], out.boundaries[k + 1]);
            assert_eq!(lg.csr.num_edges(), hop.len());
            for (d, srcs) in lg.csr.iter() {
                assert!((d as usize) < lg.num_dst);
                assert!(srcs.len() <= fanout + 1, "degree {} > fanout+1", srcs.len());
                for &s in srcs {
                    assert!((s as usize) < lg.num_src);
                }
            }
            assert_eq!(lg.csc.num_edges(), lg.csr.num_edges());
        }
    };
    // A past failure: twenty edges, all self-loops at 0 but 0→19 (twice)
    // and 19→3, with both endpoints of the chain in the batch.
    let mut past = vec![(0, 0); 20];
    (past[0], past[4], past[8]) = ((0, 19), (0, 19), (19, 3));
    holds(&Coo::from_edges(50, &past), &[3, 19], 1, 0);
    check("reindex_invariants", CASES, |g| {
        let (coo, batch) = graph(g);
        holds(&coo, &batch, g.range(1..5), g.range(0..100) as u64)
    });
}

/// VidMap allocates dense ids regardless of insertion pattern.
#[test]
fn vidmap_dense_allocation() {
    check("vidmap_dense_allocation", CASES, |g| {
        let keys = g.vec(1..300, |g| g.range(0..1000) as VId);
        let mut m = VidMap::new();
        for &k in &keys {
            m.insert_or_get(k);
        }
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(m.len(), unique.len());
        let inv = m.new_to_orig();
        for (new, &orig) in inv.iter().enumerate() {
            assert_eq!(m.get(orig), Some(new as VId));
        }
        let stats = m.stats();
        assert_eq!(stats.inserts as usize, unique.len());
        assert_eq!((stats.inserts + stats.hits) as usize, keys.len());
    });
}
