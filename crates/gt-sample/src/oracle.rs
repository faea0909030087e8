//! The two-probe data loader the single-probe one replaced, kept as the
//! oracle of a differential test: A keeps a per-destination `local` list,
//! H probes the [`VidMap`] and then a per-hop `in_next` set for every
//! sampled endpoint, and R maps every endpoint back through `vidmap.get`.

use crate::hashtable::VidMap;
use crate::idhash::BuildIdHasher;
use crate::reindex::{try_reindex_layer_with_pool, LayerGraph};
use crate::sampler::{
    node_stream_seed, sample_degree_weighted, sample_unique, try_sample_batch_with_pool, Priority,
    SampleStats, SamplerConfig, A_CHUNK,
};
use gt_graph::convert::{coo_to_csc, coo_to_csr};
use gt_graph::generators::{erdos_renyi, planted_partition, rmat};
use gt_graph::{Coo, Csr, VId};
use gt_par::ThreadPool;
use gt_sim::prop::{check, CASES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// What the two-probe sampler produced.
struct Sampled {
    /// The frontier (original ids) each hop sampled from.
    frontiers: Vec<Vec<VId>>,
    /// Each hop's `(src_orig, dst_orig)` columns.
    hops: Vec<(Vec<VId>, Vec<VId>)>,
    vidmap: VidMap,
    boundaries: Vec<usize>,
    stats: SampleStats,
}

fn sample(graph: &Csr, batch: &[VId], cfg: &SamplerConfig, pool: &ThreadPool) -> Sampled {
    let mut vidmap = VidMap::new();
    let mut stats = SampleStats::default();
    let mut frontier: Vec<VId> = batch
        .iter()
        .copied()
        .filter(|&v| vidmap.insert_or_get(v).1)
        .collect();
    let mut boundaries = vec![vidmap.len()];
    let (mut frontiers, mut hops) = (Vec::new(), Vec::new());
    for hop in 0..cfg.layers {
        let frontier_ref = &frontier;
        let chunks = pool.map_chunks("oracle.A", frontier.len(), A_CHUNK, |_, range| {
            let (mut src, mut dst, mut st) = (Vec::new(), Vec::new(), SampleStats::default());
            for &d in &frontier_ref[range] {
                src.push(d);
                dst.push(d);
                let mut local = vec![d];
                let neigh = graph.srcs(d);
                st.edges_visited += neigh.len() as u64;
                let mut rng = StdRng::seed_from_u64(node_stream_seed(cfg.seed, hop, d));
                let picked: Vec<VId> = if neigh.len() <= cfg.fanout {
                    neigh.to_vec()
                } else {
                    let (k, mut chosen) = (cfg.fanout, Vec::new());
                    match cfg.priority {
                        Priority::UniqueRandom => {
                            sample_unique(neigh.len(), k, &mut rng, &mut st, &mut chosen)
                        }
                        Priority::DegreeWeighted => sample_degree_weighted(
                            graph,
                            neigh,
                            k,
                            &mut rng,
                            &mut st,
                            &mut chosen,
                            &mut Vec::new(),
                        ),
                    }
                    chosen.iter().map(|&i| neigh[i]).collect()
                };
                for s in picked {
                    if !local.contains(&s) {
                        local.push(s);
                        src.push(s);
                        dst.push(d);
                    }
                }
            }
            (src, dst, st)
        });
        // H: the map first, then the `in_next` set — two probes per endpoint.
        let (mut src, mut dst, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let mut in_next: HashSet<VId, BuildIdHasher> = HashSet::default();
        for (s, d, st) in chunks {
            stats.edges_visited += st.edges_visited;
            stats.draws += st.draws;
            for &v in &s {
                vidmap.insert_or_get(v);
            }
            for &v in &s {
                if in_next.insert(v) {
                    next.push(v);
                }
            }
            src.extend(s);
            dst.extend(d);
        }
        boundaries.push(vidmap.len());
        hops.push((src, dst));
        frontiers.push(std::mem::replace(&mut frontier, next));
    }
    Sampled {
        frontiers,
        hops,
        vidmap,
        boundaries,
        stats,
    }
}

/// The mapping R: every endpoint through `vidmap.get`, then one COO to CSR
/// and CSC.
fn reindex(
    (src, dst): &(Vec<VId>, Vec<VId>),
    vidmap: &VidMap,
    num_dst: usize,
    num_src: usize,
) -> LayerGraph {
    let map = |ids: &[VId]| ids.iter().map(|&v| vidmap.get(v).unwrap()).collect();
    let coo = Coo::new(num_src, map(src), map(dst));
    let full = coo_to_csr(&coo).0;
    LayerGraph {
        csr: Csr::new(full.indptr[..=num_dst].to_vec(), full.srcs),
        csc: coo_to_csc(&coo).0,
        num_dst,
        num_src,
    }
}

/// A generated graph (with a few explicit self-loops and duplicate edges),
/// a batch that may repeat vertices, and a sampler config whose fanout is
/// sometimes at or above the maximum in-degree.
fn case(g: &mut gt_sim::prop::Gen) -> (Csr, Vec<VId>, SamplerConfig) {
    let n = g.range(2..400);
    let (m, seed) = (g.range(0..4 * n), g.next_u64());
    let mut coo = match g.range(0..3) {
        0 => erdos_renyi(n, m, seed),
        1 => rmat(n, m, seed),
        _ => planted_partition(n, m, g.range(1..n.min(8)), 0.8, seed),
    };
    for _ in 0..g.range(0..4) {
        let v = g.range(0..n) as VId;
        coo.src.push(v);
        coo.dst.push(v);
        let e = g.range(0..coo.src.len());
        coo.src.push(coo.src[e]);
        coo.dst.push(coo.dst[e]);
    }
    let csr = coo_to_csr(&coo).0;
    let batch = g.vec(1..300, |g| g.range(0..n) as VId);
    let max_degree = (0..n as VId).map(|v| csr.degree(v)).max().unwrap_or(0);
    let fanout = match g.range(0..3) {
        0 => max_degree + g.range(0..3),
        _ => g.range(1..6),
    };
    let cfg = SamplerConfig {
        fanout,
        layers: g.range(1..4),
        seed: g.next_u64(),
        priority: *g.pick(&[Priority::UniqueRandom, Priority::DegreeWeighted]),
    };
    (csr, batch, cfg)
}

/// The single-probe loader (H assigns each new id once and hands it to R)
/// equals the two-probe one at pool widths 1/2/4: the same ids per
/// endpoint, frontiers, boundaries, counters and layer structures.
#[test]
fn single_probe_loader_matches_two_probe_oracle() {
    let pools = [1, 2, 4].map(ThreadPool::new);
    check("single_probe_loader_matches_two_probe_oracle", CASES, |g| {
        let (csr, batch, cfg) = case(g);
        let want = sample(&csr, &batch, &cfg, &pools[0]);
        let new_id = |v: VId| want.vidmap.get(v).unwrap();
        for pool in &pools {
            let got = try_sample_batch_with_pool(&csr, &batch, &cfg, pool).unwrap();
            assert_eq!(got.boundaries, want.boundaries);
            assert_eq!(got.new_to_orig(), want.vidmap.new_to_orig());
            assert_eq!(got.vidmap.stats(), want.vidmap.stats());
            assert_eq!(got.stats, want.stats);
            for (k, hop) in got.hops.iter().enumerate() {
                let (src, dst) = &want.hops[k];
                assert_eq!((&hop.src_orig, &hop.dst_orig), (src, dst), "hop {k}");
                let src_new: Vec<VId> = src.iter().map(|&v| new_id(v)).collect();
                let dst_new: Vec<VId> = dst.iter().map(|&v| new_id(v)).collect();
                assert_eq!(
                    (&hop.src_new, &hop.dst_new),
                    (&src_new, &dst_new),
                    "hop {k}"
                );
                // Each frontier node's edges start with its self-loop, so the
                // hop's destination runs spell out the frontier it sampled:
                // hop 0's comes from the batch, later ones from H's stamps.
                let frontier: Vec<(VId, VId)> = (0..hop.len())
                    .filter(|&i| i == 0 || hop.dst_orig[i] != hop.dst_orig[i - 1])
                    .map(|i| (hop.dst_orig[i], hop.dst_new[i]))
                    .collect();
                let want_frontier: Vec<(VId, VId)> =
                    want.frontiers[k].iter().map(|&v| (v, new_id(v))).collect();
                assert_eq!(frontier, want_frontier, "frontier of hop {k}");
                let (num_dst, num_src) = (want.boundaries[k], want.boundaries[k + 1]);
                assert_eq!(
                    try_reindex_layer_with_pool(hop, &got.vidmap, num_dst, num_src, pool).unwrap(),
                    reindex(&want.hops[k], &want.vidmap, num_dst, num_src),
                    "layer of hop {k}"
                );
            }
        }
    });
}
