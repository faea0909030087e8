//! Neighbor sampling (S) — §II-B, Fig 4a — split into S = A + H (Fig 14c).
//!
//! For a batch of destination vertices, sample up to `fanout` unique random
//! in-neighbors per frontier node, hop by hop (one hop per GNN layer,
//! outer hops feeding earlier layers). New VIDs are allocated densely
//! through the sampler's own [`VidMap`]; already-seen nodes are found by
//! scanning the hash table, exactly as steps ②/④ of Fig 4a describe.
//!
//! Each hop runs in two phases, the paper's contention-relaxing split:
//!
//! * **A (algorithm)** — the sampling proper. Frontier destinations, carried
//!   as `(orig, new)` id pairs, are chunked across the [`ThreadPool`]; each
//!   destination draws from its own RNG stream keyed by `(seed, hop, dst)`,
//!   so the draws depend on neither chunk geometry nor worker count. A
//!   touches the hash table not at all — it emits per-chunk edge columns,
//!   each sampled source's original id beside its destination's new id, and
//!   allocates nothing per destination (duplicates are found by scanning the
//!   destination's own tail of the chunk's source column).
//! * **H (hash update)** — folded in chunk order on the calling worker,
//!   behind the A chunks still running: each hop is one
//!   [`ThreadPool::map_fold_ordered`] round with A as the map and H as the
//!   fold, so one hop's hash updates overlap the sampling still in flight
//!   (spans `sample.A` on the mapping workers, `sample.H` on
//!   `cpu-worker-0`). One [`VidMap::insert_or_get`] per sampled source
//!   allocates or finds its dense new VID (first-occurrence order) and H
//!   writes it into the hop's `src_new` column, so R builds the layer from
//!   the ids H assigned and never probes the map again. Whether a source is
//!   new to the next frontier is a hop stamp in a dense `Vec` indexed by new
//!   id, which grows with the id log — one probe per sampled endpoint in
//!   all. Because H folds chunks in index order and A is order-independent,
//!   `GT_THREADS=N` produces bit-identical output to `GT_THREADS=1`. H runs
//!   on one thread and is the map's only user, so the map needs no lock
//!   (Fig 14c serializes H; the contention of Fig 14a is modeled in
//!   `gt-core::scheduler`).
//!
//! Every frontier node also samples itself (a self-loop edge): GCN's
//! normalized adjacency includes self-loops (Â = A + I), and the self-edge
//! guarantees each hop's destination set is a subset of its source set, so
//! layer outputs are defined for every node a later layer reads.

use crate::error::SampleError;
use crate::hashtable::VidMap;
use gt_graph::{Csr, VId};
use gt_par::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frontier destinations per A-phase chunk. Fixed (never derived from the
/// worker count) so chunk boundaries — and therefore H's id-allocation
/// order — are the same for every `GT_THREADS`.
pub(crate) const A_CHUNK: usize = 128;

/// Per-destination RNG stream seed: a SplitMix64-style finalizer over
/// `(seed, hop, dst)`. Giving every destination its own stream is what
/// detaches the sampled neighbors from frontier iteration order.
pub(crate) fn node_stream_seed(seed: u64, hop: usize, dst: VId) -> u64 {
    let mut z = seed
        ^ (hop as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sampling configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Neighbors sampled per node per hop (`n` in Fig 4a; unique random).
    pub fanout: usize,
    /// Number of GNN layers = number of hops sampled.
    pub layers: usize,
    /// RNG seed (per batch, derive from a base seed + batch index).
    pub seed: u64,
    /// How neighbors are prioritized ("picking n vertices following a
    /// certain sampling priority", §II-B).
    pub priority: Priority,
}

/// Neighbor-selection priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Uniform without replacement — the paper's default ("unique random").
    #[default]
    UniqueRandom,
    /// Importance sampling: neighbors drawn proportionally to their own
    /// in-degree (FastGCN-style variance reduction), without replacement.
    DegreeWeighted,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        // §VI: "a batch includes 300 vertices"; two-layer models; common
        // fanout for sampling-based training.
        SamplerConfig {
            fanout: 10,
            layers: 2,
            seed: 0,
            priority: Priority::UniqueRandom,
        }
    }
}

/// Edges of one sampled hop as four parallel columns: the **original** ids
/// A drew and the **new** ids H assigned them. Reindexing builds the layer
/// from the new-id columns alone; the original-id columns are what the
/// checks and pins read.
#[derive(Debug, Clone, Default)]
pub struct HopEdges {
    /// Source (neighbor) original ids.
    pub src_orig: Vec<VId>,
    /// Destination original ids.
    pub dst_orig: Vec<VId>,
    /// Source new ids (`< boundaries[hop + 1]`).
    pub src_new: Vec<VId>,
    /// Destination new ids (`< boundaries[hop]`).
    pub dst_new: Vec<VId>,
}

impl HopEdges {
    fn with_capacity(n: usize) -> Self {
        HopEdges {
            src_orig: Vec::with_capacity(n),
            dst_orig: Vec::with_capacity(n),
            src_new: Vec::with_capacity(n),
            dst_new: Vec::with_capacity(n),
        }
    }

    /// Number of sampled edges in this hop.
    pub fn len(&self) -> usize {
        self.src_orig.len()
    }

    /// True if the hop has no edges.
    pub fn is_empty(&self) -> bool {
        self.src_orig.is_empty()
    }
}

/// Work counters for the sampling stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Adjacency-list entries inspected.
    pub edges_visited: u64,
    /// Random draws performed.
    pub draws: u64,
}

/// The sampler's output: per-hop edge columns (original and new ids), the
/// VID hash table, and the id-space boundaries after each hop.
#[derive(Debug)]
pub struct SampleOutput {
    /// `hops[0]` is hop 1 (adjacent to the batch); `hops[k]` is hop k+1.
    /// GNN layer `l` of an `L`-layer model consumes `hops[L - l]` — the
    /// outermost hop is processed first (§II-A).
    pub hops: Vec<HopEdges>,
    /// Original→new VID map H filled; its id log is K's row order.
    pub vidmap: VidMap,
    /// Id-space size after each stage: `boundaries[0]` = batch size,
    /// `boundaries[k]` = unique nodes after sampling hop k.
    pub boundaries: Vec<usize>,
    /// Sampling work counters.
    pub stats: SampleStats,
}

impl SampleOutput {
    /// Total unique sampled nodes.
    pub fn num_nodes(&self) -> usize {
        *self.boundaries.last().unwrap()
    }

    /// Dense `new → orig` id table (the K stage gathers rows in this order).
    pub fn new_to_orig(&self) -> &[VId] {
        self.vidmap.new_to_orig()
    }
}

/// Sample the per-layer subgraphs for `batch` destination vertices from the
/// full graph's in-adjacency `graph` (dst-indexed CSR), on the process-wide
/// pool (`GT_THREADS`). Panics on invalid input;
/// [`try_sample_batch_with_pool`] returns the violation as a value instead.
pub fn sample_batch(graph: &Csr, batch: &[VId], cfg: &SamplerConfig) -> SampleOutput {
    try_sample_batch_with_pool(graph, batch, cfg, ThreadPool::global())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Validate a sampling request without running it: the supervisor uses this
/// to quarantine poison batches before they reach the pipeline.
pub fn validate_batch(graph: &Csr, batch: &[VId], cfg: &SamplerConfig) -> Result<(), SampleError> {
    if cfg.layers == 0 {
        return Err(SampleError::ZeroLayers);
    }
    if batch.is_empty() {
        return Err(SampleError::EmptyBatch);
    }
    let n = graph.num_vertices();
    for &v in batch {
        if v as usize >= n {
            return Err(SampleError::VertexOutOfRange { v, n });
        }
    }
    Ok(())
}

/// The sampling entry point: [`sample_batch`] on an explicit pool,
/// returning invalid requests (zero layers, empty batch, out-of-range batch
/// ids) as [`SampleError`]s instead of panicking.
pub fn try_sample_batch_with_pool(
    graph: &Csr,
    batch: &[VId],
    cfg: &SamplerConfig,
    pool: &ThreadPool,
) -> Result<SampleOutput, SampleError> {
    validate_batch(graph, batch, cfg)?;
    let mut vidmap = VidMap::new();
    let mut stats = SampleStats::default();

    // Step ①/②: batch dsts get new ids in first-occurrence order. The
    // batch may repeat a vertex (e.g. one user in several BPR triples);
    // it is sampled once.
    let mut frontier: Vec<(VId, VId)> = Vec::with_capacity(batch.len());
    for &v in batch {
        let (new, fresh) = vidmap.insert_or_get(v);
        if fresh {
            frontier.push((v, new));
        }
    }
    // `stamp[new] == hop + 1` once `new` is in hop's next frontier; one
    // entry per id in the log, so it never grows to O(|V|).
    let mut stamp: Vec<usize> = vec![0; vidmap.len()];
    let mut boundaries = vec![vidmap.len()];
    let mut hops = Vec::with_capacity(cfg.layers);
    for hop in 0..cfg.layers {
        let mut edges = HopEdges::with_capacity(edge_bound(graph, cfg, &frontier));
        let mut next_frontier: Vec<(VId, VId)> = Vec::new();
        pool.map_fold_ordered(
            "sample.A",
            "sample.H",
            frontier.len(),
            A_CHUNK,
            // A phase: chunk-parallel sampling with zero hash-table traffic.
            |_, range| sample_chunk(graph, cfg, hop, &frontier[range]),
            // H phase: folded in chunk order on the calling worker, behind
            // the A chunks still running. Steps ③/④ — allocate-or-find each
            // source's new id with one probe, and build the next frontier in
            // first-occurrence order (Fig 4a iterates ③ "for all the
            // previously sampled vertices"). The src column visits each dst
            // before that dst's samples (self-loop first), so the frontier
            // order matches what a fully serial pass would produce.
            |_, (chunk, st): (HopEdges, SampleStats)| {
                stats.edges_visited += st.edges_visited;
                stats.draws += st.draws;
                for &s in &chunk.src_orig {
                    let (new, fresh) = vidmap.insert_or_get(s);
                    if fresh {
                        stamp.push(0);
                    }
                    if stamp[new as usize] != hop + 1 {
                        stamp[new as usize] = hop + 1;
                        next_frontier.push((s, new));
                    }
                    edges.src_new.push(new);
                }
                edges.src_orig.extend_from_slice(&chunk.src_orig);
                edges.dst_orig.extend_from_slice(&chunk.dst_orig);
                edges.dst_new.extend_from_slice(&chunk.dst_new);
            },
        );
        boundaries.push(vidmap.len());
        hops.push(edges);
        frontier = next_frontier;
    }

    Ok(SampleOutput {
        hops,
        vidmap,
        boundaries,
        stats,
    })
}

/// Edges that sampling `dsts` can emit: a self-loop and at most `fanout`
/// samples per destination.
fn edge_bound(graph: &Csr, cfg: &SamplerConfig, dsts: &[(VId, VId)]) -> usize {
    dsts.iter()
        .map(|&(d, _)| 1 + graph.degree(d).min(cfg.fanout))
        .sum()
}

/// The A phase of one chunk of hop `hop`'s frontier: sample every
/// destination's neighbors into the chunk's edge columns. `src_new` stays
/// empty; H fills it.
fn sample_chunk(
    graph: &Csr,
    cfg: &SamplerConfig,
    hop: usize,
    dsts: &[(VId, VId)],
) -> (HopEdges, SampleStats) {
    let bound = edge_bound(graph, cfg, dsts);
    let mut edges = HopEdges {
        src_orig: Vec::with_capacity(bound),
        dst_orig: Vec::with_capacity(bound),
        dst_new: Vec::with_capacity(bound),
        ..HopEdges::default()
    };
    let mut st = SampleStats::default();
    let (mut chosen, mut weights) = (Vec::new(), Vec::new());
    for &(dst, dst_new) in dsts {
        // Neighbors already taken for this dst ("unique random", §II-B) are
        // the chunk's source column from its self-loop on: the adjacency
        // list may contain duplicate edges or an explicit self-loop, both of
        // which must not produce repeat samples.
        let taken = edges.src_orig.len();
        let mut take = |s: VId| {
            if !edges.src_orig[taken..].contains(&s) {
                edges.src_orig.push(s);
                edges.dst_orig.push(dst);
                edges.dst_new.push(dst_new);
            }
        };
        // Self-loop: a node always aggregates itself.
        take(dst);

        let neigh = graph.srcs(dst);
        st.edges_visited += neigh.len() as u64;
        if neigh.len() <= cfg.fanout {
            neigh.iter().for_each(|&s| take(s));
            continue;
        }
        let mut rng = StdRng::seed_from_u64(node_stream_seed(cfg.seed, hop, dst));
        match cfg.priority {
            Priority::UniqueRandom => {
                sample_unique(neigh.len(), cfg.fanout, &mut rng, &mut st, &mut chosen)
            }
            Priority::DegreeWeighted => sample_degree_weighted(
                graph,
                neigh,
                cfg.fanout,
                &mut rng,
                &mut st,
                &mut chosen,
                &mut weights,
            ),
        }
        chosen.iter().for_each(|&i| take(neigh[i]));
    }
    (edges, st)
}

/// Degree-weighted sampling without replacement: repeatedly draw with
/// probability proportional to each candidate's in-degree, rejecting
/// repeats. Leaves `k < pool.len()` indices into `pool` in `chosen`;
/// `weights` is scratch.
pub(crate) fn sample_degree_weighted(
    graph: &Csr,
    pool: &[VId],
    k: usize,
    rng: &mut StdRng,
    stats: &mut SampleStats,
    chosen: &mut Vec<usize>,
    weights: &mut Vec<u64>,
) {
    // Degree + 1 per candidate, so isolated neighbors keep nonzero mass.
    weights.clear();
    weights.extend(pool.iter().map(|&v| graph.degree(v) as u64 + 1));
    let total: u64 = weights.iter().sum();
    chosen.clear();
    let mut guard = 0;
    while chosen.len() < k && guard < 20 * k {
        guard += 1;
        stats.draws += 1;
        let mut target = rng.gen_range(0..total);
        let mut idx = 0;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                idx = i;
                break;
            }
            target -= w;
        }
        if !chosen.contains(&idx) {
            chosen.push(idx);
        }
    }
    // Rejection stalls only on pathological weight skew; top up uniformly.
    for i in 0..pool.len() {
        if chosen.len() >= k {
            break;
        }
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
}

/// Pick `k < len` unique indices of a `len`-long pool uniformly at random
/// (Floyd's algorithm) into `chosen`.
pub(crate) fn sample_unique(
    len: usize,
    k: usize,
    rng: &mut StdRng,
    stats: &mut SampleStats,
    chosen: &mut Vec<usize>,
) {
    // Partial Fisher–Yates over an index vector would allocate len; Floyd's
    // needs only the result set.
    chosen.clear();
    for j in len - k..len {
        stats.draws += 1;
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::convert::coo_to_csr;
    use gt_graph::generators::erdos_renyi;
    use gt_graph::Coo;

    fn chain_graph() -> Csr {
        // 0 ← 1 ← 2 ← 3 ← 4 (in-neighbor chains).
        let coo = Coo::from_edges(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        coo_to_csr(&coo).0
    }

    fn cfg(fanout: usize, layers: usize) -> SamplerConfig {
        SamplerConfig {
            fanout,
            layers,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn degree_weighted_prefers_hubs() {
        // Graph: dst 0 has many neighbors; one of them (hub) has a huge
        // in-degree. Degree-weighted sampling should select the hub far
        // more often than uniform sampling would.
        let mut edges: Vec<(u32, u32)> = (1..30u32).map(|s| (s, 0)).collect();
        // Node 1 is the hub: everyone points at it.
        edges.extend((2..60u32).map(|s| (s, 1)));
        let coo = Coo::from_edges(60, &edges);
        let g = coo_to_csr(&coo).0;
        let mut hub_hits = 0;
        for seed in 0..50 {
            let out = sample_batch(
                &g,
                &[0],
                &SamplerConfig {
                    fanout: 2,
                    layers: 1,
                    seed,
                    priority: Priority::DegreeWeighted,
                },
            );
            if out.hops[0].src_orig.contains(&1) {
                hub_hits += 1;
            }
        }
        // Uniform would pick the hub ~2/29 ≈ 7% of the time; weighted with
        // hub weight 59/(29+58) ≈ most draws.
        assert!(hub_hits > 25, "hub picked only {hub_hits}/50 times");
    }

    #[test]
    fn degree_weighted_still_unique_and_valid() {
        let coo = erdos_renyi(100, 1500, 5);
        let g = coo_to_csr(&coo).0;
        let out = sample_batch(
            &g,
            &[0, 1, 2, 3],
            &SamplerConfig {
                fanout: 4,
                layers: 2,
                seed: 9,
                priority: Priority::DegreeWeighted,
            },
        );
        for hop in &out.hops {
            let mut per_dst: std::collections::HashMap<VId, Vec<VId>> = Default::default();
            for (&s, &d) in hop.src_orig.iter().zip(&hop.dst_orig) {
                assert!(s == d || g.srcs(d).contains(&s));
                per_dst.entry(d).or_default().push(s);
            }
            for (_, srcs) in per_dst {
                let set: std::collections::HashSet<_> = srcs.iter().collect();
                assert_eq!(set.len(), srcs.len());
            }
        }
    }

    #[test]
    fn batch_gets_first_ids() {
        let g = chain_graph();
        let out = sample_batch(&g, &[0, 2], &cfg(2, 1));
        let inv = out.new_to_orig();
        assert_eq!(&inv[..2], &[0, 2]);
        assert_eq!(out.boundaries[0], 2);
    }

    #[test]
    fn hops_expand_monotonically() {
        let g = chain_graph();
        let out = sample_batch(&g, &[0], &cfg(2, 3));
        assert_eq!(out.hops.len(), 3);
        assert!(out.boundaries.windows(2).all(|w| w[0] <= w[1]));
        // Chain: hop k reaches node k.
        assert_eq!(out.num_nodes(), 4);
    }

    #[test]
    fn self_loops_present() {
        let g = chain_graph();
        let out = sample_batch(&g, &[0], &cfg(2, 1));
        assert!(out.hops[0]
            .src_orig
            .iter()
            .zip(&out.hops[0].dst_orig)
            .any(|(s, d)| s == d));
    }

    #[test]
    fn fanout_bounds_degree() {
        let g = {
            let coo = erdos_renyi(200, 3000, 7);
            coo_to_csr(&coo).0
        };
        let out = sample_batch(&g, &[0, 1, 2, 3], &cfg(3, 2));
        // Each dst contributes at most fanout + 1 (self) edges per hop.
        for hop in &out.hops {
            let mut counts = std::collections::HashMap::new();
            for &d in &hop.dst_orig {
                *counts.entry(d).or_insert(0usize) += 1;
            }
            assert!(counts.values().all(|&c| c <= 4), "degree exceeded fanout+1");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = {
            let coo = erdos_renyi(100, 1000, 3);
            coo_to_csr(&coo).0
        };
        let a = sample_batch(&g, &[5, 6, 7], &cfg(4, 2));
        let b = sample_batch(&g, &[5, 6, 7], &cfg(4, 2));
        assert_eq!(a.hops[0].src_orig, b.hops[0].src_orig);
        assert_eq!(a.hops[1].src_orig, b.hops[1].src_orig);
        assert_eq!(a.new_to_orig(), b.new_to_orig());
    }

    #[test]
    fn sampling_identical_across_pool_widths() {
        // A batch large enough that hop frontiers span several A-phase
        // chunks, so the parallel path is genuinely exercised.
        let g = {
            let coo = erdos_renyi(2000, 20000, 17);
            coo_to_csr(&coo).0
        };
        let batch: Vec<VId> = (0..300).collect();
        let c = cfg(6, 2);
        let serial = try_sample_batch_with_pool(&g, &batch, &c, &ThreadPool::new(1)).unwrap();
        for workers in [2, 8] {
            let par =
                try_sample_batch_with_pool(&g, &batch, &c, &ThreadPool::new(workers)).unwrap();
            assert_eq!(serial.boundaries, par.boundaries);
            assert_eq!(serial.new_to_orig(), par.new_to_orig());
            for (a, b) in serial.hops.iter().zip(&par.hops) {
                assert_eq!(a.src_orig, b.src_orig);
                assert_eq!(a.dst_orig, b.dst_orig);
            }
            assert_eq!(serial.stats, par.stats);
        }
    }

    #[test]
    fn sampled_neighbors_are_real_neighbors() {
        let coo = erdos_renyi(100, 800, 9);
        let g = coo_to_csr(&coo).0;
        let out = sample_batch(&g, &[1, 2, 3], &cfg(5, 2));
        for hop in &out.hops {
            for (&s, &d) in hop.src_orig.iter().zip(&hop.dst_orig) {
                assert!(
                    s == d || g.srcs(d).contains(&s),
                    "{s} is not an in-neighbor of {d}"
                );
            }
        }
    }

    #[test]
    fn unique_sampling_no_duplicates_per_dst() {
        let coo = erdos_renyi(50, 600, 11);
        let g = coo_to_csr(&coo).0;
        let out = sample_batch(&g, &[0, 1], &cfg(4, 1));
        let hop = &out.hops[0];
        let mut per_dst: std::collections::HashMap<VId, Vec<VId>> = Default::default();
        for (&s, &d) in hop.src_orig.iter().zip(&hop.dst_orig) {
            per_dst.entry(d).or_default().push(s);
        }
        for (_, srcs) in per_dst {
            let set: std::collections::HashSet<_> = srcs.iter().collect();
            assert_eq!(set.len(), srcs.len(), "duplicate sampled neighbor");
        }
    }

    #[test]
    fn try_sample_batch_reports_bad_requests_as_values() {
        let g = chain_graph();
        let try_sample = |batch: &[VId], cfg: &SamplerConfig| {
            try_sample_batch_with_pool(&g, batch, cfg, ThreadPool::global())
        };
        assert_eq!(
            try_sample(&[], &cfg(2, 1)).err(),
            Some(SampleError::EmptyBatch)
        );
        assert_eq!(
            try_sample(&[0], &cfg(2, 0)).err(),
            Some(SampleError::ZeroLayers)
        );
        assert_eq!(
            try_sample(&[0, 99], &cfg(2, 1)).err(),
            Some(SampleError::VertexOutOfRange { v: 99, n: 5 })
        );
        assert!(try_sample(&[0, 4], &cfg(2, 1)).is_ok());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_still_panics_via_wrapper() {
        let g = chain_graph();
        sample_batch(&g, &[], &cfg(2, 1));
    }

    #[test]
    fn stats_are_populated() {
        let coo = erdos_renyi(100, 2000, 13);
        let g = coo_to_csr(&coo).0;
        let out = sample_batch(&g, &[0, 1, 2], &cfg(3, 2));
        assert!(out.stats.edges_visited > 0);
        assert!(out.vidmap.stats().inserts as usize == out.num_nodes());
    }
}
