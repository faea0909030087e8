//! Host-resident training data: the full graph (in-adjacency CSR), the
//! global embedding table, and per-vertex labels — and the pooled drivers
//! every dataset builder runs to make them.
//!
//! **Building a dataset does no serial work but its RNG chain.** Both
//! drivers run gt-graph's safe serial pieces on the `gt_par` pool and give
//! the serial builders' bytes at any pool width:
//!
//! * [`random_features`] fills a table from the closed form of
//!   [`EmbeddingTable::random`] ([`gt_graph::fill_random`]) in fixed
//!   64 K-element chunks. The loop is compiled once more under
//!   `avx512f,avx512dq` (native 64-bit multiplies) and dispatched the way
//!   the dense band kernel is: [`fill_isa`] names the widest instantiation
//!   the CPU runs.
//! * [`rmat`] pipelines the R-MAT walk: per round, one pool slot steps
//!   the one `StdRng` chain into block k+1 ([`RmatChain`]) while the other
//!   decodes block k into edges ([`RmatWalk`]). Blocks are
//!   [`RMAT_BLOCK`] draws whatever the width; at one worker the two stages
//!   run in turn.
//!
//! `Coo::dedup`, `coo_to_csr` and the bipartite Zipf walk stay serial
//! (docs/parallelism.md §Dataset build says why).

use gt_graph::generators::{RmatChain, RmatWalk, RMAT_ABC, RMAT_BLOCK};
use gt_graph::{Coo, Csr, EmbeddingTable, VId};
use gt_par::ThreadPool;

/// Elements per feature-fill pool chunk (fixed, independent of the worker
/// count).
const FILL_CHUNK: usize = 1 << 16;

/// The widest instantiation of the feature fill this CPU runs, and the one
/// [`random_features`] uses: `"avx512dq"` or `"baseline"`. Results do not
/// depend on it.
pub fn fill_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        return "avx512dq";
    }
    "baseline"
}

/// [`gt_graph::fill_random`] compiled as the `isa` instantiation: a name
/// [`fill_isa`] can answer, for an ISA this CPU has.
fn fill(isa: &str, seed: u64, first: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == "avx512dq" {
        assert_eq!(fill_isa(), isa, "this CPU lacks the {isa} instantiation");
        // SAFETY: `fill_isa` has just detected avx512f and avx512dq on the
        // running CPU.
        return unsafe { fill_avx512dq(seed, first, out) };
    }
    assert_eq!(isa, "baseline", "this CPU lacks the {isa} instantiation");
    gt_graph::fill_random(seed, first, out)
}

/// [`gt_graph::fill_random`] with 512-bit vectors and native 64-bit
/// multiplies (`vpmullq`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_avx512dq(seed: u64, first: usize, out: &mut [f32]) {
    gt_graph::fill_random(seed, first, out)
}

/// `EmbeddingTable::random(rows, dim, seed)`, filled on the global pool.
pub fn random_features(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
    fill_on(ThreadPool::global(), fill_isa(), rows, dim, seed)
}

/// [`random_features`] on `pool`, through the `isa` instantiation.
fn fill_on(pool: &ThreadPool, isa: &str, rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
    let mut table = EmbeddingTable::zeros(rows, dim);
    pool.for_each_chunk_mut("data.fill", table.data_mut(), FILL_CHUNK, |i, chunk| {
        fill(isa, seed, i * FILL_CHUNK, chunk)
    });
    table
}

/// `gt_graph::generators::rmat`, walked on the global pool.
pub fn rmat(num_vertices: usize, num_edges: usize, seed: u64) -> Coo {
    let (a, b, c) = RMAT_ABC;
    rmat_on(ThreadPool::global(), num_vertices, num_edges, a, b, c, seed)
}

/// `gt_graph::generators::rmat_with`, walked on `pool`: each round steps
/// the chain into one block while the walk decodes the block before it.
fn rmat_on(
    pool: &ThreadPool,
    num_vertices: usize,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> Coo {
    /// One pool slot's share of a round.
    enum Stage<'a> {
        Chain(&'a mut RmatChain, &'a mut [u64]),
        Walk(&'a mut RmatWalk, &'a [u64]),
    }
    let mut walk = RmatWalk::new(num_vertices, num_edges, a, b, c);
    let mut chain = RmatChain::new(seed);
    let (mut ready, mut next) = (vec![0; RMAT_BLOCK], vec![0; RMAT_BLOCK]);
    chain.fill(&mut ready);
    while !walk.done() {
        let mut stages = [
            Stage::Chain(&mut chain, &mut next),
            Stage::Walk(&mut walk, &ready),
        ];
        pool.for_each_chunk_mut("data.rmat", &mut stages, 1, |_, stage| {
            match &mut stage[0] {
                Stage::Chain(chain, block) => chain.fill(block),
                Stage::Walk(walk, block) => walk.decode(block),
            }
        });
        std::mem::swap(&mut ready, &mut next);
    }
    walk.into_coo()
}

/// A training workload as it sits in host memory before preprocessing.
#[derive(Debug, Clone)]
pub struct GraphData {
    /// Full graph, dst-indexed (in-neighbors per vertex).
    pub graph: Csr,
    /// Global embedding table (row = vertex, Table II "feature dim").
    pub features: EmbeddingTable,
    /// Per-vertex class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of label classes (Table II "out dim").
    pub num_classes: usize,
}

impl GraphData {
    /// Validates shape agreement between graph, features, and labels.
    pub fn new(
        graph: Csr,
        features: EmbeddingTable,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        assert_eq!(graph.num_vertices(), features.rows(), "feature rows");
        assert_eq!(graph.num_vertices(), labels.len(), "label count");
        assert!(num_classes > 0);
        debug_assert!(labels.iter().all(|&l| l < num_classes));
        GraphData {
            graph,
            features,
            labels,
            num_classes,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.dim()
    }

    /// Labels for a batch of vertex ids.
    pub fn batch_labels(&self, batch: &[VId]) -> Vec<usize> {
        batch.iter().map(|&v| self.labels[v as usize]).collect()
    }

    /// A small deterministic synthetic workload for tests: an Erdős–Rényi
    /// graph with random features and labels.
    pub fn synthetic(
        num_vertices: usize,
        num_edges: usize,
        feature_dim: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        let coo = gt_graph::generators::erdos_renyi(num_vertices, num_edges, seed);
        let (graph, _) = gt_graph::convert::coo_to_csr(&coo);
        let features = random_features(num_vertices, feature_dim, seed ^ 0xF00D);
        let labels = (0..num_vertices).map(|v| v % num_classes).collect();
        GraphData::new(graph, features, labels, num_classes)
    }

    /// Like [`GraphData::synthetic`], but actually learnable by a
    /// message-passing GNN: the graph is a homophilous planted partition
    /// (90% of edges stay within a label block) and features carry a strong
    /// label signal (label-indexed dimensions boosted). Homophily matters:
    /// on an Erdős–Rényi graph neighbors are label-uncorrelated, so mean
    /// aggregation over L layers dilutes each vertex's own signal to
    /// ~1/deg^L and cross-entropy stalls at ln(num_classes) regardless of
    /// the optimizer. Convergence tests rely on this dataset.
    pub fn synthetic_learnable(
        num_vertices: usize,
        num_edges: usize,
        feature_dim: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        assert!(feature_dim >= num_classes, "need one signal dim per class");
        let coo = gt_graph::generators::planted_partition(
            num_vertices,
            num_edges,
            num_classes,
            0.9,
            seed,
        );
        let (graph, _) = gt_graph::convert::coo_to_csr(&coo);
        let mut features = random_features(num_vertices, feature_dim, seed ^ 0xF00D);
        let labels: Vec<usize> = (0..num_vertices).map(|v| v % num_classes).collect();
        for (v, &label) in labels.iter().enumerate() {
            features.row_mut(v as VId)[label] += 6.0;
        }
        GraphData::new(graph, features, labels, num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::generators::reference::{quadrant_reference, rmat_reference, QUADRANTS};

    /// Every instantiation of the fill this CPU runs, narrowest first.
    fn fill_isas() -> Vec<&'static str> {
        let mut isas = vec!["baseline"];
        if fill_isa() != "baseline" {
            isas.push(fill_isa());
        }
        isas
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fill_isa_names_what_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let wide = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        assert_eq!(fill_isa(), if wide { "avx512dq" } else { "baseline" });
        assert_eq!(fill_isas().last(), Some(&fill_isa()));
    }

    #[test]
    #[should_panic(expected = "lacks the avx1024 instantiation")]
    fn fill_refuses_an_isa_it_was_not_built_for() {
        fill("avx1024", 1, 0, &mut [0.0]);
    }

    #[test]
    fn pooled_fill_equals_the_serial_table() {
        // rows·dim of 0, 1, just under and just over one chunk, several
        // chunks with a ragged tail, and the heavy workload's table.
        let shapes = [
            (0, 7),
            (5, 0),
            (1, 1),
            (1, FILL_CHUNK - 1),
            (FILL_CHUNK + 1, 1),
            (97, 2011),
            (10_000, 4353),
        ];
        let pools = [1, 2, 4].map(ThreadPool::leaked);
        for (i, (rows, dim)) in shapes.into_iter().enumerate() {
            let seed = 0xDA7A ^ i as u64;
            let want = EmbeddingTable::random(rows, dim, seed);
            for isa in fill_isas() {
                for pool in pools {
                    let got = fill_on(pool, isa, rows, dim, seed);
                    assert_eq!((got.rows(), got.dim()), (rows, dim));
                    assert!(
                        bits(got.data()) == bits(want.data()),
                        "{rows}x{dim} {isa} at width {}",
                        pool.workers()
                    );
                }
            }
        }
    }

    #[test]
    fn fill_at_an_offset_is_that_slice_of_the_table() {
        let want = EmbeddingTable::random(3, FILL_CHUNK, 42);
        for isa in fill_isas() {
            for (first, len) in [
                (0, 1),
                (1, 17),
                (FILL_CHUNK - 3, 7),
                (2 * FILL_CHUNK + 5, 999),
            ] {
                let mut part = vec![0.0; len];
                fill(isa, 42, first, &mut part);
                assert_eq!(bits(&part), bits(&want.data()[first..first + len]), "{isa}");
            }
        }
    }

    /// The number of walks of `(n, a, b, c, seed)` the first block decodes,
    /// and whether the last of them, which ends on the block's last draw,
    /// is accepted. `n` must be a power of two whose log divides the block.
    fn first_block_walks(n: usize, (a, b, c): (f64, f64, f64), seed: u64) -> (usize, bool) {
        let scale = n.trailing_zeros() as usize;
        assert!(n.is_power_of_two() && RMAT_BLOCK.is_multiple_of(scale));
        let mut block = vec![0; RMAT_BLOCK];
        RmatChain::new(seed).fill(&mut block);
        let unit = (1u64 << 53) as f64;
        let accepted: Vec<bool> = block
            .chunks_exact(scale)
            .map(|walk| {
                let (x, y) = walk.iter().fold((0, 0), |(x, y), &m| {
                    let (xb, yb) = quadrant_reference(m as f64 / unit, a, b, c);
                    (x << 1 | xb, y << 1 | yb)
                });
                x != y
            })
            .collect();
        let count = accepted.iter().filter(|&&ok| ok).count();
        (count, accepted.last() == Some(&true))
    }

    #[test]
    fn pooled_walk_equals_the_serial_and_float_walks() {
        let pools = [1, 2, 4].map(ThreadPool::leaked);
        for (a, b, c) in QUADRANTS {
            // The first block's last draw ends an accepted walk: stop on it,
            // one edge before it, and one edge into the second block.
            let (accepted, last_ok) = first_block_walks(256, (a, b, c), 5);
            assert!(last_ok, "a={a} b={b} c={c}: pick another seed");
            let cases = [
                (256, accepted - 1, 5),
                (256, accepted, 5),
                (256, accepted + 1, 5),
                (2, 40, 1),
                (3, 40, 42),
                (1000, 300, 7),
                (1000, 30_000, 9),
                (64, 0, 3),
            ];
            for (n, e, seed) in cases {
                let want = rmat_reference(n, e, a, b, c, seed);
                assert_eq!(gt_graph::generators::rmat_with(n, e, a, b, c, seed), want);
                for pool in pools {
                    assert_eq!(
                        rmat_on(pool, n, e, a, b, c, seed),
                        want,
                        "n={n} e={e} a={a} b={b} c={c} at width {}",
                        pool.workers()
                    );
                }
            }
        }
    }

    #[test]
    fn synthetic_shapes_agree() {
        let d = GraphData::synthetic(50, 200, 8, 4, 1);
        assert_eq!(d.num_vertices(), 50);
        assert_eq!(d.feature_dim(), 8);
        assert_eq!(d.batch_labels(&[0, 1, 4]), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_rejected() {
        let d = GraphData::synthetic(10, 20, 4, 2, 1);
        GraphData::new(d.graph, d.features, vec![0; 5], 2);
    }
}
