//! Runs the real preprocessing work (S and R) for one batch and measures it,
//! K's included.
//!
//! The measured work counts feed the service-wide tensor scheduler's cost
//! model, which prices the same work under different schedules (serialized
//! baselines vs GraphTensor's pipelined subtasks) on the modeled 12-core
//! host (DESIGN.md §2). The work itself executes on the `gt_par` thread
//! pool: S samples each hop in one round whose A phase maps frontier chunks
//! on every worker while the calling worker folds H over them in chunk
//! order (the paper's contention relaxing, Fig 14c); R counting-sorts the
//! new-id columns H wrote into CSR and CSC, with no pool pass and no copy.
//! Each stage is wrapped in a telemetry span on the `prepro` track (and A
//! and H in `sample.A` / `sample.H` worker spans) so real overlap shows up
//! next to the DES-predicted schedule in a Perfetto trace.
//!
//! Every in-tree path runs only S and R ([`sample_and_reindex`]): the
//! GraphTensor trainer's and the baselines' kernels read the sampled rows
//! of the embedding table in place, so K's gathered copy is never built.
//! K is still priced — [`PreproWork`] counts its bytes (docs/MODEL.md).
//! [`run_prepro`] still gathers K, for the wall-clock benchmark alone.

use crate::data::GraphData;
use gt_graph::VId;
pub use gt_par::ThreadPool;
use gt_sample::{
    lookup_all_with_pool, try_reindex_layer_with_pool, try_sample_batch_with_pool, LayerGraph,
    SamplerConfig,
};
use gt_tensor::dense::Matrix;
use std::sync::Arc;

/// Measured work of one hop's preprocessing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopWork {
    /// Sampling algorithm operations (adjacency scans + random draws).
    pub sample_alg_ops: u64,
    /// Sampling hash-table operations (inserts + hits).
    pub sample_hash_ops: u64,
    /// Reindexing operations (2 hash lookups + CSR/CSC build per edge, as
    /// the paper's R does them; the host's H already did the lookups).
    pub reindex_ops: u64,
    /// Unique nodes this hop added to the batch.
    pub nodes_added: u64,
    /// Edges sampled in this hop.
    pub edges: u64,
    /// Bytes of the hop's CSR+CSC structures (what T(R) moves).
    pub structure_bytes: u64,
    /// Bytes of the embeddings this hop's new nodes need (what T(K) moves).
    pub feature_bytes: u64,
}

/// Measured preprocessing work for one batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreproWork {
    /// Per-hop measurements, hop 1 first.
    pub hops: Vec<HopWork>,
    /// Batch (seed) node count — their embeddings are known immediately.
    pub batch_nodes: u64,
    /// Bytes of the seed nodes' embeddings.
    pub batch_feature_bytes: u64,
    /// Total unique sampled nodes.
    pub total_nodes: u64,
    /// Total feature bytes gathered by K (= transferred by T(K)).
    pub total_feature_bytes: u64,
}

impl PreproWork {
    /// Total structure bytes across hops.
    pub fn total_structure_bytes(&self) -> u64 {
        self.hops.iter().map(|h| h.structure_bytes).sum()
    }
}

/// S and R of one batch: the subgraphs, the id tables and the measured work.
#[derive(Debug, PartialEq)]
pub struct Sampled {
    /// Per-GNN-layer subgraphs in execution order: `layers[0]` is the
    /// outermost hop (consumed by GNN layer 1).
    pub layers: Vec<Arc<LayerGraph>>,
    /// Dense new → original id table: row `new` of the batch's input is
    /// embedding-table row `new_to_orig[new]`.
    pub new_to_orig: Vec<VId>,
    /// Id-space boundaries per hop (`boundaries[0]` = batch size).
    pub boundaries: Vec<usize>,
    /// Measured work for the scheduler, K's included.
    pub work: PreproWork,
}

/// Everything the GPU stage needs, plus the work measurements. The
/// wall-clock benchmark (`benchmark/`) is its last caller; ROADMAP item
/// 1(d) deletes it.
#[derive(Debug)]
pub struct PreproResult {
    /// Per-GNN-layer subgraphs in execution order: `layers[0]` is the
    /// outermost hop (consumed by GNN layer 1).
    pub layers: Vec<Arc<LayerGraph>>,
    /// Gathered input features (row = new VID), ready for transfer.
    pub features: Matrix,
    /// Dense new → original id table.
    pub new_to_orig: Vec<VId>,
    /// Id-space boundaries per hop (`boundaries[0]` = batch size).
    pub boundaries: Vec<usize>,
    /// Measured work for the scheduler.
    pub work: PreproWork,
}

/// Run S, R, and K for one batch on the process-wide pool (`GT_THREADS`).
/// The wall-clock benchmark (`benchmark/`) is its last caller; ROADMAP
/// item 1(d) deletes it.
pub fn run_prepro(data: &GraphData, batch: &[VId], cfg: &SamplerConfig) -> PreproResult {
    let pool = ThreadPool::global();
    let s = sample_and_reindex(data, batch, cfg, pool);
    let gathered = {
        let _s = gt_telemetry::global().span("prepro", "K (lookup)");
        lookup_all_with_pool(&data.features, &s.new_to_orig, pool)
    };
    PreproResult {
        layers: s.layers,
        features: Matrix::from_vec(gathered.rows(), gathered.dim(), gathered.into_vec()),
        new_to_orig: s.new_to_orig,
        boundaries: s.boundaries,
        work: s.work,
    }
}

/// S and R for one batch on `pool`, without K.
pub fn sample_and_reindex(
    data: &GraphData,
    batch: &[VId],
    cfg: &SamplerConfig,
    pool: &ThreadPool,
) -> Sampled {
    let telemetry = gt_telemetry::global();
    let sample = {
        let _s = telemetry.span("prepro", "S (sample)");
        try_sample_batch_with_pool(&data.graph, batch, cfg, pool).unwrap_or_else(|e| panic!("{e}"))
    };
    let nhops = sample.hops.len();
    let feat_row_bytes = (data.feature_dim() * 4) as u64;

    // Attribute sampling work to hops proportionally to their edge counts
    // (the sampler's counters are batch-global).
    let total_edges: u64 = sample.hops.iter().map(|h| h.len() as u64).sum();
    let vstats = sample.vidmap.stats();

    let mut hops = Vec::with_capacity(nhops);
    let mut layers_rev = Vec::with_capacity(nhops);
    for (k, hop) in sample.hops.iter().enumerate() {
        let edges = hop.len() as u64;
        let share = if total_edges == 0 {
            0.0
        } else {
            edges as f64 / total_edges as f64
        };
        let lg = {
            let _s = telemetry.span("prepro", "R (reindex)");
            try_reindex_layer_with_pool(
                hop,
                &sample.vidmap,
                sample.boundaries[k],
                sample.boundaries[k + 1],
                pool,
            )
            .unwrap_or_else(|e| panic!("{e}"))
        };
        let nodes_added = (sample.boundaries[k + 1] - sample.boundaries[k]) as u64;
        hops.push(HopWork {
            sample_alg_ops: ((sample.stats.edges_visited + sample.stats.draws) as f64 * share)
                as u64,
            sample_hash_ops: (((vstats.inserts + vstats.hits) as f64) * share) as u64,
            // 2 hash lookups per edge (src + dst) plus CSR and CSC builds:
            // what Fig 14 prices, though the host folds the lookups into H.
            reindex_ops: 4 * edges,
            nodes_added,
            edges,
            structure_bytes: lg.structure_bytes(),
            feature_bytes: nodes_added * feat_row_bytes,
        });
        layers_rev.push(Arc::new(lg));
    }
    // Execution order: GNN layer l consumes hops[nhops - 1 - l].
    let layers: Vec<Arc<LayerGraph>> = layers_rev.into_iter().rev().collect();

    // S is done with the map: keep only its id log, without copying it.
    let total_nodes = sample.num_nodes() as u64;
    let new_to_orig = sample.vidmap.into_new_to_orig();

    let work = PreproWork {
        hops,
        batch_nodes: batch.len() as u64,
        batch_feature_bytes: batch.len() as u64 * feat_row_bytes,
        total_nodes,
        total_feature_bytes: total_nodes * feat_row_bytes,
    };

    Sampled {
        layers,
        new_to_orig,
        boundaries: sample.boundaries,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> GraphData {
        GraphData::synthetic(200, 2000, 6, 3, 7)
    }

    fn cfg() -> SamplerConfig {
        SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn layer_order_is_outermost_first() {
        let d = data();
        let r = run_prepro(&d, &[0, 1, 2, 3], &cfg());
        assert_eq!(r.layers.len(), 2);
        // Layer 0 (outermost hop) has the largest src space.
        assert_eq!(r.layers[0].num_src, *r.boundaries.last().unwrap());
        // Last layer's dst space is the batch.
        assert_eq!(r.layers[1].num_dst, 4);
        // Chain: layer 0's dst space equals layer 1's src space.
        assert_eq!(r.layers[0].num_dst, r.layers[1].num_src);
    }

    #[test]
    fn features_match_gather_semantics() {
        let d = data();
        let r = run_prepro(&d, &[5, 6], &cfg());
        assert_eq!(r.features.rows(), r.new_to_orig.len());
        assert_eq!(r.features.cols(), d.feature_dim());
        for (new, &orig) in r.new_to_orig.iter().enumerate() {
            assert_eq!(r.features.row(new), d.features.row(orig));
        }
    }

    #[test]
    fn work_counters_are_consistent() {
        let d = data();
        let r = run_prepro(&d, &[0, 1, 2], &cfg());
        let w = &r.work;
        assert_eq!(w.batch_nodes, 3);
        assert_eq!(
            w.total_nodes,
            w.batch_nodes + w.hops.iter().map(|h| h.nodes_added).sum::<u64>()
        );
        assert_eq!(
            w.total_feature_bytes,
            w.total_nodes * (d.feature_dim() * 4) as u64
        );
        for h in &w.hops {
            assert!(h.structure_bytes > 0);
            assert_eq!(h.reindex_ops, 4 * h.edges);
        }
    }

    #[test]
    fn deterministic() {
        let d = data();
        let a = run_prepro(&d, &[0, 1], &cfg());
        let b = run_prepro(&d, &[0, 1], &cfg());
        assert_eq!(a.new_to_orig, b.new_to_orig);
        assert_eq!(a.features, b.features);
    }
}
