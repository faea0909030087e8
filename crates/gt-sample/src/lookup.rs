//! Embedding lookup (K) — §II-B, Fig 4b.
//!
//! Scans the global embedding table with the sampled nodes' original ids and
//! builds the compact per-batch table (row `new_vid` = global row
//! `new_to_orig[new_vid]`) in one chunk-parallel gather. The K→T chunk
//! pipelining of Fig 14b ("immediately transfers each sampled embedding
//! whenever it is ready on a buffer") is priced by `gt-core::scheduler`
//! from the gathered byte counts; the host does not stage chunks.
//!
//! The GraphTensor trainer does not run K: its kernels read the sampled rows
//! of the global table in place (`gt_tensor::dense::Rows`). The gathered
//! table is what the baselines train on, and what `gt_core`'s `run_prepro`
//! returns to every other caller.

use gt_graph::{EmbeddingTable, VId};
use gt_par::ThreadPool;

/// Rows per chunk for the parallel gather. Fixed so chunk geometry is
/// independent of the worker count.
const K_CHUNK_ROWS: usize = 512;

/// Gather all sampled rows on `pool`. Each worker gathers disjoint row
/// ranges straight into the output buffer; every output row has exactly one
/// writer, so the result is bitwise-identical at any worker count.
pub fn lookup_all_with_pool(
    global: &EmbeddingTable,
    new_to_orig: &[VId],
    pool: &ThreadPool,
) -> EmbeddingTable {
    let dim = global.dim();
    let rows = new_to_orig.len();
    let mut data = vec![0.0f32; rows * dim];
    if dim > 0 {
        pool.for_each_chunk_mut(
            "lookup.gather",
            &mut data,
            K_CHUNK_ROWS * dim,
            |i, chunk| {
                let row_lo = i * K_CHUNK_ROWS;
                let ids = &new_to_orig[row_lo..row_lo + chunk.len() / dim];
                global.gather_into(ids, chunk);
            },
        );
    }
    EmbeddingTable::from_vec(rows, dim, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmbeddingTable {
        EmbeddingTable::from_vec(4, 2, vec![0., 0., 1., 1., 2., 2., 3., 3.])
    }

    #[test]
    fn lookup_all_reorders() {
        let t = lookup_all_with_pool(&table(), &[3, 1, 0], ThreadPool::global());
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[3., 3.]);
        assert_eq!(t.row(1), &[1., 1.]);
    }

    #[test]
    fn pooled_lookup_matches_serial() {
        // Enough rows for several gather chunks.
        let rows = 2000;
        let global = EmbeddingTable::random(100, 8, 3);
        let ids: Vec<VId> = (0..rows as u64).map(|i| ((i * 37) % 100) as VId).collect();
        let serial = lookup_all_with_pool(&global, &ids, &ThreadPool::new(1));
        for workers in [2, 8] {
            let par = lookup_all_with_pool(&global, &ids, &ThreadPool::new(workers));
            assert_eq!(serial.data(), par.data());
        }
        assert_eq!(serial.data(), global.gather(&ids).data());
    }
}
