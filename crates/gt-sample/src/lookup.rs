//! Embedding lookup (K) — §II-B, Fig 4b.
//!
//! Scans the global embedding table with the sampled nodes' original ids and
//! builds the compact per-batch table (row `new_vid` = global row
//! `new_to_orig[new_vid]`) in one chunk-parallel gather. The K→T chunk
//! pipelining of Fig 14b ("immediately transfers each sampled embedding
//! whenever it is ready on a buffer") is priced by `gt-core::scheduler`
//! from the gathered byte counts; the host does not stage chunks.
//!
//! The gather writes into a buffer the caller hands in: the trainer passes
//! back the previous batch's feature matrix, so a steady-state batch
//! neither allocates nor zero-fills it; stateless callers pass `Vec::new()`.

use gt_graph::{EmbeddingTable, VId};
use gt_par::ThreadPool;

/// Rows per chunk for the parallel gather. Fixed so chunk geometry is
/// independent of the worker count.
const K_CHUNK_ROWS: usize = 512;

/// Gather all sampled rows on `pool` into a fresh buffer:
/// [`lookup_all_into`] with nothing to reuse.
pub fn lookup_all_with_pool(
    global: &EmbeddingTable,
    new_to_orig: &[VId],
    pool: &ThreadPool,
) -> EmbeddingTable {
    lookup_all_into(global, new_to_orig, pool, Vec::new())
}

/// Gather all sampled rows on `pool` into `buf`'s allocation, whatever its
/// contents. Each worker gathers disjoint row ranges straight into the
/// output buffer; every output row has exactly one writer and every element
/// is overwritten, so the result is bitwise-identical at any worker count
/// and for any `buf`.
///
/// A long enough `buf` is truncated. One that must grow is dropped before
/// its replacement (with 1/8 headroom for the next batches) is allocated
/// zeroed, so its dead contents are never copied; only growth is
/// zero-filled.
pub fn lookup_all_into(
    global: &EmbeddingTable,
    new_to_orig: &[VId],
    pool: &ThreadPool,
    mut buf: Vec<f32>,
) -> EmbeddingTable {
    let dim = global.dim();
    let rows = new_to_orig.len();
    let need = rows * dim;
    if buf.capacity() < need {
        drop(buf);
        buf = vec![0.0; need + need / 8];
    }
    buf.resize(need, 0.0);
    if dim > 0 {
        pool.for_each_chunk_mut("lookup.gather", &mut buf, K_CHUNK_ROWS * dim, |i, chunk| {
            let row_lo = i * K_CHUNK_ROWS;
            let ids = &new_to_orig[row_lo..row_lo + chunk.len() / dim];
            global.gather_into(ids, chunk);
        });
    }
    EmbeddingTable::from_vec(rows, dim, buf)
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

    #[test]
    fn recycled_lookup_matches_fresh() {
        let bits = |t: &EmbeddingTable| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = 1500;
        let ids: Vec<VId> = (0..rows as u64).map(|i| ((i * 37) % 100) as VId).collect();
        for dim in [0, 8] {
            let global = EmbeddingTable::random(100, dim, 3);
            let need = rows * dim;
            for workers in [1, 2, 4] {
                let pool = ThreadPool::new(workers);
                let fresh = lookup_all_with_pool(&global, &ids, &pool);
                // NaN-filled buffers shorter than, equal to and longer than
                // the gathered matrix, and a short one with spare capacity.
                let shapes = [
                    (0, 0),
                    (need / 2, need / 2),
                    (need / 2, need),
                    (need, need),
                    (need + 100, need + 100),
                ];
                for (len, cap) in shapes {
                    let mut buf = Vec::with_capacity(cap);
                    buf.resize(len, f32::NAN);
                    let got = lookup_all_into(&global, &ids, &pool, buf);
                    assert_eq!((got.rows(), got.dim()), (rows, dim));
                    assert_eq!(
                        bits(&got),
                        bits(&fresh),
                        "len {len}, cap {cap}, {workers} workers"
                    );
                }
            }
        }
    }
}
