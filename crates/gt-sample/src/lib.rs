//! GNN preprocessing substrate (§II-B): neighbor sampling, the sampled-VID
//! hash table, graph reindexing, embedding lookup, and minibatching.
//!
//! Preprocessing dominates end-to-end GNN latency (84.2% on average, §I), so
//! the paper splits it into per-layer, per-datatype subtasks — **S**ampling,
//! **R**eindexing, loo**K**up, **T**ransfer — that its service-wide tensor
//! scheduler overlaps. This crate implements the real work of S, R, and K
//! (T is a transfer priced by `gt_sim`), each reporting the work counts the
//! scheduler's cost model converts into virtual durations.
//!
//! S and K execute on the deterministic `gt_par` thread pool — S split
//! into its algorithm and hash-update phases (A + H, Fig 14c) so the
//! parallel part never touches the hash table. The hash table therefore
//! has one user, H, which probes it once per sampled endpoint and hands the
//! new ids to R, so R builds its structures without reading it: Fig 14c
//! serializes H, and the contention of Fig 14a is modeled in
//! `gt-core::scheduler` rather than reproduced with locks here. Each stage
//! has one entry point on an explicit pool (`*_with_pool`, fallible for S
//! and R); S and R add a panicking convenience on the process-wide pool.
//! Output is bit-identical at any `GT_THREADS`; see docs/parallelism.md.

pub mod batch;
pub mod error;
pub mod hashtable;
pub mod idhash;
pub mod lookup;
#[cfg(test)]
mod oracle;
pub mod reindex;
pub mod sampler;

pub use batch::BatchIter;
pub use error::SampleError;
pub use hashtable::VidMap;
pub use idhash::{BuildIdHasher, IdHashMap};
pub use lookup::lookup_all_with_pool;
pub use reindex::{reindex_layer, try_reindex_layer_with_pool, LayerGraph};
pub use sampler::{
    sample_batch, try_sample_batch_with_pool, validate_batch, Priority, SampleOutput, SamplerConfig,
};
