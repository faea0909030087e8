//! Graph substrate for GraphTensor-RS.
//!
//! Implements the three storage formats of Fig 1 with the *paper's*
//! orientation conventions (§II-A):
//!
//! * [`Coo`] — edge-centric pairs of (src, dst) vertex ids;
//! * [`Csr`] — vertex-centric, **dst-indexed**: for each destination vertex,
//!   the contiguous list of its source neighbors (what forward aggregation
//!   traverses);
//! * [`Csc`] — vertex-centric, **src-indexed**: for each source vertex, the
//!   list of its destinations (what backward propagation traverses).
//!
//! Conversions between formats report their work as [`gt_sim::KernelStats`]
//! so the baselines can charge the GPU format-translation overhead that
//! dominates DGL's light-feature runs (§VI-A, Fig 16a).
//!
//! The crate also provides dense per-vertex [`EmbeddingTable`]s (Fig 1c),
//! degree statistics (Fig 8), and seeded synthetic generators standing in for
//! the paper's OGB/SNAP datasets (DESIGN.md §2).

pub mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod degree;
pub mod embedding;
pub mod error;
pub mod generators;

pub use convert::{coo_to_csc, coo_to_csr, csr_to_coo, csr_to_csc};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use degree::DegreeStats;
pub use embedding::{fill_random, EmbeddingTable};
pub use error::GraphError;

/// Vertex identifier. `u32` bounds graphs at ~4.3B vertices, matching the
/// paper's largest dataset (papers, 111M vertices) with headroom while
/// halving index memory versus `usize` (see the perf-book guidance on
/// smaller integers).
pub type VId = u32;

/// Edge identifier.
pub type EId = u32;
