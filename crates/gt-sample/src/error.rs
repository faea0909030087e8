//! Typed errors for the preprocessing stages (S and R).
//!
//! The serving supervisor in `gt-core` needs to tell a *bad batch* (poison
//! input it should quarantine) from a *scheduler bug* (which should still
//! abort loudly). Every validation is a `Result` from the stage's
//! `try_*_with_pool` entry point; the panicking conveniences delegate to it
//! so the two paths can never disagree.

use gt_graph::VId;

/// A preprocessing-stage failure, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// The batch slice was empty — there is nothing to sample.
    EmptyBatch,
    /// `SamplerConfig::layers` was zero; a GNN needs at least one hop.
    ZeroLayers,
    /// A batch vertex id lies outside the graph's id space.
    VertexOutOfRange {
        /// The offending vertex id.
        v: VId,
        /// The graph's vertex count.
        n: usize,
    },
    /// Reindexing met an original id the hash table never saw (a
    /// scheduler-ordering bug: R ran before its S finished).
    MissingMapping {
        /// The unmapped original vertex id.
        v: VId,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::EmptyBatch => write!(f, "empty batch"),
            SampleError::ZeroLayers => write!(f, "need at least one GNN layer"),
            SampleError::VertexOutOfRange { v, n } => {
                write!(f, "batch vertex {v} out of range (graph has {n} vertices)")
            }
            SampleError::MissingMapping { v } => {
                write!(f, "vertex {v} missing from hash table")
            }
        }
    }
}

impl std::error::Error for SampleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(SampleError::EmptyBatch.to_string(), "empty batch");
        assert!(SampleError::VertexOutOfRange { v: 9, n: 4 }
            .to_string()
            .contains("9"));
        assert!(SampleError::MissingMapping { v: 3 }
            .to_string()
            .contains("hash table"));
    }
}
