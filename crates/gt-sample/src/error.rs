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
    /// A hop handed to reindexing has columns of different lengths.
    RaggedHop {
        /// Length of `src_orig` (the hop's edge count).
        src_orig: usize,
        /// Length of `dst_orig`.
        dst_orig: usize,
        /// Length of `src_new`.
        src_new: usize,
        /// Length of `dst_new`.
        dst_new: usize,
    },
    /// A hop's source new id lies outside the layer's source space.
    SrcOutOfRange {
        /// The offending new id.
        v: VId,
        /// The source space size.
        num_src: usize,
    },
    /// A hop's destination new id lies outside the layer's destination space.
    DstOutOfRange {
        /// The offending new id.
        v: VId,
        /// The destination space size.
        num_dst: usize,
    },
    /// The destination space is larger than the source space; destinations
    /// are a prefix of sources.
    DstSpaceExceedsSrc {
        /// The destination space size.
        num_dst: usize,
        /// The source space size.
        num_src: usize,
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
            SampleError::RaggedHop {
                src_orig,
                dst_orig,
                src_new,
                dst_new,
            } => write!(
                f,
                "hop columns differ in length (src_orig {src_orig}, dst_orig {dst_orig}, \
                 src_new {src_new}, dst_new {dst_new})"
            ),
            SampleError::SrcOutOfRange { v, num_src } => {
                write!(f, "source id {v} outside the {num_src}-id source space")
            }
            SampleError::DstOutOfRange { v, num_dst } => {
                write!(
                    f,
                    "destination id {v} outside the {num_dst}-id destination space"
                )
            }
            SampleError::DstSpaceExceedsSrc { num_dst, num_src } => write!(
                f,
                "destination space {num_dst} exceeds source space {num_src}"
            ),
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
        assert!(SampleError::SrcOutOfRange { v: 7, num_src: 5 }
            .to_string()
            .contains("source id 7"));
        assert!(SampleError::DstSpaceExceedsSrc {
            num_dst: 6,
            num_src: 5
        }
        .to_string()
        .contains("exceeds"));
    }
}
