//! Typed errors for graph-structure construction.
//!
//! The hot pipeline (sampling → reindex → CSR/CSC build) historically
//! asserted its structural invariants; the `try_*` constructors surface the
//! same invariants as values so a serving layer can quarantine a malformed
//! graph instead of crashing the process. The panicking constructors remain
//! (and delegate here) for internal call sites where a violation is a bug.

use crate::{EId, VId};
use std::fmt;

/// A structural-invariant violation in a graph representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An indptr array was empty (needs at least the terminating entry).
    EmptyIndptr,
    /// The first indptr entry was not zero.
    IndptrStart { first: EId },
    /// indptr decreased between positions `at` and `at + 1`.
    IndptrNotMonotone { at: usize },
    /// The final indptr entry disagrees with the edge-array length.
    IndptrEndMismatch { end: usize, edges: usize },
    /// Parallel src/dst arrays have different lengths.
    LengthMismatch { src: usize, dst: usize },
    /// A vertex id is outside the declared id space.
    VertexOutOfRange { v: VId, n: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyIndptr => write!(f, "indptr must have at least one entry"),
            GraphError::IndptrStart { first } => {
                write!(f, "indptr must start at 0, got {first}")
            }
            GraphError::IndptrNotMonotone { at } => {
                write!(f, "indptr must be non-decreasing, violated at index {at}")
            }
            GraphError::IndptrEndMismatch { end, edges } => {
                write!(f, "indptr ends at {end} but edge array has {edges} entries")
            }
            GraphError::LengthMismatch { src, dst } => {
                write!(f, "src/dst length mismatch: {src} vs {dst}")
            }
            GraphError::VertexOutOfRange { v, n } => {
                write!(f, "vertex id {v} out of range for {n} vertices")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Validate a CSR/CSC pointer array against its edge array.
pub(crate) fn validate_indptr(indptr: &[EId], edges: usize) -> Result<(), GraphError> {
    let first = *indptr.first().ok_or(GraphError::EmptyIndptr)?;
    if first != 0 {
        return Err(GraphError::IndptrStart { first });
    }
    if let Some(at) = indptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(GraphError::IndptrNotMonotone { at });
    }
    let end = *indptr.last().unwrap() as usize;
    if end != edges {
        return Err(GraphError::IndptrEndMismatch { end, edges });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msgs = [
            GraphError::EmptyIndptr.to_string(),
            GraphError::IndptrStart { first: 3 }.to_string(),
            GraphError::IndptrNotMonotone { at: 1 }.to_string(),
            GraphError::IndptrEndMismatch { end: 2, edges: 3 }.to_string(),
            GraphError::LengthMismatch { src: 2, dst: 1 }.to_string(),
            GraphError::VertexOutOfRange { v: 9, n: 4 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn validate_indptr_catches_each_violation() {
        assert_eq!(validate_indptr(&[], 0), Err(GraphError::EmptyIndptr));
        assert_eq!(
            validate_indptr(&[1, 2], 1),
            Err(GraphError::IndptrStart { first: 1 })
        );
        assert_eq!(
            validate_indptr(&[0, 3, 2], 2),
            Err(GraphError::IndptrNotMonotone { at: 1 })
        );
        assert_eq!(
            validate_indptr(&[0, 2], 3),
            Err(GraphError::IndptrEndMismatch { end: 2, edges: 3 })
        );
        assert_eq!(validate_indptr(&[0, 1, 3], 3), Ok(()));
    }
}
