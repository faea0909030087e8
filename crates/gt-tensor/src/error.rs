//! Typed errors for the tensor substrate.
//!
//! Checkpoint loading and the least-squares fit report their failures as
//! values ([`TensorError::Corrupt`], [`TensorError::Io`],
//! [`TensorError::SingularSystem`]). The two model-wiring mistakes (an
//! unregistered parameter, a graph with no output) have `try_*` accessors
//! (`ParamStore::try_get`, `Dfg::try_output`), and the panicking accessors
//! delegate to them.

/// A tensor-substrate failure, as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A DFG op referenced a parameter name never registered in the store.
    MissingParam {
        /// The unregistered parameter name.
        name: String,
    },
    /// The DFG's output node was never set.
    OutputUnset,
    /// The least-squares normal matrix was singular (fewer independent
    /// samples than coefficients) — no unique solution exists.
    SingularSystem,
    /// A checkpoint file failed validation: wrong magic, CRC mismatch,
    /// truncation, or a header whose claimed sizes exceed the bytes
    /// actually present. Loading never allocates for a size the file
    /// cannot back, so a corrupt header cannot OOM the process.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// An underlying I/O operation failed (message of the `std::io::Error`;
    /// kept as a string so the error type stays `Clone + Eq`).
    Io {
        /// The I/O error's message.
        detail: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::MissingParam { name } => write!(f, "unknown parameter {name:?}"),
            TensorError::OutputUnset => write!(f, "output not set"),
            TensorError::SingularSystem => {
                write!(f, "singular least-squares system (rank-deficient samples)")
            }
            TensorError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            TensorError::Io { detail } => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TensorError::MissingParam {
            name: "w".to_string()
        }
        .to_string()
        .contains("\"w\""));
        assert_eq!(TensorError::OutputUnset.to_string(), "output not set");
    }
}
