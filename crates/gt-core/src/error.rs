//! The unified error type for the serving pipeline.
//!
//! Each substrate crate reports its own failures ([`GraphError`],
//! [`SampleError`], [`TensorError`], [`OutOfMemory`]); the serving
//! supervisor needs one type that also covers the failures only visible at
//! the pipeline level — a journal that fails validation, a replay that
//! diverges, an injected crash. `GtError` is that union, with `From` impls
//! so `?` composes across crates.

use gt_graph::GraphError;
use gt_sample::SampleError;
use gt_sim::{CrashSite, OutOfMemory};
use gt_tensor::TensorError;

/// Any failure the serving pipeline can observe, as a value.
#[derive(Debug, Clone, PartialEq)]
pub enum GtError {
    /// Graph structural-invariant violation.
    Graph(GraphError),
    /// Preprocessing-stage failure (bad batch, missing mapping).
    Sample(SampleError),
    /// Tensor-substrate failure (wiring bug, singular fit).
    Tensor(TensorError),
    /// Device memory exhausted.
    Oom(OutOfMemory),
    /// An underlying I/O operation failed (journal append, checkpoint
    /// write). Message kept as a string so the error stays `Clone + Eq`.
    Io {
        /// The I/O error's message.
        detail: String,
    },
    /// The outcome journal failed validation mid-file: a record whose CRC
    /// does not match its payload but that is *not* the torn tail of an
    /// interrupted append (torn tails are recoverable and silently dropped;
    /// mid-file corruption means bit rot or tampering and is surfaced).
    CorruptJournal {
        /// Byte offset of the offending record.
        offset: u64,
        /// What failed to validate.
        detail: String,
    },
    /// Deterministic replay of the journal produced a different outcome
    /// than the one recorded — the journal and the code disagree, so the
    /// recovered state cannot be trusted.
    ReplayDiverged {
        /// Serving index of the diverging batch.
        batch_index: usize,
        /// What diverged (recorded vs replayed).
        detail: String,
    },
    /// A [`gt_sim::FaultKind::Crash`] fired: the simulated process died at
    /// `site`. The supervisor must be rebuilt and recovered from its
    /// journal, exactly as a real process would be after `kill -9`.
    InjectedCrash {
        /// Where in the durability protocol the process died.
        site: CrashSite,
    },
}

impl std::fmt::Display for GtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtError::Graph(e) => write!(f, "graph error: {e}"),
            GtError::Sample(e) => write!(f, "preprocessing error: {e}"),
            GtError::Tensor(e) => write!(f, "tensor error: {e}"),
            GtError::Oom(e) => write!(f, "device OOM: {e}"),
            GtError::Io { detail } => write!(f, "i/o error: {detail}"),
            GtError::CorruptJournal { offset, detail } => {
                write!(f, "corrupt journal at byte {offset}: {detail}")
            }
            GtError::ReplayDiverged {
                batch_index,
                detail,
            } => write!(f, "replay diverged at batch {batch_index}: {detail}"),
            GtError::InjectedCrash { site } => {
                write!(f, "injected crash ({})", site.label())
            }
        }
    }
}

impl std::error::Error for GtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GtError::Graph(e) => Some(e),
            GtError::Sample(e) => Some(e),
            GtError::Tensor(e) => Some(e),
            GtError::Oom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for GtError {
    fn from(e: GraphError) -> Self {
        GtError::Graph(e)
    }
}

impl From<SampleError> for GtError {
    fn from(e: SampleError) -> Self {
        GtError::Sample(e)
    }
}

impl From<TensorError> for GtError {
    /// A tensor-layer I/O failure (a checkpoint write) is the same error
    /// as any other I/O failure: a retryable `Io`.
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::Io { detail } => GtError::Io { detail },
            e => GtError::Tensor(e),
        }
    }
}

impl From<OutOfMemory> for GtError {
    fn from(e: OutOfMemory) -> Self {
        GtError::Oom(e)
    }
}

impl From<std::io::Error> for GtError {
    fn from(e: std::io::Error) -> Self {
        GtError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_compose_with_question_mark() {
        fn inner() -> Result<(), SampleError> {
            Err(SampleError::EmptyBatch)
        }
        fn outer() -> Result<(), GtError> {
            inner()?;
            Ok(())
        }
        assert_eq!(outer(), Err(GtError::Sample(SampleError::EmptyBatch)));
    }

    #[test]
    fn display_carries_inner_message() {
        let e = GtError::Sample(SampleError::EmptyBatch);
        assert!(e.to_string().contains("empty batch"));
        let e = GtError::ReplayDiverged {
            batch_index: 2,
            detail: "outcome".to_string(),
        };
        assert!(e.to_string().contains("batch 2: outcome"));
    }
}
