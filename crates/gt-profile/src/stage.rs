//! Pipeline stage taxonomy and classification.
//!
//! The paper's performance story is told in stages: the four host-side
//! preprocessing steps S/R/K/T (§V-B), with S split into its algorithm and
//! hash-table halves when the relaxed scheduler runs them separately
//! (Fig 14), and the three NAPA GPU kernels Pull / NeighborApply / MatMul
//! (§IV). Everything the profiler reports is keyed by this enum, so
//! classification from both data sources — DES task labels and kernel
//! records — lives here and nowhere else.

use gt_sim::{KernelRecord, Phase};

/// A pipeline stage the profiler attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Sampling, algorithm half (`S{k}A` chunks under the relaxed scheduler).
    SampleAlg,
    /// Sampling, hash-table half (`S{k}H` chunks: VID dedup inserts).
    SampleHash,
    /// Unsplit sampling tasks (serial / naive-pipelined schedules).
    Sample,
    /// Subgraph reindexing (R).
    Reindex,
    /// Embedding lookup (K).
    Lookup,
    /// Host→device transfer (T).
    Transfer,
    /// Pull kernel (neighbor aggregation).
    Pull,
    /// NeighborApply kernel (edge weighting).
    NeighborApply,
    /// MatMul kernel (combination).
    MatMul,
    /// Everything else (loss, optimizer, format translation, ...).
    Other,
}

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 10] = [
        Stage::SampleAlg,
        Stage::SampleHash,
        Stage::Sample,
        Stage::Reindex,
        Stage::Lookup,
        Stage::Transfer,
        Stage::Pull,
        Stage::NeighborApply,
        Stage::MatMul,
        Stage::Other,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::SampleAlg => "S-alg",
            Stage::SampleHash => "S-hash",
            Stage::Sample => "S",
            Stage::Reindex => "R",
            Stage::Lookup => "K",
            Stage::Transfer => "T",
            Stage::Pull => "Pull",
            Stage::NeighborApply => "NeighborApply",
            Stage::MatMul => "MatMul",
            Stage::Other => "other",
        }
    }

    /// Parse a display label back into a stage (inverse of [`label`](Self::label)).
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.label() == s)
    }

    /// True for host-side preprocessing stages (the S/R/K/T family).
    pub fn is_preprocessing(&self) -> bool {
        matches!(
            self,
            Stage::SampleAlg
                | Stage::SampleHash
                | Stage::Sample
                | Stage::Reindex
                | Stage::Lookup
                | Stage::Transfer
        )
    }
}

/// Classify a DES task by its phase and label.
///
/// Sampling tasks are split into their algorithm/hash halves when the
/// scheduler labeled them so (`"S2A c3"`, `"S2H c3"`); plain `"S2 c3"` /
/// `"S2"` tasks stay [`Stage::Sample`].
pub fn classify_task(phase: Phase, label: &str) -> Stage {
    match phase {
        Phase::Sampling => {
            let head = label.split_whitespace().next().unwrap_or("");
            if head.starts_with('S') && head.len() > 1 {
                match head.as_bytes()[head.len() - 1] {
                    b'A' => Stage::SampleAlg,
                    b'H' => Stage::SampleHash,
                    _ => Stage::Sample,
                }
            } else {
                Stage::Sample
            }
        }
        Phase::Reindex => Stage::Reindex,
        Phase::Lookup => Stage::Lookup,
        Phase::Transfer => Stage::Transfer,
        Phase::Aggregation => Stage::Pull,
        Phase::EdgeWeighting => Stage::NeighborApply,
        Phase::Combination => Stage::MatMul,
        _ => Stage::Other,
    }
}

/// Classify a recorded kernel execution by phase only (kernel records carry
/// no scheduler labels, so sampling never splits here).
pub fn classify_kernel(rec: &KernelRecord) -> Stage {
    classify_task(rec.phase, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_sampling_labels_split_into_halves() {
        assert_eq!(classify_task(Phase::Sampling, "S1A c0"), Stage::SampleAlg);
        assert_eq!(classify_task(Phase::Sampling, "S2H c11"), Stage::SampleHash);
        assert_eq!(classify_task(Phase::Sampling, "S1 c0"), Stage::Sample);
        assert_eq!(classify_task(Phase::Sampling, "S2"), Stage::Sample);
        assert_eq!(classify_task(Phase::Sampling, "S"), Stage::Sample);
    }

    #[test]
    fn host_and_gpu_phases_map_to_their_stages() {
        assert_eq!(classify_task(Phase::Reindex, "R1 c0"), Stage::Reindex);
        assert_eq!(classify_task(Phase::Lookup, "K c3"), Stage::Lookup);
        assert_eq!(classify_task(Phase::Transfer, "T(K2)"), Stage::Transfer);
        assert_eq!(classify_task(Phase::Aggregation, "pull"), Stage::Pull);
        assert_eq!(
            classify_task(Phase::EdgeWeighting, "na"),
            Stage::NeighborApply
        );
        assert_eq!(classify_task(Phase::Combination, "mm"), Stage::MatMul);
        assert_eq!(classify_task(Phase::Loss, "loss"), Stage::Other);
    }

    #[test]
    fn labels_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.label()), Some(s));
        }
    }
}
