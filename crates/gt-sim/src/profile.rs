//! Where the modeled time went — the machine-checkable form of the paper's
//! Fig 13/14/16 analysis.
//!
//! The paper's performance story is told in stages: the four host-side
//! preprocessing steps S/R/K/T (§V-B), with S split into its algorithm and
//! hash-table halves when the relaxed scheduler runs them separately
//! (Fig 14), and the three NAPA GPU kernels Pull / NeighborApply / MatMul
//! (§IV). Everything here is keyed by [`Stage`], so classification from
//! both data sources — DES task labels and kernel records — lives in
//! [`classify_task`] and nowhere else.
//!
//! - [`StageBreakdown`]: busy time per stage (Fig 13/16's bars), built
//!   from a DES [`Schedule`] or recorded kernels.
//! - [`BubbleReport`]: per-resource idle ("bubble") percentages (Fig 13's
//!   whitespace) — what the service-wide tensor scheduler exists to
//!   eliminate.
//!
//! See `docs/profiling.md`.

use crate::counters::{KernelRecord, Phase};
use crate::des::{Resource, Schedule};

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

/// Busy microseconds attributed to each [`Stage`], in display order.
///
/// A breakdown is a pure accumulator: it can be built from a DES
/// [`Schedule`] (virtual time) or from recorded kernels (modeled GPU
/// time), and breakdowns can be [`merge`](StageBreakdown::merge)d into
/// one report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    entries: Vec<(Stage, f64)>,
}

impl StageBreakdown {
    /// Empty breakdown.
    pub fn new() -> Self {
        StageBreakdown::default()
    }

    /// Attribute `us` microseconds to `stage`.
    pub fn add(&mut self, stage: Stage, us: f64) {
        match self.entries.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, acc)) => *acc += us,
            None => {
                self.entries.push((stage, us));
                self.entries
                    .sort_by_key(|(s, _)| Stage::ALL.iter().position(|a| a == s));
            }
        }
    }

    /// Busy time attributed to `stage` (0 if absent).
    pub fn get(&self, stage: Stage) -> f64 {
        self.entries
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |(_, us)| *us)
    }

    /// Total busy time across all stages.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, us)| us).sum()
    }

    /// `(stage, busy µs)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold another breakdown into this one.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (stage, us) in other.iter() {
            self.add(stage, us);
        }
    }

    /// Attribute every scheduled event's busy time by task label/phase.
    /// The total equals the schedule's summed busy time exactly.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let mut b = StageBreakdown::new();
        for e in &schedule.events {
            b.add(classify_task(e.phase, &e.label), e.end_us - e.start_us);
        }
        b
    }

    /// Attribute recorded kernel executions by phase (modeled µs).
    pub fn from_kernels(records: &[KernelRecord]) -> Self {
        let mut b = StageBreakdown::new();
        for r in records {
            b.add(classify_kernel(r), r.modeled_us);
        }
        b
    }
}

/// Utilization of one resource unit over the schedule's makespan.
#[derive(Debug, Clone)]
pub struct UnitUtilization {
    pub resource: Resource,
    pub unit: usize,
    /// Summed busy time of events on this unit, µs.
    pub busy_us: f64,
    /// `makespan - busy`, µs.
    pub idle_us: f64,
}

/// Bubble report over every resource unit a schedule could have used.
#[derive(Debug, Clone)]
pub struct BubbleReport {
    pub makespan_us: f64,
    /// Host cores first (all of them, including ones the schedule left
    /// fully idle — an idle core *is* a bubble), then PCIe, then GPU when
    /// the task set uses them.
    pub units: Vec<UnitUtilization>,
}

impl BubbleReport {
    /// Build from a schedule. `host_cores` is the simulator's pool size
    /// (`Simulator::host_cores()`); cores the schedule never touched count
    /// as fully idle. PCIe/GPU rows appear when any event ran there.
    pub fn from_schedule(schedule: &Schedule, host_cores: usize) -> Self {
        let makespan = schedule.makespan_us;
        let mut units: Vec<UnitUtilization> = Vec::new();
        for core in 0..host_cores {
            units.push(unit_utilization(
                schedule,
                Resource::HostCore,
                core,
                makespan,
            ));
        }
        for resource in [Resource::Pcie, Resource::Gpu] {
            if schedule.events.iter().any(|e| e.resource == resource) {
                units.push(unit_utilization(schedule, resource, 0, makespan));
            }
        }
        BubbleReport {
            makespan_us: makespan,
            units,
        }
    }

    /// Aggregate idle share across all units, in percent: total idle time
    /// over `units × makespan`. This is the number the paper's Fig 13
    /// argument is about — the pipelined schedule turns this whitespace
    /// into overlap.
    pub fn idle_pct(&self) -> f64 {
        let denom = self.units.len() as f64 * self.makespan_us;
        if denom <= 0.0 {
            return 0.0;
        }
        100.0 * self.units.iter().map(|u| u.idle_us).sum::<f64>() / denom
    }

    /// Summed busy time across all units.
    pub fn busy_us(&self) -> f64 {
        self.units.iter().map(|u| u.busy_us).sum()
    }
}

fn unit_utilization(
    schedule: &Schedule,
    resource: Resource,
    unit: usize,
    makespan_us: f64,
) -> UnitUtilization {
    let busy: f64 = schedule
        .events
        .iter()
        .filter(|e| e.resource == resource && e.unit == unit)
        .map(|e| e.end_us - e.start_us)
        .sum();
    UnitUtilization {
        resource,
        unit,
        busy_us: busy,
        idle_us: (makespan_us - busy).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Simulator, TaskSpec};

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
    fn schedule_breakdown_sums_to_busy_time() {
        let mut sim = Simulator::new(2);
        let s = sim.add(TaskSpec::new(
            "S1A c0",
            Resource::HostCore,
            40.0,
            Phase::Sampling,
        ));
        let h = sim.add(
            TaskSpec::new("S1H c0", Resource::HostCore, 10.0, Phase::Sampling)
                .after(&[s])
                .locked(1),
        );
        let r =
            sim.add(TaskSpec::new("R1 c0", Resource::HostCore, 30.0, Phase::Reindex).after(&[h]));
        sim.add(TaskSpec::new("T(R)", Resource::Pcie, 25.0, Phase::Transfer).after(&[r]));
        let schedule = sim.run();
        let b = StageBreakdown::from_schedule(&schedule);
        assert!((b.get(Stage::SampleAlg) - 40.0).abs() < 1e-9);
        assert!((b.get(Stage::SampleHash) - 10.0).abs() < 1e-9);
        assert!((b.get(Stage::Reindex) - 30.0).abs() < 1e-9);
        assert!((b.get(Stage::Transfer) - 25.0).abs() < 1e-9);
        let busy: f64 = schedule.events.iter().map(|e| e.end_us - e.start_us).sum();
        assert!((b.total() - busy).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_and_orders_by_display_order() {
        let mut a = StageBreakdown::new();
        a.add(Stage::Transfer, 5.0);
        let mut b = StageBreakdown::new();
        b.add(Stage::SampleAlg, 1.0);
        b.add(Stage::Transfer, 2.0);
        a.merge(&b);
        assert!((a.get(Stage::Transfer) - 7.0).abs() < 1e-12);
        let order: Vec<Stage> = a.iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![Stage::SampleAlg, Stage::Transfer]);
    }

    #[test]
    fn idle_cores_count_as_bubbles() {
        // 2 cores, all work on one of them: the second core is 100% bubble.
        let mut sim = Simulator::new(2);
        sim.add(TaskSpec::new(
            "a",
            Resource::HostCore,
            50.0,
            Phase::Sampling,
        ));
        let s = sim.run();
        let b = BubbleReport::from_schedule(&s, 2);
        assert_eq!(b.units.len(), 2); // no PCIe/GPU tasks
        let core0 = &b.units[0];
        let core1 = &b.units[1];
        assert!((core0.busy_us - 50.0).abs() < 1e-9);
        assert!((core1.busy_us - 0.0).abs() < 1e-9);
        assert!((core1.idle_us - s.makespan_us).abs() < 1e-9);
        assert!((b.idle_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_and_bubbles_agree_on_busy_time() {
        let mut sim = Simulator::new(2);
        let s = sim.add(TaskSpec::new(
            "S1A c0",
            Resource::HostCore,
            40.0,
            Phase::Sampling,
        ));
        let h = sim.add(
            TaskSpec::new("S1H c0", Resource::HostCore, 10.0, Phase::Sampling)
                .after(&[s])
                .locked(1),
        );
        let r =
            sim.add(TaskSpec::new("R1 c0", Resource::HostCore, 30.0, Phase::Reindex).after(&[h]));
        sim.add(TaskSpec::new("T(R)", Resource::Pcie, 20.0, Phase::Transfer).after(&[r]));
        let schedule = sim.run();
        let breakdown = StageBreakdown::from_schedule(&schedule);
        let bubbles = BubbleReport::from_schedule(&schedule, sim.host_cores());
        assert_eq!(
            bubbles.makespan_us.to_bits(),
            schedule.makespan_us.to_bits()
        );
        assert!((breakdown.total() - bubbles.busy_us()).abs() < 1e-9);
    }
}
