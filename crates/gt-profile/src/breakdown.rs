//! Per-stage busy-time breakdown — the machine-checkable form of the
//! paper's Fig 13/16 bars.

use gt_sim::{KernelRecord, Schedule};

use crate::stage::{classify_kernel, classify_task, Stage};

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

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::{Phase, Resource, Simulator, TaskSpec};

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
}
