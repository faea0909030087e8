//! Per-resource idle ("bubble") accounting — Fig 13's whitespace, measured.

use gt_sim::{Resource, Schedule};

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
    use crate::breakdown::StageBreakdown;
    use gt_sim::{Phase, Simulator, TaskSpec};

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
