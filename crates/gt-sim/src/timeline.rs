//! Preprocessing timeline recording (Fig 20).
//!
//! Figure 20 plots, for each preprocessing stage, the fraction of sampled
//! nodes already processed against accumulated time. [`Timeline`] converts a
//! [`crate::Schedule`] into those normalized cumulative curves.

use crate::counters::Phase;
use crate::des::Schedule;

/// One point on a stage's progress curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Virtual time in microseconds.
    pub time_us: f64,
    /// Fraction of the stage's total items completed by `time_us` (0..=1).
    pub fraction: f64,
}

/// Normalized per-phase progress curves.
#[derive(Debug, Clone)]
pub struct Timeline {
    curves: Vec<(Phase, Vec<TimelineEvent>)>,
}

impl Timeline {
    /// Build normalized curves for `phases` out of a DES schedule.
    /// Phases with zero processed items are omitted.
    ///
    /// Fault-injected schedules can carry non-finite or non-monotonic event
    /// times (a stretched task finishing "before" an earlier one, or a
    /// failed transfer with garbage timing); those are tolerated here —
    /// non-finite samples are dropped and times/fractions are clamped to be
    /// non-decreasing with fraction never exceeding 1.0.
    pub fn from_schedule(schedule: &Schedule, phases: &[Phase]) -> Self {
        let mut curves = Vec::new();
        for &phase in phases {
            let raw: Vec<(f64, u64)> = schedule
                .progress_curve(phase)
                .into_iter()
                .filter(|(t, _)| t.is_finite())
                .collect();
            let total = raw.iter().map(|p| p.1).max().unwrap_or(0);
            if total == 0 {
                continue;
            }
            curves.push((phase, sanitized(raw, total)));
        }
        Timeline { curves }
    }

    /// Curves in insertion order.
    pub fn curves(&self) -> &[(Phase, Vec<TimelineEvent>)] {
        &self.curves
    }

    /// Completion time (µs) of a phase, if it appears in the timeline.
    pub fn finish_us(&self, phase: Phase) -> Option<f64> {
        self.curves
            .iter()
            .find(|(p, _)| *p == phase)
            .and_then(|(_, pts)| pts.last())
            .map(|e| e.time_us)
    }
}

/// Clamp `(time, cumulative items)` samples into a well-formed curve:
/// times non-decreasing (running max) and fractions non-decreasing, capped
/// at 1.0.
fn sanitized(points: impl IntoIterator<Item = (f64, u64)>, total: u64) -> Vec<TimelineEvent> {
    let mut out = Vec::new();
    let mut last_time = 0.0f64;
    let mut last_frac = 0.0f64;
    for (t, c) in points {
        let time_us = t.max(last_time);
        let fraction = (c as f64 / total as f64).clamp(last_frac, 1.0);
        out.push(TimelineEvent { time_us, fraction });
        last_time = time_us;
        last_frac = fraction;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Resource, ScheduledEvent, Simulator, TaskSpec};

    fn schedule() -> Schedule {
        let mut sim = Simulator::new(1);
        sim.add(TaskSpec::new("s1", Resource::HostCore, 10.0, Phase::Sampling).items(30));
        sim.add(TaskSpec::new("s2", Resource::HostCore, 10.0, Phase::Sampling).items(70));
        sim.add(TaskSpec::new("k", Resource::HostCore, 5.0, Phase::Lookup).items(100));
        sim.run()
    }

    #[test]
    fn curves_are_normalized() {
        let tl = Timeline::from_schedule(&schedule(), &[Phase::Sampling, Phase::Lookup]);
        assert_eq!(tl.curves().len(), 2);
        let (_, s) = &tl.curves()[0];
        assert!((s.last().unwrap().fraction - 1.0).abs() < 1e-12);
        assert!((s[0].fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_phases_omitted() {
        let tl = Timeline::from_schedule(&schedule(), &[Phase::Transfer]);
        assert!(tl.curves().is_empty());
        assert_eq!(tl.finish_us(Phase::Transfer), None);
    }

    fn event(end_us: f64, items: u64) -> ScheduledEvent {
        ScheduledEvent {
            task: 0,
            label: "s".to_string(),
            phase: Phase::Sampling,
            resource: Resource::HostCore,
            unit: 0,
            start_us: 0.0,
            end_us,
            lock_wait_us: 0.0,
            items,
        }
    }

    #[test]
    fn fault_injected_schedule_times_are_tolerated() {
        // Regression: a fault-stretched schedule can carry non-finite event
        // times. These must not poison the curve or push fractions past 1.
        let schedule = Schedule {
            events: vec![
                event(30.0, 50),
                event(f64::NAN, 10),
                event(f64::INFINITY, 5),
                event(20.0, 50),
            ],
            makespan_us: 30.0,
            failed: vec![],
        };
        let tl = Timeline::from_schedule(&schedule, &[Phase::Sampling]);
        let (_, pts) = &tl.curves()[0];
        // Only the two finite events survive; the curve still reaches 1.0.
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|e| e.time_us.is_finite()));
        assert!(pts.iter().all(|e| (0.0..=1.0).contains(&e.fraction)));
        assert!((pts.last().unwrap().fraction - 1.0).abs() < 1e-12);
        assert!(pts
            .windows(2)
            .all(|w| w[0].time_us <= w[1].time_us && w[0].fraction <= w[1].fraction));
    }

    #[test]
    fn sanitized_clamps_overshoot_and_disorder() {
        // Non-monotonic times and a count overshooting the declared total,
        // as a fault-injected run can record them.
        let pts = sanitized([(5.0, 40), (3.0, 60), (9.0, 120)], 100);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].time_us, 5.0);
        // 3.0 clamps up to the running max.
        assert_eq!(pts[1].time_us, 5.0);
        // 120/100 clamps to 1.0, never above.
        assert!((pts[2].fraction - 1.0).abs() < 1e-12);
        assert!(pts.iter().all(|e| e.fraction <= 1.0));
    }
}
