//! DES schedule → Chrome trace export.
//!
//! Renders a virtual-time [`Schedule`] as one Chrome-trace process with a
//! track per resource unit (`host core N`, `PCIe`, `GPU`), so Fig 13's
//! subtask overlap is literally visible in Perfetto: each scheduled task
//! becomes a slice on its unit's row, carrying its phase, item count, and
//! lock-wait time in the args pane.

use gt_telemetry::{Json, Trace};

use crate::des::{Resource, Schedule, ScheduledEvent};

/// Track name for a resource unit, matching the simulator's pools.
pub fn resource_track(resource: Resource, unit: usize) -> String {
    match resource {
        Resource::HostCore => format!("host core {unit}"),
        Resource::Pcie => "PCIe".to_string(),
        Resource::Gpu => "GPU".to_string(),
    }
}

/// Convert a schedule into one Chrome-trace process row named `process`.
/// Every scheduled task appears exactly once, on the track of the unit it
/// ran on, spanning its virtual `[start_us, end_us)`. Tasks failed by
/// injected faults are flagged `failed: true` in their args.
pub fn schedule_to_trace(schedule: &Schedule, process: &str) -> Trace {
    let mut trace = Trace::new(process);
    // Stable track order: host cores ascending, then PCIe, then GPU; slices
    // within a track ordered by start time.
    let mut ordered: Vec<&ScheduledEvent> = schedule.events.iter().collect();
    ordered.sort_by(|a, b| {
        rank(a)
            .cmp(&rank(b))
            .then(a.start_us.total_cmp(&b.start_us))
            .then(a.task.cmp(&b.task))
    });
    for e in ordered {
        let mut args: Vec<(String, Json)> = vec![
            ("task".to_string(), Json::from(e.task)),
            ("phase".to_string(), Json::from(e.phase.label())),
            ("items".to_string(), Json::from(e.items)),
            ("lock_wait_us".to_string(), Json::from(e.lock_wait_us)),
        ];
        if schedule.failed.contains(&e.task) {
            args.push(("failed".to_string(), Json::from(true)));
        }
        trace.duration(
            resource_track(e.resource, e.unit),
            e.label.clone(),
            "des",
            e.start_us,
            e.end_us - e.start_us,
            args,
        );
    }
    trace
}

fn rank(e: &ScheduledEvent) -> (u8, usize) {
    match e.resource {
        Resource::HostCore => (0, e.unit),
        Resource::Pcie => (1, e.unit),
        Resource::Gpu => (2, e.unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Phase;
    use crate::des::{Simulator, TaskSpec};
    use crate::fault::{ActiveFaults, FaultKind};
    use gt_telemetry::{from_chrome_json, write_chrome_json};

    fn mixed_schedule() -> Schedule {
        let mut sim = Simulator::new(2);
        let s = sim.add(TaskSpec::new("S1", Resource::HostCore, 40.0, Phase::Sampling).items(64));
        let r = sim.add(TaskSpec::new("R1", Resource::HostCore, 30.0, Phase::Reindex).after(&[s]));
        let k = sim.add(
            TaskSpec::new("K1", Resource::HostCore, 25.0, Phase::Lookup)
                .after(&[r])
                .locked(1),
        );
        let t = sim.add(TaskSpec::new("T(K1)", Resource::Pcie, 50.0, Phase::Transfer).after(&[k]));
        sim.add(TaskSpec::new("A1", Resource::Gpu, 20.0, Phase::Aggregation).after(&[t]));
        sim.run_with_faults(&ActiveFaults {
            faults: vec![FaultKind::TransferFailure],
        })
    }

    #[test]
    fn every_task_appears_once_with_matching_times_and_track() {
        let schedule = mixed_schedule();
        let trace = schedule_to_trace(&schedule, "virtual time");
        assert_eq!(trace.events.len(), schedule.events.len());

        // Export to Chrome JSON and parse it back: the acceptance round-trip.
        let text = write_chrome_json(&[&trace]);
        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].process, "virtual time");

        for e in &schedule.events {
            let matches: Vec<_> = back[0]
                .events
                .iter()
                .filter(|t| {
                    t.args
                        .iter()
                        .any(|(k, v)| k == "task" && v.as_f64() == Some(e.task as f64))
                })
                .collect();
            assert_eq!(matches.len(), 1, "task {} must appear exactly once", e.task);
            let t = matches[0];
            assert_eq!(t.name, e.label);
            assert_eq!(t.track, resource_track(e.resource, e.unit));
            assert_eq!(t.ts_us.to_bits(), e.start_us.to_bits());
            let dur = t.dur_us.unwrap();
            assert_eq!((t.ts_us + dur).to_bits(), e.end_us.to_bits());
        }
    }

    #[test]
    fn failed_tasks_are_flagged() {
        let schedule = mixed_schedule();
        assert!(schedule.has_failures());
        let trace = schedule_to_trace(&schedule, "virtual time");
        let flagged: Vec<_> = trace
            .events
            .iter()
            .filter(|e| {
                e.args
                    .iter()
                    .any(|(k, v)| k == "failed" && *v == Json::Bool(true))
            })
            .collect();
        assert_eq!(flagged.len(), schedule.failed.len());
        assert!(flagged.iter().all(|e| e.track == "PCIe"));
    }

    #[test]
    fn tracks_cover_all_resource_units() {
        let schedule = mixed_schedule();
        let trace = schedule_to_trace(&schedule, "virtual time");
        let tracks = trace.tracks();
        assert!(tracks.contains(&"host core 0"));
        assert!(tracks.contains(&"PCIe"));
        assert!(tracks.contains(&"GPU"));
    }
}
