//! Profiler invariants over randomized DES task DAGs.
//!
//! The load-bearing claims:
//! - `makespan ≤ sum of stage times` — the list scheduler can at worst
//!   serialize every task;
//! - the stage breakdown partitions total event busy time;
//! - per resource unit, `busy + idle = makespan`.

use gt_profile::{BubbleReport, Stage, StageBreakdown};
use gt_sim::prop::{check, Gen, CASES};
use gt_sim::{Phase, Resource, Simulator, TaskSpec};

/// `(duration_us, deps, lock_group, resource, phase)`.
type Task = (f64, Vec<usize>, Option<u32>, Resource, Phase);

const RESOURCES: [Resource; 3] = [Resource::HostCore, Resource::Pcie, Resource::Gpu];

/// A random mixed-resource DAG: each task may depend on earlier tasks, may
/// join one of two lock groups, and lands on a random resource/phase.
fn dag(g: &mut Gen) -> Vec<Task> {
    let mut i = 0;
    g.vec(1..40, |g| {
        let mut deps = match i {
            0 => Vec::new(),
            _ => g.vec(0..3, |g| g.range(0..i)),
        };
        deps.sort_unstable();
        deps.dedup();
        i += 1;
        let lock = (g.below(2) == 0).then(|| g.below(2) as u32);
        let dur = g.f64_in(0.0..200.0);
        (dur, deps, lock, *g.pick(&RESOURCES), *g.pick(&Phase::ALL))
    })
}

fn build_sim(cores: usize, tasks: &[Task]) -> Simulator {
    let mut sim = Simulator::new(cores);
    let mut ids = Vec::new();
    for (i, (dur, deps, lock, resource, phase)) in tasks.iter().enumerate() {
        let dep_ids: Vec<usize> = deps.iter().map(|&d| ids[d]).collect();
        let mut spec = TaskSpec::new(format!("t{i}"), *resource, *dur, *phase).after(&dep_ids);
        if let Some(g) = lock {
            spec = spec.locked(*g);
        }
        ids.push(sim.add(spec));
    }
    sim
}

#[test]
fn makespan_le_sum_of_stage_times() {
    check("makespan_le_sum_of_stage_times", CASES, |g| {
        let sim = build_sim(g.range(1..5), &dag(g));
        let schedule = sim.run();
        let makespan = schedule.makespan_us;
        let busy = StageBreakdown::from_schedule(&schedule).total();

        assert!(makespan <= busy + 1e-6, "makespan {makespan} > busy {busy}");

        // Stage breakdown partitions total busy time.
        let events = schedule.events.iter();
        let event_sum: f64 = events.map(|e| e.end_us - e.start_us).sum();
        assert!((busy - event_sum).abs() < 1e-6);

        // Bubble accounting: busy + idle = makespan, per unit.
        for u in &BubbleReport::from_schedule(&schedule, sim.host_cores()).units {
            let (busy, idle) = (u.busy_us, u.idle_us);
            assert!(
                (busy + idle - makespan).abs() < 1e-6,
                "{:?} {}: busy {busy} + idle {idle} != makespan {makespan}",
                u.resource,
                u.unit
            );
        }
    });
}

#[test]
fn sampling_split_attributes_to_both_halves() {
    let mut sim = Simulator::new(2);
    let a = sim.add(TaskSpec::new(
        "S1A c0",
        Resource::HostCore,
        30.0,
        Phase::Sampling,
    ));
    sim.add(
        TaskSpec::new("S1H c0", Resource::HostCore, 10.0, Phase::Sampling)
            .after(&[a])
            .locked(1),
    );
    let breakdown = StageBreakdown::from_schedule(&sim.run());
    assert!(breakdown.get(Stage::SampleAlg) > 0.0);
    assert!(breakdown.get(Stage::SampleHash) > 0.0);
    assert_eq!(breakdown.get(Stage::Sample), 0.0);
}
