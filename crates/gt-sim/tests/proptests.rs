//! Property-based tests on the discrete-event simulator's guarantees.

use gt_sim::prop::{check, Gen, CASES};
use gt_sim::{
    schedule_to_trace, ActiveFaults, FaultKind, FaultPlan, FaultRule, Phase, Resource, Simulator,
    TaskSpec,
};
use gt_telemetry::{from_chrome_json, write_chrome_json};

/// `(duration_us, deps, lock_group)`.
type Task = (f64, Vec<usize>, Option<u32>);

/// A random DAG of host tasks: each task may depend on earlier ones and may
/// join one of two lock groups.
fn dag(g: &mut Gen) -> Vec<Task> {
    let mut i = 0;
    g.vec(1..25, |g| {
        let mut deps = match i {
            0 => Vec::new(),
            _ => g.vec(0..3, |g| g.range(0..i)),
        };
        deps.sort();
        deps.dedup();
        i += 1;
        let lock = (g.below(2) == 0).then(|| g.below(2) as u32);
        (g.f64_in(1.0..50.0), deps, lock)
    })
}

/// [`dag`] without its lock groups.
fn lock_free_dag(g: &mut Gen) -> Vec<Task> {
    let tasks = dag(g).into_iter();
    tasks.map(|(dur, deps, _)| (dur, deps, None)).collect()
}

/// `tasks` placed on `resource(i)`, over `cores` host cores.
fn build(tasks: &[Task], cores: usize, resource: fn(usize) -> Resource) -> Simulator {
    let mut sim = Simulator::new(cores);
    let mut ids = Vec::new();
    for (i, (dur, deps, lock)) in tasks.iter().enumerate() {
        let dep_ids: Vec<usize> = deps.iter().map(|&d| ids[d]).collect();
        let mut spec = TaskSpec::new("t", resource(i), *dur, Phase::Other).after(&dep_ids);
        if let Some(g) = lock {
            spec = spec.locked(*g);
        }
        ids.push(sim.add(spec));
    }
    sim
}

fn on_host(tasks: &[Task], cores: usize) -> Simulator {
    build(tasks, cores, |_| Resource::HostCore)
}

/// Schedules are valid: dependencies precede dependents, units never
/// run two tasks at once, lock groups never overlap, and the makespan
/// is at least the critical-path length and at most the serial sum.
#[test]
fn schedule_validity() {
    let holds = |tasks: &[Task], cores: usize| {
        let schedule = on_host(tasks, cores).run();

        // Dependency order.
        let mut finish = vec![0.0; tasks.len()];
        for e in &schedule.events {
            finish[e.task] = e.end_us;
        }
        for (i, (_, deps, _)) in tasks.iter().enumerate() {
            let event = schedule.events.iter().find(|e| e.task == i).unwrap();
            for &d in deps {
                assert!(
                    event.start_us + 1e-9 >= finish[d],
                    "task {i} started before dep {d}"
                );
            }
        }

        // No overlap per (resource unit).
        let mut by_unit: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
        for e in &schedule.events {
            by_unit
                .entry(e.unit)
                .or_default()
                .push((e.start_us, e.end_us));
        }
        for (_, mut spans) in by_unit {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 + 1e-9 >= w[0].1, "unit overlap");
            }
        }

        // Lock groups never overlap.
        for g in 0..2u32 {
            let mut spans: Vec<(f64, f64)> = schedule
                .events
                .iter()
                .filter(|e| tasks[e.task].2 == Some(g))
                .map(|e| (e.start_us, e.end_us))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 + 1e-9 >= w[0].1, "lock group overlap");
            }
        }

        // Makespan bounds.
        let serial_sum: f64 = tasks.iter().map(|(d, _, _)| d).sum();
        assert!(schedule.makespan_us <= serial_sum + 1e-6);
        // Critical path lower bound.
        let mut cp = vec![0.0f64; tasks.len()];
        for (i, (dur, deps, _)) in tasks.iter().enumerate() {
            let base = deps.iter().map(|&d| cp[d]).fold(0.0f64, f64::max);
            cp[i] = base + dur;
        }
        let lower = cp.iter().copied().fold(0.0, f64::max);
        assert!(schedule.makespan_us + 1e-6 >= lower);
    };
    // A past failure: a long locked task ahead of a short one on two cores.
    let past = [
        (1.0, vec![], None),
        (41.955183776384864, vec![], Some(0)),
        (1.0, vec![], Some(0)),
        (1.0, vec![], None),
    ];
    holds(&past, 2);
    check("schedule_validity", CASES, |g| {
        holds(&dag(g), g.range(1..5))
    });
}

/// Fault-injected runs are deterministic: the same DAG and the same
/// resolved fault set produce bitwise-identical schedules.
#[test]
fn faulted_runs_are_deterministic() {
    check("faulted_runs_are_deterministic", CASES, |g| {
        let tasks = dag(g);
        let plan = FaultPlan::new(g.next_u64())
            .with_transfer_stall(3.0, 0.5)
            .with_straggler(0, 4.0)
            .with_rule(FaultRule::transient(
                FaultKind::HashContention { factor: 2.0 },
                0.5,
            ))
            .with_transfer_failure(0.3);
        let (batch, attempt) = (g.range(0..64), g.range(0..4));
        let faults = plan.active(batch, attempt);
        assert_eq!(&faults, &plan.active(batch, attempt));
        let every_fourth_on_pcie = |i: usize| match i % 4 {
            3 => Resource::Pcie,
            _ => Resource::HostCore,
        };
        let a = build(&tasks, 3, every_fourth_on_pcie).run_with_faults(&faults);
        let b = build(&tasks, 3, every_fourth_on_pcie).run_with_faults(&faults);
        assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.task, y.task);
            assert_eq!(x.unit, y.unit);
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
        }
        assert_eq!(&a.failed, &b.failed);
    });
}

/// An empty fault set takes the exact plain-run code path: schedules
/// are bitwise identical and nothing is marked failed.
#[test]
fn empty_faults_bit_identical_to_plain() {
    check("empty_faults_bit_identical_to_plain", CASES, |g| {
        let (tasks, cores) = (dag(g), g.range(1..5));
        let plain = on_host(&tasks, cores).run();
        let faulted = on_host(&tasks, cores).run_with_faults(&ActiveFaults::none());
        assert_eq!(plain.makespan_us.to_bits(), faulted.makespan_us.to_bits());
        assert_eq!(plain.events.len(), faulted.events.len());
        for (x, y) in plain.events.iter().zip(&faulted.events) {
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
        }
        assert!(!faulted.has_failures());
    });
}

/// A straggler core can only stretch the schedule, never shrink it.
#[test]
fn straggler_never_speeds_up() {
    check("straggler_never_speeds_up", CASES, |g| {
        let (tasks, core) = (lock_free_dag(g), g.range(0..3));
        let plain = on_host(&tasks, 3).run();
        let faults = FaultPlan::new(0).with_straggler(core, 8.0).active(0, 0);
        let slowed = on_host(&tasks, 3).run_with_faults(&faults);
        assert!(slowed.makespan_us + 1e-9 >= plain.makespan_us);
    });
}

/// More cores never makes a lock-free schedule slower.
#[test]
fn cores_monotone() {
    check("cores_monotone", CASES, |g| {
        let tasks = lock_free_dag(g);
        let makespan = |cores| on_host(&tasks, cores).run().makespan_us;
        assert!(makespan(4) <= makespan(1) + 1e-6);
        assert!(makespan(8) <= makespan(2) + 1e-6);
    });
}

/// The Chrome-trace export of a random mixed-resource schedule — every
/// resource, every phase, transfers failed by an injected fault — survives
/// a write/parse round trip bit-exactly.
#[test]
fn schedule_trace_round_trips_bit_exactly() {
    const RESOURCES: [Resource; 3] = [Resource::HostCore, Resource::Pcie, Resource::Gpu];
    check("schedule_trace_round_trips_bit_exactly", CASES, |g| {
        let mut sim = Simulator::new(g.range(1..4));
        for (i, (dur, deps, lock)) in dag(g).into_iter().enumerate() {
            let (resource, phase) = (*g.pick(&RESOURCES), *g.pick(&Phase::ALL));
            let label = format!("t{i} {}", phase.label());
            let mut spec = TaskSpec::new(label, resource, dur, phase).after(&deps);
            if let Some(group) = lock {
                spec = spec.locked(group);
            }
            sim.add(spec);
        }
        let faults = FaultPlan::new(g.next_u64()).with_transfer_failure(0.5);
        let schedule = sim.run_with_faults(&faults.active(0, 0));
        let trace = schedule_to_trace(&schedule, "virtual time");
        let back = from_chrome_json(&write_chrome_json(&[&trace])).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], trace);
    });
}
