//! Property-based tests on the discrete-event simulator's guarantees and
//! on the profiler's accounting over its schedules.

use gt_sim::prop::{check, Gen, CASES};
use gt_sim::{
    schedule_to_trace, ActiveFaults, BubbleReport, FaultKind, FaultPlan, FaultRule, Phase,
    Resource, Simulator, Stage, StageBreakdown, TaskSpec,
};
use gt_telemetry::{from_chrome_json, write_chrome_json};
use std::ops::Range;

/// `(duration_us, deps, lock_group)`.
type Task = (f64, Vec<usize>, Option<u32>);

/// A random DAG of host tasks: each task may depend on earlier ones and may
/// join one of two lock groups.
fn dag(g: &mut Gen) -> Vec<Task> {
    dag_in(g, 1..25, 1.0..50.0)
}

/// [`dag`] with a task count drawn from `len` and durations from `dur_us`.
fn dag_in(g: &mut Gen, len: Range<usize>, dur_us: Range<f64>) -> Vec<Task> {
    let mut i = 0;
    g.vec(len, |g| {
        let mut deps = match i {
            0 => Vec::new(),
            _ => g.vec(0..3, |g| g.range(0..i)),
        };
        deps.sort();
        deps.dedup();
        i += 1;
        let lock = (g.below(2) == 0).then(|| g.below(2) as u32);
        (g.f64_in(dur_us.clone()), deps, lock)
    })
}

/// [`dag`] without its lock groups.
fn lock_free_dag(g: &mut Gen) -> Vec<Task> {
    let tasks = dag(g).into_iter();
    tasks.map(|(dur, deps, _)| (dur, deps, None)).collect()
}

/// `tasks` placed on `resource(i)`, over `cores` host cores.
fn build(tasks: &[Task], cores: usize, resource: impl Fn(usize) -> Resource) -> Simulator {
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

/// [`dag_in`] over a core count drawn from `cores`, each task on a random
/// resource and phase.
fn mixed(g: &mut Gen, cores: Range<usize>, len: Range<usize>, dur_us: Range<f64>) -> Simulator {
    const RESOURCES: [Resource; 3] = [Resource::HostCore, Resource::Pcie, Resource::Gpu];
    let mut sim = Simulator::new(g.range(cores));
    for (i, (dur, deps, lock)) in dag_in(g, len, dur_us).into_iter().enumerate() {
        let (resource, phase) = (*g.pick(&RESOURCES), *g.pick(&Phase::ALL));
        let label = format!("t{i} {}", phase.label());
        let mut spec = TaskSpec::new(label, resource, dur, phase).after(&deps);
        if let Some(group) = lock {
            spec = spec.locked(group);
        }
        sim.add(spec);
    }
    sim
}

/// One task placed by [`quadratic_reference`]:
/// `(task, unit, start_us, end_us, lock_wait_us)`.
type Placed = (usize, usize, f64, f64, f64);

/// The list scheduler as first written, kept as the oracle for
/// `Simulator::run`: each of n rounds rescans every task, re-folds the
/// deps of each ready one and reads lock groups from a map, O(n²·deps).
/// Task `i` runs on `on[i]`. Returns the placements in schedule order, the
/// failed tasks and the makespan.
fn quadratic_reference(
    tasks: &[Task],
    on: &[Resource],
    cores: usize,
    faults: &ActiveFaults,
) -> (Vec<Placed>, Vec<usize>, f64) {
    let pool = |r: Resource| match r {
        Resource::HostCore => 0,
        Resource::Pcie => 1,
        Resource::Gpu => 2,
    };
    let n = tasks.len();
    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut free = [vec![0.0f64; cores], vec![0.0], vec![0.0]];
    let mut lock_free: std::collections::HashMap<u32, f64> = Default::default();
    let (mut placed, mut failed) = (Vec::new(), Vec::new());
    let data_ready = |deps: &[usize], finish: &[Option<f64>]| {
        let at = deps.iter().map(|&d| finish[d].unwrap());
        at.fold(0.0f64, f64::max)
    };
    for _round in 0..n {
        let mut best: Option<(f64, usize)> = None;
        for (i, (_, deps, lock)) in tasks.iter().enumerate() {
            if finish[i].is_some() || deps.iter().any(|&d| finish[d].is_none()) {
                continue;
            }
            let unit_ready = free[pool(on[i])]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let lock_ready = lock.map_or(0.0, |g| *lock_free.get(&g).unwrap_or(&0.0));
            let start = data_ready(deps, &finish).max(unit_ready).max(lock_ready);
            match best {
                Some((s, _)) if s <= start => {}
                _ => best = Some((start, i)),
            }
        }
        let (_, i) = best.expect("no ready task");
        let (duration, deps, lock) = &tasks[i];
        let (unit, unit_ready) = free[pool(on[i])]
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let lock_ready = lock.map_or(0.0, |g| *lock_free.get(&g).unwrap_or(&0.0));
        let unblocked = data_ready(deps, &finish).max(unit_ready);
        let start = unblocked.max(lock_ready);
        let mut duration = *duration;
        if on[i] == Resource::HostCore {
            if let Some(factor) = faults.straggler(unit) {
                duration *= factor;
            }
        }
        if on[i] == Resource::Pcie {
            if let Some(factor) = faults.pcie_slowdown() {
                duration *= factor;
            }
        }
        if lock.is_some() {
            if let Some(factor) = faults.lock_slowdown() {
                duration *= factor;
            }
        }
        if on[i] == Resource::Pcie && faults.fails_transfers() {
            failed.push(i);
        }
        let end = start + duration;
        free[pool(on[i])][unit] = end;
        if let Some(g) = lock {
            lock_free.insert(*g, end);
        }
        finish[i] = Some(end);
        placed.push((i, unit, start, end, (lock_ready - unblocked).max(0.0)));
    }
    let makespan = placed.iter().map(|p| p.3).fold(0.0, f64::max);
    (placed, failed, makespan)
}

/// The linear-time scheduler places every task exactly where the quadratic
/// oracle does, bit for bit, with and without faults. The DAGs span all
/// three resources, 1-5 cores and 0-3 lock groups (sparse ids), repeat
/// deps, and draw zero and integer durations so that start times tie.
#[test]
fn scheduler_equals_the_quadratic_oracle() {
    const RESOURCES: [Resource; 3] = [Resource::HostCore, Resource::Pcie, Resource::Gpu];
    const GROUPS: [u32; 3] = [1, 0, u32::MAX];
    check("scheduler_equals_the_quadratic_oracle", CASES, |g| {
        let (cores, groups) = (g.range(1..6), g.range(0..4));
        let mut i = 0;
        let tasks: Vec<Task> = g.vec(1..60, |g| {
            let mut deps = match i {
                0 => Vec::new(),
                _ => g.vec(0..4, |g| g.range(0..i)),
            };
            if !deps.is_empty() && g.below(3) == 0 {
                deps.push(deps[0]);
            }
            i += 1;
            let duration = match g.below(3) {
                0 => 0.0,
                1 => g.range(1..4) as f64 * 10.0,
                _ => g.f64_in(0.0..50.0),
            };
            let lock = (groups > 0 && g.below(2) == 0).then(|| GROUPS[g.range(0..groups)]);
            (duration, deps, lock)
        });
        let on: Vec<Resource> = tasks.iter().map(|_| *g.pick(&RESOURCES)).collect();
        let mut faults = ActiveFaults::none();
        let sampled = [
            FaultKind::StragglerCore {
                core: g.range(0..cores),
                factor: g.f64_in(1.0..4.0),
            },
            FaultKind::TransferStall {
                factor: g.range(1..4) as f64,
            },
            FaultKind::HashContention {
                factor: g.f64_in(1.0..3.0),
            },
            FaultKind::TransferFailure,
        ];
        for kind in sampled {
            if g.below(2) == 0 {
                faults.faults.push(kind);
            }
        }

        let sim = build(&tasks, cores, |i| on[i]);
        for (schedule, active) in [
            (sim.run(), ActiveFaults::none()),
            (sim.run_with_faults(&faults), faults.clone()),
        ] {
            let (placed, failed, makespan) = quadratic_reference(&tasks, &on, cores, &active);
            assert_eq!(schedule.events.len(), placed.len());
            for (e, &(task, unit, start, end, wait)) in schedule.events.iter().zip(&placed) {
                assert_eq!((e.task, e.unit), (task, unit), "under {active:?}");
                assert_eq!(e.start_us.to_bits(), start.to_bits(), "task {task}");
                assert_eq!(e.end_us.to_bits(), end.to_bits(), "task {task}");
                assert_eq!(e.lock_wait_us.to_bits(), wait.to_bits(), "task {task}");
            }
            assert_eq!(schedule.failed, failed);
            assert_eq!(schedule.makespan_us.to_bits(), makespan.to_bits());
        }
    });
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
    check("schedule_trace_round_trips_bit_exactly", CASES, |g| {
        let sim = mixed(g, 1..4, 1..25, 1.0..50.0);
        let faults = FaultPlan::new(g.next_u64()).with_transfer_failure(0.5);
        let schedule = sim.run_with_faults(&faults.active(0, 0));
        let trace = schedule_to_trace(&schedule, "virtual time");
        let back = from_chrome_json(&write_chrome_json(&[&trace])).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], trace);
    });
}

/// The profiler's accounting holds on every schedule: the makespan is at
/// most the summed stage time (the list scheduler can at worst serialize
/// every task), the stage breakdown partitions the events' busy time, and
/// per resource unit `busy + idle = makespan`. The DAGs are larger than
/// elsewhere and include zero-length tasks, the edge case of both bounds.
#[test]
fn makespan_le_sum_of_stage_times() {
    check("makespan_le_sum_of_stage_times", CASES, |g| {
        let sim = mixed(g, 1..5, 1..40, 0.0..200.0);
        let schedule = sim.run();
        let makespan = schedule.makespan_us;
        let busy = StageBreakdown::from_schedule(&schedule).total();

        assert!(makespan <= busy + 1e-6, "makespan {makespan} > busy {busy}");

        let events = schedule.events.iter();
        let event_sum: f64 = events.map(|e| e.end_us - e.start_us).sum();
        assert!((busy - event_sum).abs() < 1e-6);

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
