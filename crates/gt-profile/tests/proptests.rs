//! Profiler invariants over randomized DES task DAGs.
//!
//! The load-bearing claims:
//! - the binding-constraint chain is contiguous and sums exactly to the
//!   makespan (it *is* the explanation of the schedule length);
//! - `dag critical path ≤ makespan ≤ sum of stage times` — the list
//!   scheduler is work-conserving, so the makespan is sandwiched between
//!   the infinite-parallelism bound and full serialization;
//! - the stage breakdown partitions total busy time;
//! - the profiler's Perfetto tracks survive a Chrome-trace round-trip
//!   bit-exactly.

use gt_profile::{profile_schedule, Stage};
use gt_sim::prop::{check, Gen, CASES};
use gt_sim::{Phase, Resource, Simulator, TaskSpec};

/// `(duration_us, deps, lock_group, resource, phase)`.
type Task = (f64, Vec<usize>, Option<u32>, Resource, Phase);

const RESOURCES: [Resource; 3] = [Resource::HostCore, Resource::Pcie, Resource::Gpu];
const PHASES: [Phase; 12] = [
    Phase::Sampling,
    Phase::Reindex,
    Phase::Lookup,
    Phase::Transfer,
    Phase::Aggregation,
    Phase::EdgeWeighting,
    Phase::Combination,
    Phase::Loss,
    Phase::Optimizer,
    Phase::Sparse2Dense,
    Phase::FormatTranslation,
    Phase::Other,
];

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
        (dur, deps, lock, *g.pick(&RESOURCES), *g.pick(&PHASES))
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
fn critical_path_le_makespan_le_sum_of_stage_times() {
    let name = "critical_path_le_makespan_le_sum_of_stage_times";
    check(name, CASES, |g| {
        let sim = build_sim(g.range(1..5), &dag(g));
        let schedule = sim.run();
        let p = profile_schedule(&sim, &schedule);
        let (makespan, busy) = (p.makespan_us, p.breakdown.total());

        // dag critical path ≤ makespan ≤ sum of stage (busy) times.
        let dag_path = p.critical.dag_path_us;
        assert!(dag_path <= makespan + 1e-6, "dag {dag_path} > {makespan}");
        assert!(makespan <= busy + 1e-6, "makespan {makespan} > busy {busy}");

        // The binding chain is contiguous and sums exactly to the makespan.
        let chain = &p.critical.chain;
        let chain_sum: f64 = chain.iter().map(|l| l.end_us - l.start_us).sum();
        assert!((chain_sum - makespan).abs() < 1e-6, "chain {chain_sum}");
        for w in chain.windows(2) {
            assert_eq!(w[0].end_us.to_bits(), w[1].start_us.to_bits());
        }
        if let Some(first) = chain.first() {
            assert_eq!(first.start_us, 0.0);
        }

        // Stage breakdown partitions total busy time.
        let events = schedule.events.iter();
        let event_sum: f64 = events.map(|e| e.end_us - e.start_us).sum();
        assert!((busy - event_sum).abs() < 1e-6);

        // Bubble accounting: busy + idle = makespan, per unit; gaps cover
        // exactly the idle time.
        for u in &p.bubbles.units {
            let (busy, idle) = (u.busy_us, u.idle_us);
            assert!(
                (busy + idle - makespan).abs() < 1e-6,
                "{}: busy {busy} + idle {idle} != makespan {makespan}",
                u.track
            );
            let gap_sum: f64 = u.gaps.iter().map(|(a, b)| b - a).sum();
            assert!((gap_sum - idle).abs() < 1e-6);
        }
    });
}

#[test]
fn what_if_headroom_is_sane() {
    check("what_if_headroom_is_sane", CASES, |g| {
        let sim = build_sim(g.range(1..4), &dag(g));
        let p = profile_schedule(&sim, &sim.run());
        for w in &p.what_if {
            // The hypothetical schedule exists and stays within the
            // work-conserving bound of the original task set.
            assert!(w.makespan_zeroed_us.is_finite());
            assert!(w.makespan_zeroed_us >= 0.0);
            assert!(w.makespan_zeroed_us <= p.breakdown.total() + 1e-6);
            // A stage with no busy time has no headroom.
            if w.busy_us == 0.0 {
                assert!(w.headroom_us.abs() < 1e-6);
            }
        }
    });
}

#[test]
fn profiler_tracks_round_trip_bit_exactly() {
    check("profiler_tracks_round_trip_bit_exactly", CASES, |g| {
        let sim = build_sim(g.range(1..4), &dag(g));
        let schedule = sim.run();
        let p = profile_schedule(&sim, &schedule);
        let mut combined = gt_sim::schedule_to_trace(&schedule, "virtual time");
        gt_profile::append_profile_tracks(&p, &mut combined);
        let text = gt_telemetry::write_chrome_json(&[&combined]);
        let back = gt_telemetry::from_chrome_json(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(&back[0], &combined);
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
    let p = profile_schedule(&sim, &sim.run());
    assert!(p.breakdown.get(Stage::SampleAlg) > 0.0);
    assert!(p.breakdown.get(Stage::SampleHash) > 0.0);
    assert_eq!(p.breakdown.get(Stage::Sample), 0.0);
}
