//! Deterministic discrete-event simulator for end-to-end schedules.
//!
//! The service-wide tensor scheduler (§V-B) is fundamentally a statement
//! about *scheduling*: the same S/R/K/T work, chopped into subtasks and
//! placed with maximum overlap across host cores, the PCIe link, and the
//! GPU, finishes much earlier than the serialized schedule the baselines
//! use. The development host has 2 vCPUs (DESIGN.md §2), too few to show
//! 12-way host parallelism or CPU/PCIe overlap in wall time, so we replay
//! each framework's task DAG on modeled resources with a deterministic
//! list scheduler and compare virtual makespans.
//!
//! Tasks may carry a *lock group*: two tasks in the same group never
//! overlap, which models the sampled-VID hash-table contention of Fig 14.
//! The time a task spends waiting on its lock group (beyond data/resource
//! readiness) is recorded so the contention fractions are observable.

use crate::counters::Phase;

/// Identifies a task added to the simulator.
pub type TaskId = usize;

/// Execution resource a task occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// One of the host CPU cores (the pool size is `Simulator::new(cores)`).
    HostCore,
    /// The single PCIe DMA engine.
    Pcie,
    /// The single GPU compute queue.
    Gpu,
}

/// A unit of work submitted to the simulator.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Display label (e.g. "S2", "T(K) chunk 3").
    pub label: String,
    /// Resource pool the task runs on.
    pub resource: Resource,
    /// Duration in virtual microseconds.
    pub duration_us: f64,
    /// Tasks that must finish before this one starts.
    pub deps: Vec<TaskId>,
    /// Optional mutual-exclusion group (hash-table lock id).
    pub lock: Option<u32>,
    /// Phase for timeline decomposition.
    pub phase: Phase,
    /// Number of items (e.g. nodes) this task processes; used by Fig 20's
    /// cumulative progress curves.
    pub items: u64,
}

impl TaskSpec {
    /// Convenience constructor with no deps, no lock, zero items.
    pub fn new(
        label: impl Into<String>,
        resource: Resource,
        duration_us: f64,
        phase: Phase,
    ) -> Self {
        TaskSpec {
            label: label.into(),
            resource,
            duration_us,
            deps: Vec::new(),
            lock: None,
            phase,
            items: 0,
        }
    }

    /// Builder: add dependencies.
    pub fn after(mut self, deps: &[TaskId]) -> Self {
        self.deps.extend_from_slice(deps);
        self
    }

    /// Builder: serialize against a lock group.
    pub fn locked(mut self, group: u32) -> Self {
        self.lock = Some(group);
        self
    }

    /// Builder: set processed-item count.
    pub fn items(mut self, n: u64) -> Self {
        self.items = n;
        self
    }
}

/// A task placed in time by the scheduler.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    pub task: TaskId,
    pub label: String,
    pub phase: Phase,
    pub resource: Resource,
    /// Index of the unit within its resource pool (core number, 0 for
    /// PCIe/GPU).
    pub unit: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Time spent waiting on the task's lock group beyond data/unit
    /// readiness.
    pub lock_wait_us: f64,
    pub items: u64,
}

/// The result of simulating a task DAG.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub events: Vec<ScheduledEvent>,
    pub makespan_us: f64,
    /// Tasks whose execution was failed by an injected fault (e.g. every
    /// PCIe task under a `TransferFailure`). Empty for fault-free runs.
    pub failed: Vec<TaskId>,
}

impl Schedule {
    /// True when any task was failed by an injected fault.
    pub fn has_failures(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Completion time of the last task in `phase` (0 if none ran).
    pub fn phase_finish_us(&self, phase: Phase) -> f64 {
        self.events
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| e.end_us)
            .fold(0.0, f64::max)
    }

    /// Envelope of `phase` in schedule time: `(first start, last finish)`,
    /// or `None` if no task of that phase ran. This is the span a tracing
    /// consumer renders for the phase — busy time can be smaller when the
    /// phase's tasks have gaps between them.
    pub fn phase_window_us(&self, phase: Phase) -> Option<(f64, f64)> {
        let mut window: Option<(f64, f64)> = None;
        for e in self.events.iter().filter(|e| e.phase == phase) {
            window = Some(match window {
                Some((from, until)) => (from.min(e.start_us), until.max(e.end_us)),
                None => (e.start_us, e.end_us),
            });
        }
        window
    }

    /// Sum of busy time in `phase`.
    pub fn phase_busy_us(&self, phase: Phase) -> f64 {
        self.events
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| e.end_us - e.start_us)
            .sum()
    }

    /// Total time tasks spent blocked on lock groups.
    pub fn total_lock_wait_us(&self) -> f64 {
        self.events.iter().map(|e| e.lock_wait_us).sum()
    }

    /// Cumulative progress curve for `phase`: (completion time, cumulative
    /// items), sorted by time. Drives Fig 20.
    pub fn progress_curve(&self, phase: Phase) -> Vec<(f64, u64)> {
        let mut pts: Vec<(f64, u64)> = self
            .events
            .iter()
            .filter(|e| e.phase == phase && e.items > 0)
            .map(|e| (e.end_us, e.items))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0;
        for p in &mut pts {
            cum += p.1;
            p.1 = cum;
        }
        pts
    }
}

/// Deterministic list scheduler over host cores, the PCIe link, and the GPU.
#[derive(Debug, Clone)]
pub struct Simulator {
    tasks: Vec<TaskSpec>,
    host_cores: usize,
}

impl Simulator {
    /// A simulator whose host pool has `host_cores` cores.
    pub fn new(host_cores: usize) -> Self {
        assert!(host_cores > 0, "need at least one host core");
        Simulator {
            tasks: Vec::new(),
            host_cores,
        }
    }

    /// Submit a task; returns its id for use in later `deps`.
    pub fn add(&mut self, spec: TaskSpec) -> TaskId {
        for &d in &spec.deps {
            assert!(d < self.tasks.len(), "dependency on unknown task {d}");
        }
        self.tasks.push(spec);
        self.tasks.len() - 1
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks have been submitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Size of the host-core pool this simulator schedules onto.
    pub fn host_cores(&self) -> usize {
        self.host_cores
    }

    /// Run list scheduling: repeatedly place the ready task with the earliest
    /// possible start on the earliest-available unit of its resource pool.
    ///
    /// A task's start is `data_ready.max(unit_ready).max(lock_ready)`: the
    /// latest finish among its deps, the earliest free unit of its pool, and
    /// its lock group's release. Among equal starts the lowest task id
    /// wins; among equally free units, the lowest unit index.
    ///
    /// Each round scans only the ready set (tasks whose deps have all
    /// finished), and a task's data-ready time is folded once, when its last
    /// dependency ends, so a run costs O(n·ready + E) for n tasks and E
    /// dependency entries, plus one pass over each pool per round.
    pub fn run(&self) -> Schedule {
        self.run_inner(None)
    }

    /// Run list scheduling under injected faults: stragglers stretch tasks
    /// on their core, stalls stretch PCIe tasks, contention spikes stretch
    /// lock-holding tasks, and transfer failures mark PCIe tasks failed.
    ///
    /// An empty fault set takes the exact [`run`](Self::run) code path, so
    /// fault-free schedules are bit-identical to unsupervised ones.
    pub fn run_with_faults(&self, faults: &crate::fault::ActiveFaults) -> Schedule {
        if faults.is_empty() {
            return self.run_inner(None);
        }
        self.run_inner(Some(faults))
    }

    fn run_inner(&self, faults: Option<&crate::fault::ActiveFaults>) -> Schedule {
        let n = self.tasks.len();
        // Dependents as CSR: `dependents[head[d]..head[d + 1]]` lists every
        // task that names `d` in its deps, once per entry (duplicates
        // included), so `pending[i]` reaches 0 exactly when task i's last
        // dependency finishes.
        let mut head = vec![0usize; n + 1];
        for t in &self.tasks {
            for &d in &t.deps {
                head[d] += 1;
            }
        }
        for i in 1..=n {
            head[i] += head[i - 1];
        }
        let mut dependents = vec![0; head[n]];
        for (i, t) in self.tasks.iter().enumerate().rev() {
            for &d in t.deps.iter().rev() {
                head[d] -= 1;
                dependents[head[d]] = i;
            }
        }
        let mut pending: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();

        // Lock groups are a handful of ids: give each a slot in a Vec table.
        let mut groups: Vec<u32> = Vec::new();
        let lock_slot: Vec<Option<usize>> = self
            .tasks
            .iter()
            .map(|t| {
                t.lock.map(|g| match groups.iter().position(|&h| h == g) {
                    Some(slot) => slot,
                    None => {
                        groups.push(g);
                        groups.len() - 1
                    }
                })
            })
            .collect();
        let mut lock_free = vec![0.0f64; groups.len()];

        let pool_of = |r: Resource| match r {
            Resource::HostCore => 0,
            Resource::Pcie => 1,
            Resource::Gpu => 2,
        };
        let mut pools = [vec![0.0f64; self.host_cores], vec![0.0f64], vec![0.0f64]];
        let mut finish = vec![0.0f64; n];
        let data_ready_of = |i: usize, finish: &[f64]| {
            let deps = self.tasks[i].deps.iter();
            deps.map(|&d| finish[d]).fold(0.0f64, f64::max)
        };
        // Tasks whose dependencies have all finished, in index order, each
        // with its data-ready time (fixed once its last dependency ends).
        let mut ready: Vec<(TaskId, f64)> = (0..n)
            .filter(|&i| pending[i] == 0)
            .map(|i| (i, data_ready_of(i, &finish)))
            .collect();
        let mut events: Vec<ScheduledEvent> = Vec::with_capacity(n);
        let mut failed: Vec<TaskId> = Vec::new();

        for _round in 0..n {
            // Find the ready task with the earliest possible start time; the
            // scan runs in index order, so ties keep the lowest index.
            let unit_ready = pools
                .each_ref()
                .map(|pool| pool.iter().copied().fold(f64::INFINITY, f64::min));
            let mut best: Option<(f64, usize)> = None;
            for (pos, &(i, data_ready)) in ready.iter().enumerate() {
                let t = &self.tasks[i];
                let lock_ready = lock_slot[i].map_or(0.0, |s| lock_free[s]);
                let start = data_ready
                    .max(unit_ready[pool_of(t.resource)])
                    .max(lock_ready);
                match best {
                    Some((s, _)) if s <= start => {}
                    _ => best = Some((start, pos)),
                }
            }
            let (_, pos) = best.expect("cycle in task graph: no ready task");
            let (i, data_ready) = ready.remove(pos);
            let t = &self.tasks[i];
            let pool = &mut pools[pool_of(t.resource)];
            let (unit, unit_ready) = pool
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let lock_ready = lock_slot[i].map_or(0.0, |s| lock_free[s]);
            let unblocked = data_ready.max(unit_ready);
            let start = unblocked.max(lock_ready);
            // Fault adjustments are Option-gated: with no applicable fault
            // the duration arithmetic is exactly the fault-free path, so an
            // empty fault set yields a bit-identical schedule.
            let mut duration = t.duration_us;
            if let Some(f) = faults {
                if t.resource == Resource::HostCore {
                    if let Some(factor) = f.straggler(unit) {
                        duration *= factor;
                    }
                }
                if t.resource == Resource::Pcie {
                    if let Some(factor) = f.pcie_slowdown() {
                        duration *= factor;
                    }
                }
                if t.lock.is_some() {
                    if let Some(factor) = f.lock_slowdown() {
                        duration *= factor;
                    }
                }
                if t.resource == Resource::Pcie && f.fails_transfers() {
                    failed.push(i);
                }
            }
            let end = start + duration;
            pool[unit] = end;
            if let Some(slot) = lock_slot[i] {
                lock_free[slot] = end;
            }
            finish[i] = end;
            events.push(ScheduledEvent {
                task: i,
                label: t.label.clone(),
                phase: t.phase,
                resource: t.resource,
                unit,
                start_us: start,
                end_us: end,
                lock_wait_us: (lock_ready - unblocked).max(0.0),
                items: t.items,
            });
            for &j in &dependents[head[i]..head[i + 1]] {
                pending[j] -= 1;
                if pending[j] == 0 {
                    let at = ready.partition_point(|&(k, _)| k < j);
                    ready.insert(at, (j, data_ready_of(j, &finish)));
                }
            }
        }

        let makespan_us = events.iter().map(|e| e.end_us).fold(0.0, f64::max);
        Schedule {
            events,
            makespan_us,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_task(us: f64) -> TaskSpec {
        TaskSpec::new("t", Resource::HostCore, us, Phase::Sampling)
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let mut sim = Simulator::new(4);
        for _ in 0..4 {
            sim.add(host_task(100.0));
        }
        let s = sim.run();
        assert!((s.makespan_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn more_tasks_than_cores_serialize() {
        let mut sim = Simulator::new(2);
        for _ in 0..4 {
            sim.add(host_task(100.0));
        }
        assert!((sim.run().makespan_us - 200.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_honored() {
        let mut sim = Simulator::new(8);
        let a = sim.add(host_task(50.0));
        let b = sim.add(host_task(30.0).after(&[a]));
        let s = sim.run();
        let eb = s.events.iter().find(|e| e.task == b).unwrap();
        assert!((eb.start_us - 50.0).abs() < 1e-9);
        assert!((s.makespan_us - 80.0).abs() < 1e-9);
    }

    #[test]
    fn lock_group_serializes_and_records_wait() {
        let mut sim = Simulator::new(8);
        sim.add(host_task(100.0).locked(1));
        sim.add(host_task(100.0).locked(1));
        let s = sim.run();
        assert!((s.makespan_us - 200.0).abs() < 1e-9);
        assert!((s.total_lock_wait_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn different_resources_overlap() {
        let mut sim = Simulator::new(1);
        sim.add(host_task(100.0));
        sim.add(TaskSpec::new("x", Resource::Pcie, 100.0, Phase::Transfer));
        sim.add(TaskSpec::new("g", Resource::Gpu, 100.0, Phase::Aggregation));
        let s = sim.run();
        assert!((s.makespan_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn progress_curve_is_cumulative() {
        let mut sim = Simulator::new(1);
        sim.add(host_task(10.0).items(5));
        sim.add(host_task(10.0).items(7));
        let curve = sim.run().progress_curve(Phase::Sampling);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[1].1, 12);
        assert!(curve[0].0 < curve[1].0);
    }

    #[test]
    fn phase_accounting_on_schedule() {
        let mut sim = Simulator::new(2);
        sim.add(host_task(10.0));
        sim.add(TaskSpec::new("r", Resource::HostCore, 20.0, Phase::Reindex));
        let s = sim.run();
        assert!((s.phase_busy_us(Phase::Sampling) - 10.0).abs() < 1e-9);
        assert!((s.phase_finish_us(Phase::Reindex) - 20.0).abs() < 1e-9);
        assert_eq!(s.phase_finish_us(Phase::Transfer), 0.0);
    }

    #[test]
    #[should_panic]
    fn forward_dependency_rejected() {
        let mut sim = Simulator::new(1);
        sim.add(host_task(1.0).after(&[5]));
    }

    #[test]
    fn empty_faults_match_plain_run() {
        use crate::fault::ActiveFaults;
        let mut sim = Simulator::new(2);
        let a = sim.add(host_task(50.0));
        sim.add(host_task(30.0).after(&[a]).locked(1));
        sim.add(TaskSpec::new("x", Resource::Pcie, 40.0, Phase::Transfer));
        let plain = sim.run();
        let faulted = sim.run_with_faults(&ActiveFaults::none());
        assert_eq!(plain.events.len(), faulted.events.len());
        for (p, f) in plain.events.iter().zip(&faulted.events) {
            assert_eq!(p.start_us.to_bits(), f.start_us.to_bits());
            assert_eq!(p.end_us.to_bits(), f.end_us.to_bits());
            assert_eq!(p.unit, f.unit);
        }
        assert_eq!(plain.makespan_us.to_bits(), faulted.makespan_us.to_bits());
        assert!(faulted.failed.is_empty());
    }

    #[test]
    fn straggler_slows_only_its_core() {
        use crate::fault::{ActiveFaults, FaultKind};
        // Two cores, two tasks: one lands on core 0, one on core 1.
        let mut sim = Simulator::new(2);
        sim.add(host_task(100.0));
        sim.add(host_task(100.0));
        let faults = ActiveFaults {
            faults: vec![FaultKind::StragglerCore {
                core: 1,
                factor: 3.0,
            }],
        };
        let s = sim.run_with_faults(&faults);
        let on0 = s.events.iter().find(|e| e.unit == 0).unwrap();
        let on1 = s.events.iter().find(|e| e.unit == 1).unwrap();
        assert!((on0.end_us - on0.start_us - 100.0).abs() < 1e-9);
        assert!((on1.end_us - on1.start_us - 300.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_stall_stretches_pcie_only() {
        use crate::fault::{ActiveFaults, FaultKind};
        let mut sim = Simulator::new(1);
        sim.add(host_task(100.0));
        sim.add(TaskSpec::new("x", Resource::Pcie, 100.0, Phase::Transfer));
        let faults = ActiveFaults {
            faults: vec![FaultKind::TransferStall { factor: 2.5 }],
        };
        let s = sim.run_with_faults(&faults);
        let host = s
            .events
            .iter()
            .find(|e| e.resource == Resource::HostCore)
            .unwrap();
        let pcie = s
            .events
            .iter()
            .find(|e| e.resource == Resource::Pcie)
            .unwrap();
        assert!((host.end_us - host.start_us - 100.0).abs() < 1e-9);
        assert!((pcie.end_us - pcie.start_us - 250.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_failure_marks_pcie_tasks() {
        use crate::fault::{ActiveFaults, FaultKind};
        let mut sim = Simulator::new(1);
        sim.add(host_task(10.0));
        let x = sim.add(TaskSpec::new("x", Resource::Pcie, 10.0, Phase::Transfer));
        let faults = ActiveFaults {
            faults: vec![FaultKind::TransferFailure],
        };
        let s = sim.run_with_faults(&faults);
        assert!(s.has_failures());
        assert_eq!(s.failed, vec![x]);
        assert!(!sim.run().has_failures());
    }

    #[test]
    fn contention_spike_stretches_locked_tasks() {
        use crate::fault::{ActiveFaults, FaultKind};
        let mut sim = Simulator::new(2);
        sim.add(host_task(100.0).locked(1));
        sim.add(host_task(100.0));
        let faults = ActiveFaults {
            faults: vec![FaultKind::HashContention { factor: 4.0 }],
        };
        let s = sim.run_with_faults(&faults);
        let locked = s.events.iter().find(|e| e.task == 0).unwrap();
        let free = s.events.iter().find(|e| e.task == 1).unwrap();
        assert!((locked.end_us - locked.start_us - 400.0).abs() < 1e-9);
        assert!((free.end_us - free.start_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_prefers_earliest_start() {
        // One core. Task A (long) and B (short) both ready: both start at 0,
        // tie broken by submission order, so A runs first.
        let mut sim = Simulator::new(1);
        let a = sim.add(host_task(100.0));
        let b = sim.add(host_task(1.0));
        let s = sim.run();
        let ea = s.events.iter().find(|e| e.task == a).unwrap();
        let eb = s.events.iter().find(|e| e.task == b).unwrap();
        assert!(ea.start_us < eb.start_us);
    }
}
