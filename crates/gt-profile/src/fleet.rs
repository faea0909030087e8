//! Fleet health analysis: distill a distributed run's per-worker stage
//! breakdowns and collective timings into one deterministic report.
//!
//! The cluster layer prices every batch as one DES schedule per worker
//! plus a ring collective that waits for the slowest stage; this module
//! answers the operator questions that layer raises:
//!
//! - **Who is busy?** Per-worker busy/idle/link time and utilization.
//! - **Where is the skew?** Per-stage imbalance ratio (max/mean busy time
//!   across workers) — a ratio of 1 is a perfectly balanced stage, large
//!   ratios say which pipeline stage concentrates on few workers.
//! - **Who bound the collectives?** Per-batch straggler attribution: the
//!   worker whose stage time the collective waited on, and the stage that
//!   dominated that worker's schedule.
//!
//! Feed batches through a [`FleetObserver`] (one `observe_batch` per
//! priced batch, with the per-worker schedules), then build a
//! [`FleetReport`] with the run's scalar totals ([`FleetTotals`]). Every
//! number is virtual-time-derived, so reports are bit-identical across
//! thread counts; [`render`] is the text form the cluster bench writes
//! with `--fleet-out`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gt_sim::{FleetTotals, Schedule};

use crate::breakdown::StageBreakdown;
use crate::stage::Stage;

/// One batch's straggler attribution: which worker (and which of its
/// stages) the collective barrier waited on.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerSample {
    /// Batch index the sample belongs to.
    pub batch: usize,
    /// The worker whose stage time bound the collective (ties broken
    /// toward the lowest worker index).
    pub worker: usize,
    /// The stage dominating that worker's schedule (ties broken by display
    /// order).
    pub stage: Stage,
    /// The straggler's stage makespan, virtual µs.
    pub makespan_us: f64,
}

/// Accumulates per-worker observations batch by batch.
#[derive(Debug, Clone, Default)]
pub struct FleetObserver {
    per_worker: BTreeMap<usize, StageBreakdown>,
    stragglers: Vec<StragglerSample>,
    batches: usize,
}

impl FleetObserver {
    /// An empty observer.
    pub fn new() -> Self {
        FleetObserver::default()
    }

    /// Batches observed so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Fold one priced batch in: `schedules` is the batch's per-worker DES
    /// schedule list (e.g. `gt_core::Cluster::last_schedules`). No-op on
    /// an empty list (untrained batches price no schedules).
    pub fn observe_batch(&mut self, batch: usize, schedules: &[(usize, Schedule)]) {
        if schedules.is_empty() {
            return;
        }
        let mut straggler: Option<(usize, f64, StageBreakdown)> = None;
        for (w, schedule) in schedules {
            let b = StageBreakdown::from_schedule(schedule);
            self.per_worker.entry(*w).or_default().merge(&b);
            let slower = match &straggler {
                Some((_, t, _)) => schedule.makespan_us > *t,
                None => true,
            };
            if slower {
                straggler = Some((*w, schedule.makespan_us, b));
            }
        }
        let (worker, makespan_us, breakdown) = straggler.expect("non-empty schedules");
        self.stragglers.push(StragglerSample {
            batch,
            worker,
            stage: dominant_stage(&breakdown),
            makespan_us,
        });
        self.batches += 1;
    }

    /// Accumulated stage breakdown of `worker` (empty if never scheduled).
    pub fn breakdown(&self, worker: usize) -> StageBreakdown {
        self.per_worker.get(&worker).cloned().unwrap_or_default()
    }

    /// All straggler samples, in batch order.
    pub fn stragglers(&self) -> &[StragglerSample] {
        &self.stragglers
    }
}

/// The stage with the largest busy time (ties broken by display order;
/// [`Stage::Other`] for an empty breakdown).
fn dominant_stage(b: &StageBreakdown) -> Stage {
    let mut best = (Stage::Other, 0.0f64);
    for (stage, us) in b.iter() {
        if us > best.1 {
            best = (stage, us);
        }
    }
    best.0
}

/// Per-worker health in the distilled report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    /// Worker index.
    pub worker: usize,
    /// Virtual µs executing subtasks.
    pub busy_us: f64,
    /// Virtual µs idling at the collective barrier.
    pub idle_us: f64,
    /// `busy / (busy + idle)`; 0 for a worker that never executed.
    pub busy_frac: f64,
    /// Fraction of the cluster clock this worker's link spent in
    /// collectives.
    pub link_util: f64,
    /// Accumulated stage breakdown.
    pub breakdown: StageBreakdown,
}

/// The distilled fleet health report. Build with [`FleetReport::build`],
/// render with [`render`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-worker health, ascending worker index.
    pub workers: Vec<WorkerHealth>,
    /// Batches observed.
    pub batches: usize,
    /// Run totals the report was built from.
    pub totals: FleetTotals,
    /// Per-stage imbalance `max busy / mean busy` across workers that
    /// executed anything, for stages with nonzero mean, in display order.
    pub stage_imbalance: Vec<(Stage, f64)>,
    /// The worst entry of [`stage_imbalance`](FleetReport::stage_imbalance).
    pub worst_imbalance: Option<(Stage, f64)>,
    /// `max busy / mean busy` across executing workers (1.0 when balanced
    /// or fewer than two executed).
    pub busy_imbalance: f64,
    /// Straggler samples, in batch order.
    pub stragglers: Vec<StragglerSample>,
    /// `(worker, stage, batches bound)` sorted by count descending, then
    /// worker, then stage display order.
    pub attribution: Vec<(usize, Stage, usize)>,
}

impl FleetReport {
    /// Distill `observer` + `totals` into the report. The worker set is
    /// the union of scheduled workers and the totals' vectors.
    pub fn build(observer: &FleetObserver, totals: &FleetTotals) -> FleetReport {
        let n = totals
            .worker_busy_us
            .len()
            .max(observer.per_worker.keys().next_back().map_or(0, |w| w + 1));
        let at = |v: &[f64], w: usize| v.get(w).copied().unwrap_or(0.0);
        let workers: Vec<WorkerHealth> = (0..n)
            .map(|w| {
                let busy_us = at(&totals.worker_busy_us, w);
                let idle_us = at(&totals.worker_idle_us, w);
                let link_us = at(&totals.worker_link_us, w);
                WorkerHealth {
                    worker: w,
                    busy_us,
                    idle_us,
                    busy_frac: if busy_us + idle_us > 0.0 {
                        busy_us / (busy_us + idle_us)
                    } else {
                        0.0
                    },
                    link_util: if totals.clock_us > 0.0 {
                        link_us / totals.clock_us
                    } else {
                        0.0
                    },
                    breakdown: observer.breakdown(w),
                }
            })
            .collect();

        // Imbalance ratios over the workers that executed anything: a
        // never-scheduled worker contributing zeros would make every stage
        // look skewed.
        let participants: Vec<&WorkerHealth> = workers.iter().filter(|h| h.busy_us > 0.0).collect();
        let mut stage_imbalance = Vec::new();
        if participants.len() >= 2 {
            for stage in Stage::ALL {
                let values: Vec<f64> = participants
                    .iter()
                    .map(|h| h.breakdown.get(stage))
                    .collect();
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                if mean > 0.0 {
                    let max = values.iter().copied().fold(0.0, f64::max);
                    stage_imbalance.push((stage, max / mean));
                }
            }
        }
        let worst_imbalance = stage_imbalance
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let busy_imbalance = if participants.len() >= 2 {
            let mean =
                participants.iter().map(|h| h.busy_us).sum::<f64>() / participants.len() as f64;
            participants.iter().map(|h| h.busy_us).fold(0.0, f64::max) / mean
        } else {
            1.0
        };

        let mut counts: BTreeMap<(usize, Stage), usize> = BTreeMap::new();
        for s in observer.stragglers() {
            *counts.entry((s.worker, s.stage)).or_default() += 1;
        }
        let mut attribution: Vec<(usize, Stage, usize)> = counts
            .into_iter()
            .map(|((w, stage), count)| (w, stage, count))
            .collect();
        attribution.sort_by(|a, b| {
            b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(
                Stage::ALL
                    .iter()
                    .position(|s| *s == a.1)
                    .cmp(&Stage::ALL.iter().position(|s| *s == b.1)),
            )
        });

        FleetReport {
            workers,
            batches: observer.batches(),
            totals: totals.clone(),
            stage_imbalance,
            worst_imbalance,
            busy_imbalance,
            stragglers: observer.stragglers().to_vec(),
            attribution,
        }
    }
}

/// Render the report as the plain-text fleet page. Purely a
/// function of the report: bit-identical across thread counts and worker
/// counts that don't change the modeled run.
pub fn render(r: &FleetReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet health: {} workers, {} batches, clock {:.1} µs",
        r.workers.len(),
        r.batches,
        r.totals.clock_us
    );
    let collective_pct = if r.totals.clock_us > 0.0 {
        100.0 * r.totals.collective_us / r.totals.clock_us
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  collective {:.1} µs ({collective_pct:.1}% of clock)",
        r.totals.collective_us
    );

    let _ = writeln!(out, "per-worker utilization:");
    for h in &r.workers {
        let top = if h.breakdown.is_empty() {
            "-".to_string()
        } else {
            let stage = dominant_stage(&h.breakdown);
            let total = h.breakdown.total();
            let pct = if total > 0.0 {
                100.0 * h.breakdown.get(stage) / total
            } else {
                0.0
            };
            format!("{} {pct:.1}%", stage.label())
        };
        let _ = writeln!(
            out,
            "  worker {:<3} busy {:>12.1} µs  idle {:>12.1} µs  busy {:>5.1}%  link {:>5.1}%  top stage {top}",
            h.worker,
            h.busy_us,
            h.idle_us,
            100.0 * h.busy_frac,
            100.0 * h.link_util
        );
    }

    let _ = writeln!(
        out,
        "stage imbalance (max/mean busy across {} executing workers):",
        r.workers.iter().filter(|h| h.busy_us > 0.0).count()
    );
    if r.stage_imbalance.is_empty() {
        let _ = writeln!(out, "  (single worker: imbalance undefined)");
    } else {
        for (stage, ratio) in &r.stage_imbalance {
            let _ = writeln!(out, "  {:<14} {ratio:>7.3}", stage.label());
        }
        if let Some((stage, ratio)) = r.worst_imbalance {
            let _ = writeln!(
                out,
                "  worst: {} at {ratio:.3}; overall busy imbalance {:.3}",
                stage.label(),
                r.busy_imbalance
            );
        }
    }

    let _ = writeln!(
        out,
        "straggler attribution (batches bound by worker+stage):"
    );
    if r.attribution.is_empty() {
        let _ = writeln!(out, "  (no priced batches)");
    } else {
        for (worker, stage, count) in &r.attribution {
            let _ = writeln!(
                out,
                "  worker {worker} / {:<14} {count:>4} batches",
                stage.label()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::{ActiveFaults, FaultKind, Phase, Resource, Simulator, TaskSpec};

    fn schedule(sample_us: f64, transfer_us: f64) -> Schedule {
        let mut sim = Simulator::new(1);
        let s = sim.add(TaskSpec::new(
            "S1 c0",
            Resource::HostCore,
            sample_us,
            Phase::Sampling,
        ));
        sim.add(TaskSpec::new("T(S)", Resource::Pcie, transfer_us, Phase::Transfer).after(&[s]));
        sim.run()
    }

    fn totals_for(busy: &[f64]) -> FleetTotals {
        FleetTotals {
            clock_us: 1000.0,
            collective_us: 100.0,
            worker_busy_us: busy.to_vec(),
            worker_idle_us: vec![0.0; busy.len()],
            worker_link_us: vec![100.0; busy.len()],
        }
    }

    #[test]
    fn straggler_attribution_names_the_slowest_workers_dominant_stage() {
        let mut obs = FleetObserver::new();
        // Worker 1 is the straggler both batches, bound by its transfer.
        for batch in 0..2 {
            obs.observe_batch(
                batch,
                &[(0, schedule(10.0, 5.0)), (1, schedule(10.0, 200.0))],
            );
        }
        assert_eq!(obs.batches(), 2);
        let report = FleetReport::build(&obs, &totals_for(&[15.0, 210.0]));
        assert_eq!(report.attribution, vec![(1, Stage::Transfer, 2)]);
        assert_eq!(report.stragglers.len(), 2);
        assert_eq!(report.stragglers[0].worker, 1);
        assert_eq!(report.stragglers[0].stage, Stage::Transfer);
    }

    #[test]
    fn stage_imbalance_is_max_over_mean_per_stage() {
        let mut obs = FleetObserver::new();
        obs.observe_batch(0, &[(0, schedule(30.0, 10.0)), (1, schedule(10.0, 10.0))]);
        let report = FleetReport::build(&obs, &totals_for(&[40.0, 20.0]));
        // Sample: max 30 / mean 20 = 1.5; Transfer: max 10 / mean 10 = 1.
        let sample = report
            .stage_imbalance
            .iter()
            .find(|(s, _)| *s == Stage::Sample)
            .expect("sample stage present");
        assert!((sample.1 - 1.5).abs() < 1e-9, "{}", sample.1);
        let transfer = report
            .stage_imbalance
            .iter()
            .find(|(s, _)| *s == Stage::Transfer)
            .expect("transfer stage present");
        assert!((transfer.1 - 1.0).abs() < 1e-9, "{}", transfer.1);
        assert_eq!(report.worst_imbalance.expect("worst").0, Stage::Sample);
        // Busy imbalance: max 40 / mean 30.
        assert!((report.busy_imbalance - 40.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn single_worker_report_has_no_imbalance_and_renders() {
        let mut obs = FleetObserver::new();
        obs.observe_batch(0, &[(0, schedule(10.0, 5.0))]);
        let report = FleetReport::build(&obs, &totals_for(&[15.0]));
        assert!(report.stage_imbalance.is_empty());
        assert!((report.busy_imbalance - 1.0).abs() < 1e-12);
        let text = render(&report);
        assert!(
            text.contains("fleet health: 1 workers, 1 batches"),
            "{text}"
        );
        assert!(text.contains("single worker"), "{text}");
    }

    #[test]
    fn dead_workers_render_but_do_not_skew_imbalance() {
        let mut obs = FleetObserver::new();
        obs.observe_batch(0, &[(0, schedule(10.0, 5.0)), (1, schedule(10.0, 5.0))]);
        // Worker 2 never executed.
        let report = FleetReport::build(&obs, &totals_for(&[15.0, 15.0, 0.0]));
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers[2].busy_frac, 0.0);
        for (_, ratio) in &report.stage_imbalance {
            assert!((*ratio - 1.0).abs() < 1e-9, "balanced pair: {ratio}");
        }
        let text = render(&report);
        assert!(text.contains("worker 2"), "{text}");
        assert!(text.contains("across 2 executing workers"), "{text}");
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let mut obs = FleetObserver::new();
        let faults = ActiveFaults {
            faults: vec![FaultKind::StragglerCore {
                core: 0,
                factor: 8.0,
            }],
        };
        let mut sim = Simulator::new(1);
        sim.add(TaskSpec::new(
            "S1 c0",
            Resource::HostCore,
            10.0,
            Phase::Sampling,
        ));
        let slow = sim.run_with_faults(&faults);
        obs.observe_batch(0, &[(0, schedule(10.0, 5.0)), (1, slow)]);
        let totals = totals_for(&[15.0, 80.0]);
        let report = FleetReport::build(&obs, &totals);
        let a = render(&report);
        let b = render(&FleetReport::build(&obs, &totals));
        assert_eq!(a, b);
        assert!(a.contains("collective 100.0 µs (10.0% of clock)"), "{a}");
        assert!(a.contains("straggler attribution"), "{a}");
    }
}
