//! Fig 14 — hash-table lock contention in naive pipelined preprocessing,
//! and its relaxation.
//!
//! With the subtask pipeline but naive locking, the paper attributes 47.4%
//! of preprocessing time to contention among S subtasks and 39.0% to S↔R
//! contention; splitting S into algorithm/hash parts and serializing only
//! the hash updates (Fig 14c) removes most of it.

use crate::runner::{pct, print_table, ExpConfig};
use gt_core::prepro::sample_and_reindex;
use gt_core::scheduler::{schedule_prepro, PreproStrategy};
use gt_par::ThreadPool;
use gt_sim::{Phase, SystemSpec};

/// Contention measurements for one dataset.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Naive pipeline: lock wait inside S subtasks / total busy time.
    pub s_contention: f64,
    /// Naive pipeline: lock wait of R subtasks (racing S) / total busy.
    pub sr_contention: f64,
    /// Naive pipelined makespan (µs).
    pub naive_us: f64,
    /// Relaxed pipelined makespan (µs).
    pub relaxed_us: f64,
}

/// Measure contention for every workload.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let sys = SystemSpec::paper_testbed();
    let mut rows = Vec::new();
    for spec in gt_datasets::registry() {
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        let pr = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global());
        let naive = schedule_prepro(&pr.work, &sys, PreproStrategy::Pipelined);
        let relaxed = schedule_prepro(&pr.work, &sys, PreproStrategy::PipelinedRelaxed);
        let busy: f64 = naive
            .events
            .iter()
            .map(|e| e.end_us - e.start_us + e.lock_wait_us)
            .sum();
        let s_wait: f64 = naive
            .events
            .iter()
            .filter(|e| e.phase == Phase::Sampling)
            .map(|e| e.lock_wait_us)
            .sum();
        let r_wait: f64 = naive
            .events
            .iter()
            .filter(|e| e.phase == Phase::Reindex)
            .map(|e| e.lock_wait_us)
            .sum();
        rows.push(Row {
            dataset: spec.name.to_string(),
            s_contention: s_wait / busy,
            sr_contention: r_wait / busy,
            naive_us: naive.makespan_us,
            relaxed_us: relaxed.makespan_us,
        });
    }
    rows
}

/// Print the contention analysis.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                pct(r.s_contention),
                pct(r.sr_contention),
                format!("{:.0}us", r.naive_us),
                format!("{:.0}us", r.relaxed_us),
                format!("{:.2}x", r.naive_us / r.relaxed_us),
            ]
        })
        .collect();
    print_table(
        "Fig 14: hash-table contention (paper: S-S 47.4%, S-R 39.0% of prepro time)",
        &[
            "dataset", "S-S wait", "S-R wait", "naive", "relaxed", "speedup",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_locking_shows_contention_relaxing_removes_it() {
        let mut cfg = ExpConfig::test();
        cfg.batch = 120; // contention needs enough sampled work per hop
        let rows = run(&cfg);
        for r in &rows {
            assert!(
                r.s_contention + r.sr_contention > 0.05,
                "{}: naive pipeline shows no contention ({} + {})",
                r.dataset,
                r.s_contention,
                r.sr_contention
            );
            assert!(
                r.relaxed_us <= r.naive_us,
                "{}: relaxed {} slower than naive {}",
                r.dataset,
                r.relaxed_us,
                r.naive_us
            );
        }
    }
}
