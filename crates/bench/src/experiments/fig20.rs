//! Fig 20 — preprocessing timeline: fraction of sampled nodes processed by
//! each stage over time, Dynamic-GT (serialized) vs Prepro-GT (pipelined).
//!
//! Paper: Prepro-GT's sampling/reindexing complete *later* (they share
//! cores with other subtasks) but lookup completes 14.9% earlier and
//! transfers 48.5% earlier, cutting the preprocessing makespan by 48.5%.

use crate::runner::{pct, print_table, ExpConfig};
use gt_core::prepro::sample_and_reindex;
use gt_core::scheduler::{schedule_prepro, PreproStrategy};
use gt_par::ThreadPool;
use gt_sim::{Phase, SystemSpec, Timeline};

/// Timelines of one dataset under both schedules.
#[derive(Debug)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Serialized (Dynamic-GT) timeline.
    pub serial: Timeline,
    /// Pipelined (Prepro-GT) timeline.
    pub pipelined: Timeline,
    /// Serialized makespan (µs).
    pub serial_us: f64,
    /// Pipelined makespan (µs).
    pub pipelined_us: f64,
}

const STAGES: [Phase; 4] = [
    Phase::Sampling,
    Phase::Reindex,
    Phase::Lookup,
    Phase::Transfer,
];

/// Measure timelines for the two representative workloads.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let sys = SystemSpec::paper_testbed();
    let mut rows = Vec::new();
    for name in ["products", "wiki-talk"] {
        let spec = gt_datasets::by_name(name).unwrap();
        let data = cfg.build(&spec);
        let batch = cfg.batch_ids(&data);
        let pr = sample_and_reindex(&data, &batch, &cfg.sampler(), ThreadPool::global());
        let serial = schedule_prepro(&pr.work, &sys, PreproStrategy::Serial);
        let pipelined = schedule_prepro(&pr.work, &sys, PreproStrategy::PipelinedRelaxed);
        rows.push(Row {
            dataset: name.to_string(),
            serial_us: serial.makespan_us,
            pipelined_us: pipelined.makespan_us,
            serial: Timeline::from_schedule(&serial, &STAGES),
            pipelined: Timeline::from_schedule(&pipelined, &STAGES),
        });
    }
    rows
}

/// Print stage-completion times and the pipelining gains.
pub fn print(cfg: &ExpConfig) {
    let rows = run(cfg);
    let mut table = Vec::new();
    for r in &rows {
        for p in STAGES {
            let s = r.serial.finish_us(p).unwrap_or(0.0);
            let q = r.pipelined.finish_us(p).unwrap_or(0.0);
            table.push(vec![
                r.dataset.clone(),
                p.label().to_string(),
                format!("{s:.0}us"),
                format!("{q:.0}us"),
                pct(1.0 - q / s.max(1e-9)),
            ]);
        }
        table.push(vec![
            r.dataset.clone(),
            "TOTAL".into(),
            format!("{:.0}us", r.serial_us),
            format!("{:.0}us", r.pipelined_us),
            pct(1.0 - r.pipelined_us / r.serial_us),
        ]);
    }
    print_table(
        "Fig 20: stage completion times, serial vs pipelined (paper: lookup −14.9%, transfer −48.5%)",
        &["dataset", "stage", "Dynamic-GT", "Prepro-GT", "earlier by"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_finishes_transfers_earlier() {
        let mut cfg = ExpConfig::test();
        cfg.batch = 120;
        for r in run(&cfg) {
            let st = r.serial.finish_us(Phase::Transfer).unwrap();
            let pt = r.pipelined.finish_us(Phase::Transfer).unwrap();
            assert!(
                pt < st,
                "{}: pipelined transfer {} !< serial {}",
                r.dataset,
                pt,
                st
            );
            assert!(r.pipelined_us < r.serial_us);
        }
    }

    #[test]
    fn curves_are_monotone() {
        let cfg = ExpConfig::test();
        for r in run(&cfg) {
            for (_, pts) in r.pipelined.curves() {
                assert!(pts.windows(2).all(|w| w[0].fraction <= w[1].fraction));
            }
        }
    }
}
