//! Service-wide tensor scheduling up close: take one batch's measured
//! preprocessing work and replay it under all four schedules (§V-B),
//! printing makespans, lock-contention time, and the Fig 20-style stage
//! completion timeline.
//!
//! ```sh
//! cargo run --release --example pipeline_tuning
//! ```

use graphtensor::core::prepro::{sample_and_reindex, ThreadPool};
use graphtensor::core::scheduler::schedule_prepro;
use graphtensor::prelude::*;
use graphtensor::sim::{Phase, Timeline};

fn main() {
    // A heavy-feature workload: preprocessing is lookup/transfer-bound.
    let spec = gt_datasets::by_name("wiki-talk").unwrap();
    let data = spec.build(Scale::Test, 3);
    let batch: Vec<u32> = (0..200.min(data.num_vertices() as u32)).collect();
    let sampler = SamplerConfig {
        fanout: 10,
        layers: 2,
        seed: 4,
        ..Default::default()
    };
    let pr = sample_and_reindex(&data, &batch, &sampler, ThreadPool::global());
    println!(
        "batch preprocessing work: {} nodes, {:.1} MB of embeddings to move",
        pr.work.total_nodes,
        pr.work.total_feature_bytes as f64 / 1e6
    );

    let sys = SystemSpec::paper_testbed();
    println!(
        "\n{:<18} {:>12} {:>14}",
        "strategy", "makespan us", "lock wait us"
    );
    for strategy in [
        PreproStrategy::Serial,
        PreproStrategy::SerialPinned,
        PreproStrategy::Pipelined,
        PreproStrategy::PipelinedRelaxed,
    ] {
        let s = schedule_prepro(&pr.work, &sys, strategy);
        println!(
            "{:<18} {:>12.0} {:>14.0}",
            format!("{strategy:?}"),
            s.makespan_us,
            s.total_lock_wait_us()
        );
    }

    // Fig 20-style timeline: stage completion under serial vs pipelined.
    let stages = [
        Phase::Sampling,
        Phase::Reindex,
        Phase::Lookup,
        Phase::Transfer,
    ];
    let serial = schedule_prepro(&pr.work, &sys, PreproStrategy::Serial);
    let pipelined = schedule_prepro(&pr.work, &sys, PreproStrategy::PipelinedRelaxed);
    let ts = Timeline::from_schedule(&serial, &stages);
    let tp = Timeline::from_schedule(&pipelined, &stages);
    println!("\nstage completion times (us):");
    println!("{:<12} {:>10} {:>10}", "stage", "serial", "pipelined");
    for p in stages {
        println!(
            "{:<12} {:>10.0} {:>10.0}",
            p.label(),
            ts.finish_us(p).unwrap_or(0.0),
            tp.finish_us(p).unwrap_or(0.0)
        );
    }
    println!(
        "\npipelining finishes the transfer {:.1}% earlier (paper: 48.5%)",
        (1.0 - tp.finish_us(Phase::Transfer).unwrap() / ts.finish_us(Phase::Transfer).unwrap())
            * 100.0
    );
}
