//! Acceptance test for gt-profile against real preprocessing schedules:
//! the pipelined-relaxed strategy must show strictly lower idle (bubble)
//! percentage than the serial one on the same measured work.

use gt_core::data::GraphData;
use gt_core::prepro::sample_and_reindex;
use gt_core::scheduler::{build_prepro_sim, PreproStrategy};
use gt_par::ThreadPool;
use gt_profile::BubbleReport;
use gt_sample::SamplerConfig;
use gt_sim::SystemSpec;

#[test]
fn pipelined_relaxed_has_strictly_fewer_bubbles_than_serial() {
    // Large enough that transfers and sampling dominate chunk overheads
    // (same shape as the trainer's pipelining test).
    let d = GraphData::synthetic(2000, 40_000, 256, 4, 3);
    let cfg = SamplerConfig {
        fanout: 10,
        layers: 2,
        seed: 11,
        ..Default::default()
    };
    let batch: Vec<_> = (0..300).collect();
    let work = sample_and_reindex(&d, &batch, &cfg, ThreadPool::global()).work;
    let sys = SystemSpec::tiny();
    let bubbles = |strategy| {
        let sim = build_prepro_sim(&work, &sys, strategy);
        BubbleReport::from_schedule(&sim.run(), sim.host_cores())
    };

    let serial = bubbles(PreproStrategy::Serial);
    let relaxed = bubbles(PreproStrategy::PipelinedRelaxed);
    assert!(
        relaxed.makespan_us < serial.makespan_us,
        "relaxed {} !< serial {}",
        relaxed.makespan_us,
        serial.makespan_us
    );
    let (si, ri) = (serial.idle_pct(), relaxed.idle_pct());
    assert!(
        ri < si,
        "pipelined idle {ri:.1}% not strictly below serial idle {si:.1}%"
    );
}
