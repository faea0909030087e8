//! Facade-level tests of the modeling substrate: device specs, preprocessing
//! schedules, and the invariants the evaluation figures rely on.

use graphtensor::core::prepro::run_prepro;
use graphtensor::core::scheduler::schedule_prepro;
use graphtensor::prelude::*;
use graphtensor::sim::{DeviceSpec, Phase};

fn prepro_work() -> graphtensor::core::prepro::PreproWork {
    let data = GraphData::synthetic(2_000, 30_000, 128, 4, 9);
    let batch: Vec<u32> = (0..200).collect();
    run_prepro(
        &data,
        &batch,
        &SamplerConfig {
            fanout: 10,
            layers: 2,
            seed: 4,
            ..Default::default()
        },
    )
    .work
}

/// The four strategies keep their paper ordering on a realistic batch:
/// relaxed-pipelined ≤ naive-pipelined and ≤ serial; pinned ≤ pageable.
#[test]
fn strategy_ordering() {
    let work = prepro_work();
    let sys = SystemSpec::paper_testbed();
    let serial = schedule_prepro(&work, &sys, PreproStrategy::Serial).makespan_us;
    let pinned = schedule_prepro(&work, &sys, PreproStrategy::SerialPinned).makespan_us;
    let naive = schedule_prepro(&work, &sys, PreproStrategy::Pipelined).makespan_us;
    let relaxed = schedule_prepro(&work, &sys, PreproStrategy::PipelinedRelaxed).makespan_us;
    assert!(pinned <= serial, "pinned {pinned} > pageable {serial}");
    assert!(relaxed <= naive, "relaxed {relaxed} > naive {naive}");
    assert!(relaxed <= serial, "relaxed {relaxed} > serial {serial}");
}

/// More host cores never slow preprocessing down, under any strategy.
#[test]
fn host_cores_monotone() {
    let work = prepro_work();
    for strategy in [
        PreproStrategy::Serial,
        PreproStrategy::Pipelined,
        PreproStrategy::PipelinedRelaxed,
    ] {
        let mut sys = SystemSpec::paper_testbed();
        sys.host.cores = 2;
        let few = schedule_prepro(&work, &sys, strategy).makespan_us;
        sys.host.cores = 24;
        let many = schedule_prepro(&work, &sys, strategy).makespan_us;
        assert!(
            many <= few + 1e-6,
            "{strategy:?}: 24 cores ({many}) slower than 2 ({few})"
        );
    }
}

/// A faster PCIe link shortens every schedule's transfer phase.
#[test]
fn pcie_bandwidth_matters() {
    let work = prepro_work();
    let mut sys = SystemSpec::paper_testbed();
    let slow = schedule_prepro(&work, &sys, PreproStrategy::SerialPinned);
    sys.pcie.pinned_bandwidth *= 4.0;
    let fast = schedule_prepro(&work, &sys, PreproStrategy::SerialPinned);
    assert!(fast.phase_busy_us(Phase::Transfer) < slow.phase_busy_us(Phase::Transfer));
}

/// Device presets stay self-consistent.
#[test]
fn device_presets() {
    for dev in [
        DeviceSpec::rtx3090(),
        DeviceSpec::a100(),
        DeviceSpec::tiny(),
    ] {
        assert!(dev.num_sms > 0);
        assert!(dev.effective_bw_per_us(false) > dev.effective_bw_per_us(true));
        assert!(dev.device_mem_bytes > 0);
    }
    // The A100 out-bandwidths the 3090; the 3090 out-FLOPs the A100 (fp32).
    let (a, g) = (DeviceSpec::a100(), DeviceSpec::rtx3090());
    assert!(a.mem_bandwidth > g.mem_bandwidth);
    assert!(g.peak_flops > a.peak_flops);
}

/// The modeled batch report stays internally consistent across frameworks.
#[test]
fn batch_report_consistency() {
    let data = GraphData::synthetic(500, 6000, 32, 4, 9);
    let batch: Vec<u32> = (0..80).collect();
    let mut t = GraphTensor::new(
        GtVariant::Prepro,
        ModelConfig::gcn(2, PAPER_HIDDEN, 4),
        SystemSpec::paper_testbed(),
    );
    t.sampler = SamplerConfig {
        fanout: 8,
        layers: 2,
        seed: 6,
        ..Default::default()
    };
    let r = t.train_batch(&data, &batch);
    // Decomposition sums to the total.
    let total: f64 = r.sim.decomposition().iter().map(|(_, us)| us).sum();
    assert!((total - r.sim.total_us()).abs() < 1e-6);
    // GPU time covers every non-prepro phase.
    assert!(r.gpu_us() <= r.sim.total_us() + 1e-9);
    // Peak memory at least covers the gathered features.
    assert!(r.sim.memory.peak() >= (r.num_nodes * data.feature_dim() * 4) as u64);
}
