//! The sampler's two phases show up as spans on the process-wide telemetry
//! handle: `sample.A` on every worker that maps frontier chunks and one
//! `sample.H` per hop on `cpu-worker-0`, the calling worker that folds
//! them. Installing a recording global is a process-wide act, so this file
//! holds this one test.

use gt_graph::convert::coo_to_csr;
use gt_graph::generators::erdos_renyi;
use gt_graph::VId;
use gt_par::ThreadPool;
use gt_sample::{try_sample_batch_with_pool, SamplerConfig};
use gt_telemetry::Telemetry;

#[test]
fn a_two_hop_batch_records_sample_a_and_sample_h_spans() {
    let telemetry = Telemetry::recording();
    assert!(gt_telemetry::set_global(telemetry.clone()));
    let graph = coo_to_csr(&erdos_renyi(2000, 20_000, 17)).0;
    let batch: Vec<VId> = (0..300).collect();
    let cfg = SamplerConfig {
        fanout: 6,
        layers: 2,
        seed: 3,
        ..Default::default()
    };
    for width in [1, 2] {
        let before = telemetry.spans().len();
        try_sample_batch_with_pool(&graph, &batch, &cfg, &ThreadPool::new(width)).unwrap();
        let spans = &telemetry.spans()[before..];
        let h: Vec<_> = spans.iter().filter(|s| s.name == "sample.H").collect();
        assert_eq!(h.len(), 2, "one sample.H per hop at width {width}");
        assert!(h.iter().all(|s| s.track == "cpu-worker-0"));
        assert!(
            spans.iter().any(|s| s.name == "sample.A"),
            "no sample.A span at width {width}"
        );
    }
}
