//! Fixtures shared by the serving-stack integration tests: one small
//! synthetic workload, one trainer configuration, one batch stream.
#![allow(dead_code)] // each test binary uses its own subset

use gt_core::{GraphData, GraphTensor, GtVariant, ModelConfig};
use gt_graph::VId;
use gt_sample::SamplerConfig;
use gt_sim::SystemSpec;
use std::path::PathBuf;

pub fn data() -> GraphData {
    GraphData::synthetic(300, 3000, 16, 4, 3)
}

pub fn trainer() -> GraphTensor {
    let mut t = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, 16, 4),
        SystemSpec::tiny(),
    );
    t.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 11,
        ..Default::default()
    };
    t
}

/// `n` disjoint clean batches of 16 vertices.
pub fn batches(n: usize) -> Vec<Vec<VId>> {
    (0..n)
        .map(|i| ((i * 16) as VId..(i * 16 + 16) as VId).collect())
        .collect()
}

/// [`batches`] with batch 2 replaced by a poison batch (duplicate ids →
/// quarantined), so journals carry a quarantine record too.
pub fn batches_with_poison(n: usize) -> Vec<Vec<VId>> {
    let mut all = batches(n);
    if let Some(b) = all.get_mut(2) {
        *b = vec![5, 5, 6];
    }
    all
}

/// A fresh, empty `gt_<suite>_<name>` directory under the system temp dir.
pub fn tmp_dir(suite: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt_{suite}_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
