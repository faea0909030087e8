//! End-to-end pin of the edge-weighted trainer path. The digests below were
//! recorded with the trainer building `NeighborApply → Pull(x, w)` as two
//! DFG nodes that materialise the `E×F` edge matrix; the host now fuses the
//! two, and every loss bit, modeled microsecond, device-memory peak,
//! parameter bit and inference output has to stay what it was.

use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::data::GraphData;
use gt_core::framework::Framework;
use gt_core::trainer::{GraphTensor, GtVariant};
use gt_graph::VId;
use gt_sample::SamplerConfig;
use gt_sim::SystemSpec;
use gt_telemetry::fnv1a;

fn f32_bytes(vs: &[f32]) -> impl Iterator<Item = u8> + '_ {
    vs.iter().flat_map(|v| v.to_bits().to_le_bytes())
}

/// Six `train_batch` calls plus one `infer_batch`, folded into one FNV-1a.
fn digest(model: ModelConfig, variant: GtVariant) -> u64 {
    // Layer 0 spans several 64-row pool chunks at this size.
    let data = GraphData::synthetic(600, 6000, 24, 4, 3);
    let layers = model.layers;
    let mut t = GraphTensor::new(variant, model, SystemSpec::tiny());
    t.sampler = SamplerConfig {
        fanout: 4,
        layers,
        seed: 11,
        ..Default::default()
    };
    let mut bytes = Vec::new();
    for i in 0..6u32 {
        let batch: Vec<VId> = (i * 32..i * 32 + 32).collect();
        let r = t.train_batch(&data, &batch);
        assert!(r.loss.is_finite(), "batch {i}: loss {}", r.loss);
        bytes.extend(r.loss.to_bits().to_le_bytes());
        bytes.extend(r.e2e_us(true).to_bits().to_le_bytes());
        bytes.extend(r.sim.memory.peak().to_le_bytes());
    }
    let mut names: Vec<String> = t.params().names().map(str::to_string).collect();
    names.sort();
    for name in &names {
        bytes.extend(name.as_bytes());
        bytes.extend(f32_bytes(t.params().get(name).data()));
    }
    let batch: Vec<VId> = (300..332).collect();
    bytes.extend(f32_bytes(t.infer_batch(&data, &batch).data()));
    fnv1a(bytes)
}

#[test]
fn edge_weighted_training_is_pinned_end_to_end() {
    // Recorded at the parent of the host-side NeighborApply→Pull fusion.
    let expected: [(&str, usize, GtVariant, u64); 8] = [
        ("ngcf", 2, GtVariant::Prepro, 0x8e81_abac_a685_5fa9),
        ("ngcf", 2, GtVariant::Base, 0xd242_176a_f0d1_cfcb),
        ("ngcf", 3, GtVariant::Prepro, 0xe93e_eb3f_5eb9_f28b),
        ("ngcf", 3, GtVariant::Base, 0x6a8c_d3b1_04f4_1858),
        ("gat_lite", 2, GtVariant::Prepro, 0x07c8_b29c_31c7_ff15),
        ("gat_lite", 2, GtVariant::Base, 0x47b2_824a_7673_9e97),
        ("gat_lite", 3, GtVariant::Prepro, 0x7abc_ee63_4602_6d91),
        ("gat_lite", 3, GtVariant::Base, 0x7084_8d03_fa73_e01e),
    ];
    let all: Vec<u64> = expected
        .iter()
        .map(|&(preset, layers, variant, _)| {
            let model = match preset {
                "ngcf" => ModelConfig::ngcf(layers, PAPER_HIDDEN, 4),
                _ => ModelConfig::gat_lite(layers, PAPER_HIDDEN, 4),
            };
            digest(model, variant)
        })
        .collect();
    for (&(preset, layers, variant, want), &got) in expected.iter().zip(&all) {
        assert_eq!(
            got, want,
            "{preset} x{layers} {variant:?}: digest {got:#018x}, pinned {want:#018x} (all: {all:#018x?})"
        );
    }
}
