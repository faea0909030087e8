//! Framework shoot-out: train the same GCN batch under every framework
//! strategy (PyG, DGL, GNNAdvisor, SALIENT, Base/Dynamic/Prepro-GT) and
//! compare modeled GPU latency, end-to-end latency, memory footprint, and
//! cache traffic — a miniature of the paper's whole evaluation.
//!
//! ```sh
//! cargo run --release --example framework_comparison
//! ```

use graphtensor::prelude::*;

fn main() {
    let spec = gt_datasets::by_name("reddit2").unwrap();
    let data = spec.build(Scale::Test, 42);
    let batch: Vec<u32> = (0..100).collect();
    let sampler = SamplerConfig {
        fanout: 8,
        layers: 2,
        seed: 9,
        ..Default::default()
    };
    let model = ModelConfig::gcn(2, PAPER_HIDDEN, data.num_classes);

    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}  table-III",
        "framework", "gpu us", "e2e us", "peak MB", "cache MB"
    );

    let show = |name: String, report: BatchReport, overlap: bool, traits_row: String| {
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>12.2} {:>12.2}  {}",
            name,
            report.gpu_us(),
            report.e2e_us(overlap),
            report.sim.memory.peak() as f64 / 1e6,
            report.sim.total_stats().cache_loaded_bytes as f64 / 1e6,
            traits_row,
        );
    };

    for kind in [
        BaselineKind::Pyg,
        BaselineKind::PygMt,
        BaselineKind::Dgl,
        BaselineKind::GnnAdvisor,
        BaselineKind::Salient,
    ] {
        let mut b = Baseline::new(kind, model.clone(), SystemSpec::paper_testbed());
        b.sampler = sampler.clone();
        let overlap = b.overlaps_batches();
        let t = b.traits();
        let r = b.train_batch(&data, &batch);
        show(
            b.name(),
            r,
            overlap,
            format!(
                "fmt={} bloat={} trans={} cache={}",
                t.initial_format, t.memory_bloat, t.format_translation, t.cache_bloat
            ),
        );
    }

    for variant in [GtVariant::Base, GtVariant::Dynamic, GtVariant::Prepro] {
        let mut t = GraphTensor::new(variant, model.clone(), SystemSpec::paper_testbed());
        t.sampler = sampler.clone();
        let overlap = t.overlaps_batches();
        // Let Dynamic/Prepro calibrate their cost model first.
        for _ in 0..3 {
            t.train_batch(&data, &batch);
        }
        let tr = t.traits();
        let r = t.train_batch(&data, &batch);
        show(
            t.name(),
            r,
            overlap,
            format!(
                "fmt={} bloat={} trans={} cache={}",
                tr.initial_format, tr.memory_bloat, tr.format_translation, tr.cache_bloat
            ),
        );
    }

    println!("\nAll frameworks compute identical numerics; only their execution");
    println!("strategies differ — that is the paper's comparison methodology.");
}
