//! Recommendation scenario: NGCF (neural graph collaborative filtering,
//! the paper's second evaluation model) on an amazon-like user–item
//! bipartite graph, with the edge-weighting path exercised end to end.
//!
//! ```sh
//! cargo run --release --example recommendation
//! ```

use graphtensor::prelude::*;
use graphtensor::sim::Phase;

fn main() {
    // Bipartite user–item interactions with Zipf item popularity, like the
    // paper's amazon/gowalla recommendation workloads.
    let spec = DatasetSpec {
        name: "amazon-demo",
        family: graphtensor::datasets::Family::Bipartite,
        vertices: 3_000,
        edges: 40_000,
        feature_dim: 64,
        out_dim: 2,
    };
    let data = spec.build(Scale::Custom(1), 11);
    println!(
        "user-item graph: {} vertices, {} interactions",
        data.num_vertices(),
        data.graph.num_edges()
    );

    let mut trainer = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::ngcf(2, PAPER_HIDDEN, data.num_classes),
        SystemSpec::paper_testbed(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 8,
        layers: 2,
        seed: 2,
        ..Default::default()
    };
    trainer.lr = 0.1;

    let losses = train_epochs(&mut trainer, &data, 4, 128, 5);
    for (e, l) in losses.iter().enumerate() {
        println!("epoch {:>2}: mean loss {l:.4}", e + 1);
    }

    // NGCF's similarity weighting runs in the NeighborApply kernel — show
    // the per-phase latency split of one batch.
    let batch: Vec<u32> = (0..128).collect();
    let report = trainer.train_batch(&data, &batch);
    println!("\nper-phase modeled GPU latency of one NGCF batch:");
    for phase in [Phase::EdgeWeighting, Phase::Aggregation, Phase::Combination] {
        println!("  {:<16} {:>9.1} us", phase.label(), report.phase_us(phase));
    }
    println!("  {:<16} {:>9.1} us total", "gpu", report.gpu_us());
    println!(
        "preprocessing: {:.1} us ({} sampled nodes, {} edges)",
        report.prepro_us(),
        report.num_nodes,
        report.num_edges
    );

    // The real recommendation objective: BPR ranking over (user, item+,
    // item−) triples, trained through the same NGCF pipeline.
    use graphtensor::core::recsys::{ranking_accuracy, sample_bpr_batch, train_bpr_batch};
    let num_users = 1_500; // the bipartite generator's user partition
    let mut ranker = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::ngcf(2, PAPER_HIDDEN, 32), // output = 32-dim embeddings scored by inner product
        SystemSpec::paper_testbed(),
    );
    ranker.sampler = SamplerConfig {
        fanout: 8,
        layers: 2,
        seed: 12,
        ..Default::default()
    };
    ranker.lr = 0.3;
    let eval = sample_bpr_batch(&data, num_users, 128, 4242);
    let before = ranking_accuracy(&mut ranker, &data, &eval);
    for step in 0..40 {
        let b = sample_bpr_batch(&data, num_users, 64, step);
        train_bpr_batch(&mut ranker, &data, &b);
    }
    let after = ranking_accuracy(&mut ranker, &data, &eval);
    println!(
        "\nBPR ranking accuracy on held-out triples: {:.1}% → {:.1}% after 40 steps",
        before * 100.0,
        after * 100.0
    );
}
