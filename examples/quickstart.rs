//! Quickstart: train a 2-layer GCN with the full GraphTensor stack
//! (Prepro-GT: NAPA kernels + dynamic kernel placement + service-wide
//! tensor scheduling) on a synthetic node-classification workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graphtensor::prelude::*;

fn main() {
    // A learnable synthetic graph: 2 000 vertices, 2 classes whose labels
    // leak into the features.
    let data = GraphData::synthetic_learnable(2_000, 24_000, 32, 2, 7);
    println!(
        "dataset: {} vertices, {} edges, {} features, {} classes",
        data.num_vertices(),
        data.graph.num_edges(),
        data.feature_dim(),
        data.num_classes
    );

    // Prepro-GT = the complete system of the paper.
    let mut trainer = GraphTensor::new(
        GtVariant::Prepro,
        ModelConfig::gcn(2, PAPER_HIDDEN, data.num_classes),
        SystemSpec::paper_testbed(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 1,
        ..Default::default()
    };
    trainer.lr = 0.3;

    let losses = train_epochs(&mut trainer, &data, 8, 100, 3);
    for (e, l) in losses.iter().enumerate() {
        println!("epoch {:>2}: mean loss {l:.4}", e + 1);
    }

    let eval: Vec<u32> = (0..500).collect();
    let acc = evaluate(&mut trainer, &data, &eval);
    println!("accuracy on 500 held-in nodes: {:.1}%", acc * 100.0);

    let (af, cf) = trainer.dkp_decisions();
    println!("DKP decisions: {af} aggregation-first, {cf} combination-first");
    if let Some(err) = trainer.cost_model().fit_error() {
        println!(
            "DKP cost-model fit error: {:.1}% (paper: 12.5%)",
            err * 100.0
        );
    }
}
