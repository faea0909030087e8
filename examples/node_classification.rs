//! Node classification on a citation-style graph (the GCN workload the
//! paper's intro motivates): train/test split, per-epoch accuracy, and a
//! comparison of sampled-minibatch training against pure inference cost.
//!
//! ```sh
//! cargo run --release --example node_classification
//! ```

use graphtensor::graph::generators;
use graphtensor::graph::EmbeddingTable;
use graphtensor::prelude::*;

fn main() {
    // Citation-like power-law graph with community-correlated labels:
    // label = community id, features carry a noisy community signature.
    let n = 3_000;
    let classes = 4;
    let coo = generators::rmat(n, 36_000, 17);
    let (graph, _) = graphtensor::graph::convert::coo_to_csr(&coo);
    let mut features = EmbeddingTable::random(n, 32, 23);
    let labels: Vec<usize> = (0..n).map(|v| v % classes).collect();
    for (v, &label) in labels.iter().enumerate() {
        features.row_mut(v as u32)[label] += 5.0;
    }
    let data = GraphData::new(graph, features, labels, classes);

    // 80/20 train/test split over vertex ids.
    let split = (n * 4) / 5;
    let train_seeds: Vec<u32> = (0..split as u32).collect();
    let test_seeds: Vec<u32> = (split as u32..n as u32).collect();

    let mut trainer = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, PAPER_HIDDEN, classes),
        SystemSpec::paper_testbed(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 3,
        layers: 2,
        seed: 31,
        ..Default::default()
    };
    trainer.lr = 0.3;

    println!("{:<8} {:>10} {:>12}", "epoch", "loss", "test acc");
    for epoch in 1..=6 {
        let mut sum = 0.0;
        let mut batches = 0;
        for b in BatchIter::from_seeds(train_seeds.clone(), 150, epoch as u64) {
            sum += trainer.train_batch(&data, &b).loss;
            batches += 1;
        }
        let acc = evaluate(&mut trainer, &data, &test_seeds);
        println!(
            "{:<8} {:>10.4} {:>11.1}%",
            epoch,
            sum / batches as f32,
            acc * 100.0
        );
    }

    let final_acc = evaluate(&mut trainer, &data, &test_seeds);
    println!(
        "\nfinal test accuracy: {:.1}% over {} held-out vertices (chance {:.0}%)",
        final_acc * 100.0,
        test_seeds.len(),
        100.0 / classes as f64
    );

    // Checkpoint the trained parameters and restore them into a fresh
    // trainer — accuracy must be identical.
    let path = std::env::temp_dir().join("gcn_citation.gt");
    graphtensor::tensor::checkpoint::save_file(trainer.params(), &path).unwrap();
    let restored = graphtensor::tensor::checkpoint::load_file(&path).unwrap();
    let mut served = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, PAPER_HIDDEN, classes),
        SystemSpec::paper_testbed(),
    );
    served.sampler = trainer.sampler.clone();
    served.set_params(restored);
    let served_acc = evaluate(&mut served, &data, &test_seeds);
    println!(
        "restored-from-checkpoint accuracy: {:.1}% ({})",
        served_acc * 100.0,
        path.display()
    );
    std::fs::remove_file(&path).ok();
}
