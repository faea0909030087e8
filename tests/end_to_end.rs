//! Cross-crate integration tests: the full stack from dataset generation
//! through preprocessing, every framework's training path, and the claims
//! that bind them together.

use graphtensor::prelude::*;
use graphtensor::sim::Phase;

fn sampler() -> SamplerConfig {
    SamplerConfig {
        fanout: 5,
        layers: 2,
        seed: 77,
        ..Default::default()
    }
}

/// Every framework trains the same batch to the same loss — the substrate
/// guarantees numerics are strategy-independent.
#[test]
fn all_eight_frameworks_agree_numerically() {
    let data = GraphData::synthetic(400, 4000, 24, 4, 5);
    let batch: Vec<u32> = (0..50).collect();
    let model = ModelConfig::gcn(2, PAPER_HIDDEN, 4);

    let mut reference = GraphTensor::new(GtVariant::Base, model.clone(), SystemSpec::tiny());
    reference.sampler = sampler();
    let want = reference.train_batch(&data, &batch).loss;

    for kind in [
        BaselineKind::Pyg,
        BaselineKind::PygMt,
        BaselineKind::Dgl,
        BaselineKind::GnnAdvisor,
        BaselineKind::Salient,
    ] {
        let mut b = Baseline::new(kind, model.clone(), SystemSpec::tiny());
        b.sampler = sampler();
        let got = b.train_batch(&data, &batch).loss;
        assert!((got - want).abs() < 1e-5, "{kind:?}: {got} != {want}");
    }
    for variant in [GtVariant::Dynamic, GtVariant::Prepro] {
        let mut t = GraphTensor::new(variant, model.clone(), SystemSpec::tiny());
        t.sampler = sampler();
        let got = t.train_batch(&data, &batch).loss;
        assert!((got - want).abs() < 1e-4, "{variant:?}: {got} != {want}");
    }
}

/// Training is deterministic end to end: same seeds → identical losses.
#[test]
fn training_is_bit_reproducible() {
    let run = || {
        let data = GraphData::synthetic(300, 3000, 16, 3, 9);
        let mut t = GraphTensor::new(
            GtVariant::Prepro,
            ModelConfig::gcn(2, PAPER_HIDDEN, 3),
            SystemSpec::tiny(),
        );
        t.sampler = sampler();
        let mut losses = Vec::new();
        for b in BatchIter::new(300, 60, 1) {
            losses.push(t.train_batch(&data, &b).loss);
        }
        losses
    };
    assert_eq!(run(), run());
}

/// The three GraphTensor variants keep their paper-ordering on a
/// heavy-feature workload: Dynamic ≤ Base GPU time; Prepro ≤ Dynamic
/// preprocessing time.
#[test]
fn variant_ordering_on_heavy_features() {
    let spec = gt_datasets::by_name("gowalla").unwrap();
    let data = spec.build(Scale::Test, 5);
    let batch: Vec<u32> = (0..60.min(data.num_vertices() as u32)).collect();
    let model = ModelConfig::gcn(2, PAPER_HIDDEN, spec.out_dim);

    let mut base = GraphTensor::new(GtVariant::Base, model.clone(), SystemSpec::paper_testbed());
    base.sampler = sampler();
    let rb = base.train_batch(&data, &batch);

    let mut dynamic = GraphTensor::new(
        GtVariant::Dynamic,
        model.clone(),
        SystemSpec::paper_testbed(),
    );
    dynamic.sampler = sampler();
    for _ in 0..3 {
        dynamic.train_batch(&data, &batch);
    }
    let rd = dynamic.train_batch(&data, &batch);

    let mut prepro = GraphTensor::new(
        GtVariant::Prepro,
        model.clone(),
        SystemSpec::paper_testbed(),
    );
    prepro.sampler = sampler();
    for _ in 0..3 {
        prepro.train_batch(&data, &batch);
    }
    let rp = prepro.train_batch(&data, &batch);

    assert!(
        rd.gpu_us() <= rb.gpu_us() * 1.01,
        "Dynamic {} > Base {}",
        rd.gpu_us(),
        rb.gpu_us()
    );
    assert!(
        rp.prepro_us() <= rd.prepro_us(),
        "Prepro {} > Dynamic {}",
        rp.prepro_us(),
        rd.prepro_us()
    );
}

/// NAPA's headline property: zero bytes of sparse→dense conversion and
/// format translation, on both models.
#[test]
fn napa_has_no_conversion_overhead() {
    let data = GraphData::synthetic(300, 3000, 16, 2, 1);
    let batch: Vec<u32> = (0..40).collect();
    for model in [
        ModelConfig::gcn(2, PAPER_HIDDEN, 2),
        ModelConfig::ngcf(2, PAPER_HIDDEN, 2),
    ] {
        let mut t = GraphTensor::new(GtVariant::Base, model, SystemSpec::tiny());
        t.sampler = sampler();
        let r = t.train_batch(&data, &batch);
        assert_eq!(r.phase_us(Phase::Sparse2Dense), 0.0);
        assert_eq!(r.phase_us(Phase::FormatTranslation), 0.0);
        assert_eq!(r.sim.phase_stats(Phase::Sparse2Dense).alloc_bytes, 0);
    }
}

/// Dataset recipes × frameworks: one batch of every Table-II workload
/// trains without panics or NaNs on the full system.
#[test]
fn every_dataset_trains_one_batch() {
    for spec in gt_datasets::registry() {
        let data = spec.build(Scale::Test, 3);
        let n = 30.min(data.num_vertices());
        let batch: Vec<u32> = (0..n as u32).collect();
        let mut t = GraphTensor::new(
            GtVariant::Prepro,
            ModelConfig::gcn(2, PAPER_HIDDEN, spec.out_dim),
            SystemSpec::paper_testbed(),
        );
        t.sampler = sampler();
        let r = t.train_batch(&data, &batch);
        assert!(r.loss.is_finite(), "{}: loss {}", spec.name, r.loss);
        assert!(r.gpu_us() > 0.0, "{}", spec.name);
        assert!(r.prepro_us() > 0.0, "{}", spec.name);
    }
}

/// The umbrella prelude is sufficient for the README quickstart.
#[test]
fn prelude_quickstart_compiles_and_learns() {
    let data = GraphData::synthetic_learnable(300, 2400, 16, 2, 7);
    let mut trainer = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, PAPER_HIDDEN, data.num_classes),
        SystemSpec::tiny(),
    );
    trainer.sampler.fanout = 3;
    trainer.lr = 0.3;
    let losses = train_epochs(&mut trainer, &data, 5, 50, 1);
    assert!(losses.last().unwrap() < &losses[0]);
}

/// Checkpoint round-trip: a restored trainer scores batches identically.
#[test]
fn checkpoint_restore_preserves_predictions() {
    let data = GraphData::synthetic_learnable(200, 1600, 8, 2, 5);
    let mut t = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, PAPER_HIDDEN, 2),
        SystemSpec::tiny(),
    );
    t.sampler = sampler();
    t.lr = 0.3;
    for b in BatchIter::new(200, 40, 1) {
        t.train_batch(&data, &b);
    }
    let mut buf = Vec::new();
    graphtensor::tensor::checkpoint::save(t.params(), &mut buf).unwrap();
    let restored = graphtensor::tensor::checkpoint::load(buf.as_slice()).unwrap();
    let mut served = GraphTensor::new(
        GtVariant::Dynamic,
        ModelConfig::gcn(2, PAPER_HIDDEN, 2),
        SystemSpec::tiny(),
    );
    served.sampler = sampler();
    served.set_params(restored);
    let eval: Vec<u32> = (0..80).collect();
    let a = evaluate(&mut t, &data, &eval);
    let b = evaluate(&mut served, &data, &eval);
    assert!(
        (a - b).abs() < 1e-9,
        "restored accuracy {b} != original {a}"
    );
}
