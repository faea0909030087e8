//! Pins the bit stream of the `rand`/`rand_distr` stand-ins the workspace
//! builds against (`[patch.crates-io]` in the root manifest). Every
//! committed baseline, digest and benchmark number describes this stream:
//! a build that resolves the published crates instead must fail here, and a
//! move of the generator in-tree can prove stream equality with this test.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Zipf};

#[test]
fn std_rng_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let raw: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
    assert_eq!(
        raw,
        [
            9117785511377587347,
            9906733653427507818,
            13926316448534596498,
            10368453133165174231
        ]
    );
    assert_eq!(rng.gen_range(0..10u32), 9);
    assert_eq!(rng.gen::<f32>().to_bits(), 0x3f1c_e031);
    let mut order: Vec<u32> = (0..8).collect();
    order.shuffle(&mut rng);
    assert_eq!(order, [6, 2, 0, 7, 5, 4, 3, 1]);
}

#[test]
fn zipf_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let zipf = Zipf::new(1000, 1.1).expect("valid parameters");
    let ranks: [f64; 4] = std::array::from_fn(|_| zipf.sample(&mut rng));
    assert_eq!(ranks, [12.0, 16.0, 90.0, 19.0]);
}

/// `gen::<f64>()` is the top 53 bits of `next_u64()` over 2^53, the
/// identity the R-MAT walk's integer thresholds rely on.
#[test]
fn gen_f64_is_top_53_bits_over_2_pow_53() {
    let mut floats = StdRng::seed_from_u64(9);
    let mut raw = floats.clone();
    for _ in 0..1000 {
        let want = (raw.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        assert_eq!(floats.gen::<f64>().to_bits(), want.to_bits());
    }
}
