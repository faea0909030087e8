//! Weight initialization.

use crate::dense::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialization: U(−√(6/(fan_in+fan_out)), +√(…)).
pub fn xavier(rows: usize, cols: usize, seed: u64) -> Matrix {
    let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let a = xavier(64, 32, 1);
        let b = xavier(64, 32, 1);
        assert_eq!(a, b);
        let bound = (6.0 / 96.0f64).sqrt() as f32;
        assert!(a.data().iter().all(|&x| x.abs() <= bound));
        // Values actually vary.
        assert!(a.data().iter().any(|&x| x != a.data()[0]));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(xavier(8, 8, 1), xavier(8, 8, 2));
    }
}
