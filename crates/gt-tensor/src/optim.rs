//! The update rule: stochastic gradient descent, as the paper trains (§II-A).

use crate::dfg::ParamStore;

/// SGD over a [`ParamStore`]: `w -= lr · g`.
#[derive(Debug)]
pub struct Optimizer {
    lr: f32,
}

impl Optimizer {
    /// Plain SGD with learning rate `lr`.
    pub fn sgd(lr: f32) -> Self {
        Optimizer { lr }
    }

    /// Apply one update step using the gradients accumulated in `params`.
    pub fn step(&mut self, params: &mut ParamStore) {
        params.sgd_step(self.lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::xavier;

    fn store_with_grads() -> ParamStore {
        let mut params = ParamStore::new();
        params.register("w", xavier(6, 5, 3));
        params.register("b", xavier(1, 5, 4));
        params.accumulate_grad("w", &xavier(6, 5, 7));
        params.accumulate_grad("b", &xavier(1, 5, 8));
        params
    }

    fn bits(params: &ParamStore, name: &str) -> Vec<u32> {
        params
            .get(name)
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn sgd_step_is_the_param_store_sgd_step() {
        let before = store_with_grads();
        let mut direct = store_with_grads();
        direct.sgd_step(0.05);
        let mut stepped = store_with_grads();
        Optimizer::sgd(0.05).step(&mut stepped);
        for name in ["w", "b"] {
            assert_eq!(bits(&stepped, name), bits(&direct, name), "{name}");
            assert_ne!(bits(&stepped, name), bits(&before, name), "{name} moved");
        }
    }
}
