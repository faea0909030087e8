//! Model configuration: the `mode` variables of the NAPA programming model
//! (Fig 10 lines 2–3). A GNN is described by its aggregation function `f`,
//! optional edge weighting (`g`, `h`), layer count, and layer widths —
//! "users can simply apply different GNN models by reconfiguring the modes".

use gt_tensor::dense::Matrix;
use gt_tensor::dfg::ParamStore;
use gt_tensor::init::xavier;
pub use gt_tensor::sparse::{EdgeOp, Reduce};

/// The paper's hidden dimension for both models (§VI).
pub const PAPER_HIDDEN: usize = 64;

/// How edge weights are folded into the aggregation (`h` in §II-A): the
/// function "that transforms the embedding of each edge's src node using
/// g's output vector". NGCF adds the weight to the src embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HFn {
    /// Add the weight vector to the src embedding.
    Add,
}

/// Edge-weighting configuration (`g` + `h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeWeighting {
    /// Per-edge weight function over (src, dst) embeddings.
    pub g: EdgeOp,
    /// How the weight transforms the src embedding before aggregation.
    pub h: HFn,
}

/// A GNN model as NAPA mode settings plus layer dimensions.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Display name ("GCN", "NGCF").
    pub name: String,
    /// Number of GNN layers (= sampled hops).
    pub layers: usize,
    /// Hidden dimension of every layer but the last (64 in §VI).
    pub hidden: usize,
    /// Output dimension of the last layer (Table II "out dim").
    pub out_dim: usize,
    /// Aggregation function `f`.
    pub agg: Reduce,
    /// Edge weighting, if the model uses it (GCN: no; NGCF: yes).
    pub edge: Option<EdgeWeighting>,
}

impl ModelConfig {
    /// GCN (§VI): average-based aggregation, no edge weighting.
    pub fn gcn(layers: usize, hidden: usize, out_dim: usize) -> Self {
        ModelConfig {
            name: "GCN".into(),
            layers,
            hidden,
            out_dim,
            agg: Reduce::Mean,
            edge: None,
        }
    }

    /// NGCF (§VI): average-based aggregation with elementwise-product
    /// similarity weights folded in additively, matching NGCF's message
    /// m_{u←i} = e_i + e_i ⊙ e_u. Multiplying the weight in instead would
    /// make each message cubic in the (sub-unit) embeddings — e_i ⊙ e_i ⊙
    /// e_u — which collapses activations and gradients toward zero and
    /// freezes BPR training at ln 2.
    pub fn ngcf(layers: usize, hidden: usize, out_dim: usize) -> Self {
        ModelConfig {
            name: "NGCF".into(),
            layers,
            hidden,
            out_dim,
            agg: Reduce::Mean,
            edge: Some(EdgeWeighting {
                g: EdgeOp::ElemMul,
                h: HFn::Add,
            }),
        }
    }

    /// Width of layer `l`'s MLP output (hidden for all but the last layer).
    pub fn layer_out_dim(&self, l: usize) -> usize {
        if l + 1 == self.layers {
            self.out_dim
        } else {
            self.hidden
        }
    }

    /// Parameter names for layer `l`.
    pub fn weight_name(&self, l: usize) -> String {
        format!("{}/w{}", self.name, l)
    }

    /// Bias parameter name for layer `l`.
    pub fn bias_name(&self, l: usize) -> String {
        format!("{}/b{}", self.name, l)
    }

    /// Fresh parameters over `feature_dim`-wide input features: per layer a
    /// xavier weight (seed `0xC0FFEE + l`) and a zero bias — the one
    /// initialization GraphTensor and every baseline share.
    pub fn init_params(&self, feature_dim: usize) -> ParamStore {
        let mut params = ParamStore::new();
        let mut in_dim = feature_dim;
        for l in 0..self.layers {
            let out = self.layer_out_dim(l);
            params.register(
                self.weight_name(l),
                xavier(in_dim, out, 0xC0FFEE + l as u64),
            );
            params.register(self.bias_name(l), Matrix::zeros(1, out));
            in_dim = out;
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_has_no_edge_weighting() {
        let m = ModelConfig::gcn(2, 64, 10);
        assert!(m.edge.is_none());
        assert_eq!(m.agg, Reduce::Mean);
        assert_eq!(m.layer_out_dim(0), 64);
        assert_eq!(m.layer_out_dim(1), 10);
    }

    #[test]
    fn ngcf_weights_edges() {
        let m = ModelConfig::ngcf(2, 64, 2);
        let e = m.edge.unwrap();
        assert_eq!(e.g, EdgeOp::ElemMul);
        assert_eq!(e.h, HFn::Add);
    }

    #[test]
    fn parameter_names_are_distinct() {
        let m = ModelConfig::gcn(2, 64, 10);
        assert_ne!(m.weight_name(0), m.weight_name(1));
        assert_ne!(m.weight_name(0), m.bias_name(0));
    }
}
