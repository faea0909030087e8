//! Tensor substrate for GraphTensor-RS.
//!
//! GraphTensor is built on TensorFlow (§VI); this crate supplies the pieces
//! of that substrate the framework actually uses:
//!
//! * [`dense`] — row-major `f32` matrices and the MLP kernels (`matmul`,
//!   bias, ReLU) that implement *combination*;
//! * [`sparse`] — reference SpMM/SDDMM used as correctness oracles for the
//!   scheduling-aware kernels in `gt-core` and `gt-baselines`;
//! * [`dfg`] — a dataflow graph with reverse-mode autodiff, the structure
//!   the kernel orchestrator's Dynamic Kernel Placement rewrites (§V-A);
//! * [`lstsq`](mod@lstsq) — the least-squares estimator DKP uses to fit its cost-model
//!   coefficients (Table I);
//! * [`loss`], [`init`], [`optim`] — losses, weight initialization, and
//!   optimizers (SGD / momentum / Adam, gradient clipping).

pub mod chaosio;
pub mod checkpoint;
pub mod crc32;
pub mod dense;
pub mod dfg;
pub mod error;
pub mod init;
pub mod loss;
pub mod lstsq;
pub mod optim;
pub mod sparse;

pub use dense::Matrix;
pub use dfg::{Dfg, ExecCtx, NodeId, Op, ParamStore};
pub use error::TensorError;
pub use lstsq::{lstsq, try_lstsq};
