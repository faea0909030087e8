//! Dataflow graph with reverse-mode autodiff.
//!
//! GraphTensor constructs a TensorFlow dataflow graph (DFG) per execution
//! and its kernel orchestrator rewrites the graph *before* delegation to the
//! device — "it is prohibited to change the execution sequence of delegated
//! kernels at the GPU-side", so the Pull→MatMul pair is replaced by a
//! Cost-DKP node at the host side (§V-A, Fig 11c). This module provides the
//! graph, execution (forward + backward with gradient accumulation into a
//! [`ParamStore`]), shape inference for the cost model, and the
//! [`Dfg::fuse_pair`] rewrite primitive the orchestrator uses.
//!
//! Ops charge their own work to the [`gt_sim::SimContext`] carried by
//! [`ExecCtx`], so a DFG execution doubles as a measured GPU run.
//!
//! Ops read their inputs as [`Operand`]s. Op outputs are always dense; an
//! execution input may also be [`Rows`] of an embedding table, read in
//! place, which ops accept where their kernels do ([`Linear`], and NAPA's
//! Pull and the Cost-DKP node); every other op calls [`Operand::dense`].

use crate::dense::{Matrix, RowSource, Rows};
use crate::error::TensorError;
use gt_sim::{Phase, SimContext};
use std::collections::HashMap;

/// Identifies a node within one [`Dfg`].
pub type NodeId = usize;

/// Named persistent parameters (MLP weights/biases) living across batches,
/// with accumulated gradients and an SGD step.
#[derive(Debug, Default)]
pub struct ParamStore {
    values: HashMap<String, Matrix>,
    grads: HashMap<String, Matrix>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a parameter.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) {
        self.values.insert(name.into(), value);
    }

    /// Parameter by name; panics if missing (a model wiring bug). Use
    /// [`try_get`](Self::try_get) to receive the failure as a value.
    pub fn get(&self, name: &str) -> &Matrix {
        self.try_get(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parameter by name, reporting an unregistered name as a
    /// [`TensorError::MissingParam`].
    pub fn try_get(&self, name: &str) -> Result<&Matrix, TensorError> {
        self.values
            .get(name)
            .ok_or_else(|| TensorError::MissingParam {
                name: name.to_string(),
            })
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Accumulate a gradient for `name`.
    pub fn accumulate_grad(&mut self, name: &str, grad: &Matrix) {
        match self.grads.get_mut(name) {
            Some(g) => g.axpy(1.0, grad),
            None => {
                self.grads.insert(name.to_string(), grad.clone());
            }
        }
    }

    /// Accumulated gradient, if any backward pass produced one.
    pub fn grad(&self, name: &str) -> Option<&Matrix> {
        self.grads.get(name)
    }

    /// Clear all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.clear();
    }

    /// Vanilla SGD: `w -= lr * g` for every parameter with a gradient.
    pub fn sgd_step(&mut self, lr: f32) {
        for (name, grad) in &self.grads {
            if let Some(value) = self.values.get_mut(name) {
                value.axpy(-lr, grad);
            }
        }
    }

    /// Names of registered parameters (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(|s| s.as_str())
    }
}

/// Execution context threaded through every op: the device model accumulator
/// and the parameter store.
pub struct ExecCtx<'a> {
    /// Work/latency accounting for this run.
    pub sim: &'a mut SimContext,
    /// Persistent model parameters.
    pub params: &'a mut ParamStore,
}

/// A value an op reads: a dense matrix, or rows of an embedding table read
/// in place (an execution input only — op outputs are dense). The view's
/// rows are what the gathered matrix's would be, so a kernel generic over
/// [`RowSource`] returns the same bits from either.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A dense matrix.
    Dense(&'a Matrix),
    /// Rows of a table, never gathered.
    Rows(Rows<'a>),
}

impl<'a> Operand<'a> {
    /// The dense matrix; panics on a row view, which only kernels generic
    /// over [`RowSource`] read.
    pub fn dense(self) -> &'a Matrix {
        match self {
            Operand::Dense(m) => m,
            Operand::Rows(_) => panic!("this op reads a dense operand, not a row view"),
        }
    }

    /// `self · rhs` ([`Matrix::matmul`] or [`Rows::matmul`]).
    pub fn matmul(self, rhs: &Matrix) -> Matrix {
        match self {
            Operand::Dense(m) => m.matmul(rhs),
            Operand::Rows(r) => r.matmul(rhs),
        }
    }

    /// `selfᵀ · rhs` ([`Matrix::transpose_a_matmul`] or
    /// [`Rows::transpose_a_matmul`]).
    pub fn transpose_a_matmul(self, rhs: &Matrix) -> Matrix {
        match self {
            Operand::Dense(m) => m.transpose_a_matmul(rhs),
            Operand::Rows(r) => r.transpose_a_matmul(rhs),
        }
    }
}

impl RowSource for Operand<'_> {
    fn rows(&self) -> usize {
        match self {
            Operand::Dense(m) => m.rows(),
            Operand::Rows(r) => r.rows(),
        }
    }

    fn cols(&self) -> usize {
        match self {
            Operand::Dense(m) => m.cols(),
            Operand::Rows(r) => r.cols(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        match self {
            Operand::Dense(m) => m.row(i),
            Operand::Rows(r) => r.row(i),
        }
    }
}

/// A differentiable operation. Implementations charge their FLOPs/traffic to
/// `ctx.sim` themselves (they know their scheduling/cache behaviour — that is
/// the whole point of the paper).
pub trait Op: std::fmt::Debug {
    /// Display name, also used by the DKP pattern matcher.
    fn name(&self) -> &str;

    /// Compute the output from input values.
    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix;

    /// Given input values, the forward output, and ∂L/∂output, return
    /// ∂L/∂input for each input (`None` for inputs that need no gradient).
    /// Parameter gradients are accumulated into `ctx.params` directly.
    fn backward(
        &self,
        inputs: &[Operand],
        output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>>;

    /// Output shape from input shapes (for the DKP cost model's dry run).
    fn out_shape(&self, in_shapes: &[(usize, usize)], params: &ParamStore) -> (usize, usize);
}

enum NodeKind {
    /// External input, fed positionally at execution time.
    Input(usize),
    /// Operation node.
    Op(Box<dyn Op>),
}

impl std::fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKind::Input(i) => write!(f, "Input({i})"),
            NodeKind::Op(op) => write!(f, "Op({})", op.name()),
        }
    }
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    inputs: Vec<NodeId>,
}

/// One node's forward value.
#[derive(Debug)]
enum Value<'a> {
    /// The caller's operand, borrowed, not copied: the first layer's input
    /// is the largest tensor of a batch, and as a row view it is never
    /// built at all.
    Input(Operand<'a>),
    /// An op's output, owned by the execution.
    Output(Matrix),
}

/// All forward values of one DFG execution, kept for the backward pass.
#[derive(Debug)]
pub struct DfgValues<'a> {
    values: Vec<Option<Value<'a>>>,
}

impl DfgValues<'_> {
    /// Value of node `id` as an op reads it (panics if the node was
    /// dead/skipped).
    fn operand(&self, id: NodeId) -> Operand<'_> {
        match self.values[id].as_ref().expect("node not evaluated") {
            Value::Input(x) => *x,
            Value::Output(m) => Operand::Dense(m),
        }
    }

    /// Dense value of node `id` (panics if the node was dead/skipped or is
    /// an input fed as a row view).
    pub fn get(&self, id: NodeId) -> &Matrix {
        self.operand(id).dense()
    }
}

/// The dataflow graph. Nodes are appended in topological order (an op may
/// only reference earlier nodes), which [`Dfg::op`] enforces.
#[derive(Debug, Default)]
pub struct Dfg {
    nodes: Vec<Node>,
    output: Option<NodeId>,
}

impl Dfg {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an external-input node reading execution input `slot`.
    pub fn input(&mut self, slot: usize) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::Input(slot),
            inputs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Add an op node consuming `inputs` (all must already exist).
    pub fn op(&mut self, op: impl Op + 'static, inputs: &[NodeId]) -> NodeId {
        self.op_boxed(Box::new(op), inputs)
    }

    /// Boxed variant of [`Dfg::op`].
    pub fn op_boxed(&mut self, op: Box<dyn Op>, inputs: &[NodeId]) -> NodeId {
        for &i in inputs {
            assert!(i < self.nodes.len(), "op references unknown node {i}");
        }
        self.nodes.push(Node {
            kind: NodeKind::Op(op),
            inputs: inputs.to_vec(),
        });
        self.nodes.len() - 1
    }

    /// Mark the node whose value is the graph's result.
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len());
        self.output = Some(id);
    }

    /// The output node; panics if [`Dfg::set_output`] was never called.
    pub fn output(&self) -> NodeId {
        self.try_output().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The output node, reporting an unset output as a
    /// [`TensorError::OutputUnset`].
    pub fn try_output(&self) -> Result<NodeId, TensorError> {
        self.output.ok_or(TensorError::OutputUnset)
    }

    /// Number of nodes (including dead ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Name of node `id` ("input" for inputs) — used by pattern matching.
    pub fn node_name(&self, id: NodeId) -> &str {
        match &self.nodes[id].kind {
            NodeKind::Input(_) => "input",
            NodeKind::Op(op) => op.name(),
        }
    }

    /// Ids of nodes that consume `id`'s value.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Liveness from the output node: dead nodes are skipped by execution.
    fn live(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let Some(out) = self.output else {
            return live;
        };
        let mut stack = vec![out];
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend_from_slice(&self.nodes[id].inputs);
        }
        live
    }

    /// Fuse the producer/consumer pair `(a, b)` into a single op placed at
    /// `b`'s slot (keeping downstream edges valid): the fused node's inputs
    /// are `a`'s inputs followed by `b`'s other inputs. `a` becomes dead.
    /// This is the rewrite primitive of Fig 11c (Pull + MatMul → Cost-DKP).
    ///
    /// Panics unless `b` consumes `a` and `a` has no other consumer.
    pub fn fuse_pair(&mut self, a: NodeId, b: NodeId, fused: Box<dyn Op>) {
        assert!(
            self.nodes[b].inputs.contains(&a),
            "{b} does not consume {a}"
        );
        assert_eq!(
            self.consumers(a),
            vec![b],
            "{a} has consumers besides {b}; cannot fuse"
        );
        assert!(self.output != Some(a), "cannot fuse away the output node");
        let mut inputs = self.nodes[a].inputs.clone();
        let b_others: Vec<NodeId> = self.nodes[b]
            .inputs
            .iter()
            .copied()
            .filter(|&i| i != a)
            .collect();
        inputs.extend(b_others);
        self.nodes[b] = Node {
            kind: NodeKind::Op(fused),
            inputs,
        };
    }

    /// Run the forward pass. `inputs[slot]` feeds `Input(slot)` nodes; what
    /// it borrows stays borrowed for the lifetime of the returned values.
    pub fn forward<'a>(&self, inputs: &[Operand<'a>], ctx: &mut ExecCtx) -> DfgValues<'a> {
        let live = self.live();
        let mut values = DfgValues {
            values: Vec::with_capacity(self.nodes.len()),
        };
        for (id, node) in self.nodes.iter().enumerate() {
            if !live[id] {
                values.values.push(None);
                continue;
            }
            let value = match &node.kind {
                NodeKind::Input(slot) => Value::Input(
                    *inputs
                        .get(*slot)
                        .unwrap_or_else(|| panic!("missing input slot {slot}")),
                ),
                NodeKind::Op(op) => {
                    let ins: Vec<Operand> =
                        node.inputs.iter().map(|&i| values.operand(i)).collect();
                    let out = op.forward(&ins, ctx);
                    // Outputs land in device memory; count toward the peak.
                    let _ = ctx.sim.memory.alloc(out.bytes());
                    Value::Output(out)
                }
            };
            values.values.push(Some(value));
        }
        values
    }

    /// Run the backward pass from `out_grad` at the output node. Returns
    /// ∂L/∂input for every input slot (indexed by slot; `None` if unused).
    pub fn backward(
        &self,
        values: &DfgValues,
        out_grad: Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let out = self.output();
        let live = self.live();
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[out] = Some(out_grad);
        let max_slot = self
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Input(s) => Some(s),
                _ => None,
            })
            .max();
        let mut input_grads: Vec<Option<Matrix>> = vec![None; max_slot.map_or(0, |m| m + 1)];

        for id in (0..self.nodes.len()).rev() {
            if !live[id] {
                continue;
            }
            let Some(grad) = grads[id].take() else {
                continue;
            };
            match &self.nodes[id].kind {
                NodeKind::Input(slot) => match &mut input_grads[*slot] {
                    Some(g) => g.axpy(1.0, &grad),
                    g @ None => *g = Some(grad),
                },
                NodeKind::Op(op) => {
                    let ins: Vec<Operand> = self.nodes[id]
                        .inputs
                        .iter()
                        .map(|&i| values.operand(i))
                        .collect();
                    let in_grads = op.backward(&ins, values.get(id), &grad, ctx);
                    assert_eq!(
                        in_grads.len(),
                        ins.len(),
                        "{} returned wrong grad count",
                        op.name()
                    );
                    for (&src, g) in self.nodes[id].inputs.iter().zip(in_grads) {
                        if let Some(g) = g {
                            match &mut grads[src] {
                                Some(acc) => acc.axpy(1.0, &g),
                                slot @ None => *slot = Some(g),
                            }
                        }
                    }
                }
            }
        }
        input_grads
    }

    /// Shape-infer every live node given input-slot shapes.
    pub fn shapes(
        &self,
        input_shapes: &[(usize, usize)],
        params: &ParamStore,
    ) -> Vec<Option<(usize, usize)>> {
        let live = self.live();
        let mut shapes: Vec<Option<(usize, usize)>> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            if !live[id] {
                shapes.push(None);
                continue;
            }
            let s = match &node.kind {
                NodeKind::Input(slot) => input_shapes[*slot],
                NodeKind::Op(op) => {
                    let ins: Vec<(usize, usize)> = node
                        .inputs
                        .iter()
                        .map(|&i| shapes[i].expect("input shape missing"))
                        .collect();
                    op.out_shape(&ins, params)
                }
            };
            shapes.push(Some(s));
        }
        shapes
    }
}

/// Dense linear layer `X·W (+ b)` — the paper's `Apply` maps to TensorFlow's
/// `tf.matmul`/`tf.nn.bias_add`. Charged to [`Phase::Combination`].
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight parameter name in the [`ParamStore`] (shape f×h).
    pub weight: String,
    /// Optional bias parameter name (shape 1×h).
    pub bias: Option<String>,
}

impl Linear {
    /// Linear layer with bias.
    pub fn new(weight: impl Into<String>, bias: impl Into<String>) -> Self {
        Linear {
            weight: weight.into(),
            bias: Some(bias.into()),
        }
    }

    /// Linear layer without bias.
    pub fn no_bias(weight: impl Into<String>) -> Self {
        Linear {
            weight: weight.into(),
            bias: None,
        }
    }
}

impl Op for Linear {
    fn name(&self) -> &str {
        "matmul"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let x = inputs[0];
        let w = ctx.params.get(&self.weight);
        let mut y = x.matmul(w);
        if let Some(b) = &self.bias {
            y.add_row_vector(ctx.params.get(b).row(0));
        }
        let (n, f) = (x.rows(), x.cols());
        let h = w.cols();
        ctx.sim.record_gpu(
            Phase::Combination,
            gt_sim::KernelStats {
                flops: 2 * (n * f * h) as u64,
                global_read_bytes: (n * f * 4) as u64 + w.bytes(),
                global_write_bytes: y.bytes(),
                launches: if self.bias.is_some() { 2 } else { 1 },
                ..Default::default()
            },
        );
        y
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let x = inputs[0];
        let w = ctx.params.get(&self.weight);
        // dX = dY · Wᵀ ; dW = Xᵀ · dY ; db = colsum(dY).
        let dx = grad.matmul_transpose_b(w);
        let (w_bytes, h) = (w.bytes(), w.cols());
        let dw = x.transpose_a_matmul(grad);
        ctx.params.accumulate_grad(&self.weight, &dw);
        if let Some(b) = &self.bias {
            let db = Matrix::from_vec(1, grad.cols(), grad.column_sums());
            ctx.params.accumulate_grad(b, &db);
        }
        let (n, f) = (x.rows(), x.cols());
        ctx.sim.record_gpu(
            Phase::Combination,
            gt_sim::KernelStats {
                flops: 4 * (n * f * h) as u64,
                global_read_bytes: (n * f * 4) as u64 + w_bytes + 2 * grad.bytes(),
                global_write_bytes: dx.bytes() + dw.bytes(),
                launches: 2,
                ..Default::default()
            },
        );
        vec![Some(dx)]
    }

    fn out_shape(&self, in_shapes: &[(usize, usize)], params: &ParamStore) -> (usize, usize) {
        (in_shapes[0].0, params.get(&self.weight).cols())
    }
}

/// Elementwise ReLU, charged to [`Phase::Combination`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Op for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&self, inputs: &[Operand], ctx: &mut ExecCtx) -> Matrix {
        let x = inputs[0].dense();
        let y = x.relu();
        ctx.sim.record_gpu(
            Phase::Combination,
            gt_sim::KernelStats {
                flops: y.len() as u64,
                global_read_bytes: x.bytes(),
                global_write_bytes: y.bytes(),
                launches: 1,
                ..Default::default()
            },
        );
        y
    }

    fn backward(
        &self,
        inputs: &[Operand],
        _output: &Matrix,
        grad: &Matrix,
        ctx: &mut ExecCtx,
    ) -> Vec<Option<Matrix>> {
        let x = inputs[0].dense();
        let g = x.relu_grad(grad);
        ctx.sim.record_gpu(
            Phase::Combination,
            gt_sim::KernelStats {
                flops: g.len() as u64,
                global_read_bytes: x.bytes() + grad.bytes(),
                global_write_bytes: g.bytes(),
                launches: 1,
                ..Default::default()
            },
        );
        vec![Some(g)]
    }

    fn out_shape(&self, in_shapes: &[(usize, usize)], _params: &ParamStore) -> (usize, usize) {
        in_shapes[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::xavier;
    use gt_sim::DeviceSpec;

    fn ctx_parts() -> (SimContext, ParamStore) {
        (SimContext::new(DeviceSpec::tiny()), ParamStore::new())
    }

    #[test]
    fn linear_forward_matches_manual() {
        let (mut sim, mut params) = ctx_parts();
        params.register("w", Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        params.register("b", Matrix::from_vec(1, 2, vec![10., 20.]));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let y = dfg.op(Linear::new("w", "b"), &[x]);
        dfg.set_output(y);
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let xval = Matrix::from_vec(1, 2, vec![1., 1.]);
        let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
        assert_eq!(vals.get(y).data(), &[14., 26.]);
        assert!(ctx.sim.phase_us(Phase::Combination) > 0.0);
    }

    #[test]
    fn forward_borrows_inputs_and_owns_op_outputs() {
        use gt_graph::EmbeddingTable;
        let (mut sim, mut params) = ctx_parts();
        params.register("w", Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let y = dfg.op(Linear::no_bias("w"), &[x]);
        dfg.set_output(y);
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let table = EmbeddingTable::from_vec(3, 2, vec![0., 0., 1., 1., 2., 2.]);
        let ids = [2, 0, 2];
        let view = Rows {
            table: &table,
            ids: &ids,
        };
        let vals = dfg.forward(&[Operand::Rows(view)], &mut ctx);
        // The input node *is* the caller's row view — its table and ids,
        // nothing gathered from them...
        let Operand::Rows(got) = vals.operand(x) else {
            panic!("a row view input stays a row view");
        };
        assert!(std::ptr::eq(got.table, &table));
        assert!(std::ptr::eq(got.ids, &ids[..]));
        // ...while op outputs are values the execution owns.
        assert!(matches!(vals.values[x], Some(Value::Input(_))));
        assert!(matches!(vals.values[y], Some(Value::Output(_))));
        assert_eq!(vals.get(y).data(), &[8., 12., 0., 0., 8., 12.]);

        // A dense input is borrowed the same way and reads the same rows.
        let gathered = Matrix::from_vec(3, 2, table.gather(&ids).into_vec());
        let dense = dfg.forward(&[Operand::Dense(&gathered)], &mut ctx);
        assert!(std::ptr::eq(dense.get(x), &gathered));
        assert_eq!(dense.get(y), vals.get(y));
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let (mut sim, mut params) = ctx_parts();
        params.register("w", xavier(3, 2, 5));
        params.register("b", Matrix::zeros(1, 2));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let lin = dfg.op(Linear::new("w", "b"), &[x]);
        let out = dfg.op(Relu, &[lin]);
        dfg.set_output(out);
        let xval = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);

        // Analytic input grad of L = sum(output).
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let grads = dfg.backward(&vals, ones, &mut ctx);
        let gx = grads[0].as_ref().unwrap().clone();
        let gw = params.grad("w").unwrap().clone();

        let loss = |xv: &Matrix, ps: &mut ParamStore| {
            let mut sim = SimContext::new(DeviceSpec::tiny());
            let mut c = ExecCtx {
                sim: &mut sim,
                params: ps,
            };
            let v = dfg.forward(&[Operand::Dense(xv)], &mut c);
            v.get(out).data().iter().sum::<f32>()
        };
        let eps = 1e-2f32;
        // Check input grads.
        for i in 0..xval.len() {
            let mut p = xval.clone();
            p.data_mut()[i] += eps;
            let mut m = xval.clone();
            m.data_mut()[i] -= eps;
            let num = (loss(&p, &mut params) - loss(&m, &mut params)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "x[{i}]: {num} vs {}",
                gx.data()[i]
            );
        }
        // Check weight grads.
        let w0 = params.get("w").clone();
        for i in 0..w0.len() {
            let mut wp = w0.clone();
            wp.data_mut()[i] += eps;
            params.register("w", wp);
            let lp = loss(&xval, &mut params);
            let mut wm = w0.clone();
            wm.data_mut()[i] -= eps;
            params.register("w", wm);
            let lm = loss(&xval, &mut params);
            params.register("w", w0.clone());
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "w[{i}]: {num} vs {}",
                gw.data()[i]
            );
        }
    }

    #[test]
    fn sgd_descends_on_quadratic() {
        // Minimize ‖x·W‖² over W; SGD must shrink the loss.
        let (mut sim, mut params) = ctx_parts();
        params.register("w", xavier(4, 3, 9));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let y = dfg.op(Linear::no_bias("w"), &[x]);
        dfg.set_output(y);
        let xval = xavier(8, 4, 11);
        let mut last = f32::INFINITY;
        for _ in 0..20 {
            params.zero_grads();
            let mut ctx = ExecCtx {
                sim: &mut sim,
                params: &mut params,
            };
            let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
            let outv = vals.get(y).clone();
            let loss: f32 = outv.data().iter().map(|&v| v * v).sum();
            let mut grad = outv;
            grad.scale(2.0);
            dfg.backward(&vals, grad, &mut ctx);
            params.sgd_step(0.05);
            assert!(loss <= last * 1.0001, "loss rose: {last} → {loss}");
            last = loss;
            sim.reset();
        }
        assert!(last < 0.5, "did not converge: {last}");
    }

    #[test]
    fn fuse_pair_rewrites_and_dead_code_skipped() {
        let (mut sim, mut params) = ctx_parts();
        params.register("w", Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let r = dfg.op(Relu, &[x]);
        let l = dfg.op(Linear::no_bias("w"), &[r]);
        dfg.set_output(l);
        assert_eq!(dfg.node_name(r), "relu");
        // Fuse relu→matmul into a single relu (dummy fusion for the test).
        dfg.fuse_pair(r, l, Box::new(Relu));
        assert_eq!(dfg.node_name(l), "relu");
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let xval = Matrix::from_vec(1, 2, vec![-1., 2.]);
        let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
        assert_eq!(vals.get(l).data(), &[0., 2.]);
        // Node r is dead now: exactly 2 live evaluations (input + fused).
        assert!(std::panic::catch_unwind(|| vals.get(r)).is_err());
    }

    #[test]
    #[should_panic]
    fn fuse_with_other_consumers_rejected() {
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let a = dfg.op(Relu, &[x]);
        let b = dfg.op(Relu, &[a]);
        let _c = dfg.op(Relu, &[a]); // second consumer of a
        dfg.set_output(b);
        dfg.fuse_pair(a, b, Box::new(Relu));
    }

    #[test]
    fn shape_inference() {
        let mut params = ParamStore::new();
        params.register("w", Matrix::zeros(8, 3));
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let l = dfg.op(Linear::no_bias("w"), &[x]);
        let r = dfg.op(Relu, &[l]);
        dfg.set_output(r);
        let shapes = dfg.shapes(&[(10, 8)], &params);
        assert_eq!(shapes[l], Some((10, 3)));
        assert_eq!(shapes[r], Some((10, 3)));
    }

    #[test]
    fn try_forward_reports_wiring_bugs_as_values() {
        use crate::error::TensorError;
        let mut params = ParamStore::new();
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let l = dfg.op(Linear::new("w", "b"), &[x]);
        dfg.set_output(l);
        assert_eq!(dfg.try_output(), Ok(l));
        assert_eq!(Dfg::new().try_output(), Err(TensorError::OutputUnset));

        // Unregistered weight.
        assert_eq!(
            params.try_get("w").err(),
            Some(TensorError::MissingParam {
                name: "w".to_string()
            })
        );
        params.register("w", Matrix::zeros(2, 2));
        assert_eq!(params.try_get("w").map(Matrix::rows), Ok(2));
    }

    #[test]
    fn diamond_graph_accumulates_grads() {
        // y = relu(x) + relu(x): input grad must be the sum of both paths.
        #[derive(Debug)]
        struct AddOp;
        impl Op for AddOp {
            fn name(&self) -> &str {
                "add"
            }
            fn forward(&self, inputs: &[Operand], _ctx: &mut ExecCtx) -> Matrix {
                inputs[0].dense().add(inputs[1].dense())
            }
            fn backward(
                &self,
                _inputs: &[Operand],
                _output: &Matrix,
                grad: &Matrix,
                _ctx: &mut ExecCtx,
            ) -> Vec<Option<Matrix>> {
                vec![Some(grad.clone()), Some(grad.clone())]
            }
            fn out_shape(&self, s: &[(usize, usize)], _p: &ParamStore) -> (usize, usize) {
                s[0]
            }
        }
        let (mut sim, mut params) = ctx_parts();
        let mut dfg = Dfg::new();
        let x = dfg.input(0);
        let a = dfg.op(Relu, &[x]);
        let b = dfg.op(Relu, &[x]);
        let s = dfg.op(AddOp, &[a, b]);
        dfg.set_output(s);
        let mut ctx = ExecCtx {
            sim: &mut sim,
            params: &mut params,
        };
        let xval = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let vals = dfg.forward(&[Operand::Dense(&xval)], &mut ctx);
        let grads = dfg.backward(&vals, Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut ctx);
        assert_eq!(grads[0].as_ref().unwrap().data(), &[2.0, 2.0]);
    }
}
