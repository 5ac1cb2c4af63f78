//! Reverse-mode automatic differentiation over a per-forward-pass tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node holding its output
//! value and the identities of its inputs. [`Tape::backward_into`] then walks the nodes
//! in reverse, applying each op's vector-Jacobian product, and adds the gradients of
//! registered parameters into a [`Grads`] laid out like the [`Params`] store.
//!
//! The tape is rebuilt for every forward pass ("define-by-run"), which is exactly how
//! the paper's PyTorch agent operates, and keeps dynamic structures (per-sample
//! sequence lengths, sampled placements feeding back into the decoder) trivial.
//!
//! ## Node layout
//!
//! `Op` is a small `Copy` value: variable-length payloads (concat parts, gather
//! indices) live in two arena pools on the tape ([`Span32`] ranges into them),
//! so recording an op never allocates beyond the amortized growth of three
//! flat `Vec`s. On the placer workloads this removes one heap allocation per
//! concat/select/pick node — tens of thousands per minibatch.

use std::collections::HashMap;

use crate::grads::Grads;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Handle to a node (an intermediate value) on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Range into one of the tape's arena pools (`u32` keeps `Op` at 16 bytes).
#[derive(Debug, Clone, Copy)]
struct Span32 {
    start: u32,
    len: u32,
}

/// Activation fused into [`Tape::affine`]. `None` gives plain `x @ w + b`.
///
/// The fused VJP is computed from the activation *output*, which is exact for
/// these choices: `tanh' = 1 - y^2`, and `relu`'s mask `y > 0` coincides with
/// `x > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation.
    None,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

/// The recorded operation producing a node's value.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Constant input (no gradient flows into it).
    Leaf,
    /// Parameter injected from a [`Params`] store (gradient target).
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    /// `(n,m) + (1,m)` with the row vector broadcast across rows.
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, #[allow(dead_code)] f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    Ln(Var),
    Softmax(Var),
    LogSoftmax(Var),
    ConcatRows(Span32),
    ConcatCols(Span32),
    SliceRows(Var, usize, usize),
    SliceCols(Var, usize, usize),
    SelectRows(Var, Span32),
    Transpose(Var),
    SumAll(Var),
    MeanAll(Var),
    RowSums(Var),
    PickPerRow(Var, Span32),
    Clamp(Var, f32, f32),
    MinElem(Var, Var),
    /// n-ary elementwise sum over a pool span (one node instead of a chain).
    AddN(Span32),
    /// Fused `act(x @ w + b)` — the dense-layer pattern every placer emits.
    Affine(Var, Var, Var, FusedAct),
    /// Fused row-wise `log_softmax` + per-row gather: `(n,m) -> (n,1)`.
    LogSoftmaxPick(Var, Span32),
}

struct Node {
    op: Op,
    value: Tensor,
    needs_grad: bool,
}

/// A single forward pass recorded for differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Arena for multi-`Var` op payloads (concat parts, summed losses).
    var_pool: Vec<Var>,
    /// Arena for index payloads (row selections, per-row picks).
    idx_pool: Vec<usize>,
    /// Parameters already injected this pass, so repeated use shares one node.
    param_cache: HashMap<ParamId, Var>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node { op, value, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn ng(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    fn intern_vars(&mut self, parts: &[Var]) -> Span32 {
        let start = self.var_pool.len() as u32;
        self.var_pool.extend_from_slice(parts);
        Span32 { start, len: parts.len() as u32 }
    }

    fn intern_idxs(&mut self, indices: &[usize]) -> Span32 {
        let start = self.idx_pool.len() as u32;
        self.idx_pool.extend_from_slice(indices);
        Span32 { start, len: indices.len() as u32 }
    }

    fn vars(&self, s: Span32) -> &[Var] {
        &self.var_pool[s.start as usize..(s.start + s.len) as usize]
    }

    fn idxs(&self, s: Span32) -> &[usize] {
        &self.idx_pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// Records a constant input; no gradient will flow into it.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// Injects a parameter from `params`. Re-injecting the same handle returns the
    /// same node, so gradient contributions from all uses accumulate correctly.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let v = self.push(Op::Param(id), params.get(id).clone(), true);
        self.param_cache.insert(id, v);
        v
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MatMul(a, b), value, g)
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::Add(a, b), value, g)
    }

    /// Element-wise difference (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::Sub(a, b), value, g)
    }

    /// Element-wise (Hadamard) product (same shapes).
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul_elem(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MulElem(a, b), value, g)
    }

    /// `(n,m) + (1,m)`: adds a row vector (e.g. a bias) to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(b).rows(), 1, "broadcast operand must be a row vector");
        assert_eq!(self.value(a).cols(), self.value(b).cols(), "broadcast column mismatch");
        let b_row = self.value(b).row(0).to_vec();
        let mut value = self.value(a).clone();
        for r in 0..value.rows() {
            for (x, &bb) in value.row_mut(r).iter_mut().zip(&b_row) {
                *x += bb;
            }
        }
        let g = self.ng(a) || self.ng(b);
        self.push(Op::AddRowBroadcast(a, b), value, g)
    }

    /// `s * a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scaled(s);
        let g = self.ng(a);
        self.push(Op::Scale(a, s), value, g)
    }

    /// `a + s` element-wise.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x + s);
        let g = self.ng(a);
        self.push(Op::AddScalar(a, s), value, g)
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let g = self.ng(a);
        self.push(Op::Sigmoid(a), value, g)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        let g = self.ng(a);
        self.push(Op::Tanh(a), value, g)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        let g = self.ng(a);
        self.push(Op::Relu(a), value, g)
    }

    /// Element-wise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::exp);
        let g = self.ng(a);
        self.push(Op::Exp(a), value, g)
    }

    /// Element-wise natural log (inputs must be positive).
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::ln);
        let g = self.ng(a);
        self.push(Op::Ln(a), value, g)
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        let g = self.ng(a);
        self.push(Op::Softmax(a), value, g)
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        let g = self.ng(a);
        self.push(Op::LogSoftmax(a), value, g)
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_rows(&tensors);
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::ConcatRows(span), value, g)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_cols(&tensors);
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::ConcatCols(span), value, g)
    }

    /// Copies rows `[start, start+len)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let value = self.value(a).slice_rows(start, len);
        let g = self.ng(a);
        self.push(Op::SliceRows(a, start, len), value, g)
    }

    /// Copies columns `[start, start+len)` (e.g. one gate block of a fused LSTM).
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = self.value(a);
        assert!(start + len <= t.cols(), "slice_cols out of range");
        let mut value = Tensor::zeros(t.rows(), len);
        for r in 0..t.rows() {
            value.row_mut(r).copy_from_slice(&t.row(r)[start..start + len]);
        }
        let g = self.ng(a);
        self.push(Op::SliceCols(a, start, len), value, g)
    }

    /// Gathers rows by index (duplicates allowed); gradients scatter-add back.
    pub fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = self.value(a).select_rows(indices);
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::SelectRows(a, span), value, g)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        let g = self.ng(a);
        self.push(Op::Transpose(a), value, g)
    }

    /// Sum of all elements, as a `1x1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        let g = self.ng(a);
        self.push(Op::SumAll(a), value, g)
    }

    /// Mean of all elements, as a `1x1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).mean());
        let g = self.ng(a);
        self.push(Op::MeanAll(a), value, g)
    }

    /// Per-row sums: `(n,m) -> (n,1)`.
    pub fn row_sums(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut value = Tensor::zeros(t.rows(), 1);
        for r in 0..t.rows() {
            value.set(r, 0, t.row(r).iter().sum());
        }
        let g = self.ng(a);
        self.push(Op::RowSums(a), value, g)
    }

    /// Picks element `indices[r]` from each row: `(n,m) -> (n,1)`.
    ///
    /// This is the log-probability gather used when scoring sampled actions.
    pub fn pick_per_row(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        assert_eq!(indices.len(), t.rows(), "one index per row required");
        let mut value = Tensor::zeros(t.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < t.cols(), "pick_per_row column {c} out of range");
            value.set(r, 0, t.get(r, c));
        }
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::PickPerRow(a, span), value, g)
    }

    /// Element-wise clamp to `[lo, hi]` (zero gradient outside the interval),
    /// i.e. PPO's `clip`.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let value = self.value(a).map(|x| x.clamp(lo, hi));
        let g = self.ng(a);
        self.push(Op::Clamp(a, lo, hi), value, g)
    }

    /// Element-wise minimum of two tensors (gradient flows to the smaller side).
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), f32::min);
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MinElem(a, b), value, g)
    }

    /// n-ary elementwise sum: `parts[0] + parts[1] + ...` in slice order, as one
    /// node. The minibatch update loops use this to fold per-episode losses
    /// into a single scalar, so the whole batch backpropagates in one
    /// [`Tape::backward_into`] traversal instead of one per episode.
    ///
    /// # Panics
    /// Panics when `parts` is empty or shapes differ.
    pub fn add_n(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "add_n of zero terms");
        let mut value = self.value(parts[0]).clone();
        for &p in &parts[1..] {
            value.add_assign(self.value(p));
        }
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::AddN(span), value, g)
    }

    /// Fused dense layer `act(x @ w + b)`: one node for the
    /// matmul + bias-broadcast + activation chain every placer emits.
    ///
    /// Bitwise-equal to the composed `matmul`/`add_row_broadcast`/activation
    /// sequence — the forward applies the same float ops in the same order,
    /// and the backward reproduces each composed VJP exactly (activation
    /// gradient from the output, bias row-sum in ascending row order, then the
    /// two matmul products). Saves two intermediate tensors and two tape nodes
    /// per layer application.
    pub fn affine(&mut self, x: Var, w: Var, b: Var, act: FusedAct) -> Var {
        assert_eq!(self.value(b).rows(), 1, "bias must be a row vector");
        assert_eq!(self.value(w).cols(), self.value(b).cols(), "bias column mismatch");
        let mut value = self.value(x).matmul(self.value(w));
        let b_row = self.value(b).row(0).to_vec();
        for r in 0..value.rows() {
            for (v, &bb) in value.row_mut(r).iter_mut().zip(&b_row) {
                *v += bb;
            }
        }
        match act {
            FusedAct::None => {}
            FusedAct::Tanh => {
                for v in value.data_mut() {
                    *v = v.tanh();
                }
            }
            FusedAct::Relu => {
                for v in value.data_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        let g = self.ng(x) || self.ng(w) || self.ng(b);
        self.push(Op::Affine(x, w, b, act), value, g)
    }

    /// Fused row-wise log-softmax + per-row gather:
    /// `(n,m) -> (n,1)` with `out[r] = log_softmax(a[r])[indices[r]]`.
    ///
    /// This is the action-scoring pattern (`log_softmax` then `pick_per_row`)
    /// without materializing the full `(n,m)` log-probability matrix or its
    /// dense gradient scatter. Bitwise-equal to the composed pair: the forward
    /// evaluates the same stable `x - lse` expression at the picked column, and
    /// the backward recomputes `lse` with the forward's own op sequence (hence
    /// identical bits) before forming the composed pair's gradient.
    pub fn log_softmax_pick(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        assert_eq!(indices.len(), t.rows(), "one index per row required");
        let mut value = Tensor::zeros(t.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < t.cols(), "log_softmax_pick column {c} out of range");
            let row = t.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            value.set(r, 0, row[c] - lse);
        }
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::LogSoftmaxPick(a, span), value, g)
    }

    /// Runs backpropagation from scalar node `loss`, accumulating parameter
    /// gradients into `out` (adding to whatever is already there, so several
    /// backward passes before an optimizer step sum their gradients — call
    /// [`Grads::zero`] at minibatch start).
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward_into(&self, loss: Var, out: &mut Grads) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be a scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(gy) = grads[i].take() else { continue };
            self.accumulate(i, &gy, &mut grads, out);
        }
    }

    /// Adds `scale * grad` into `grads[v]`, allocating on first touch,
    /// but only if `v` participates in differentiation.
    fn bump(&self, grads: &mut [Option<Tensor>], v: Var, grad: &Tensor, scale: f32) {
        if !self.ng(v) {
            return;
        }
        let slot = &mut grads[v.0];
        match slot {
            Some(g) => g.add_scaled(grad, scale),
            None => {
                let mut g = Tensor::zeros(grad.rows(), grad.cols());
                g.add_scaled(grad, scale);
                *slot = Some(g);
            }
        }
    }

    fn accumulate(&self, i: usize, gy: &Tensor, grads: &mut [Option<Tensor>], out: &mut Grads) {
        let y = &self.nodes[i].value;
        let op = self.nodes[i].op;
        match op {
            Op::Leaf => {}
            Op::Param(id) => out.deposit(id, gy),
            Op::MatMul(a, b) => {
                if self.ng(a) {
                    let da = gy.matmul(&self.value(b).transpose());
                    self.bump(grads, a, &da, 1.0);
                }
                if self.ng(b) {
                    let db = self.value(a).transpose().matmul(gy);
                    self.bump(grads, b, &db, 1.0);
                }
            }
            Op::Add(a, b) => {
                self.bump(grads, a, gy, 1.0);
                self.bump(grads, b, gy, 1.0);
            }
            Op::Sub(a, b) => {
                self.bump(grads, a, gy, 1.0);
                self.bump(grads, b, gy, -1.0);
            }
            Op::MulElem(a, b) => {
                if self.ng(a) {
                    let da = gy.mul_elem(self.value(b));
                    self.bump(grads, a, &da, 1.0);
                }
                if self.ng(b) {
                    let db = gy.mul_elem(self.value(a));
                    self.bump(grads, b, &db, 1.0);
                }
            }
            Op::AddRowBroadcast(a, b) => {
                self.bump(grads, a, gy, 1.0);
                if self.ng(b) {
                    let mut db = Tensor::zeros(1, gy.cols());
                    for r in 0..gy.rows() {
                        for (d, &g) in db.row_mut(0).iter_mut().zip(gy.row(r)) {
                            *d += g;
                        }
                    }
                    self.bump(grads, b, &db, 1.0);
                }
            }
            Op::Scale(a, s) => self.bump(grads, a, gy, s),
            Op::AddScalar(a, _) => self.bump(grads, a, gy, 1.0),
            Op::Sigmoid(a) => {
                let da = gy.zip(y, |g, yv| g * yv * (1.0 - yv));
                self.bump(grads, a, &da, 1.0);
            }
            Op::Tanh(a) => {
                let da = gy.zip(y, |g, yv| g * (1.0 - yv * yv));
                self.bump(grads, a, &da, 1.0);
            }
            Op::Relu(a) => {
                let da = gy.zip(self.value(a), |g, x| if x > 0.0 { g } else { 0.0 });
                self.bump(grads, a, &da, 1.0);
            }
            Op::Exp(a) => {
                let da = gy.mul_elem(y);
                self.bump(grads, a, &da, 1.0);
            }
            Op::Ln(a) => {
                let da = gy.zip(self.value(a), |g, x| g / x);
                self.bump(grads, a, &da, 1.0);
            }
            Op::Softmax(a) => {
                // dX = Y * (dY - rowdot(dY, Y)) per row.
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = gy.row(r).iter().zip(y.row(r)).map(|(&g, &s)| g * s).sum();
                    for c in 0..y.cols() {
                        da.set(r, c, y.get(r, c) * (gy.get(r, c) - dot));
                    }
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::LogSoftmax(a) => {
                // dX = dY - softmax(X) * rowsum(dY).
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let rowsum: f32 = gy.row(r).iter().sum();
                    for c in 0..y.cols() {
                        let soft = y.get(r, c).exp();
                        da.set(r, c, gy.get(r, c) - soft * rowsum);
                    }
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::ConcatRows(span) => {
                let mut start = 0;
                for &p in self.vars(span) {
                    let rows = self.value(p).rows();
                    let gp = gy.slice_rows(start, rows);
                    self.bump(grads, p, &gp, 1.0);
                    start += rows;
                }
            }
            Op::ConcatCols(span) => {
                let mut start = 0;
                for &p in self.vars(span) {
                    let cols = self.value(p).cols();
                    let mut gp = Tensor::zeros(gy.rows(), cols);
                    for r in 0..gy.rows() {
                        gp.row_mut(r).copy_from_slice(&gy.row(r)[start..start + cols]);
                    }
                    self.bump(grads, p, &gp, 1.0);
                    start += cols;
                }
            }
            Op::SliceRows(a, start, len) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for r in 0..len {
                    da.row_mut(start + r).copy_from_slice(gy.row(r));
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::SliceCols(a, start, len) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for r in 0..gy.rows() {
                    da.row_mut(r)[start..start + len].copy_from_slice(gy.row(r));
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::SelectRows(a, span) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for (r, &idx) in self.idxs(span).iter().enumerate() {
                    for (d, &g) in da.row_mut(idx).iter_mut().zip(gy.row(r)) {
                        *d += g;
                    }
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::Transpose(a) => {
                let da = gy.transpose();
                self.bump(grads, a, &da, 1.0);
            }
            Op::SumAll(a) => {
                let src = self.value(a);
                let da = Tensor::full(src.rows(), src.cols(), gy.item());
                self.bump(grads, a, &da, 1.0);
            }
            Op::MeanAll(a) => {
                let src = self.value(a);
                let da = Tensor::full(src.rows(), src.cols(), gy.item() / src.len() as f32);
                self.bump(grads, a, &da, 1.0);
            }
            Op::RowSums(a) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for r in 0..src.rows() {
                    let g = gy.get(r, 0);
                    da.row_mut(r).fill(g);
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::PickPerRow(a, span) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for (r, &c) in self.idxs(span).iter().enumerate() {
                    da.set(r, c, gy.get(r, 0));
                }
                self.bump(grads, a, &da, 1.0);
            }
            Op::Clamp(a, lo, hi) => {
                let da = gy.zip(self.value(a), |g, x| if x > lo && x < hi { g } else { 0.0 });
                self.bump(grads, a, &da, 1.0);
            }
            Op::MinElem(a, b) => {
                let (ta, tb) = (self.value(a), self.value(b));
                if self.ng(a) {
                    let da = Tensor::from_vec(
                        ta.rows(),
                        ta.cols(),
                        (0..ta.len())
                            .map(|j| if ta.data()[j] <= tb.data()[j] { gy.data()[j] } else { 0.0 })
                            .collect(),
                    );
                    self.bump(grads, a, &da, 1.0);
                }
                if self.ng(b) {
                    let db = Tensor::from_vec(
                        tb.rows(),
                        tb.cols(),
                        (0..tb.len())
                            .map(|j| if tb.data()[j] < ta.data()[j] { gy.data()[j] } else { 0.0 })
                            .collect(),
                    );
                    self.bump(grads, b, &db, 1.0);
                }
            }
            Op::AddN(span) => {
                for &p in self.vars(span) {
                    self.bump(grads, p, gy, 1.0);
                }
            }
            Op::Affine(x, w, b, act) => {
                // Activation VJP from the output, exactly as the standalone
                // activation nodes compute it (relu's `y > 0` mask equals the
                // composed kernel's `x > 0` test).
                let dz = match act {
                    FusedAct::None => gy.clone(),
                    FusedAct::Tanh => gy.zip(y, |g, yv| g * (1.0 - yv * yv)),
                    FusedAct::Relu => gy.zip(y, |g, yv| if yv > 0.0 { g } else { 0.0 }),
                };
                if self.ng(b) {
                    let mut db = Tensor::zeros(1, dz.cols());
                    for r in 0..dz.rows() {
                        for (d, &g) in db.row_mut(0).iter_mut().zip(dz.row(r)) {
                            *d += g;
                        }
                    }
                    self.bump(grads, b, &db, 1.0);
                }
                if self.ng(x) {
                    let dx = dz.matmul(&self.value(w).transpose());
                    self.bump(grads, x, &dx, 1.0);
                }
                if self.ng(w) {
                    let dw = self.value(x).transpose().matmul(&dz);
                    self.bump(grads, w, &dw, 1.0);
                }
            }
            Op::LogSoftmaxPick(a, span) => {
                // Composed pair's gradient: scatter gy to the picked column,
                // then dX = dY - softmax(X) * rowsum(dY), where rowsum of the
                // scattered row is just gy[r]. `lse` is recomputed with the
                // forward's own op sequence, so `x - lse` has identical bits
                // to the stored log-probabilities of the composed version.
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for (r, &picked) in self.idxs(span).iter().enumerate() {
                    let row = src.row(r);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
                    let g = gy.get(r, 0);
                    for (c, &xv) in row.iter().enumerate() {
                        let soft = (xv - lse).exp();
                        let gy_elem = if c == picked { g } else { 0.0 };
                        da.set(r, c, gy_elem - soft * g);
                    }
                }
                self.bump(grads, a, &da, 1.0);
            }
        }
    }
}
