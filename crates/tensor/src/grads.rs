//! Gradient buffers, the one place gradients live.
//!
//! A [`Grads`] is a set of buffers with the same layout as one [`Params`]
//! store. [`Tape::backward_into`](crate::tape::Tape::backward_into) adds into
//! it, [`Grads::clip_global_norm`] bounds it, and
//! [`Adam::step_grads`](crate::optim::Adam::step_grads) consumes it. Keeping
//! gradients out of the store the forward pass reads from means the update
//! loop never mutates parameters and gradients through one borrow. The buffers
//! are allocated once and reused across minibatches.

use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Gradient buffers mirroring the layout of one [`Params`] store.
#[derive(Debug, Clone)]
pub struct Grads {
    slots: Vec<Tensor>,
}

impl Grads {
    /// Creates zeroed buffers shaped like every parameter in `params`.
    /// The layout (count and shapes) must stay fixed for the buffer's lifetime.
    pub fn for_params(params: &Params) -> Self {
        let slots = params
            .ids()
            .map(|id| {
                let (r, c) = params.get(id).shape();
                Tensor::zeros(r, c)
            })
            .collect();
        Self { slots }
    }

    /// Number of gradient tensors (one per parameter).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slots exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resets every buffer to zero (call once per minibatch, before backward).
    pub fn zero(&mut self) {
        for s in &mut self.slots {
            s.data_mut().fill(0.0);
        }
    }

    /// Gradient buffer for one parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.slots[id.index()]
    }

    /// Mutable gradient buffer for one parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.index()]
    }

    /// Accumulates `grad` into the slot for `id` (`+=`, not assignment): a
    /// parameter used by several episodes on one tape receives one deposit
    /// per use.
    pub(crate) fn deposit(&mut self, id: ParamId, grad: &Tensor) {
        self.slots[id.index()].add_assign(grad);
    }

    /// Global L2 norm over all buffers (per-tensor `f32` sum of squares,
    /// summed across tensors, then one square root).
    pub fn global_norm(&self) -> f32 {
        self.slots.iter().map(|s| s.data().iter().map(|&g| g * g).sum::<f32>()).sum::<f32>().sqrt()
    }

    /// Clips so the global norm is at most `max_norm` (the paper clips at
    /// 1.0); returns the pre-clip norm. Scales down only: a norm already at or
    /// below the threshold leaves the buffers untouched.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for s in &mut self.slots {
                s.scale_inplace(scale);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (Params, ParamId, ParamId) {
        let mut p = Params::new();
        let a = p.add("a", Tensor::zeros(1, 2));
        let b = p.add("b", Tensor::zeros(2, 2));
        (p, a, b)
    }

    #[test]
    fn layout_mirrors_params_and_deposits_accumulate() {
        let (p, a, b) = store();
        let mut g = Grads::for_params(&p);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(b).shape(), (2, 2));
        g.deposit(a, &Tensor::row_vector(&[1.0, 2.0]));
        g.deposit(a, &Tensor::row_vector(&[1.0, 2.0]));
        assert_eq!(g.get(a).data(), &[2.0, 4.0]);
        g.zero();
        assert_eq!(g.get(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_global_norm_scales_down_only() {
        let (p, a, _) = store();
        let mut g = Grads::for_params(&p);
        g.get_mut(a).data_mut().copy_from_slice(&[3.0, 4.0]);
        assert_eq!(g.global_norm(), 5.0);
        let pre = g.clip_global_norm(1.0);
        assert_eq!(pre, 5.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        // Already below threshold: untouched, bit for bit.
        let before: Vec<u32> = g.get(a).data().iter().map(|x| x.to_bits()).collect();
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        let after: Vec<u32> = g.get(a).data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after);
    }
}
