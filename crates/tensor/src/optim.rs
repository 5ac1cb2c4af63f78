//! The Adam optimizer, updating a [`Params`] store from [`Grads`] buffers.
//!
//! The paper trains every agent with Adam (lr = 0.01) and clips gradients by global
//! norm at 1.0 ([`Grads::clip_global_norm`]).

use crate::grads::Grads;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba) with bias correction.
///
/// Serializes its full state — step count and both moment buffers — so a
/// checkpointed training run resumes with bit-identical updates (the moments
/// are *not* reconstructable from the parameters alone).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    /// Learning rate (`0.01` in the paper).
    pub lr: f32,
    /// First-moment decay (default `0.9`).
    pub beta1: f32,
    /// Second-moment decay (default `0.999`).
    pub beta2: f32,
    /// Numerical-stability constant (default `1e-8`).
    pub eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update in place, reading gradients from `grads`
    /// (filled by [`Tape::backward_into`](crate::tape::Tape::backward_into)).
    ///
    /// Moment buffers are allocated lazily on the first step; the store's layout
    /// (count and shapes of parameters) must stay fixed across steps.
    pub fn step_grads(&mut self, params: &mut Params, grads: &Grads) {
        if self.m.is_empty() {
            for id in params.ids() {
                let (r, c) = params.get(id).shape();
                self.m.push(Tensor::zeros(r, c));
                self.v.push(Tensor::zeros(r, c));
            }
        }
        assert_eq!(self.m.len(), params.len(), "param store layout changed under Adam");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<ParamId> = params.ids().collect();
        for id in ids {
            let (value, grad) = (params.get_mut(id), grads.get(id));
            let m = &mut self.m[id.index()];
            let v = &mut self.v[id.index()];
            // The per-element op order is load-bearing: checkpointed runs
            // replay it and must land on identical bits.
            for j in 0..grad.len() {
                let gj = grad.data()[j];
                m.data_mut()[j] = self.beta1 * m.data()[j] + (1.0 - self.beta1) * gj;
                v.data_mut()[j] = self.beta2 * v.data()[j] + (1.0 - self.beta2) * gj * gj;
                let m_hat = m.data()[j] / bc1;
                let v_hat = v.data()[j] / bc2;
                value.data_mut()[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// One Adam step on `(w - 3)^2` for the single parameter `id`.
    fn quadratic_step(params: &mut Params, grads: &mut Grads, opt: &mut Adam, id: ParamId) {
        grads.zero();
        let mut tape = Tape::new();
        let w = tape.param(params, id);
        let shifted = tape.add_scalar(w, -3.0);
        let sq = tape.mul_elem(shifted, shifted);
        let loss = tape.sum_all(sq);
        tape.backward_into(loss, grads);
        opt.step_grads(params, grads);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut params = Params::new();
        let id = params.add("w", Tensor::scalar(-5.0));
        let mut grads = Grads::for_params(&params);
        let mut opt = Adam::new(0.05);
        for _ in 0..400 {
            quadratic_step(&mut params, &mut grads, &mut opt, id);
        }
        let w = params.get(id).item();
        assert!((w - 3.0).abs() < 0.1, "w = {w}");
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        // Train half-way, snapshot optimizer + params, finish training twice —
        // once straight through, once from the restored snapshot — and demand
        // bit-identical trajectories.
        let run = |resume_at: Option<usize>| -> (f32, Adam) {
            let mut params = Params::new();
            let id = params.add("w", Tensor::scalar(-5.0));
            let mut grads = Grads::for_params(&params);
            let mut opt = Adam::new(0.05);
            let mut snapshot: Option<(Params, Adam)> = None;
            for step in 0..200 {
                if Some(step) == resume_at {
                    let (p, o) = snapshot.take().expect("snapshot taken earlier");
                    params = p;
                    opt = o;
                }
                quadratic_step(&mut params, &mut grads, &mut opt, id);
                if step == 99 && resume_at.is_some() {
                    // JSON round-trip, not a clone: this is what a checkpoint
                    // does, and it must be bit-exact for every float.
                    let o = serde_json::to_string(&opt).unwrap();
                    let p = serde_json::to_string(&params).unwrap();
                    snapshot = Some((
                        serde_json::from_str(&p).unwrap(),
                        serde_json::from_str(&o).unwrap(),
                    ));
                }
            }
            (params.get(id).item(), opt)
        };
        let (w_straight, opt_straight) = run(None);
        let (w_resumed, opt_resumed) = run(Some(100));
        assert_eq!(w_straight.to_bits(), w_resumed.to_bits());
        assert_eq!(opt_straight, opt_resumed, "moments and step count must round-trip");
        assert_eq!(opt_resumed.steps(), 200);
    }

    #[test]
    fn adam_handles_multiple_params() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::scalar(10.0));
        let b = params.add("b", Tensor::row_vector(&[-2.0, 4.0]));
        let mut grads = Grads::for_params(&params);
        let mut opt = Adam::new(0.1);
        for _ in 0..600 {
            grads.zero();
            let mut tape = Tape::new();
            let va = tape.param(&params, a);
            let vb = tape.param(&params, b);
            let sa = tape.mul_elem(va, va);
            let sb = tape.mul_elem(vb, vb);
            let la = tape.sum_all(sa);
            let lb = tape.sum_all(sb);
            let loss = tape.add(la, lb);
            tape.backward_into(loss, &mut grads);
            opt.step_grads(&mut params, &grads);
        }
        assert!(params.get(a).item().abs() < 1e-2);
        assert!(params.get(b).norm() < 1e-2);
    }
}
