//! LSTM cells and (bi-)directional sequence encoders.

use eagle_tensor::{init, ParamId, Params, Tape, Tensor, Var};
use rand::Rng;

/// A fused LSTM cell: one input->4h and one hidden->4h weight matrix, gate order
/// `[input, forget, cell, output]`, forget-gate bias initialized to 1.
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    /// Input dimension.
    pub in_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
}

/// Hidden and cell state pair on the tape.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `(1, hidden)` (or `(n, hidden)` when stepping a batch).
    pub h: Var,
    /// Cell state, same shape as `h`.
    pub c: Var,
}

impl LstmCell {
    /// Registers the cell's parameters.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w_ih =
            params.add(format!("{name}/w_ih"), init::xavier_uniform(in_dim, 4 * hidden, rng));
        let w_hh =
            params.add(format!("{name}/w_hh"), init::xavier_uniform(hidden, 4 * hidden, rng));
        let mut bias = Tensor::zeros(1, 4 * hidden);
        // Forget-gate bias 1.0: standard trick to keep memory early in training.
        for j in hidden..2 * hidden {
            bias.set(0, j, 1.0);
        }
        let b = params.add(format!("{name}/b"), bias);
        Self { w_ih, w_hh, b, in_dim, hidden }
    }

    /// Initial zero state for a batch of `n` rows.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> LstmState {
        LstmState {
            h: tape.leaf(Tensor::zeros(n, self.hidden)),
            c: tape.leaf(Tensor::zeros(n, self.hidden)),
        }
    }

    /// One step: `x (n, in_dim)`, state `(n, hidden)` -> next state.
    pub fn step(&self, tape: &mut Tape, params: &Params, x: Var, state: LstmState) -> LstmState {
        let w_ih = tape.param(params, self.w_ih);
        let w_hh = tape.param(params, self.w_hh);
        let b = tape.param(params, self.b);
        let xi = tape.matmul(x, w_ih);
        let hh = tape.matmul(state.h, w_hh);
        let z0 = tape.add(xi, hh);
        let z = tape.add_row_broadcast(z0, b);
        let h = self.hidden;
        let zi = tape.slice_cols(z, 0, h);
        let zf = tape.slice_cols(z, h, h);
        let zg = tape.slice_cols(z, 2 * h, h);
        let zo = tape.slice_cols(z, 3 * h, h);
        let i = tape.sigmoid(zi);
        let f = tape.sigmoid(zf);
        let g = tape.tanh(zg);
        let o = tape.sigmoid(zo);
        let fc = tape.mul_elem(f, state.c);
        let ig = tape.mul_elem(i, g);
        let c = tape.add(fc, ig);
        let tc = tape.tanh(c);
        let h_out = tape.mul_elem(o, tc);
        LstmState { h: h_out, c }
    }
}

/// A uni-directional LSTM over a sequence laid out as rows of a matrix.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// The underlying cell.
    pub cell: LstmCell,
}

impl Lstm {
    /// Registers a new LSTM.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self { cell: LstmCell::new(params, name, in_dim, hidden, rng) }
    }

    /// Runs over `xs (t, in_dim)` (each row one timestep) and returns the per-step
    /// hidden states stacked as `(t, hidden)` plus the final state.
    pub fn forward(&self, tape: &mut Tape, params: &Params, xs: Var) -> (Var, LstmState) {
        let t = tape.value(xs).rows();
        let mut state = self.cell.zero_state(tape, 1);
        let mut outs = Vec::with_capacity(t);
        for i in 0..t {
            let x = tape.slice_rows(xs, i, 1);
            state = self.cell.step(tape, params, x, state);
            outs.push(state.h);
        }
        (tape.concat_rows(&outs), state)
    }
}

/// A bidirectional LSTM: forward and backward passes concatenated per step —
/// the encoder of the paper's sequence-to-sequence placer.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fw: LstmCell,
    bw: LstmCell,
    /// Hidden size of each direction (output is `2 * hidden`).
    pub hidden: usize,
}

impl BiLstm {
    /// Registers both directions.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fw: LstmCell::new(params, &format!("{name}/fw"), in_dim, hidden, rng),
            bw: LstmCell::new(params, &format!("{name}/bw"), in_dim, hidden, rng),
            hidden,
        }
    }

    /// Runs over `xs (t, in_dim)`, returning `(t, 2*hidden)` per-step outputs and
    /// the final forward-direction state (used to initialize decoders).
    pub fn forward(&self, tape: &mut Tape, params: &Params, xs: Var) -> (Var, LstmState) {
        let t = tape.value(xs).rows();
        let mut fw_state = self.fw.zero_state(tape, 1);
        let mut fw_outs = Vec::with_capacity(t);
        for i in 0..t {
            let x = tape.slice_rows(xs, i, 1);
            fw_state = self.fw.step(tape, params, x, fw_state);
            fw_outs.push(fw_state.h);
        }
        let mut bw_state = self.bw.zero_state(tape, 1);
        let mut bw_outs = vec![fw_outs[0]; t];
        for i in (0..t).rev() {
            let x = tape.slice_rows(xs, i, 1);
            bw_state = self.bw.step(tape, params, x, bw_state);
            bw_outs[i] = bw_state.h;
        }
        let rows: Vec<Var> = (0..t).map(|i| tape.concat_cols(&[fw_outs[i], bw_outs[i]])).collect();
        (tape.concat_rows(&rows), fw_state)
    }

    /// Runs the encoder over `B` equal-length sequences in lockstep — each
    /// timestep is one `(B, in_dim)` step through the cells instead of `B`
    /// separate `(1, in_dim)` steps — returning per-sequence `(t, 2*hidden)`
    /// outputs and final forward-direction states.
    ///
    /// Bit-identical per sequence to [`BiLstm::forward`]: the step math
    /// (matmul, bias broadcast, gates) is row-wise, so stacking sequences as
    /// extra rows leaves each sequence's f32 summation order unchanged.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
    ) -> Vec<(Var, LstmState)> {
        let bsz = xs.len();
        assert!(bsz > 0, "at least one sequence");
        let t = tape.value(xs[0]).rows();
        for &x in xs {
            assert_eq!(tape.value(x).rows(), t, "all sequences share one length");
        }
        let step_input = |tape: &mut Tape, i: usize| -> Var {
            if bsz == 1 {
                tape.slice_rows(xs[0], i, 1)
            } else {
                let rows: Vec<Var> = xs.iter().map(|&x| tape.slice_rows(x, i, 1)).collect();
                tape.concat_rows(&rows)
            }
        };
        let mut fw_state = self.fw.zero_state(tape, bsz);
        let mut fw_outs = Vec::with_capacity(t);
        for i in 0..t {
            let x = step_input(tape, i);
            fw_state = self.fw.step(tape, params, x, fw_state);
            fw_outs.push(fw_state.h);
        }
        let mut bw_state = self.bw.zero_state(tape, bsz);
        let mut bw_outs = vec![fw_outs[0]; t];
        for i in (0..t).rev() {
            let x = step_input(tape, i);
            bw_state = self.bw.step(tape, params, x, bw_state);
            bw_outs[i] = bw_state.h;
        }
        (0..bsz)
            .map(|b| {
                let rows: Vec<Var> = (0..t)
                    .map(|i| {
                        let f = tape.slice_rows(fw_outs[i], b, 1);
                        let w = tape.slice_rows(bw_outs[i], b, 1);
                        tape.concat_cols(&[f, w])
                    })
                    .collect();
                let outs = tape.concat_rows(&rows);
                let last = LstmState {
                    h: tape.slice_rows(fw_state.h, b, 1),
                    c: tape.slice_rows(fw_state.c, b, 1),
                };
                (outs, last)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_tensor::{optim::Adam, Grads};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn cell_shapes_and_bounded_outputs() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cell = LstmCell::new(&mut params, "c", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 4, 0.5));
        let s0 = cell.zero_state(&mut tape, 2);
        let s1 = cell.step(&mut tape, &params, x, s0);
        assert_eq!(tape.value(s1.h).shape(), (2, 6));
        assert_eq!(tape.value(s1.c).shape(), (2, 6));
        assert!(tape.value(s1.h).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_sequence_output_shape() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lstm = Lstm::new(&mut params, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let xs = tape.leaf(Tensor::full(7, 3, 0.1));
        let (outs, last) = lstm.forward(&mut tape, &params, xs);
        assert_eq!(tape.value(outs).shape(), (7, 5));
        // Last row of outs equals the final hidden state.
        let last_row = tape.value(outs).row(6).to_vec();
        assert_eq!(last_row, tape.value(last.h).row(0).to_vec());
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let bi = BiLstm::new(&mut params, "b", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let xs = tape.leaf(Tensor::full(5, 3, 0.2));
        let (outs, _) = bi.forward(&mut tape, &params, xs);
        assert_eq!(tape.value(outs).shape(), (5, 8));
    }

    #[test]
    fn lstm_memorizes_first_token() {
        // Task: output at the end of the sequence = first input bit. Requires real
        // memory, exercising cell-state gradients end to end (BPTT).
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let lstm = Lstm::new(&mut params, "mem", 1, 8, &mut rng);
        let head = crate::linear::Linear::new(&mut params, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 0.3, -0.2, 0.6], 1.0),
            (vec![-1.0, 0.3, -0.2, 0.6], -1.0),
            (vec![1.0, -0.6, 0.1, 0.0], 1.0),
            (vec![-1.0, -0.6, 0.1, 0.0], -1.0),
        ];
        let mut grads = Grads::for_params(&params);
        let mut last_loss = f32::INFINITY;
        for _ in 0..300 {
            grads.zero();
            let mut total = 0.0;
            for (seq, target) in &seqs {
                let mut tape = Tape::new();
                let xs = tape.leaf(Tensor::from_vec(4, 1, seq.clone()));
                let (_, last) = lstm.forward(&mut tape, &params, xs);
                let pred = head.forward(&mut tape, &params, last.h);
                let t = tape.leaf(Tensor::scalar(*target));
                let err = tape.sub(pred, t);
                let sq = tape.mul_elem(err, err);
                let loss = tape.sum_all(sq);
                total += tape.value(loss).item();
                tape.backward_into(loss, &mut grads);
            }
            last_loss = total / seqs.len() as f32;
            opt.step_grads(&mut params, &grads);
        }
        assert!(last_loss < 0.05, "memory task not learned: {last_loss}");
    }
}
