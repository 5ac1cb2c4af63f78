//! Placer networks: sequence-to-sequence with Bahdanau attention (the paper's
//! choice, Fig. 3a / Fig. 4) and a graph-convolutional alternative (Fig. 3b).
//!
//! Both consume a `(k, d_in)` matrix of group embeddings and emit one device per
//! group. They expose a single `forward` that either *samples* actions or
//! *teacher-forces* a given action sequence (needed to re-evaluate log-probabilities
//! of old samples under new parameters for PPO's ratio).

use eagle_rl::sample_categorical;
use eagle_tensor::{init, ParamId, Params, Tape, Tensor, Var};
use rand::Rng;

use crate::linear::{Activation, FeedForward, Linear};
use crate::lstm::{BiLstm, LstmCell, LstmState};

/// Where the attention context enters the decoder (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMode {
    /// Context is an extra *input* to the decoder LSTM (paper's pick for EAGLE:
    /// "the attention score is applied before feeding to the decoder").
    Before,
    /// Context is combined with the decoder *output* before the softmax
    /// (Hierarchical Planner's variant).
    After,
}

/// Output of one placer forward pass.
#[derive(Debug, Clone)]
pub struct PlacerOutput {
    /// Chosen device index per group.
    pub actions: Vec<usize>,
    /// Per-group log-probability of the chosen device, `(k, 1)` on the tape.
    pub step_log_probs: Var,
    /// Sum of log-probabilities (the joint placement log-probability), `1x1`.
    pub log_prob: Var,
    /// Mean per-step policy entropy, `1x1`.
    pub entropy: Var,
}

/// Common interface of the two placer designs.
///
/// [`Placer::forward_batch`] is the primitive the agents' hot paths use: it
/// decodes a whole minibatch with one `(B·n, h)`-shaped matmul per layer.
/// [`Placer::forward`] is the original per-episode implementation, kept as the
/// reference the batched path is differential-tested against (the two are
/// bit-identical per episode; see the `eagle_rl::policy` bit-identity contract).
pub trait Placer {
    /// Decodes a placement for `x: (k, d_in)` group embeddings. When `forced` is
    /// given, its actions are scored instead of sampling new ones.
    fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        x: Var,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> PlacerOutput;

    /// Decodes one placement per episode in a single batched pass. `xs` holds
    /// one `(k, d_in)` input per episode — passing the *same* `Var` for every
    /// episode makes shared-input work (e.g. the encoder) run once. When
    /// `forced` is absent, episode `b` samples from `rngs[b]` only, consuming
    /// draws in the same order a serial [`Placer::forward`] call would.
    fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<PlacerOutput>;

    /// Number of devices the placer chooses among.
    fn num_devices(&self) -> usize;
}

/// Validates the shared `forward_batch` preconditions and returns the batch
/// size and per-episode sequence length.
fn check_batch_args(
    tape: &Tape,
    xs: &[Var],
    forced: Option<&[&[usize]]>,
    rngs: &[&mut dyn rand::RngCore],
) -> (usize, usize) {
    let bsz = xs.len();
    assert!(bsz > 0, "at least one episode");
    let k = tape.value(xs[0]).rows();
    for &x in xs {
        assert_eq!(tape.value(x).rows(), k, "all episodes share the group count");
    }
    match forced {
        Some(f) => {
            assert_eq!(f.len(), bsz, "one forced action vector per episode");
            for a in f {
                assert_eq!(a.len(), k, "forced actions must cover every group");
            }
        }
        None => assert_eq!(rngs.len(), bsz, "one RNG stream per episode"),
    }
    (bsz, k)
}

/// Scores and entropy for one decode step; shared by both placers.
fn step_policy(
    tape: &mut Tape,
    logits: Var,
    forced: Option<usize>,
    rng: &mut dyn rand::RngCore,
) -> (usize, Var, Var) {
    let log_probs = tape.log_softmax(logits);
    let probs = tape.softmax(logits);
    let action = match forced {
        Some(a) => a,
        None => sample_categorical(tape.value(probs).row(0), rng),
    };
    let logp = tape.pick_per_row(log_probs, &[action]);
    let plogp = tape.mul_elem(probs, log_probs);
    let sum = tape.sum_all(plogp);
    let ent = tape.neg(sum);
    (action, logp, ent)
}

/// The sequence-to-sequence placer (paper Fig. 3a): bi-LSTM encoder over group
/// embeddings, uni-LSTM decoder emitting one device per group, Bahdanau
/// content-based attention, previous decision fed back via a device embedding.
#[derive(Debug, Clone)]
pub struct Seq2SeqPlacer {
    input_proj: Linear,
    encoder: BiLstm,
    decoder: LstmCell,
    attn_enc: Linear,
    attn_dec: Linear,
    attn_v: ParamId,
    out: Linear,
    dev_emb: ParamId,
    mode: AttentionMode,
    hidden: usize,
    n_devices: usize,
}

impl Seq2SeqPlacer {
    /// Registers all parameters. `hidden` is the LSTM size (512 in the paper;
    /// smaller for quick experiments), `attn_dim` the attention space.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        attn_dim: usize,
        n_devices: usize,
        mode: AttentionMode,
        rng: &mut impl Rng,
    ) -> Self {
        let emb_dim = (hidden / 4).max(4);
        let dec_in = match mode {
            AttentionMode::Before => hidden + 2 * hidden + emb_dim,
            AttentionMode::After => hidden + emb_dim,
        };
        let out_in = match mode {
            AttentionMode::Before => hidden,
            AttentionMode::After => hidden + 2 * hidden,
        };
        Self {
            input_proj: Linear::new(params, &format!("{name}/in_proj"), d_in, hidden, rng),
            encoder: BiLstm::new(params, &format!("{name}/enc"), hidden, hidden, rng),
            decoder: LstmCell::new(params, &format!("{name}/dec"), dec_in, hidden, rng),
            attn_enc: Linear::new(params, &format!("{name}/attn_enc"), 2 * hidden, attn_dim, rng),
            attn_dec: Linear::new(params, &format!("{name}/attn_dec"), hidden, attn_dim, rng),
            attn_v: params.add(format!("{name}/attn_v"), init::xavier_uniform(attn_dim, 1, rng)),
            out: Linear::new(params, &format!("{name}/out"), out_in, n_devices, rng),
            // Row n_devices is the start-of-sequence token.
            dev_emb: params
                .add(format!("{name}/dev_emb"), init::uniform(n_devices + 1, emb_dim, 0.1, rng)),
            mode,
            hidden,
            n_devices,
        }
    }

    /// The attention-application mode.
    pub fn mode(&self) -> AttentionMode {
        self.mode
    }

    /// Bahdanau context for the current decoder state.
    fn context(
        &self,
        tape: &mut Tape,
        params: &Params,
        enc_outs: Var,
        enc_proj: Var,
        dec_h: Var,
    ) -> Var {
        let dec_proj = self.attn_dec.forward(tape, params, dec_h); // (1, a)
        let pre = tape.add_row_broadcast(enc_proj, dec_proj); // (k, a)
        let act = tape.tanh(pre);
        let v = tape.param(params, self.attn_v);
        let scores = tape.matmul(act, v); // (k, 1)
        let scores_row = tape.transpose(scores); // (1, k)
        let alpha = tape.softmax(scores_row); // (1, k)
        tape.matmul(alpha, enc_outs) // (1, 2h)
    }

    /// Batched Bahdanau context: one `(B, 2h)` context matrix for `B` decoder
    /// states at once. `enc_outs`/`enc_proj` hold one entry per *distinct*
    /// encoder pass and `ep_enc[b]` maps episode `b` to its entry.
    ///
    /// Row `b` is bit-identical to [`Seq2SeqPlacer::context`] for episode `b`:
    /// the score matmul batches as extra rows (`(B·k, a) @ (a, 1)`), the
    /// `(B, k)` score layout is data-identical to the per-episode `(1, k)`
    /// transposes stacked, softmax is per-row, and the context matmul's inner
    /// summation order over `k` is unchanged.
    #[allow(clippy::too_many_arguments)]
    fn context_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        enc_outs: &[Var],
        enc_proj: &[Var],
        ep_enc: &[usize],
        dec_h: Var,
        k: usize,
    ) -> Var {
        let bsz = ep_enc.len();
        let dec_proj = self.attn_dec.forward(tape, params, dec_h); // (B, a)
        let pres: Vec<Var> = (0..bsz)
            .map(|b| {
                let row = tape.slice_rows(dec_proj, b, 1);
                tape.add_row_broadcast(enc_proj[ep_enc[b]], row) // (k, a)
            })
            .collect();
        let pre = tape.concat_rows(&pres); // (B·k, a)
        let act = tape.tanh(pre);
        let v = tape.param(params, self.attn_v);
        let scores = tape.matmul(act, v); // (B·k, 1)
        let rows: Vec<Var> = (0..bsz)
            .map(|b| {
                let s = tape.slice_rows(scores, b * k, k);
                tape.transpose(s) // (1, k)
            })
            .collect();
        let score_mat = tape.concat_rows(&rows); // (B, k)
        let alpha = tape.softmax(score_mat); // (B, k)
        if enc_outs.len() == 1 {
            tape.matmul(alpha, enc_outs[0]) // (B, 2h)
        } else {
            let ctxs: Vec<Var> = (0..bsz)
                .map(|b| {
                    let a_row = tape.slice_rows(alpha, b, 1);
                    tape.matmul(a_row, enc_outs[ep_enc[b]]) // (1, 2h)
                })
                .collect();
            tape.concat_rows(&ctxs)
        }
    }
}

impl Placer for Seq2SeqPlacer {
    fn num_devices(&self) -> usize {
        self.n_devices
    }

    fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        x: Var,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> PlacerOutput {
        let k = tape.value(x).rows();
        if let Some(f) = forced {
            assert_eq!(f.len(), k, "forced actions must cover every group");
        }
        let xs = self.input_proj.forward(tape, params, x); // (k, h)
        let (enc_outs, enc_last) = self.encoder.forward(tape, params, xs); // (k, 2h)
        let enc_proj = self.attn_enc.forward(tape, params, enc_outs); // (k, a)

        let mut state =
            crate::lstm::LstmState { h: enc_last.h, c: tape.leaf(Tensor::zeros(1, self.hidden)) };
        let dev_table = tape.param(params, self.dev_emb);
        let mut prev_action = self.n_devices; // start token
        let mut actions = Vec::with_capacity(k);
        let mut logps = Vec::with_capacity(k);
        let mut ents = Vec::with_capacity(k);

        for i in 0..k {
            let x_i = tape.slice_rows(xs, i, 1); // (1, h)
            let prev_emb = tape.select_rows(dev_table, &[prev_action]); // (1, e)
            let (h_i, logits) = match self.mode {
                AttentionMode::Before => {
                    let ctx = self.context(tape, params, enc_outs, enc_proj, state.h);
                    let inp = tape.concat_cols(&[x_i, ctx, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    (state.h, self.out.forward(tape, params, state.h))
                }
                AttentionMode::After => {
                    let inp = tape.concat_cols(&[x_i, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    let ctx = self.context(tape, params, enc_outs, enc_proj, state.h);
                    let combined = tape.concat_cols(&[state.h, ctx]);
                    (state.h, self.out.forward(tape, params, combined))
                }
            };
            let _ = h_i;
            let (a, logp, ent) = step_policy(tape, logits, forced.map(|f| f[i]), rng);
            actions.push(a);
            prev_action = a;
            logps.push(logp);
            ents.push(ent);
        }

        let step_log_probs = tape.concat_rows(&logps);
        let log_prob = tape.sum_all(step_log_probs);
        let ent_stack = tape.concat_rows(&ents);
        let entropy = tape.mean_all(ent_stack);
        PlacerOutput { actions, step_log_probs, log_prob, entropy }
    }

    fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<PlacerOutput> {
        let (bsz, k) = check_batch_args(tape, xs, forced, rngs);

        // Episodes passing the same input Var share one encoder pass: map each
        // episode to a distinct-input slot.
        let mut uniq: Vec<Var> = Vec::new();
        let mut ep_enc: Vec<usize> = Vec::with_capacity(bsz);
        for &x in xs {
            match uniq.iter().position(|&v| v == x) {
                Some(j) => ep_enc.push(j),
                None => {
                    ep_enc.push(uniq.len());
                    uniq.push(x);
                }
            }
        }
        let u = uniq.len();

        // Input projection + attention keys run once per distinct input, as one
        // stacked matmul when there are several.
        let xs_h: Vec<Var> = if u == 1 {
            vec![self.input_proj.forward(tape, params, uniq[0])]
        } else {
            let stacked = tape.concat_rows(&uniq);
            let proj = self.input_proj.forward(tape, params, stacked); // (u·k, h)
            (0..u).map(|j| tape.slice_rows(proj, j * k, k)).collect()
        };
        let enc_res: Vec<(Var, LstmState)> = if u == 1 {
            let (outs, last) = self.encoder.forward(tape, params, xs_h[0]);
            vec![(outs, last)]
        } else {
            self.encoder.forward_batch(tape, params, &xs_h)
        };
        let enc_outs: Vec<Var> = enc_res.iter().map(|(o, _)| *o).collect();
        let enc_proj: Vec<Var> = if u == 1 {
            vec![self.attn_enc.forward(tape, params, enc_outs[0])]
        } else {
            let stacked = tape.concat_rows(&enc_outs);
            let proj = self.attn_enc.forward(tape, params, stacked); // (u·k, a)
            (0..u).map(|j| tape.slice_rows(proj, j * k, k)).collect()
        };

        // Decoder state: episode b starts from its encoder's last forward state.
        let h0 = if bsz == 1 {
            enc_res[0].1.h
        } else {
            let rows: Vec<Var> = ep_enc.iter().map(|&e| enc_res[e].1.h).collect();
            tape.concat_rows(&rows)
        };
        let mut state = LstmState { h: h0, c: tape.leaf(Tensor::zeros(bsz, self.hidden)) };
        let dev_table = tape.param(params, self.dev_emb);
        let mut prev: Vec<usize> = vec![self.n_devices; bsz]; // start token
        let mut actions_ep: Vec<Vec<usize>> = vec![Vec::with_capacity(k); bsz];
        let mut step_logps = Vec::with_capacity(k);
        let mut step_ents = Vec::with_capacity(k);

        for i in 0..k {
            let x_i = if bsz == 1 {
                tape.slice_rows(xs_h[0], i, 1)
            } else if u == 1 {
                tape.select_rows(xs_h[0], &vec![i; bsz]) // (B, h)
            } else {
                let rows: Vec<Var> =
                    ep_enc.iter().map(|&e| tape.slice_rows(xs_h[e], i, 1)).collect();
                tape.concat_rows(&rows)
            };
            let prev_emb = tape.select_rows(dev_table, &prev); // (B, e)
            let logits = match self.mode {
                AttentionMode::Before => {
                    let ctx =
                        self.context_batch(tape, params, &enc_outs, &enc_proj, &ep_enc, state.h, k);
                    let inp = tape.concat_cols(&[x_i, ctx, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    self.out.forward(tape, params, state.h)
                }
                AttentionMode::After => {
                    let inp = tape.concat_cols(&[x_i, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    let ctx =
                        self.context_batch(tape, params, &enc_outs, &enc_proj, &ep_enc, state.h, k);
                    let combined = tape.concat_cols(&[state.h, ctx]);
                    self.out.forward(tape, params, combined)
                }
            }; // (B, nd)
            let log_probs = tape.log_softmax(logits);
            let probs = tape.softmax(logits);
            let acts: Vec<usize> = match forced {
                Some(f) => f.iter().map(|a| a[i]).collect(),
                None => {
                    let pv = tape.value(probs);
                    (0..bsz).map(|b| sample_categorical(pv.row(b), &mut *rngs[b])).collect()
                }
            };
            let logp = tape.pick_per_row(log_probs, &acts); // (B, 1)
            let plogp = tape.mul_elem(probs, log_probs);
            let rsum = tape.row_sums(plogp); // (B, 1)
            let ent = tape.neg(rsum);
            for (b, &a) in acts.iter().enumerate() {
                actions_ep[b].push(a);
            }
            prev = acts;
            step_logps.push(logp);
            step_ents.push(ent);
        }

        // (B, k): column i holds step i, so row b is episode b's step sequence
        // in the same order the per-episode path stacks them.
        let logp_mat = tape.concat_cols(&step_logps);
        let ent_mat = tape.concat_cols(&step_ents);
        actions_ep
            .into_iter()
            .enumerate()
            .map(|(b, actions)| {
                let lp_row = tape.slice_rows(logp_mat, b, 1); // (1, k)
                let log_prob = tape.sum_all(lp_row);
                let step_log_probs = tape.transpose(lp_row); // (k, 1)
                let ent_row = tape.slice_rows(ent_mat, b, 1);
                let entropy = tape.mean_all(ent_row);
                PlacerOutput { actions, step_log_probs, log_prob, entropy }
            })
            .collect()
    }
}

/// The two-layer GCN placer (paper Fig. 3b): graph convolutions over the *group*
/// graph, then an independent softmax per group. Requires the group adjacency,
/// provided as a row-normalized matrix with self-loops.
#[derive(Debug, Clone)]
pub struct GcnPlacer {
    l1: FeedForward,
    l2: Linear,
    adj: Tensor,
    n_devices: usize,
}

impl GcnPlacer {
    /// Registers the two graph-convolution layers. `adj` must be `(k, k)`,
    /// row-normalized with self-loops (see [`normalize_adjacency`]).
    pub fn new(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        n_devices: usize,
        adj: Tensor,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        Self {
            l1: FeedForward::new(
                params,
                &format!("{name}/gc1"),
                &[d_in, hidden],
                Activation::Identity,
                rng,
            ),
            l2: Linear::new(params, &format!("{name}/gc2"), hidden, n_devices, rng),
            adj,
            n_devices,
        }
    }
}

impl Placer for GcnPlacer {
    fn num_devices(&self) -> usize {
        self.n_devices
    }

    fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        x: Var,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> PlacerOutput {
        let k = tape.value(x).rows();
        assert_eq!(self.adj.rows(), k, "adjacency size must match group count");
        if let Some(f) = forced {
            assert_eq!(f.len(), k, "forced actions must cover every group");
        }
        let a = tape.leaf(self.adj.clone());
        let xw = self.l1.forward(tape, params, x);
        let ax = tape.matmul(a, xw);
        let h1 = tape.relu(ax);
        let hw = self.l2.forward(tape, params, h1);
        let logits = tape.matmul(a, hw); // (k, nd)

        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        let actions: Vec<usize> = (0..k)
            .map(|i| match forced {
                Some(f) => f[i],
                None => sample_categorical(tape.value(probs).row(i), rng),
            })
            .collect();
        let step_log_probs = tape.pick_per_row(log_probs, &actions);
        let log_prob = tape.sum_all(step_log_probs);
        let plogp = tape.mul_elem(probs, log_probs);
        let total = tape.sum_all(plogp);
        let scaled = tape.scale(total, -1.0 / k as f32);
        PlacerOutput { actions, step_log_probs, log_prob, entropy: scaled }
    }

    fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<PlacerOutput> {
        let (bsz, k) = check_batch_args(tape, xs, forced, rngs);
        assert_eq!(self.adj.rows(), k, "adjacency size must match group count");
        let x = if bsz == 1 { xs[0] } else { tape.concat_rows(xs) }; // (B·k, d)
                                                                     // Block-diagonal adjacency: the off-block entries are exact zeros, and
                                                                     // adding a `±0.0` product to a (never `-0.0`) matmul accumulator is a
                                                                     // bitwise no-op, so each block's inner summation lands on exactly the
                                                                     // per-episode (k, k) product whether the kernel skips zeros (naive) or
                                                                     // streams them (blocked).
        let a = tape.leaf(block_diag(&self.adj, bsz));
        let xw = self.l1.forward(tape, params, x);
        let ax = tape.matmul(a, xw);
        let h1 = tape.relu(ax);
        let hw = self.l2.forward(tape, params, h1);
        let logits = tape.matmul(a, hw); // (B·k, nd)

        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        let flat_actions = sample_flat(tape, probs, forced, rngs, bsz, k);
        let picked = tape.pick_per_row(log_probs, &flat_actions); // (B·k, 1)
        let plogp = tape.mul_elem(probs, log_probs);
        (0..bsz)
            .map(|b| {
                let step_log_probs = tape.slice_rows(picked, b * k, k);
                let log_prob = tape.sum_all(step_log_probs);
                let ep_plogp = tape.slice_rows(plogp, b * k, k);
                let total = tape.sum_all(ep_plogp);
                let entropy = tape.scale(total, -1.0 / k as f32);
                PlacerOutput {
                    actions: flat_actions[b * k..(b + 1) * k].to_vec(),
                    step_log_probs,
                    log_prob,
                    entropy,
                }
            })
            .collect()
    }
}

/// Stacks `bsz` copies of `adj` on the diagonal of a `(bsz·k, bsz·k)` matrix.
fn block_diag(adj: &Tensor, bsz: usize) -> Tensor {
    if bsz == 1 {
        return adj.clone();
    }
    let k = adj.rows();
    let mut big = Tensor::zeros(bsz * k, bsz * k);
    for b in 0..bsz {
        for r in 0..k {
            for c in 0..k {
                let v = adj.get(r, c);
                if v != 0.0 {
                    big.set(b * k + r, b * k + c, v);
                }
            }
        }
    }
    big
}

/// Episode-major action selection over a `(bsz·k, nd)` probability matrix:
/// episode `b` owns rows `b·k..(b+1)·k` and draws from `rngs[b]` only, in row
/// order — the same draw sequence a serial per-episode pass consumes.
fn sample_flat(
    tape: &Tape,
    probs: Var,
    forced: Option<&[&[usize]]>,
    rngs: &mut [&mut dyn rand::RngCore],
    bsz: usize,
    k: usize,
) -> Vec<usize> {
    let mut flat = Vec::with_capacity(bsz * k);
    for b in 0..bsz {
        match forced {
            Some(f) => flat.extend_from_slice(f[b]),
            None => {
                let pv = tape.value(probs);
                for i in 0..k {
                    flat.push(sample_categorical(pv.row(b * k + i), &mut *rngs[b]));
                }
            }
        }
    }
    flat
}

/// Post's "simple neural network" placer: an MLP mapping each group embedding to an
/// independent categorical over devices. No recurrence, no attention — the paper
/// credits its stability (and blames its local optima) on exactly this simplicity.
#[derive(Debug, Clone)]
pub struct SimplePlacer {
    net: FeedForward,
    n_devices: usize,
}

impl SimplePlacer {
    /// Registers a `d_in -> hidden -> n_devices` ReLU MLP.
    pub fn new(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        n_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            net: FeedForward::new(params, name, &[d_in, hidden, n_devices], Activation::Relu, rng),
            n_devices,
        }
    }
}

impl Placer for SimplePlacer {
    fn num_devices(&self) -> usize {
        self.n_devices
    }

    fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        x: Var,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> PlacerOutput {
        let k = tape.value(x).rows();
        if let Some(f) = forced {
            assert_eq!(f.len(), k, "forced actions must cover every group");
        }
        let logits = self.net.forward(tape, params, x);
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        let actions: Vec<usize> = (0..k)
            .map(|i| match forced {
                Some(f) => f[i],
                None => sample_categorical(tape.value(probs).row(i), rng),
            })
            .collect();
        let step_log_probs = tape.pick_per_row(log_probs, &actions);
        let log_prob = tape.sum_all(step_log_probs);
        let plogp = tape.mul_elem(probs, log_probs);
        let total = tape.sum_all(plogp);
        let entropy = tape.scale(total, -1.0 / k as f32);
        PlacerOutput { actions, step_log_probs, log_prob, entropy }
    }

    fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<PlacerOutput> {
        let (bsz, k) = check_batch_args(tape, xs, forced, rngs);
        let x = if bsz == 1 { xs[0] } else { tape.concat_rows(xs) }; // (B·k, d)
        let logits = self.net.forward(tape, params, x); // (B·k, nd)
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        let flat_actions = sample_flat(tape, probs, forced, rngs, bsz, k);
        let picked = tape.pick_per_row(log_probs, &flat_actions); // (B·k, 1)
        let plogp = tape.mul_elem(probs, log_probs);
        (0..bsz)
            .map(|b| {
                let step_log_probs = tape.slice_rows(picked, b * k, k);
                let log_prob = tape.sum_all(step_log_probs);
                let ep_plogp = tape.slice_rows(plogp, b * k, k);
                let total = tape.sum_all(ep_plogp);
                let entropy = tape.scale(total, -1.0 / k as f32);
                PlacerOutput {
                    actions: flat_actions[b * k..(b + 1) * k].to_vec(),
                    step_log_probs,
                    log_prob,
                    entropy,
                }
            })
            .collect()
    }
}

/// Builds the row-normalized group adjacency (with self-loops) the GCN placer
/// expects, from a hard op-to-group assignment.
pub fn normalize_adjacency(graph: &eagle_opgraph::OpGraph, group_of: &[usize], k: usize) -> Tensor {
    let mut adj = Tensor::zeros(k, k);
    for (u, v) in graph.edges() {
        let (gu, gv) = (group_of[u.index()], group_of[v.index()]);
        if gu != gv {
            adj.set(gu, gv, 1.0);
            adj.set(gv, gu, 1.0);
        }
    }
    for i in 0..k {
        adj.set(i, i, 1.0);
    }
    for r in 0..k {
        let sum: f32 = adj.row(r).iter().sum();
        for c in 0..k {
            let v = adj.get(r, c) / sum;
            adj.set(r, c, v);
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_tensor::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(mode: AttentionMode) -> (Params, Seq2SeqPlacer) {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let placer = Seq2SeqPlacer::new(&mut params, "p", 7, 12, 8, 5, mode, &mut rng);
        (params, placer)
    }

    fn run(
        params: &Params,
        placer: &impl Placer,
        x: &Tensor,
        forced: Option<&[usize]>,
        seed: u64,
    ) -> (Vec<usize>, f32, f32) {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = placer.forward(&mut tape, params, xv, forced, &mut rng);
        (out.actions.clone(), tape.value(out.log_prob).item(), tape.value(out.entropy).item())
    }

    /// Runs `forward_batch` and asserts every episode matches a serial
    /// per-episode `forward` replay bit-for-bit (actions, log-prob, entropy,
    /// per-step log-probs).
    fn assert_batch_matches_serial(
        params: &Params,
        placer: &impl Placer,
        inputs: &[Tensor],
        seed: u64,
    ) {
        let k = inputs[0].rows();
        let mut tape = Tape::new();
        let xvs: Vec<Var> = inputs.iter().map(|x| tape.leaf(x.clone())).collect();
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let mut streams = eagle_rl::fork_streams(&mut master, k, inputs.len());
        let mut refs: Vec<&mut dyn rand::RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
        let outs = placer.forward_batch(&mut tape, params, &xvs, None, &mut refs);
        assert_eq!(outs.len(), inputs.len());

        let mut serial_rng = ChaCha8Rng::seed_from_u64(seed);
        for (x, out) in inputs.iter().zip(&outs) {
            let mut ref_tape = Tape::new();
            let xv = ref_tape.leaf(x.clone());
            let ref_out = placer.forward(&mut ref_tape, params, xv, None, &mut serial_rng);
            assert_eq!(out.actions, ref_out.actions, "sampled actions diverge");
            assert_eq!(
                tape.value(out.log_prob).item().to_bits(),
                ref_tape.value(ref_out.log_prob).item().to_bits(),
                "log-prob not bit-identical"
            );
            assert_eq!(
                tape.value(out.entropy).item().to_bits(),
                ref_tape.value(ref_out.entropy).item().to_bits(),
                "entropy not bit-identical"
            );
            assert_eq!(
                tape.value(out.step_log_probs).data(),
                ref_tape.value(ref_out.step_log_probs).data(),
                "per-step log-probs diverge"
            );
        }
    }

    #[test]
    fn seq2seq_forward_batch_matches_serial_shared_input() {
        for mode in [AttentionMode::Before, AttentionMode::After] {
            let (params, placer) = setup(mode);
            // All episodes share one input tensor (the EAGLE agent's shape).
            let x = Tensor::full(6, 7, 0.3);
            assert_batch_matches_serial(&params, &placer, &[x.clone(), x.clone(), x], 11);
        }
    }

    #[test]
    fn seq2seq_forward_batch_matches_serial_distinct_inputs() {
        let (params, placer) = setup(AttentionMode::Before);
        // Distinct per-episode inputs (the HP agent's shape).
        let inputs: Vec<Tensor> =
            (0..3).map(|i| Tensor::full(6, 7, 0.1 * (i as f32 + 1.0))).collect();
        assert_batch_matches_serial(&params, &placer, &inputs, 12);
    }

    #[test]
    fn gcn_and_simple_forward_batch_match_serial() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let adj = Tensor::eye(4);
        let gcn = GcnPlacer::new(&mut params, "g", 7, 10, 5, adj, &mut rng);
        let simple = SimplePlacer::new(&mut params, "s", 7, 10, 5, &mut rng);
        let inputs: Vec<Tensor> =
            (0..4).map(|i| Tensor::full(4, 7, 0.2 * (i as f32 + 1.0))).collect();
        assert_batch_matches_serial(&params, &gcn, &inputs, 21);
        assert_batch_matches_serial(&params, &simple, &inputs, 22);
    }

    #[test]
    fn forward_batch_teacher_forcing_matches_serial() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(5, 7, 0.1);
        let forced: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, 4], vec![4, 4, 4, 4, 4]];
        let forced_refs: Vec<&[usize]> = forced.iter().map(|a| a.as_slice()).collect();
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let outs = placer.forward_batch(&mut tape, &params, &[xv, xv], Some(&forced_refs), &mut []);
        for (a, out) in forced.iter().zip(&outs) {
            let (actions, logp, ent) = run(&params, &placer, &x, Some(a), 7);
            assert_eq!(&out.actions, a);
            assert_eq!(actions, *a);
            assert_eq!(tape.value(out.log_prob).item().to_bits(), logp.to_bits());
            assert_eq!(tape.value(out.entropy).item().to_bits(), ent.to_bits());
        }
    }

    #[test]
    fn forward_batch_gradients_match_serial_bitwise() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(4, 7, 0.2);
        let forced: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]];
        let forced_refs: Vec<&[usize]> = forced.iter().map(|a| a.as_slice()).collect();

        // Batched: one shared tape, per-episode backward in episode order.
        let mut batch_grads = Grads::for_params(&params);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let outs = placer.forward_batch(&mut tape, &params, &[xv, xv], Some(&forced_refs), &mut []);
        for out in &outs {
            let loss = tape.neg(out.log_prob);
            tape.backward_into(loss, &mut batch_grads);
        }

        // Serial reference: separate tape per episode.
        let mut serial_grads = Grads::for_params(&params);
        for a in &forced {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let out =
                placer.forward(&mut t, &params, xv, Some(a), &mut ChaCha8Rng::seed_from_u64(0));
            let loss = t.neg(out.log_prob);
            t.backward_into(loss, &mut serial_grads);
        }

        assert_eq!(
            batch_grads.global_norm().to_bits(),
            serial_grads.global_norm().to_bits(),
            "accumulated gradients diverge between batched and serial scoring"
        );
    }

    #[test]
    fn seq2seq_before_samples_valid_actions() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(6, 7, 0.3);
        let (actions, logp, ent) = run(&params, &placer, &x, None, 1);
        assert_eq!(actions.len(), 6);
        assert!(actions.iter().all(|&a| a < 5));
        assert!(logp < 0.0, "log-prob of a sample is negative");
        assert!(ent > 0.0 && ent <= (5.0f32).ln() + 1e-4, "entropy in (0, ln 5]");
    }

    #[test]
    fn seq2seq_after_mode_works_too() {
        let (params, placer) = setup(AttentionMode::After);
        let x = Tensor::full(4, 7, -0.2);
        let (actions, logp, _) = run(&params, &placer, &x, None, 2);
        assert_eq!(actions.len(), 4);
        assert!(logp.is_finite());
    }

    #[test]
    fn teacher_forcing_reproduces_log_prob() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(5, 7, 0.1);
        let (actions, logp_sampled, _) = run(&params, &placer, &x, None, 3);
        // Re-scoring the same actions must give the same joint log-probability.
        let (actions2, logp_forced, _) = run(&params, &placer, &x, Some(&actions), 99);
        assert_eq!(actions, actions2);
        assert!((logp_sampled - logp_forced).abs() < 1e-4);
    }

    #[test]
    fn different_forced_actions_change_log_prob() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(5, 7, 0.1);
        let (_, lp_a, _) = run(&params, &placer, &x, Some(&[0, 0, 0, 0, 0]), 1);
        let (_, lp_b, _) = run(&params, &placer, &x, Some(&[4, 4, 4, 4, 4]), 1);
        assert_ne!(lp_a, lp_b);
    }

    #[test]
    fn gcn_placer_shapes_and_determinism() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let adj = Tensor::eye(4);
        let placer = GcnPlacer::new(&mut params, "g", 7, 10, 5, adj, &mut rng);
        let x = Tensor::full(4, 7, 0.5);
        let (a1, lp1, ent) = run(&params, &placer, &x, None, 42);
        let (a2, lp2, _) = run(&params, &placer, &x, None, 42);
        assert_eq!(a1, a2, "same sampling seed, same actions");
        assert_eq!(lp1, lp2);
        assert!(ent > 0.0);
        assert!(a1.iter().all(|&a| a < 5));
    }

    #[test]
    fn normalize_adjacency_rows_sum_to_one() {
        use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
        let mut g = OpGraph::new("t");
        let a = g.add_node(OpNode::new("a", OpKind::MatMul, Phase::Forward));
        let b = g.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward));
        let c = g.add_node(OpNode::new("c", OpKind::MatMul, Phase::Forward));
        g.add_edge(a, b);
        g.add_edge(b, c);
        let adj = normalize_adjacency(&g, &[0, 1, 1], 2);
        for r in 0..2 {
            let s: f32 = adj.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(adj.get(0, 1) > 0.0, "groups 0 and 1 are connected");
    }

    #[test]
    fn gradients_flow_through_placer() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(3, 7, 0.2);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let out = placer.forward(&mut tape, &params, xv, None, &mut rng);
        let loss = tape.neg(out.log_prob);
        let mut grads = Grads::for_params(&params);
        tape.backward_into(loss, &mut grads);
        assert!(grads.global_norm() > 0.0, "some gradient must reach the params");
    }
}
