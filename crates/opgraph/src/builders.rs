//! Synthetic builders for the paper's three benchmark computational graphs.
//!
//! Each builder emits a *training* graph: forward pass, mirrored backward pass (with
//! independent weight-gradient branches — the source of most cross-device parallelism
//! in chain-structured models like BERT), and per-variable optimizer-update ops.
//!
//! FLOPs and tensor sizes are computed honestly from model dimensions. The TensorFlow
//! originals contain more fine-grained ops (shape inference, control flow, etc.); we
//! emit ops at the granularity placement papers reason about (one fused `LstmCell`
//! per timestep, one `Conv2d` per convolution, three ops per attention head), which
//! preserves the structural properties that drive placement decisions.

use crate::graph::{GraphError, OpGraph, OpId, OpKind, OpNode, Phase};

const F32: u64 = 4;

/// Fails with [`GraphError::BadConfig`] when `value` is zero, naming the field.
fn require_nonzero(value: usize, field: &str) -> Result<(), GraphError> {
    if value == 0 {
        Err(GraphError::BadConfig(format!("{field} must be >= 1, got 0")))
    } else {
        Ok(())
    }
}

/// Dimensions for [`try_gnmt`].
#[derive(Debug, Clone)]
pub struct GnmtConfig {
    /// Batch size (the paper raises it from 128 to 256 so the model OOMs one GPU).
    pub batch: usize,
    /// LSTM hidden size per layer.
    pub hidden: usize,
    /// Number of encoder/decoder LSTM layers (paper: the 4-layer variant).
    pub layers: usize,
    /// Source/target sequence length (paper limits to 20–50).
    pub seq_len: usize,
    /// Vocabulary size for the softmax projection.
    pub vocab: usize,
}

impl Default for GnmtConfig {
    fn default() -> Self {
        Self { batch: 256, hidden: 1024, layers: 4, seq_len: 50, vocab: 32768 }
    }
}

impl GnmtConfig {
    /// Rejects degenerate dimensions ([`try_gnmt`] would otherwise panic on,
    /// e.g., `layers = 0`, which indexes the non-existent bottom decoder layer).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "GnmtConfig::batch")?;
        require_nonzero(self.hidden, "GnmtConfig::hidden")?;
        require_nonzero(self.layers, "GnmtConfig::layers")?;
        require_nonzero(self.seq_len, "GnmtConfig::seq_len")?;
        require_nonzero(self.vocab, "GnmtConfig::vocab")
    }
}

/// Dimensions for [`try_bert_base`].
#[derive(Debug, Clone)]
pub struct BertConfig {
    /// Batch size (paper: 24).
    pub batch: usize,
    /// Maximum sequence length (paper: 384).
    pub seq_len: usize,
    /// Hidden size (768 for BERT-Base).
    pub hidden: usize,
    /// Number of transformer layers (12 for BERT-Base).
    pub layers: usize,
    /// Number of attention heads (12 for BERT-Base).
    pub heads: usize,
    /// Feed-forward intermediate size (3072 for BERT-Base).
    pub ff: usize,
    /// Vocabulary size (30522 for BERT).
    pub vocab: usize,
}

impl Default for BertConfig {
    fn default() -> Self {
        Self { batch: 24, seq_len: 384, hidden: 768, layers: 12, heads: 12, ff: 3072, vocab: 30522 }
    }
}

impl BertConfig {
    /// Rejects degenerate dimensions ([`try_bert_base`] would otherwise panic
    /// on, e.g., `heads = 0`, a division by zero computing the head width).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "BertConfig::batch")?;
        require_nonzero(self.seq_len, "BertConfig::seq_len")?;
        require_nonzero(self.hidden, "BertConfig::hidden")?;
        require_nonzero(self.heads, "BertConfig::heads")?;
        require_nonzero(self.ff, "BertConfig::ff")?;
        require_nonzero(self.vocab, "BertConfig::vocab")?;
        if self.hidden < self.heads {
            return Err(GraphError::BadConfig(format!(
                "BertConfig::heads ({}) exceeds hidden ({}): zero-width attention heads",
                self.heads, self.hidden
            )));
        }
        Ok(())
    }
}

/// Dimensions for [`try_inception_v3`].
#[derive(Debug, Clone)]
pub struct InceptionConfig {
    /// Batch size (paper: 1).
    pub batch: usize,
}

impl Default for InceptionConfig {
    fn default() -> Self {
        Self { batch: 1 }
    }
}

impl InceptionConfig {
    /// Rejects a zero batch (every tensor in the graph would be zero-sized).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "InceptionConfig::batch")
    }
}

/// Graph-construction helper that records forward compute ops so the backward pass
/// can be generated by mirroring. Shared with [`crate::graphgen`], which composes
/// the same primitives into randomized motifs.
pub(crate) struct Gb {
    pub(crate) g: OpGraph,
    /// Forward compute ops in construction (= topological) order, with the id of the
    /// `Variable` they read, if any.
    pub(crate) fwd: Vec<(OpId, Option<OpId>)>,
    next_coloc: u32,
}

impl Gb {
    pub(crate) fn new(name: &str) -> Self {
        Self { g: OpGraph::new(name), fwd: Vec::new(), next_coloc: 0 }
    }

    /// A non-compute source node (input pipeline stage, constant).
    pub(crate) fn source(&mut self, name: &str, kind: OpKind, out_bytes: u64) -> OpId {
        self.g.add_node(OpNode::new(name, kind, Phase::Forward).with_out_bytes(out_bytes))
    }

    /// A trainable variable holding `param_bytes` of weights (plus gradient and two
    /// Adam slots, accounted as 4x in persistent memory).
    pub(crate) fn var(&mut self, name: &str, param_bytes: u64) -> OpId {
        let coloc = self.next_coloc;
        self.next_coloc += 1;
        self.g.add_node(
            OpNode::new(name, OpKind::Variable, Phase::Forward)
                .with_out_bytes(param_bytes)
                .with_param_bytes(param_bytes * 4)
                .with_colocation(coloc),
        )
    }

    /// A forward compute op. `var` is its weight variable (if parameterized);
    /// the op is recorded for backward mirroring. Activation memory is the output
    /// kept live for the backward pass.
    pub(crate) fn compute(
        &mut self,
        name: &str,
        kind: OpKind,
        flops: f64,
        out_bytes: u64,
        inputs: &[OpId],
        var: Option<OpId>,
    ) -> OpId {
        let id = self.g.add_node(
            OpNode::new(name, kind, Phase::Forward)
                .with_flops(flops)
                .with_out_bytes(out_bytes)
                .with_act_bytes(out_bytes),
        );
        for &i in inputs {
            self.g.add_edge(i, id);
        }
        if let Some(v) = var {
            self.g.add_edge(v, id);
        }
        self.fwd.push((id, var));
        id
    }

    /// Generates the backward pass by mirroring every recorded forward compute op,
    /// plus a `GradAccum` + `ApplyUpdate` pair per variable.
    ///
    /// Structure (matching real training graphs):
    /// * `bwd(op)` (the gradient w.r.t. `op`'s inputs) depends on `bwd(succ)` for
    ///   every forward successor of `op`, and on `op` itself (saved activations).
    /// * For parameterized ops, the weight gradient is an *independent branch* off
    ///   `bwd(op)`, which is what lets a list scheduler overlap weight-gradient work
    ///   with the serial activation-gradient chain across devices.
    /// * `ApplyUpdate` is co-located with its `Variable` (TensorFlow colocation).
    fn mirror_backward(&mut self) {
        use std::collections::HashMap;
        let recorded: std::collections::HashSet<OpId> =
            self.fwd.iter().map(|&(id, _)| id).collect();
        let mut bwd_of: HashMap<OpId, OpId> = HashMap::new();
        // Variables shared across timesteps accumulate into ONE gradient buffer;
        // only the first GradAccum op per variable owns its memory.
        let mut grad_buffer_owned: std::collections::HashSet<OpId> =
            std::collections::HashSet::new();

        let fwd = std::mem::take(&mut self.fwd);
        for &(fid, var) in fwd.iter().rev() {
            let node = self.g.node(fid).clone();
            // Gradient w.r.t. inputs: roughly the input tensor size; approximate by
            // the largest forward predecessor output.
            let grad_bytes = self
                .g
                .preds(fid)
                .iter()
                .filter(|&&p| !matches!(self.g.node(p).kind, OpKind::Variable | OpKind::Const))
                .map(|&p| self.g.node(p).out_bytes)
                .max()
                .unwrap_or(node.out_bytes)
                .max(1);
            // Gradient w.r.t. the op's *inputs* costs about one forward pass; the
            // gradient w.r.t. its *weights* is the separate GradAccum branch below.
            let bid = self.g.add_node(
                OpNode::new(format!("grad/{}", node.name), node.kind, Phase::Backward)
                    .with_flops(node.flops)
                    .with_out_bytes(grad_bytes)
                    .with_act_bytes(grad_bytes / 2),
            );
            // Saved forward activations feed the backward op.
            self.g.add_edge(fid, bid);
            // Reverse data dependencies from forward successors that are compute ops.
            let succs: Vec<OpId> = self
                .g
                .succs(fid)
                .iter()
                .copied()
                .filter(|s| recorded.contains(s) && *s != bid)
                .collect();
            for s in succs {
                if let Some(&sb) = bwd_of.get(&s) {
                    self.g.add_edge(sb, bid);
                }
            }
            bwd_of.insert(fid, bid);

            if let Some(v) = var {
                let vnode = self.g.node(v).clone();
                // Invariant: `var()` is the only way builder code creates
                // variables and it always assigns a colocation id, so this
                // expect is unreachable for any graph assembled through `Gb`
                // (pinned by `update_ops_colocated_with_variables`).
                let coloc = vnode.colocation.expect("variables carry colocation ids");
                let accum_act = if grad_buffer_owned.insert(v) { vnode.out_bytes } else { 0 };
                let ga = self.g.add_node(
                    OpNode::new(
                        format!("grad/{}/w", node.name),
                        OpKind::GradAccum,
                        Phase::Backward,
                    )
                    .with_flops(node.flops)
                    .with_out_bytes(vnode.out_bytes)
                    .with_act_bytes(accum_act),
                );
                self.g.add_edge(bid, ga);
                self.g.add_edge(fid, ga);
                let up = self.g.add_node(
                    OpNode::new(
                        format!("update/{}", vnode.name),
                        OpKind::ApplyUpdate,
                        Phase::Update,
                    )
                    .with_flops(vnode.out_bytes as f64 / F32 as f64 * 8.0)
                    .with_out_bytes(0)
                    .with_colocation(coloc),
                );
                self.g.add_edge(ga, up);
                self.g.add_edge(v, up);
            }
        }
    }

    pub(crate) fn finish(mut self) -> OpGraph {
        self.mirror_backward();
        debug_assert!(self.g.is_acyclic());
        self.g
    }

    /// Forward-only finish: no backward mirroring (inference-style graphs).
    pub(crate) fn finish_forward(self) -> OpGraph {
        debug_assert!(self.g.is_acyclic());
        self.g
    }

    /// Ops the graph will contain once [`Gb::finish`] mirrors the backward
    /// pass: each recorded forward op gains one gradient op, plus a
    /// `GradAccum` + `ApplyUpdate` pair per parameterized use.
    pub(crate) fn projected_len(&self) -> usize {
        let var_uses = self.fwd.iter().filter(|(_, v)| v.is_some()).count();
        self.g.len() + self.fwd.len() + 2 * var_uses
    }
}

fn conv_flops(batch: usize, out_hw: usize, cin: usize, cout: usize, k: usize) -> f64 {
    2.0 * (batch * out_hw * out_hw * cin * cout * k * k) as f64
}

fn tensor_bytes(elems: usize) -> u64 {
    (elems as u64) * F32
}

/// Builds the Inception-V3 training graph (Szegedy et al., CVPR'16 architecture:
/// stem, 3 "A" blocks at 35x35, reduction, 4 "B" blocks at 17x17, reduction,
/// 2 "C" blocks at 8x8, classifier head), batch size from `cfg` (paper: 1).
///
/// Degenerate dimensions ([`InceptionConfig::validate`]) come back as
/// [`GraphError::BadConfig`] instead of a panic deep inside construction.
pub fn try_inception_v3(cfg: &InceptionConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let b = cfg.batch;
    let mut gb = Gb::new("inception_v3");

    // Input pipeline: decode + preprocess stay CPU-friendly.
    let raw = gb.source("input/raw", OpKind::Input, tensor_bytes(b * 299 * 299 * 3));
    let decode = gb.compute(
        "input/decode",
        OpKind::Input,
        1e6 * b as f64,
        tensor_bytes(b * 299 * 299 * 3),
        &[raw],
        None,
    );
    let preprocess = gb.compute(
        "input/preprocess",
        OpKind::Elementwise,
        (b * 299 * 299 * 3) as f64,
        tensor_bytes(b * 299 * 299 * 3),
        &[decode],
        None,
    );

    // A conv unit: Variable -> Conv2d -> BatchNorm -> Activation.
    let conv_unit = |gb: &mut Gb,
                     name: &str,
                     input: OpId,
                     hw: usize,
                     cin: usize,
                     cout: usize,
                     k: usize|
     -> OpId {
        let w = gb.var(&format!("{name}/weights"), tensor_bytes(k * k * cin * cout));
        let out = tensor_bytes(b * hw * hw * cout);
        let conv = gb.compute(
            &format!("{name}/conv2d"),
            OpKind::Conv2d,
            conv_flops(b, hw, cin, cout, k),
            out,
            &[input],
            Some(w),
        );
        let gamma = gb.var(&format!("{name}/bn/gamma"), tensor_bytes(2 * cout));
        let bn = gb.compute(
            &format!("{name}/bn"),
            OpKind::BatchNorm,
            (b * hw * hw * cout * 4) as f64,
            out,
            &[conv],
            Some(gamma),
        );
        gb.compute(
            &format!("{name}/relu"),
            OpKind::Activation,
            (b * hw * hw * cout) as f64,
            out,
            &[bn],
            None,
        )
    };

    // Stem.
    let mut x = conv_unit(&mut gb, "stem/conv1", preprocess, 149, 3, 32, 3);
    x = conv_unit(&mut gb, "stem/conv2", x, 147, 32, 32, 3);
    x = conv_unit(&mut gb, "stem/conv3", x, 147, 32, 64, 3);
    x = gb.compute(
        "stem/pool1",
        OpKind::Pool,
        (b * 73 * 73 * 64 * 9) as f64,
        tensor_bytes(b * 73 * 73 * 64),
        &[x],
        None,
    );
    x = conv_unit(&mut gb, "stem/conv4", x, 73, 64, 80, 1);
    x = conv_unit(&mut gb, "stem/conv5", x, 71, 80, 192, 3);
    x = gb.compute(
        "stem/pool2",
        OpKind::Pool,
        (b * 35 * 35 * 192 * 9) as f64,
        tensor_bytes(b * 35 * 35 * 192),
        &[x],
        None,
    );

    // Inception block A (35x35): four parallel branches, concatenated.
    let block_a = |gb: &mut Gb, name: &str, input: OpId, cin: usize, pool_ch: usize| -> OpId {
        let hw = 35;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 64, 1);
        let b5a = conv_unit(gb, &format!("{name}/b5x5_1"), input, hw, cin, 48, 1);
        let b5b = conv_unit(gb, &format!("{name}/b5x5_2"), b5a, hw, 48, 64, 5);
        let b3a = conv_unit(gb, &format!("{name}/b3x3_1"), input, hw, cin, 64, 1);
        let b3b = conv_unit(gb, &format!("{name}/b3x3_2"), b3a, hw, 64, 96, 3);
        let b3c = conv_unit(gb, &format!("{name}/b3x3_3"), b3b, hw, 96, 96, 3);
        let pool = gb.compute(
            &format!("{name}/pool"),
            OpKind::Pool,
            (b * hw * hw * cin * 9) as f64,
            tensor_bytes(b * hw * hw * cin),
            &[input],
            None,
        );
        let bp = conv_unit(gb, &format!("{name}/bpool"), pool, hw, cin, pool_ch, 1);
        let cout = 64 + 64 + 96 + pool_ch;
        gb.compute(
            &format!("{name}/concat"),
            OpKind::Concat,
            0.0,
            tensor_bytes(b * hw * hw * cout),
            &[b1, b5b, b3c, bp],
            None,
        )
    };

    x = block_a(&mut gb, "mixed0", x, 192, 32);
    x = block_a(&mut gb, "mixed1", x, 256, 64);
    x = block_a(&mut gb, "mixed2", x, 288, 64);

    // Reduction A: 35x35 -> 17x17.
    {
        let b3 = conv_unit(&mut gb, "mixed3/b3x3", x, 17, 288, 384, 3);
        let d1 = conv_unit(&mut gb, "mixed3/d1", x, 35, 288, 64, 1);
        let d2 = conv_unit(&mut gb, "mixed3/d2", d1, 35, 64, 96, 3);
        let d3 = conv_unit(&mut gb, "mixed3/d3", d2, 17, 96, 96, 3);
        let pool = gb.compute(
            "mixed3/pool",
            OpKind::Pool,
            (b * 17 * 17 * 288 * 9) as f64,
            tensor_bytes(b * 17 * 17 * 288),
            &[x],
            None,
        );
        x = gb.compute(
            "mixed3/concat",
            OpKind::Concat,
            0.0,
            tensor_bytes(b * 17 * 17 * 768),
            &[b3, d3, pool],
            None,
        );
    }

    // Inception block B (17x17) with factorized 7x1/1x7 convolutions.
    let block_b = |gb: &mut Gb, name: &str, input: OpId, c7: usize| -> OpId {
        let hw = 17;
        let cin = 768;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 192, 1);
        let p1 = conv_unit(gb, &format!("{name}/b7_1"), input, hw, cin, c7, 1);
        let p2 = conv_unit(gb, &format!("{name}/b7_2"), p1, hw, c7, c7, 3);
        let p3 = conv_unit(gb, &format!("{name}/b7_3"), p2, hw, c7, 192, 3);
        let q1 = conv_unit(gb, &format!("{name}/b7d_1"), input, hw, cin, c7, 1);
        let q2 = conv_unit(gb, &format!("{name}/b7d_2"), q1, hw, c7, c7, 3);
        let q3 = conv_unit(gb, &format!("{name}/b7d_3"), q2, hw, c7, c7, 3);
        let q4 = conv_unit(gb, &format!("{name}/b7d_4"), q3, hw, c7, c7, 3);
        let q5 = conv_unit(gb, &format!("{name}/b7d_5"), q4, hw, c7, 192, 3);
        let pool = gb.compute(
            &format!("{name}/pool"),
            OpKind::Pool,
            (b * hw * hw * cin * 9) as f64,
            tensor_bytes(b * hw * hw * cin),
            &[input],
            None,
        );
        let bp = conv_unit(gb, &format!("{name}/bpool"), pool, hw, cin, 192, 1);
        gb.compute(
            &format!("{name}/concat"),
            OpKind::Concat,
            0.0,
            tensor_bytes(b * hw * hw * 768),
            &[b1, p3, q5, bp],
            None,
        )
    };

    x = block_b(&mut gb, "mixed4", x, 128);
    x = block_b(&mut gb, "mixed5", x, 160);
    x = block_b(&mut gb, "mixed6", x, 160);
    x = block_b(&mut gb, "mixed7", x, 192);

    // Reduction B: 17x17 -> 8x8.
    {
        let a1 = conv_unit(&mut gb, "mixed8/a1", x, 17, 768, 192, 1);
        let a2 = conv_unit(&mut gb, "mixed8/a2", a1, 8, 192, 320, 3);
        let c1 = conv_unit(&mut gb, "mixed8/c1", x, 17, 768, 192, 1);
        let c2 = conv_unit(&mut gb, "mixed8/c2", c1, 17, 192, 192, 3);
        let c3 = conv_unit(&mut gb, "mixed8/c3", c2, 8, 192, 192, 3);
        let pool = gb.compute(
            "mixed8/pool",
            OpKind::Pool,
            (b * 8 * 8 * 768 * 9) as f64,
            tensor_bytes(b * 8 * 8 * 768),
            &[x],
            None,
        );
        x = gb.compute(
            "mixed8/concat",
            OpKind::Concat,
            0.0,
            tensor_bytes(b * 8 * 8 * 1280),
            &[a2, c3, pool],
            None,
        );
    }

    // Inception block C (8x8) with split branches.
    let block_c = |gb: &mut Gb, name: &str, input: OpId, cin: usize| -> OpId {
        let hw = 8;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 320, 1);
        let m1 = conv_unit(gb, &format!("{name}/m1"), input, hw, cin, 384, 1);
        let m2a = conv_unit(gb, &format!("{name}/m2a"), m1, hw, 384, 384, 3);
        let m2b = conv_unit(gb, &format!("{name}/m2b"), m1, hw, 384, 384, 3);
        let n1 = conv_unit(gb, &format!("{name}/n1"), input, hw, cin, 448, 1);
        let n2 = conv_unit(gb, &format!("{name}/n2"), n1, hw, 448, 384, 3);
        let n3a = conv_unit(gb, &format!("{name}/n3a"), n2, hw, 384, 384, 3);
        let n3b = conv_unit(gb, &format!("{name}/n3b"), n2, hw, 384, 384, 3);
        let pool = gb.compute(
            &format!("{name}/pool"),
            OpKind::Pool,
            (b * hw * hw * cin * 9) as f64,
            tensor_bytes(b * hw * hw * cin),
            &[input],
            None,
        );
        let bp = conv_unit(gb, &format!("{name}/bpool"), pool, hw, cin, 192, 1);
        gb.compute(
            &format!("{name}/concat"),
            OpKind::Concat,
            0.0,
            tensor_bytes(b * hw * hw * 2048),
            &[b1, m2a, m2b, n3a, n3b, bp],
            None,
        )
    };

    x = block_c(&mut gb, "mixed9", x, 1280);
    x = block_c(&mut gb, "mixed10", x, 2048);

    // Head: global pool, FC, softmax, loss.
    let pooled = gb.compute(
        "head/avgpool",
        OpKind::Pool,
        (b * 8 * 8 * 2048) as f64,
        tensor_bytes(b * 2048),
        &[x],
        None,
    );
    let drop = gb.compute(
        "head/dropout",
        OpKind::Elementwise,
        (b * 2048) as f64,
        tensor_bytes(b * 2048),
        &[pooled],
        None,
    );
    let wfc = gb.var("head/fc/weights", tensor_bytes(2048 * 1000));
    let logits = gb.compute(
        "head/fc",
        OpKind::MatMul,
        2.0 * (b * 2048 * 1000) as f64,
        tensor_bytes(b * 1000),
        &[drop],
        Some(wfc),
    );
    let softmax = gb.compute(
        "head/softmax",
        OpKind::Softmax,
        (b * 1000 * 4) as f64,
        tensor_bytes(b * 1000),
        &[logits],
        None,
    );
    gb.compute("head/loss", OpKind::Loss, (b * 1000) as f64, tensor_bytes(1), &[softmax], None);

    Ok(gb.finish())
}

/// Builds the GNMT training graph (Wu et al. '16): bidirectional first encoder
/// layer, residual uni-directional stacks, per-step Bahdanau attention in the
/// decoder, shared softmax projection. One fused `LstmCell` op per (layer, step).
///
/// Degenerate dimensions ([`GnmtConfig::validate`], e.g. `layers = 0`, which
/// used to index the non-existent bottom decoder layer and panic) come back as
/// [`GraphError::BadConfig`].
pub fn try_gnmt(cfg: &GnmtConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let GnmtConfig { batch, hidden, layers, seq_len, vocab } = *cfg;
    let mut gb = Gb::new("gnmt");
    let state_bytes = tensor_bytes(batch * hidden);
    // A fused LSTM cell: x_t (h) + h_{t-1} (h) -> 4 gates of h.
    let cell_flops = 2.0 * (batch * 4 * hidden * (2 * hidden)) as f64;
    // Training keeps c, h and the four gates pre- and post-activation per step,
    // which is what makes batch-256 GNMT overflow a single 16 GiB GPU.
    let cell_act = state_bytes * 10;

    let src = gb.source("input/source_ids", OpKind::Input, tensor_bytes(batch * seq_len));
    let tgt = gb.source("input/target_ids", OpKind::Input, tensor_bytes(batch * seq_len));

    let w_emb_src = gb.var("encoder/embedding/weights", tensor_bytes(vocab * hidden));
    let src_emb = gb.compute(
        "encoder/embedding",
        OpKind::Embedding,
        (batch * seq_len * hidden) as f64,
        tensor_bytes(batch * seq_len * hidden),
        &[src],
        Some(w_emb_src),
    );
    let src_steps: Vec<OpId> = (0..seq_len)
        .map(|t| {
            gb.compute(
                &format!("encoder/split/t{t}"),
                OpKind::Split,
                0.0,
                state_bytes,
                &[src_emb],
                None,
            )
        })
        .collect();

    // Encoder layer 0: bidirectional.
    let mut enc_outputs: Vec<OpId> = Vec::with_capacity(seq_len);
    {
        let wf = gb.var("encoder/layer0/fw/kernel", tensor_bytes(4 * hidden * 2 * hidden));
        let wb = gb.var("encoder/layer0/bw/kernel", tensor_bytes(4 * hidden * 2 * hidden));
        let mut fw_prev: Option<OpId> = None;
        let mut fw_out = Vec::with_capacity(seq_len);
        for (t, &src) in src_steps.iter().enumerate() {
            let mut ins = vec![src];
            if let Some(p) = fw_prev {
                ins.push(p);
            }
            let c = gb.compute(
                &format!("encoder/layer0/fw/t{t}"),
                OpKind::LstmCell,
                cell_flops,
                state_bytes,
                &ins,
                Some(wf),
            );
            gb.g.node_mut(c).act_bytes = cell_act;
            fw_prev = Some(c);
            fw_out.push(c);
        }
        let mut bw_prev: Option<OpId> = None;
        let mut bw_out = vec![OpId(0); seq_len];
        for t in (0..seq_len).rev() {
            let mut ins = vec![src_steps[t]];
            if let Some(p) = bw_prev {
                ins.push(p);
            }
            let c = gb.compute(
                &format!("encoder/layer0/bw/t{t}"),
                OpKind::LstmCell,
                cell_flops,
                state_bytes,
                &ins,
                Some(wb),
            );
            gb.g.node_mut(c).act_bytes = cell_act;
            bw_prev = Some(c);
            bw_out[t] = c;
        }
        for t in 0..seq_len {
            let cat = gb.compute(
                &format!("encoder/layer0/concat/t{t}"),
                OpKind::Concat,
                0.0,
                state_bytes * 2,
                &[fw_out[t], bw_out[t]],
                None,
            );
            enc_outputs.push(cat);
        }
    }

    // Encoder layers 1..layers: uni-directional with residual connections.
    for l in 1..layers {
        let w = gb.var(&format!("encoder/layer{l}/kernel"), tensor_bytes(4 * hidden * 2 * hidden));
        let mut prev_cell: Option<OpId> = None;
        let mut outs = Vec::with_capacity(seq_len);
        for (t, &inp) in enc_outputs.iter().enumerate() {
            let mut ins = vec![inp];
            if let Some(p) = prev_cell {
                ins.push(p);
            }
            let c = gb.compute(
                &format!("encoder/layer{l}/t{t}"),
                OpKind::LstmCell,
                cell_flops,
                state_bytes,
                &ins,
                Some(w),
            );
            gb.g.node_mut(c).act_bytes = cell_act;
            prev_cell = Some(c);
            let res = gb.compute(
                &format!("encoder/layer{l}/res/t{t}"),
                OpKind::Elementwise,
                (batch * hidden) as f64,
                state_bytes,
                &[c, inp],
                None,
            );
            outs.push(res);
        }
        enc_outputs = outs;
    }
    // Encoder memory for attention.
    let enc_refs: Vec<OpId> = enc_outputs.clone();
    let memory = gb.compute(
        "encoder/memory",
        OpKind::Concat,
        0.0,
        tensor_bytes(batch * seq_len * hidden),
        &enc_refs,
        None,
    );

    // Decoder.
    let w_emb_tgt = gb.var("decoder/embedding/weights", tensor_bytes(vocab * hidden));
    let tgt_emb = gb.compute(
        "decoder/embedding",
        OpKind::Embedding,
        (batch * seq_len * hidden) as f64,
        tensor_bytes(batch * seq_len * hidden),
        &[tgt],
        Some(w_emb_tgt),
    );
    let tgt_steps: Vec<OpId> = (0..seq_len)
        .map(|t| {
            gb.compute(
                &format!("decoder/split/t{t}"),
                OpKind::Split,
                0.0,
                state_bytes,
                &[tgt_emb],
                None,
            )
        })
        .collect();

    let w_att = gb.var("decoder/attention/kernel", tensor_bytes(3 * hidden * hidden));
    let dec_kernels: Vec<OpId> = (0..layers)
        .map(|l| gb.var(&format!("decoder/layer{l}/kernel"), tensor_bytes(4 * hidden * 2 * hidden)))
        .collect();

    let mut dec_prev: Vec<Option<OpId>> = vec![None; layers];
    let mut proj_inputs = Vec::with_capacity(seq_len);
    for (t, &tgt) in tgt_steps.iter().enumerate() {
        // Layer 0 consumes the attention context of the previous step implicitly via
        // its recurrent state; attention itself reads the bottom cell and memory.
        let mut ins = vec![tgt];
        if let Some(p) = dec_prev[0] {
            ins.push(p);
        }
        let c0 = gb.compute(
            &format!("decoder/layer0/t{t}"),
            OpKind::LstmCell,
            cell_flops,
            state_bytes,
            &ins,
            Some(dec_kernels[0]),
        );
        gb.g.node_mut(c0).act_bytes = cell_act;
        dec_prev[0] = Some(c0);
        let att = gb.compute(
            &format!("decoder/attention/t{t}"),
            OpKind::Attention,
            2.0 * (batch * seq_len * hidden * 2) as f64,
            state_bytes,
            &[c0, memory],
            Some(w_att),
        );
        let mut below = att;
        for l in 1..layers {
            let mut ins = vec![below];
            if let Some(p) = dec_prev[l] {
                ins.push(p);
            }
            let c = gb.compute(
                &format!("decoder/layer{l}/t{t}"),
                OpKind::LstmCell,
                cell_flops,
                state_bytes,
                &ins,
                Some(dec_kernels[l]),
            );
            gb.g.node_mut(c).act_bytes = cell_act;
            dec_prev[l] = Some(c);
            let res = gb.compute(
                &format!("decoder/layer{l}/res/t{t}"),
                OpKind::Elementwise,
                (batch * hidden) as f64,
                state_bytes,
                &[c, below],
                None,
            );
            below = res;
        }
        proj_inputs.push(below);
    }

    let dec_concat = gb.compute(
        "decoder/outputs",
        OpKind::Concat,
        0.0,
        tensor_bytes(batch * seq_len * hidden),
        &proj_inputs,
        None,
    );
    let w_proj = gb.var("softmax/weights", tensor_bytes(hidden * vocab));
    let logits = gb.compute(
        "softmax/projection",
        OpKind::MatMul,
        2.0 * (batch * seq_len * hidden * vocab) as f64,
        tensor_bytes(batch * seq_len * vocab),
        &[dec_concat],
        Some(w_proj),
    );
    let probs = gb.compute(
        "softmax/softmax",
        OpKind::Softmax,
        (batch * seq_len * vocab * 4) as f64,
        tensor_bytes(batch * seq_len * vocab),
        &[logits],
        None,
    );
    gb.compute(
        "loss/cross_entropy",
        OpKind::Loss,
        (batch * seq_len * vocab) as f64,
        tensor_bytes(1),
        &[probs, tgt],
        None,
    );

    Ok(gb.finish())
}

/// Builds the BERT-Base masked-LM training graph (Devlin et al. '19): embedding sum
/// + layer norm, 12 transformer layers (per-head attention at 3-op granularity,
///   GELU feed-forward, residual + layer-norm pairs), MLM head over the full vocab.
///
/// Degenerate dimensions ([`BertConfig::validate`], e.g. `heads = 0`, which
/// used to divide by zero computing the head width) come back as
/// [`GraphError::BadConfig`].
pub fn try_bert_base(cfg: &BertConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let BertConfig { batch, seq_len, hidden, layers, heads, ff, vocab } = *cfg;
    let mut gb = Gb::new("bert_base");
    let tokens = batch * seq_len;
    let hid_bytes = tensor_bytes(tokens * hidden);
    let head_dim = hidden / heads;

    let ids = gb.source("input/input_ids", OpKind::Input, tensor_bytes(tokens));
    let w_tok = gb.var("embeddings/word/weights", tensor_bytes(vocab * hidden));
    let w_pos = gb.var("embeddings/position/weights", tensor_bytes(512 * hidden));
    let w_seg = gb.var("embeddings/segment/weights", tensor_bytes(2 * hidden));
    let tok_emb = gb.compute(
        "embeddings/word",
        OpKind::Embedding,
        (tokens * hidden) as f64,
        hid_bytes,
        &[ids],
        Some(w_tok),
    );
    let pos_emb = gb.compute(
        "embeddings/position",
        OpKind::Embedding,
        (tokens * hidden) as f64,
        hid_bytes,
        &[ids],
        Some(w_pos),
    );
    let seg_emb = gb.compute(
        "embeddings/segment",
        OpKind::Embedding,
        (tokens * hidden) as f64,
        hid_bytes,
        &[ids],
        Some(w_seg),
    );
    let emb_sum = gb.compute(
        "embeddings/add",
        OpKind::Elementwise,
        (tokens * hidden * 2) as f64,
        hid_bytes,
        &[tok_emb, pos_emb, seg_emb],
        None,
    );
    // Layer normalization at TF granularity: moments (Reduce), normalize
    // (Elementwise), then scale-and-shift with the gamma/beta variable.
    let layer_norm = |gb: &mut Gb, name: &str, input: OpId| -> OpId {
        let moments = gb.compute(
            &format!("{name}/moments"),
            OpKind::Reduce,
            (tokens * hidden * 2) as f64,
            tensor_bytes(tokens * 2),
            &[input],
            None,
        );
        let normed = gb.compute(
            &format!("{name}/normalize"),
            OpKind::Elementwise,
            (tokens * hidden * 4) as f64,
            hid_bytes,
            &[input, moments],
            None,
        );
        let gamma = gb.var(&format!("{name}/gamma"), tensor_bytes(2 * hidden));
        gb.compute(
            &format!("{name}/scale_shift"),
            OpKind::LayerNorm,
            (tokens * hidden * 2) as f64,
            hid_bytes,
            &[normed],
            Some(gamma),
        )
    };
    let mut x = layer_norm(&mut gb, "embeddings/layernorm", emb_sum);

    for l in 0..layers {
        let p = format!("layer{l}");
        // Q, K, V projections: three parallel matmuls off the same input.
        let qkv: Vec<OpId> = ["query", "key", "value"]
            .iter()
            .map(|nm| {
                let w =
                    gb.var(&format!("{p}/attention/{nm}/weights"), tensor_bytes(hidden * hidden));
                let mm = gb.compute(
                    &format!("{p}/attention/{nm}"),
                    OpKind::MatMul,
                    2.0 * (tokens * hidden * hidden) as f64,
                    hid_bytes,
                    &[x],
                    Some(w),
                );
                gb.compute(
                    &format!("{p}/attention/{nm}/reshape"),
                    OpKind::Reshape,
                    0.0,
                    hid_bytes,
                    &[mm],
                    None,
                )
            })
            .collect();

        // Per-head attention: scores, softmax, context — independent across heads.
        let head_outs: Vec<OpId> = (0..heads)
            .map(|h| {
                let scores_bytes = tensor_bytes(batch * seq_len * seq_len);
                let scores = gb.compute(
                    &format!("{p}/attention/head{h}/scores"),
                    OpKind::MatMul,
                    2.0 * (batch * seq_len * seq_len * head_dim) as f64,
                    scores_bytes,
                    &[qkv[0], qkv[1]],
                    None,
                );
                let scaled = gb.compute(
                    &format!("{p}/attention/head{h}/scale"),
                    OpKind::Elementwise,
                    (batch * seq_len * seq_len) as f64,
                    scores_bytes,
                    &[scores],
                    None,
                );
                let probs = gb.compute(
                    &format!("{p}/attention/head{h}/softmax"),
                    OpKind::Softmax,
                    (batch * seq_len * seq_len * 4) as f64,
                    scores_bytes,
                    &[scaled],
                    None,
                );
                let dropped = gb.compute(
                    &format!("{p}/attention/head{h}/dropout"),
                    OpKind::Elementwise,
                    (batch * seq_len * seq_len) as f64,
                    scores_bytes,
                    &[probs],
                    None,
                );
                gb.compute(
                    &format!("{p}/attention/head{h}/context"),
                    OpKind::MatMul,
                    2.0 * (batch * seq_len * seq_len * head_dim) as f64,
                    tensor_bytes(tokens * head_dim),
                    &[dropped, qkv[2]],
                    None,
                )
            })
            .collect();
        let merged = gb.compute(
            &format!("{p}/attention/merge"),
            OpKind::Concat,
            0.0,
            hid_bytes,
            &head_outs,
            None,
        );
        let w_out = gb.var(&format!("{p}/attention/output/weights"), tensor_bytes(hidden * hidden));
        let att_out = gb.compute(
            &format!("{p}/attention/output"),
            OpKind::MatMul,
            2.0 * (tokens * hidden * hidden) as f64,
            hid_bytes,
            &[merged],
            Some(w_out),
        );
        let att_drop = gb.compute(
            &format!("{p}/attention/output/dropout"),
            OpKind::Elementwise,
            (tokens * hidden) as f64,
            hid_bytes,
            &[att_out],
            None,
        );
        let res1 = gb.compute(
            &format!("{p}/attention/residual"),
            OpKind::Elementwise,
            (tokens * hidden) as f64,
            hid_bytes,
            &[att_drop, x],
            None,
        );
        let ln1 = layer_norm(&mut gb, &format!("{p}/attention/layernorm"), res1);

        // Feed-forward.
        let w_ff1 = gb.var(&format!("{p}/ffn/intermediate/weights"), tensor_bytes(hidden * ff));
        let ff1 = gb.compute(
            &format!("{p}/ffn/intermediate"),
            OpKind::MatMul,
            2.0 * (tokens * hidden * ff) as f64,
            tensor_bytes(tokens * ff),
            &[ln1],
            Some(w_ff1),
        );
        let gelu = gb.compute(
            &format!("{p}/ffn/gelu"),
            OpKind::Activation,
            (tokens * ff * 8) as f64,
            tensor_bytes(tokens * ff),
            &[ff1],
            None,
        );
        let w_ff2 = gb.var(&format!("{p}/ffn/output/weights"), tensor_bytes(ff * hidden));
        let ff2 = gb.compute(
            &format!("{p}/ffn/output"),
            OpKind::MatMul,
            2.0 * (tokens * ff * hidden) as f64,
            hid_bytes,
            &[gelu],
            Some(w_ff2),
        );
        let ff_drop = gb.compute(
            &format!("{p}/ffn/output/dropout"),
            OpKind::Elementwise,
            (tokens * hidden) as f64,
            hid_bytes,
            &[ff2],
            None,
        );
        let res2 = gb.compute(
            &format!("{p}/ffn/residual"),
            OpKind::Elementwise,
            (tokens * hidden) as f64,
            hid_bytes,
            &[ff_drop, ln1],
            None,
        );
        x = layer_norm(&mut gb, &format!("{p}/ffn/layernorm"), res2);
    }

    // MLM head: transform + vocab projection.
    let w_tr = gb.var("mlm/transform/weights", tensor_bytes(hidden * hidden));
    let tr = gb.compute(
        "mlm/transform",
        OpKind::MatMul,
        2.0 * (tokens * hidden * hidden) as f64,
        hid_bytes,
        &[x],
        Some(w_tr),
    );
    let gelu = gb.compute(
        "mlm/gelu",
        OpKind::Activation,
        (tokens * hidden * 8) as f64,
        hid_bytes,
        &[tr],
        None,
    );
    let w_lm = gb.var("mlm/output/weights", tensor_bytes(hidden * vocab));
    let logits = gb.compute(
        "mlm/logits",
        OpKind::MatMul,
        2.0 * (tokens * hidden * vocab) as f64,
        tensor_bytes(tokens * vocab),
        &[gelu],
        Some(w_lm),
    );
    let probs = gb.compute(
        "mlm/softmax",
        OpKind::Softmax,
        (tokens * vocab * 4) as f64,
        tensor_bytes(tokens * vocab),
        &[logits],
        None,
    );
    gb.compute("loss/mlm", OpKind::Loss, (tokens * vocab) as f64, tensor_bytes(1), &[probs], None);

    Ok(gb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_structure() {
        let g = try_inception_v3(&InceptionConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 800, "got {} ops", g.len());
        assert!(g.len() < 4000, "got {} ops", g.len());
        // Batch 1 training fits a single 16 GB GPU comfortably.
        assert!(g.total_bytes() < 8 * (1 << 30), "bytes = {}", g.total_bytes());
        // ~5.7 GFLOP forward * 3 for training, honest within 3x.
        let f = g.total_flops();
        assert!(f > 5e9 && f < 6e10, "flops = {f:e}");
    }

    #[test]
    fn gnmt_structure_and_memory() {
        let g = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 1500, "got {} ops", g.len());
        assert!(g.len() < 9000, "got {} ops", g.len());
        // Batch 256 must NOT fit one 16 GB GPU (the paper's whole point)...
        assert!(g.total_bytes() > 16 * (1u64 << 30), "bytes = {}", g.total_bytes());
        // ...but must fit four of them.
        assert!(g.total_bytes() < 60 * (1u64 << 30), "bytes = {}", g.total_bytes());
    }

    #[test]
    fn bert_structure_and_memory() {
        let g = try_bert_base(&BertConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 2000, "got {} ops", g.len());
        assert!(g.len() < 15000, "got {} ops", g.len());
        assert!(g.total_bytes() > 16 * (1u64 << 30), "bytes = {}", g.total_bytes());
        assert!(g.total_bytes() < 60 * (1u64 << 30), "bytes = {}", g.total_bytes());
    }

    #[test]
    fn builders_are_deterministic() {
        let a = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        let b = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.total_flops(), b.total_flops());
    }

    #[test]
    fn backward_ops_present_and_heavier() {
        let g = try_inception_v3(&InceptionConfig::default()).expect("default config is valid");
        let fwd_flops: f64 =
            g.nodes().iter().filter(|n| n.phase == Phase::Forward).map(|n| n.flops).sum();
        let bwd_flops: f64 =
            g.nodes().iter().filter(|n| n.phase == Phase::Backward).map(|n| n.flops).sum();
        assert!(bwd_flops > fwd_flops, "backward should dominate: {bwd_flops:e} vs {fwd_flops:e}");
        let updates = g.nodes().iter().filter(|n| n.phase == Phase::Update).count();
        assert!(updates > 50, "per-variable update ops expected, got {updates}");
    }

    #[test]
    fn update_ops_colocated_with_variables() {
        let g = try_bert_base(&BertConfig::default()).expect("default config is valid");
        for id in g.ids() {
            let n = g.node(id);
            if n.phase == Phase::Update {
                let coloc = n.colocation.expect("updates carry colocation");
                // Some Variable shares the colocation id.
                assert!(
                    g.nodes()
                        .iter()
                        .any(|m| m.kind == OpKind::Variable && m.colocation == Some(coloc)),
                    "update {} has no colocated variable",
                    n.name
                );
            }
        }
    }

    /// Regression: these degenerate configs used to panic inside the builders
    /// (`gnmt` indexed `dec_kernels[0]` with zero layers; `bert_base` divided
    /// by zero computing the per-head width). They must now surface as typed
    /// `GraphError::BadConfig` from the `try_` entry points.
    #[test]
    fn degenerate_configs_are_typed_errors_not_panics() {
        let zero_layers = GnmtConfig { layers: 0, ..GnmtConfig::default() };
        assert!(matches!(try_gnmt(&zero_layers), Err(GraphError::BadConfig(_))));

        let zero_seq = GnmtConfig { seq_len: 0, ..GnmtConfig::default() };
        assert!(matches!(try_gnmt(&zero_seq), Err(GraphError::BadConfig(_))));

        let zero_heads = BertConfig { heads: 0, ..BertConfig::default() };
        assert!(matches!(try_bert_base(&zero_heads), Err(GraphError::BadConfig(_))));

        let wide_heads = BertConfig { hidden: 4, heads: 8, ..BertConfig::default() };
        assert!(matches!(try_bert_base(&wide_heads), Err(GraphError::BadConfig(_))));

        let zero_batch = InceptionConfig { batch: 0 };
        assert!(matches!(try_inception_v3(&zero_batch), Err(GraphError::BadConfig(_))));
    }

    #[test]
    fn small_configs_scale_down() {
        let g = try_gnmt(&GnmtConfig { batch: 4, hidden: 8, layers: 2, seq_len: 3, vocab: 50 })
            .expect("valid config");
        assert!(g.is_acyclic());
        assert!(g.len() < 300);
        let b = try_bert_base(&BertConfig {
            batch: 2,
            seq_len: 8,
            hidden: 16,
            layers: 2,
            heads: 2,
            ff: 32,
            vocab: 30,
        })
        .expect("valid config");
        assert!(b.is_acyclic());
        assert!(b.len() < 400);
    }
}
