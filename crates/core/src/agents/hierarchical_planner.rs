//! The Hierarchical Planner baseline (Mirhoseini et al., ICLR'18): a feed-forward
//! grouper whose *sampled* hard grouping feeds a sequence-to-sequence placer with
//! the attention context applied *after* the decoder (paper Fig. 4b). Grouper and
//! placer are two separately-sampled sub-policies trained jointly by policy
//! gradient — the coupling EAGLE replaces with its differentiable linking RNN.
//!
//! Because the grouping is resampled every rollout, the placer's inputs keep
//! shifting during training ("the dynamics of the grouping result during training
//! made it even harder to train the agent", paper Sec. II-C) — reproduced here
//! faithfully.

use eagle_devsim::{DeviceId, Machine, Placement};
use eagle_nn::{embedding, AttentionMode, Grouper, Placer, Seq2SeqPlacer};
use eagle_opgraph::OpGraph;
use eagle_rl::{sample_categorical, BatchScoreHandle, EpisodeScore, ScoreHandle, StochasticPolicy};
use eagle_tensor::{Params, Tape, Tensor, Var};
use rand::Rng;

use crate::scale::AgentScale;

use super::PlacementAgent;

/// The Hierarchical Planner agent. Its action vector is the concatenation of one
/// group index per op followed by one device index per group.
pub struct HpAgent {
    grouper: Grouper,
    placer: Seq2SeqPlacer,
    features: Tensor,
    graph: OpGraph,
    devices: Vec<DeviceId>,
    num_groups: usize,
}

impl HpAgent {
    /// Builds the agent, registering all parameters.
    pub fn new(
        params: &mut Params,
        graph: &OpGraph,
        machine: &Machine,
        scale: AgentScale,
        rng: &mut impl Rng,
    ) -> Self {
        let features = super::features_tensor(graph);
        let feat_dim = features.cols();
        let k = scale.num_groups.min(graph.len());
        let grouper = Grouper::new(params, "hp/grouper", feat_dim, scale.grouper_hidden, k, rng);
        let devices = super::device_table(machine);
        let placer = Seq2SeqPlacer::new(
            params,
            "hp/placer",
            embedding::group_feature_dim(k),
            scale.placer_hidden,
            scale.attn_dim,
            devices.len(),
            AttentionMode::After,
            rng,
        );
        Self { grouper, placer, features, graph: graph.clone(), devices, num_groups: k }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Length of the flat action vector: one group per op + one device per group.
    pub fn action_len(&self) -> usize {
        self.graph.len() + self.num_groups
    }

    fn forward(
        &self,
        params: &Params,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> (Tape, Vec<usize>, Var, Var) {
        let n = self.graph.len();
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f); // (n, k)
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);

        // Sample (or force) the hard grouping, one categorical per op.
        let group_of: Vec<usize> = match forced {
            Some(a) => a[..n].to_vec(),
            None => (0..n).map(|i| sample_categorical(tape.value(probs).row(i), rng)).collect(),
        };
        let group_logp = tape.pick_per_row(log_probs, &group_of); // (n, 1)
        let group_logp_sum = tape.sum_all(group_logp);
        // Grouper entropy: mean per-op entropy.
        let plogp = tape.mul_elem(probs, log_probs);
        let total = tape.sum_all(plogp);
        let group_entropy = tape.scale(total, -1.0 / n as f32);

        // Hard group embeddings (Hierarchical Planner's aggregation), then place.
        let emb = embedding::group_features(&self.graph, &group_of, self.num_groups);
        let emb_var = tape.leaf(emb);
        let out = self.placer.forward(&mut tape, params, emb_var, forced.map(|a| &a[n..]), rng);

        let log_prob = tape.add(group_logp_sum, out.log_prob);
        let e2 = tape.add(group_entropy, out.entropy);
        let entropy = tape.scale(e2, 0.5);

        let mut actions = group_of;
        actions.extend_from_slice(&out.actions);
        (tape, actions, log_prob, entropy)
    }

    /// Batched forward. The grouper heads (logits, log-probs, entropy) are
    /// episode-independent and run once; group sampling is episode-major so
    /// stream `b` consumes its `n` group draws before its `k` placer draws,
    /// exactly like a serial rollout on that stream; the per-episode hard group
    /// embeddings then feed one batched placer pass.
    fn forward_batch(
        &self,
        params: &Params,
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> (Tape, Vec<(Vec<usize>, Var, Var)>) {
        let n = self.graph.len();
        let bsz = forced.map_or(rngs.len(), <[_]>::len);
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f); // (n, k)
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);

        let groupings: Vec<Vec<usize>> = (0..bsz)
            .map(|b| match forced {
                Some(fa) => fa[b][..n].to_vec(),
                None => {
                    let pv = tape.value(probs);
                    (0..n).map(|i| sample_categorical(pv.row(i), &mut *rngs[b])).collect()
                }
            })
            .collect();
        // Per-episode grouping log-probs before the shared entropy nodes, so the
        // relative node order inside each episode matches the serial tape.
        let group_logp_sums: Vec<Var> = groupings
            .iter()
            .map(|g| {
                let picked = tape.pick_per_row(log_probs, g); // (n, 1)
                tape.sum_all(picked)
            })
            .collect();
        let plogp = tape.mul_elem(probs, log_probs);
        let total = tape.sum_all(plogp);
        let group_entropy = tape.scale(total, -1.0 / n as f32); // shared

        let xs: Vec<Var> = groupings
            .iter()
            .map(|g| {
                let emb = embedding::group_features(&self.graph, g, self.num_groups);
                tape.leaf(emb)
            })
            .collect();
        let placer_forced: Option<Vec<&[usize]>> =
            forced.map(|fa| fa.iter().map(|a| &a[n..]).collect());
        let outs =
            self.placer.forward_batch(&mut tape, params, &xs, placer_forced.as_deref(), rngs);

        let eps: Vec<(Vec<usize>, Var, Var)> = groupings
            .into_iter()
            .zip(group_logp_sums)
            .zip(outs)
            .map(|((grouping, gsum), out)| {
                let log_prob = tape.add(gsum, out.log_prob);
                let e2 = tape.add(group_entropy, out.entropy);
                let entropy = tape.scale(e2, 0.5);
                let mut actions = grouping;
                actions.extend_from_slice(&out.actions);
                (actions, log_prob, entropy)
            })
            .collect();
        (tape, eps)
    }
}

impl StochasticPolicy for HpAgent {
    fn rng_draws_per_sample(&self) -> usize {
        self.action_len()
    }

    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)> {
        let (tape, eps) = self.forward_batch(params, None, rngs);
        eps.into_iter()
            .map(|(actions, log_prob, _)| (actions, tape.value(log_prob).item()))
            .collect()
    }

    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
        for a in actions {
            assert_eq!(a.len(), self.action_len(), "full action vector required");
        }
        let forced: Vec<&[usize]> = actions.iter().map(|a| a.as_slice()).collect();
        let (tape, eps) = self.forward_batch(params, Some(&forced), &mut []);
        let episodes = eps
            .into_iter()
            .map(|(_, log_prob, entropy)| EpisodeScore { log_prob, entropy, aux_loss: None })
            .collect();
        BatchScoreHandle { tape, episodes }
    }

    // Per-episode overrides keep the original single-episode path as an
    // independent reference for the batched one (bit-identical by contract).
    fn sample(&self, params: &Params, rng: &mut dyn rand::RngCore) -> (Vec<usize>, f32) {
        let (tape, actions, log_prob, _) = self.forward(params, None, rng);
        let logp = tape.value(log_prob).item();
        (actions, logp)
    }

    fn score(&self, params: &Params, actions: &[usize]) -> ScoreHandle {
        use rand::SeedableRng;
        assert_eq!(actions.len(), self.action_len(), "full action vector required");
        let mut noop = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let (tape, _, log_prob, entropy) = self.forward(params, Some(actions), &mut noop);
        ScoreHandle { tape, log_prob, entropy, aux_loss: None }
    }
}

impl PlacementAgent for HpAgent {
    fn name(&self) -> &str {
        "Hierarchical Planner"
    }

    fn decode_batch(&self, _params: &Params, actions: &[Vec<usize>]) -> Vec<Placement> {
        let n = self.graph.len();
        actions
            .iter()
            .map(|a| {
                assert_eq!(a.len(), self.action_len(), "full action vector required");
                let group_devices: Vec<DeviceId> =
                    a[n..].iter().map(|&d| self.devices[d]).collect();
                Placement::from_groups(&a[..n], &group_devices)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::builders;
    use eagle_tensor::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Params, HpAgent, OpGraph, Machine) {
        let g = builders::try_gnmt(&builders::GnmtConfig {
            batch: 2,
            hidden: 4,
            layers: 2,
            seq_len: 3,
            vocab: 20,
        })
        .expect("valid GNMT config");
        let m = Machine::paper_machine();
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        (params, agent, g, m)
    }

    #[test]
    fn action_vector_covers_ops_and_groups() {
        let (params, agent, g, m) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (actions, _) = agent.sample(&params, &mut rng);
        assert_eq!(actions.len(), g.len() + agent.num_groups());
        assert!(actions[..g.len()].iter().all(|&a| a < agent.num_groups()));
        assert!(actions[g.len()..].iter().all(|&a| a < m.num_devices()));
        let p = agent.decode(&params, &actions);
        assert!(p.validate(&g, &m).is_ok());
    }

    #[test]
    fn grouping_is_resampled_each_rollout() {
        // Unlike EAGLE's deterministic argmax grouping, HP samples its grouping —
        // two rollouts with different RNG states should (almost surely) differ.
        let (params, agent, g, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (a1, _) = agent.sample(&params, &mut rng);
        let (a2, _) = agent.sample(&params, &mut rng);
        assert_ne!(a1[..g.len()], a2[..g.len()], "grouping should be stochastic");
    }

    #[test]
    fn score_matches_sample_log_prob() {
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (actions, logp) = agent.sample(&params, &mut rng);
        let h = agent.score(&params, &actions);
        let rescored = h.tape.value(h.log_prob).item();
        // n-op log-probs accumulate more float error than EAGLE's k-group ones.
        assert!((logp - rescored).abs() < 1e-2, "{logp} vs {rescored}");
    }

    #[test]
    fn gradients_reach_both_subnetworks() {
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (actions, _) = agent.sample(&params, &mut rng);
        let mut h = agent.score(&params, &actions);
        let loss = h.tape.neg(h.log_prob);
        let mut grads = Grads::for_params(&params);
        h.tape.backward_into(loss, &mut grads);
        for prefix in ["hp/grouper", "hp/placer"] {
            let grad: f32 = params
                .ids()
                .filter(|&id| params.name(id).starts_with(prefix))
                .map(|id| grads.get(id).norm())
                .sum();
            assert!(grad > 0.0, "{prefix} must receive gradient");
        }
    }
}
