//! The EAGLE agent: feed-forward grouper, linking RNN, and a sequence-to-sequence
//! placer with attention applied *before* the decoder.
//!
//! The paper's key architectural move (abstract, Sec. III): "An extra RNN is
//! introduced to transform parameters of the grouper into inputs of the placer,
//! linking the originally separated parts together." Concretely here: the grouper's
//! softmax output aggregates per-op features into *soft* group embeddings — a
//! differentiable function of the grouper's parameters — and the linking RNN
//! transforms that sequence of group embeddings into the placer's inputs. Placer
//! policy gradients therefore flow through the linking RNN into the grouper, so a
//! single PPO update trains both halves coherently, instead of the two separately
//! sampled sub-policies of Hierarchical Planner.

use eagle_devsim::{DeviceId, Machine, Placement};
use eagle_nn::{AttentionMode, Grouper, Lstm, Placer, PlacerOutput, Seq2SeqPlacer};
use eagle_opgraph::OpGraph;
use eagle_rl::{BatchScoreHandle, EpisodeScore, ScoreHandle, StochasticPolicy};
use eagle_tensor::{Grads, Params, Tape, Tensor, Var};
use rand::Rng;

use crate::scale::AgentScale;

use super::PlacementAgent;

/// The EAGLE hierarchical agent.
pub struct EagleAgent {
    grouper: Grouper,
    link: Lstm,
    placer: Seq2SeqPlacer,
    features: Tensor,
    devices: Vec<DeviceId>,
    num_groups: usize,
}

impl EagleAgent {
    /// Builds the agent for a graph/machine pair, registering all parameters.
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
        let grouper = Grouper::new(params, "eagle/grouper", feat_dim, scale.grouper_hidden, k, rng);
        let link = Lstm::new(params, "eagle/link", feat_dim, scale.link_hidden, rng);
        let devices = super::device_table(machine);
        let placer = Seq2SeqPlacer::new(
            params,
            "eagle/placer",
            scale.link_hidden,
            scale.placer_hidden,
            scale.attn_dim,
            devices.len(),
            AttentionMode::Before,
            rng,
        );
        let agent = Self { grouper, link, placer, features, devices, num_groups: k };
        agent.warm_start_grouper(params, graph);
        agent
    }

    /// Builds the agent for *serving* with already-trained parameters.
    ///
    /// Registers the same parameter layout as [`EagleAgent::new`] (construction
    /// order fixes the `ParamId`s, so a checkpoint's `Params` align) but skips the
    /// grouper warm start — the scratch values in `params` are placeholders that a
    /// restored checkpoint overwrites, so the 60 warm-start Adam iterations would
    /// be wasted work on the serving hot path.
    pub fn new_for_inference(
        params: &mut Params,
        graph: &OpGraph,
        machine: &Machine,
        scale: AgentScale,
        rng: &mut impl Rng,
    ) -> Self {
        let features = super::features_tensor(graph);
        let feat_dim = features.cols();
        let k = scale.num_groups.min(graph.len());
        let grouper = Grouper::new(params, "eagle/grouper", feat_dim, scale.grouper_hidden, k, rng);
        let link = Lstm::new(params, "eagle/link", feat_dim, scale.link_hidden, rng);
        let devices = super::device_table(machine);
        let placer = Seq2SeqPlacer::new(
            params,
            "eagle/placer",
            scale.link_hidden,
            scale.placer_hidden,
            scale.attn_dim,
            devices.len(),
            AttentionMode::Before,
            rng,
        );
        Self { grouper, link, placer, features, devices, num_groups: k }
    }

    /// Warm-starts the grouper to a balanced topological chunking of the graph.
    ///
    /// A randomly initialized feed-forward grouper assigns almost every op to the
    /// same argmax group (its logits barely depend on the input at init), which
    /// degenerates the hierarchy into "place the whole graph on one device" — an
    /// immediate OOM or all-CPU local optimum for the large models. Supervised
    /// pre-fitting to the topo-order chunking gives PPO a balanced, structured
    /// starting grouping to fine-tune, which is how EAGLE realizes the paper's
    /// "very few invalid placements during the entire training process" (Sec. IV-D).
    fn warm_start_grouper(&self, params: &mut Params, graph: &OpGraph) {
        let target = Self::warm_start_target(graph, self.num_groups);
        let mut opt = eagle_tensor::optim::Adam::new(0.01);
        let mut grads = Grads::for_params(params);
        for _ in 0..60 {
            grads.zero();
            let mut tape = Tape::new();
            let f = tape.leaf(self.features.clone());
            let logits = self.grouper.logits(&mut tape, params, f);
            let picked = tape.log_softmax_pick(logits, &target);
            let neg = tape.neg(picked);
            let loss = tape.mean_all(neg);
            tape.backward_into(loss, &mut grads);
            // Only the grouper participates in this phase; other grads stay zero,
            // and Adam's zero-moment updates leave them untouched.
            opt.step_grads(params, &grads);
        }
    }

    /// The warm-start grouping: balanced topologically contiguous chunks.
    /// Consecutive groups are graph-adjacent, matching the sequence structure the
    /// linking RNN and seq2seq placer consume; RL fine-tuning then reshapes the
    /// grouping end-to-end. (A METIS-based warm start was evaluated and performed
    /// comparably; the topological chunking is cheaper and seed-free.)
    fn warm_start_target(graph: &OpGraph, k: usize) -> Vec<usize> {
        let n = graph.len();
        let order = graph.topo_order();
        let mut target = vec![0usize; n];
        for (pos, id) in order.iter().enumerate() {
            target[id.index()] = pos * k / n.max(1);
        }
        target
    }

    /// Number of groups (= length of the action vector).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Full per-episode forward pass; `forced` scores the given device actions
    /// instead of sampling. Also returns the group-balance auxiliary loss (see
    /// [`Self::balance_loss`]). Kept as the reference implementation the batched
    /// path is differential-tested against.
    fn forward(
        &self,
        params: &Params,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> (Tape, PlacerOutput, Var) {
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f);
        let aux = self.balance_loss(&mut tape, logits);
        let group_emb = self.grouper.soft_group_embeddings(&mut tape, logits, f);
        let (linked, _) = self.link.forward(&mut tape, params, group_emb);
        let out = self.placer.forward(&mut tape, params, linked, forced, rng);
        (tape, out, aux)
    }

    /// Batched forward: the grouper, balance loss, and linking RNN are
    /// episode-independent so they run *once*; the placer decodes all episodes
    /// in one pass (it sees the same `linked` Var for every episode, so its
    /// encoder also runs once).
    fn forward_batch(
        &self,
        params: &Params,
        forced: Option<&[&[usize]]>,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> (Tape, Vec<PlacerOutput>, Var) {
        let bsz = forced.map_or(rngs.len(), <[_]>::len);
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f);
        let aux = self.balance_loss(&mut tape, logits);
        let group_emb = self.grouper.soft_group_embeddings(&mut tape, logits, f);
        let (linked, _) = self.link.forward(&mut tape, params, group_emb);
        let xs = vec![linked; bsz];
        let outs = self.placer.forward_batch(&mut tape, params, &xs, forced, rngs);
        (tape, outs, aux)
    }

    /// Group-balance regularizer: `coef * (ln k - H(usage))`, where `usage` is the
    /// mean soft-assignment distribution over groups. Zero when every group carries
    /// equal soft mass; grows as the grouper collapses ops into few groups. Without
    /// it, placer-policy gradients steadily merge groups (fewer distinct embeddings
    /// are easier to place), degenerating the hierarchy into whole-graph-on-one-
    /// device placements.
    fn balance_loss(&self, tape: &mut Tape, logits: Var) -> Var {
        let n = tape.value(logits).rows();
        let k = self.num_groups;
        let soft = tape.softmax(logits); // (n, k)
        let ones = tape.leaf(Tensor::full(1, n, 1.0 / n as f32));
        let usage = tape.matmul(ones, soft); // (1, k), sums to 1
        let safe = tape.add_scalar(usage, 1e-8);
        let log_usage = tape.ln(safe);
        let ulogu = tape.mul_elem(usage, log_usage);
        let neg_h = tape.sum_all(ulogu); // -H(usage)
        let deficit = tape.add_scalar(neg_h, (k as f32).ln());
        tape.scale(deficit, 3.0)
    }

    /// The current hard op-to-group assignment (argmax of the grouper).
    pub fn group_assignment(&self, params: &Params) -> Vec<usize> {
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f);
        Grouper::hard_assign(tape.value(logits))
    }
}

impl StochasticPolicy for EagleAgent {
    fn rng_draws_per_sample(&self) -> usize {
        self.num_groups
    }

    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)> {
        let (tape, outs, _) = self.forward_batch(params, None, rngs);
        outs.into_iter().map(|out| (out.actions, tape.value(out.log_prob).item())).collect()
    }

    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
        let forced: Vec<&[usize]> = actions.iter().map(|a| a.as_slice()).collect();
        let (tape, outs, aux) = self.forward_batch(params, Some(&forced), &mut []);
        let episodes = outs
            .into_iter()
            .map(|out| EpisodeScore {
                log_prob: out.log_prob,
                entropy: out.entropy,
                aux_loss: Some(aux),
            })
            .collect();
        BatchScoreHandle { tape, episodes }
    }

    // Per-episode overrides keep the original single-episode graph construction
    // as an independent reference for the batched path (the two are
    // bit-identical; see the `eagle_rl::policy` contract).
    fn sample(&self, params: &Params, rng: &mut dyn rand::RngCore) -> (Vec<usize>, f32) {
        let (tape, out, _) = self.forward(params, None, rng);
        let logp = tape.value(out.log_prob).item();
        (out.actions, logp)
    }

    fn score(&self, params: &Params, actions: &[usize]) -> ScoreHandle {
        let mut noop = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        use rand::SeedableRng;
        let (tape, out, aux) = self.forward(params, Some(actions), &mut noop);
        ScoreHandle { tape, log_prob: out.log_prob, entropy: out.entropy, aux_loss: Some(aux) }
    }
}

impl PlacementAgent for EagleAgent {
    fn name(&self) -> &str {
        "EAGLE"
    }

    /// Re-targets the agent to `graph` by swapping the feature tensor; the
    /// grouper/link/placer handles (and thus every `ParamId`, the action
    /// space, and the per-sample RNG accounting) are shared with the original,
    /// so one parameter store trains across all views. No warm start: the
    /// parameters are already trained (or training) state, not fresh inits.
    fn for_graph(&self, graph: &OpGraph) -> Option<Self> {
        Some(Self {
            grouper: self.grouper.clone(),
            link: self.link.clone(),
            placer: self.placer.clone(),
            features: super::features_tensor(graph),
            devices: self.devices.clone(),
            num_groups: self.num_groups,
        })
    }

    fn decode_batch(&self, params: &Params, actions: &[Vec<usize>]) -> Vec<Placement> {
        // The grouper forward depends only on the parameters, not on the
        // episode: run it once for the whole minibatch.
        let group_of = self.group_assignment(params);
        actions
            .iter()
            .map(|a| {
                assert_eq!(a.len(), self.num_groups, "one device per group");
                let group_devices: Vec<DeviceId> = a.iter().map(|&d| self.devices[d]).collect();
                Placement::from_groups(&group_of, &group_devices)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_devsim::Machine;
    use eagle_opgraph::builders;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Params, EagleAgent, OpGraph, Machine) {
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
        let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        (params, agent, g, m)
    }

    #[test]
    fn sample_decode_roundtrip() {
        let (params, agent, g, m) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (actions, logp) = agent.sample(&params, &mut rng);
        assert_eq!(actions.len(), agent.num_groups());
        assert!(actions.iter().all(|&a| a < m.num_devices()));
        assert!(logp < 0.0);
        let placement = agent.decode(&params, &actions);
        assert_eq!(placement.len(), g.len());
        assert!(placement.validate(&g, &m).is_ok());
    }

    #[test]
    fn score_matches_sampled_log_prob() {
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (actions, logp) = agent.sample(&params, &mut rng);
        let h = agent.score(&params, &actions);
        let rescored = h.tape.value(h.log_prob).item();
        assert!((logp - rescored).abs() < 1e-4, "{logp} vs {rescored}");
    }

    #[test]
    fn gradients_reach_grouper_through_placer_loss() {
        // The linking construction must carry placer-policy gradients back into the
        // grouper parameters (EAGLE's claim).
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (actions, _) = agent.sample(&params, &mut rng);
        let mut h = agent.score(&params, &actions);
        let loss = h.tape.neg(h.log_prob);
        let mut grads = Grads::for_params(&params);
        h.tape.backward_into(loss, &mut grads);
        let grouper_grad: f32 = params
            .ids()
            .filter(|&id| params.name(id).starts_with("eagle/grouper"))
            .map(|id| grads.get(id).norm())
            .sum();
        assert!(grouper_grad > 0.0, "grouper receives gradient end-to-end");
        let link_grad: f32 = params
            .ids()
            .filter(|&id| params.name(id).starts_with("eagle/link"))
            .map(|id| grads.get(id).norm())
            .sum();
        assert!(link_grad > 0.0, "linking RNN receives gradient");
    }

    #[test]
    fn for_graph_view_shares_params_and_action_space() {
        let (params, agent, _, m) = setup();
        let other = builders::try_inception_v3(&builders::InceptionConfig::default())
            .expect("inception builds");
        let view = agent.for_graph(&other).expect("EAGLE re-targets");
        assert_eq!(view.num_groups(), agent.num_groups());
        assert_eq!(view.rng_draws_per_sample(), agent.rng_draws_per_sample());
        // The view samples and decodes valid placements for the *new* graph
        // using the original parameter store — no re-registration.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (actions, _) = view.sample(&params, &mut rng);
        let placement = view.decode(&params, &actions);
        assert_eq!(placement.len(), other.len());
        assert!(placement.validate(&other, &m).is_ok());
    }

    #[test]
    fn grouping_is_deterministic_given_params() {
        let (params, agent, g, _) = setup();
        let a = agent.group_assignment(&params);
        let b = agent.group_assignment(&params);
        assert_eq!(a, b);
        assert_eq!(a.len(), g.len());
        assert!(a.iter().all(|&gi| gi < agent.num_groups()));
    }
}
