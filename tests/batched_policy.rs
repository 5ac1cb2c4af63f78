//! The batched policy API's central contract: `sample_batch`, `score_batch`
//! and `decode_batch` are *bit-identical* to the per-episode methods for every
//! agent, batch size, and seed — actions, log-probabilities, entropies,
//! auxiliary losses, decoded placements, and accumulated gradients all match
//! exactly. On top of the per-call equivalence, a full training run through
//! the batched trainer must stay identical across worker counts and
//! checkpoint resumes (discrete outcomes exactly, curve floats within the
//! documented ULP budgets in `tests/common`).
//!
//! The *single-backward* update path (sum per-episode losses with `add_n`,
//! traverse the shared tape once) is a genuine float reordering relative to
//! the per-episode backward loop, so its gradients are compared under the
//! mixed absolute/relative tolerance `assert_grad_close` rather than
//! bitwise — see `tests/common` for the budget rationale.

use eagle::core::{
    AgentScale, Algo, EagleAgent, FixedGroupAgent, GraphSource, HpAgent, PlacementAgent,
    PlacerKind, Trainer, TrainerConfig, CHECKPOINT_FILE,
};
use eagle::devsim::{Machine, MeasureConfig};
use eagle::opgraph::{builders, OpGraph};
use eagle::rl::fork_streams;
use eagle::tensor::{Grads, Params};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::{assert_curves_close, assert_grad_close, assert_opt_f64_close, CURVE_ULPS};

fn tiny_graph() -> OpGraph {
    builders::try_gnmt(&builders::GnmtConfig {
        batch: 2,
        hidden: 4,
        layers: 2,
        seq_len: 3,
        vocab: 20,
    })
    .expect("valid GNMT config")
}

/// Asserts the three batched methods reproduce the per-episode methods
/// bit-for-bit for one agent at one batch size.
fn assert_batched_matches_serial(
    agent: &impl PlacementAgent,
    params: &Params,
    bsz: usize,
    seed: u64,
) {
    // --- sample: a serial per-episode loop over one master RNG...
    let mut serial_rng = ChaCha8Rng::seed_from_u64(seed);
    let serial: Vec<(Vec<usize>, f32)> =
        (0..bsz).map(|_| agent.sample(params, &mut serial_rng)).collect();

    // ...versus one batched call over forked per-episode streams.
    let mut master = ChaCha8Rng::seed_from_u64(seed);
    let mut streams = fork_streams(&mut master, agent.rng_draws_per_sample(), bsz);
    let mut refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let batched = agent.sample_batch(params, &mut refs);

    assert_eq!(batched.len(), bsz);
    for (b, ((sa, slp), (ba, blp))) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(sa, ba, "episode {b}: actions diverge");
        assert_eq!(slp.to_bits(), blp.to_bits(), "episode {b}: log-prob diverges");
    }
    // The master RNG must end where the serial loop left its RNG, so
    // checkpointed RNG accounting is oblivious to batching.
    assert_eq!(master.next_u32(), serial_rng.next_u32(), "master RNG position diverges");

    // --- decode
    let actions: Vec<Vec<usize>> = batched.into_iter().map(|(a, _)| a).collect();
    let placements = agent.decode_batch(params, &actions);
    assert_eq!(placements.len(), bsz);
    for (a, p) in actions.iter().zip(&placements) {
        assert_eq!(agent.decode(params, a), *p, "decode_batch diverges from decode");
    }

    // --- score: per-episode heads on the shared tape...
    let mut h = agent.score_batch(params, &actions);
    assert_eq!(h.episodes.len(), bsz);
    for (a, ep) in actions.iter().zip(h.episodes.clone()) {
        let ref_h = agent.score(params, a);
        assert_eq!(
            h.tape.value(ep.log_prob).item().to_bits(),
            ref_h.tape.value(ref_h.log_prob).item().to_bits(),
            "scored log-prob diverges"
        );
        assert_eq!(
            h.tape.value(ep.entropy).item().to_bits(),
            ref_h.tape.value(ref_h.entropy).item().to_bits(),
            "scored entropy diverges"
        );
        match (ep.aux_loss, ref_h.aux_loss) {
            (Some(b), Some(s)) => assert_eq!(
                h.tape.value(b).item().to_bits(),
                ref_h.tape.value(s).item().to_bits(),
                "aux loss diverges"
            ),
            (None, None) => {}
            _ => panic!("aux_loss presence differs between batch and serial"),
        }
    }

    // --- gradients: per-episode backward on the shared tape, in episode
    // order, must deposit exactly what separate per-episode tapes deposit.
    let mut batch_grads = Grads::for_params(params);
    for ep in h.episodes.clone() {
        let neg = h.tape.neg(ep.log_prob);
        let loss = match ep.aux_loss {
            Some(aux) => h.tape.add(neg, aux),
            None => neg,
        };
        h.tape.backward_into(loss, &mut batch_grads);
    }
    let mut serial_grads = Grads::for_params(params);
    for a in &actions {
        let mut sh = agent.score(params, a);
        let neg = sh.tape.neg(sh.log_prob);
        let loss = match sh.aux_loss {
            Some(aux) => sh.tape.add(neg, aux),
            None => neg,
        };
        sh.tape.backward_into(loss, &mut serial_grads);
    }
    for id in params.ids() {
        let bg = batch_grads.get(id);
        let sg = serial_grads.get(id);
        for (i, (x, y)) in bg.data().iter().zip(sg.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "gradient of '{}' entry {i} diverges",
                params.name(id)
            );
        }
    }
}

/// Asserts the single-backward update path (sum per-episode losses with
/// `add_n`, one `backward_into` traversal of the shared tape) produces the
/// same gradients as the per-episode backward loop, within the
/// documented tolerance. The losses mirror the RL update shape:
/// advantage-weighted log-probs, an entropy bonus, and the aux head where
/// the agent has one.
fn assert_single_backward_matches_per_episode(
    agent: &impl PlacementAgent,
    params: &Params,
    bsz: usize,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let actions: Vec<Vec<usize>> = (0..bsz).map(|_| agent.sample(params, &mut rng).0).collect();
    let mut h = agent.score_batch(params, &actions);

    let mut ep_losses = Vec::with_capacity(bsz);
    for (e, ep) in h.episodes.clone().into_iter().enumerate() {
        // Signed, episode-varying advantages so the summed gradient mixes
        // magnitudes and signs like a real REINFORCE/PPO minibatch does.
        let adv = 0.7 * (e as f32 - 0.5 * (bsz as f32 - 1.0)) + 0.3;
        let weighted = h.tape.scale(ep.log_prob, -adv);
        let ent = h.tape.scale(ep.entropy, -0.01);
        let mut loss = h.tape.add(weighted, ent);
        if let Some(aux) = ep.aux_loss {
            loss = h.tape.add(loss, aux);
        }
        ep_losses.push(loss);
    }
    let total = h.tape.add_n(&ep_losses);

    // Path A: the per-episode backward loop (one traversal per episode).
    let mut per_episode = Grads::for_params(params);
    for &loss in &ep_losses {
        h.tape.backward_into(loss, &mut per_episode);
    }
    // Path B: one traversal of the summed loss.
    let mut grads = Grads::for_params(params);
    h.tape.backward_into(total, &mut grads);

    for id in params.ids() {
        let pe = per_episode.get(id);
        let sb = grads.get(id);
        let scale = pe.data().iter().chain(sb.data()).fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (a, b)) in pe.data().iter().zip(sb.data()).enumerate() {
            assert_grad_close(
                *a,
                *b,
                scale,
                &format!("gradient of '{}' entry {i}", params.name(id)),
            );
        }
    }
}

fn eagle_agent(seed: u64) -> (Params, EagleAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

fn hp_agent(seed: u64) -> (Params, HpAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

fn fixed_agent(seed: u64, kind: PlacerKind) -> (Params, FixedGroupAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let k = 5;
    let group_of: Vec<usize> = (0..g.len()).map(|i| i * k / g.len()).collect();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = FixedGroupAgent::new(
        &mut params,
        "fg",
        &g,
        &m,
        group_of,
        k,
        kind,
        AgentScale::tiny(),
        &mut rng,
    );
    (params, agent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn eagle_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = eagle_agent(seed.wrapping_mul(31) + 1);
        assert_batched_matches_serial(&agent, &params, bsz, seed);
    }

    #[test]
    fn hp_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = hp_agent(seed.wrapping_mul(17) + 2);
        assert_batched_matches_serial(&agent, &params, bsz, seed);
    }

    #[test]
    fn fixed_group_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        // Rotate through all four placer kinds so every placer's batched path
        // is exercised behind the agent API.
        let bsz = [1usize, 3, 8][bidx];
        let kind = [PlacerKind::Seq2SeqBefore, PlacerKind::Seq2SeqAfter, PlacerKind::Gcn, PlacerKind::Simple]
            [(seed % 4) as usize];
        let (params, agent) = fixed_agent(seed.wrapping_mul(13) + 3, kind);
        assert_batched_matches_serial(&agent, &params, bsz, seed);
    }

    #[test]
    fn eagle_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = eagle_agent(seed.wrapping_mul(29) + 5);
        assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
    }

    #[test]
    fn hp_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = hp_agent(seed.wrapping_mul(19) + 6);
        assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
    }

    #[test]
    fn fixed_group_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let kind = [PlacerKind::Seq2SeqBefore, PlacerKind::Seq2SeqAfter, PlacerKind::Gcn, PlacerKind::Simple]
            [(seed % 4) as usize];
        let (params, agent) = fixed_agent(seed.wrapping_mul(23) + 7, kind);
        assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
    }
}

fn train_hp(workers: usize) -> eagle::core::TrainResult {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::PpoCe, 40);
    cfg.ce_interval = 20;
    cfg.workers = workers;
    let trainer = Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(11)
        .build()
        .expect("valid trainer config");
    trainer.train(&agent, &mut params).expect("training run succeeds")
}

#[test]
fn batched_training_curve_identical_across_worker_counts() {
    let serial = train_hp(1);
    let auto = train_hp(0);
    assert_curves_close(&serial.curve, &auto.curve, "serial vs auto workers");
    assert_eq!(serial.best_placement, auto.best_placement);
    assert_opt_f64_close(
        serial.final_step_time,
        auto.final_step_time,
        CURVE_ULPS,
        "serial vs auto workers: final step time",
    );
    assert_eq!(serial.num_invalid, auto.num_invalid);
}

#[test]
fn batched_training_resumes_bit_identically() {
    // A run killed mid-way and resumed must replay the exact same curve the
    // uninterrupted run produces — the batched sampler's RNG accounting feeds
    // straight into the checkpointed trainer RNG.
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let build_trainer = |cfg: TrainerConfig| {
        Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
            .config(cfg)
            .measure(MeasureConfig::default())
            .env_seed(23)
            .build()
            .expect("valid trainer config")
    };
    let build_agent = |params: &mut Params| {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        EagleAgent::new(params, &g, &m, AgentScale::tiny(), &mut rng)
    };

    let dir = std::env::temp_dir().join("eagle-batched-policy-resume-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Uninterrupted reference: 60 samples.
    let mut cfg = TrainerConfig::paper(Algo::Ppo, 60);
    let mut full_params = Params::new();
    let full_agent = build_agent(&mut full_params);
    let full =
        build_trainer(cfg.clone()).train(&full_agent, &mut full_params).expect("full run trains");

    // Interrupted: stop after 30 (checkpointing every minibatch), resume to 60.
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(1);
    cfg.total_samples = 30;
    let mut part_params = Params::new();
    let part_agent = build_agent(&mut part_params);
    build_trainer(cfg.clone()).train(&part_agent, &mut part_params).expect("partial run trains");

    let state = eagle::core::load_checkpoint(dir.join(CHECKPOINT_FILE)).unwrap();
    cfg.total_samples = 60;
    let mut resumed_params = Params::new();
    let resumed_agent = build_agent(&mut resumed_params);
    let resumed = build_trainer(cfg)
        .train_from(&resumed_agent, &mut resumed_params, state)
        .expect("resume succeeds");

    assert_curves_close(&full.curve, &resumed.curve, "full vs resumed");
    assert_eq!(full.best_placement, resumed.best_placement);
    assert_opt_f64_close(
        full.final_step_time,
        resumed.final_step_time,
        CURVE_ULPS,
        "full vs resumed: final step time",
    );
    std::fs::remove_dir_all(&dir).ok();
}
