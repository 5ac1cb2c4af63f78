//! Crash-safe resume contract: a run killed at a minibatch boundary and
//! resumed from its checkpoint produces the same curve, parameters, best
//! placement and final measurement as the uninterrupted run with the same
//! seed, for every algorithm and worker count. Discrete outcomes (placements,
//! sample counts) must match exactly; float curves and parameters are compared
//! under the documented ULP budgets in `tests/common` (observed distance
//! today: 0 — the budget only licenses mathematically neutral float
//! reorderings inside the update path, not different results).
//!
//! The "kill" is simulated by training only the first *k* minibatches with
//! auto-checkpointing on: the checkpoint written at minibatch *k* is exactly
//! what a `kill -9` after that save would leave behind (the writes are atomic,
//! so nothing torn exists), and the resumed process rebuilds its agent and
//! environment from scratch exactly like a restarted binary would.

use eagle::core::{
    fnv1a64, load_checkpoint, AgentScale, Algo, CheckpointError, EagleAgent, GraphSource,
    TrainResult, Trainer, TrainerConfig, CHECKPOINT_FILE, CHECKPOINT_MAGIC,
};
use eagle::devsim::{Machine, MeasureConfig};
use eagle::opgraph::{builders, GraphGenConfig};
use eagle::tensor::{Params, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{assert_f32_close, assert_f64_close, assert_opt_f64_close, CURVE_ULPS, PARAM_ULPS};

const MINIBATCH: usize = 10;

fn tiny_graph() -> (eagle::opgraph::OpGraph, Machine) {
    let g = builders::try_gnmt(&builders::GnmtConfig {
        batch: 2,
        hidden: 4,
        layers: 2,
        seq_len: 3,
        vocab: 20,
    })
    .expect("valid GNMT config");
    (g, Machine::paper_machine())
}

fn tiny_trainer(cfg: TrainerConfig) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    let (g, m) = tiny_graph();
    let trainer = Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
        .config(cfg)
        .measure(MeasureConfig::default()) // noisy protocol: the RNG position matters
        .env_seed(17)
        .build()
        .expect("valid tiny trainer config");
    (g, m, trainer)
}

fn config(algo: Algo, workers: usize, total: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::paper(algo, total);
    cfg.ce_interval = 20; // exercise CE inside short runs
    cfg.workers = workers;
    cfg
}

/// Fresh agent + params, deterministic in the seed (a restarted process
/// rebuilds exactly this before restoring the checkpoint over it).
fn build_agent(g: &eagle::opgraph::OpGraph, m: &Machine) -> (Params, EagleAgent) {
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let agent = EagleAgent::new(&mut params, g, m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

fn straight_run(algo: Algo, workers: usize, total: usize) -> (TrainResult, Params) {
    let (g, m, trainer) = tiny_trainer(config(algo, workers, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

/// First life: trains `kill_after` minibatches with checkpointing on and
/// dies (stops) right after the checkpoint at minibatch `kill_after`. Returns
/// the checkpoint path.
fn first_life(
    algo: Algo,
    workers: usize,
    kill_after: usize,
    dir: &std::path::Path,
) -> std::path::PathBuf {
    std::fs::remove_dir_all(dir).ok();
    let mut cfg = config(algo, workers, kill_after * MINIBATCH);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = Some(1);
    let (g, m, trainer) = tiny_trainer(cfg);
    let (mut params, agent) = build_agent(&g, &m);
    trainer.train(&agent, &mut params).expect("first life trains");
    dir.join(CHECKPOINT_FILE)
}

/// Second life: a brand-new process image (new env, new agent, new params)
/// resumes from `state` and trains to `total` samples.
fn second_life(
    algo: Algo,
    workers: usize,
    total: usize,
    state: eagle::core::TrainerState,
) -> (TrainResult, Params) {
    let (g, m, trainer) = tiny_trainer(config(algo, workers, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train_from(&agent, &mut params, state).expect("resume accepted");
    (result, params)
}

/// Trains `kill_after` minibatches with checkpointing on, then resumes from
/// the checkpoint in a fresh process image.
fn killed_and_resumed(
    algo: Algo,
    workers: usize,
    kill_after: usize,
    total: usize,
    dir: &std::path::Path,
) -> (TrainResult, Params) {
    let path = first_life(algo, workers, kill_after, dir);
    let state = load_checkpoint(path).expect("checkpoint readable");
    assert_eq!(state.samples as usize, kill_after * MINIBATCH);
    second_life(algo, workers, total, state)
}

/// Discrete outcomes match exactly; floats match within the documented
/// ULP budgets ([`CURVE_ULPS`] for curve values, [`PARAM_ULPS`] for trained
/// parameters).
fn assert_run_matches(a: &(TrainResult, Params), b: &(TrainResult, Params), ctx: &str) {
    let ((ra, pa), (rb, pb)) = (a, b);
    assert_eq!(ra.samples, rb.samples, "{ctx}: samples");
    assert_eq!(ra.num_invalid, rb.num_invalid, "{ctx}: num_invalid");
    assert_eq!(ra.curve.points.len(), rb.curve.points.len(), "{ctx}: curve length");
    for (i, (x, y)) in ra.curve.points.iter().zip(&rb.curve.points).enumerate() {
        assert_eq!(x.sample, y.sample, "{ctx}: point {i} sample");
        assert_f64_close(
            x.wall_clock,
            y.wall_clock,
            CURVE_ULPS,
            &format!("{ctx}: point {i} wall_clock"),
        );
        assert_opt_f64_close(
            x.measured,
            y.measured,
            CURVE_ULPS,
            &format!("{ctx}: point {i} measured"),
        );
        assert_opt_f64_close(
            x.best_so_far,
            y.best_so_far,
            CURVE_ULPS,
            &format!("{ctx}: point {i} best_so_far"),
        );
    }
    assert_eq!(ra.best_placement, rb.best_placement, "{ctx}: best placement");
    assert_opt_f64_close(
        ra.final_step_time,
        rb.final_step_time,
        CURVE_ULPS,
        &format!("{ctx}: final step time"),
    );
    assert_eq!(pa.len(), pb.len(), "{ctx}: param tensor count");
    for id in pa.ids() {
        let (ta, tb) = (pa.get(id), pb.get(id));
        assert_eq!(ta.shape(), tb.shape(), "{ctx}: shape of {}", pa.name(id));
        for (j, (va, vb)) in ta.data().iter().zip(tb.data()).enumerate() {
            assert_f32_close(*va, *vb, PARAM_ULPS, &format!("{ctx}: param {}[{j}]", pa.name(id)));
        }
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join("eagle-resume-tests").join(name)
}

#[test]
fn kill_and_resume_is_bit_identical_for_every_algo_and_worker_count() {
    const TOTAL: usize = 60;
    const KILL_AFTER: usize = 3; // of 6 minibatches
    for algo in [Algo::Reinforce, Algo::Ppo, Algo::PpoCe] {
        for workers in [1usize, 0] {
            let ctx = format!("{algo:?}/workers={workers}");
            let dir = tmp(&format!("{algo:?}-w{workers}").to_lowercase());
            let straight = straight_run(algo, workers, TOTAL);
            let resumed = killed_and_resumed(algo, workers, KILL_AFTER, TOTAL, &dir);
            assert_run_matches(&straight, &resumed, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn corrupt_checkpoint_fails_typed_and_fresh_file_survives_interrupted_save() {
    let dir = tmp("corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(Algo::Ppo, 1, 20);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(1);
    let (g, m, trainer) = tiny_trainer(cfg);
    let (mut params, agent) = build_agent(&g, &m);
    trainer.train(&agent, &mut params).expect("training run succeeds");

    let path = dir.join(CHECKPOINT_FILE);
    let good = std::fs::read(&path).unwrap();
    // Truncate mid-payload, as a torn non-atomic write would.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match load_checkpoint(&path) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    // No stray temp files from the atomic-writer protocol.
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "temp litter: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites a current checkpoint file as the schema-v2 file earlier builds
/// wrote: every parameter entry regains its all-zero `grad` array, and the
/// header names v2 with a checksum and length recomputed over the new payload.
fn as_legacy_v2(current: &str, params: &Params) -> String {
    let (_, payload) = current.split_once('\n').expect("header line");
    let (mut entries, mut legacy) = (Vec::new(), Vec::new());
    for id in params.ids() {
        let name = serde_json::to_string(&params.name(id)).unwrap();
        let value = serde_json::to_string(params.get(id)).unwrap();
        let (r, c) = params.get(id).shape();
        let grad = serde_json::to_string(&Tensor::zeros(r, c)).unwrap();
        entries.push(format!(r#"{{"name":{name},"value":{value}}}"#));
        legacy.push(format!(r#"{{"name":{name},"value":{value},"grad":{grad}}}"#));
    }
    let entries = format!(r#""params":{{"entries":[{}]}}"#, entries.join(","));
    let legacy = format!(r#""params":{{"entries":[{}]}}"#, legacy.join(","));
    assert_eq!(payload.matches(&entries).count(), 1, "params serialize as expected");
    let payload = payload.replacen(&entries, &legacy, 1);
    format!(
        r#"{{"magic":"{CHECKPOINT_MAGIC}","schema_version":2,"checksum":{},"payload_bytes":{}}}"#,
        fnv1a64(payload.as_bytes()),
        payload.len()
    ) + "\n"
        + &payload
}

fn assert_params_bitwise_equal(a: &Params, b: &Params, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: param tensor count");
    for id in a.ids() {
        let bits = |p: &Params| p.get(id).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.get(id).shape(), b.get(id).shape(), "{ctx}: shape of {}", a.name(id));
        assert_eq!(bits(a), bits(b), "{ctx}: param {}", a.name(id));
    }
}

/// A v2 checkpoint — written before parameters dropped their serialized
/// gradient accumulators — still loads to the same parameters and optimizer
/// state as the current file, and resumes to the same bits.
#[test]
fn legacy_v2_checkpoint_with_gradient_arrays_resumes_bit_identically() {
    const TOTAL: usize = 40;
    const KILL_AFTER: usize = 2;
    let dir = tmp("legacy-v2");
    let path = first_life(Algo::Ppo, 1, KILL_AFTER, &dir);
    let current_text = std::fs::read_to_string(&path).unwrap();
    assert!(!current_text.contains("\"grad\""), "current checkpoints carry no gradients");
    let current = load_checkpoint(&path).expect("current checkpoint loads");

    let legacy_text = as_legacy_v2(&current_text, &current.params);
    assert!(legacy_text.len() > current_text.len(), "surgery added the grad arrays");
    let legacy_path = dir.join("legacy-v2.json");
    std::fs::write(&legacy_path, legacy_text).unwrap();
    let legacy = load_checkpoint(&legacy_path).expect("v2 checkpoint still loads");
    assert_params_bitwise_equal(&legacy.params, &current.params, "loaded v2");
    assert_eq!(legacy.opt_ppo, current.opt_ppo, "Adam state survives the v2 decode");

    let from_current = second_life(Algo::Ppo, 1, TOTAL, current);
    let from_legacy = second_life(Algo::Ppo, 1, TOTAL, legacy);
    assert_eq!(from_legacy.0.curve.points, from_current.0.curve.points, "resumed curve");
    assert_eq!(from_legacy.0.best_placement, from_current.0.best_placement);
    assert_params_bitwise_equal(&from_legacy.1, &from_current.1, "resumed from v2");
    assert_run_matches(&straight_run(Algo::Ppo, 1, TOTAL), &from_legacy, "v2 resume");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Resume is exact no matter *which* minibatch boundary the run died at.
    #[test]
    fn resume_at_any_minibatch_boundary_is_exact(kill_after in 1usize..6) {
        const TOTAL: usize = 60;
        let dir = tmp(&format!("boundary-{kill_after}"));
        let straight = straight_run(Algo::PpoCe, 0, TOTAL);
        let resumed = killed_and_resumed(Algo::PpoCe, 0, kill_after, TOTAL, &dir);
        assert_run_matches(&straight, &resumed, &format!("boundary {kill_after}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Multi-graph trainer over a tiny GraphGen distribution with a held-out
/// graph and probes on — the full generalist checkpoint surface (GraphSource
/// RNG position, per-graph environment pool, retired snapshot, probe points).
fn multi_trainer(cfg: TrainerConfig) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    let m = Machine::paper_machine();
    let source = GraphSource::generated(GraphGenConfig::with_target(48), 99)
        .expect("valid generated source");
    let seed_graph = source.build(&source.holdout_origins(1)[0]);
    let trainer = Trainer::builder(source, m.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(17)
        .holdout(1)
        .probe_every(2)
        .probe_candidates(2)
        .build()
        .expect("valid multi-graph trainer config");
    (seed_graph, m, trainer)
}

fn multi_straight_run(total: usize) -> (TrainResult, Params) {
    let (g, m, trainer) = multi_trainer(config(Algo::Ppo, 1, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

fn multi_killed_and_resumed(
    kill_after: usize,
    total: usize,
    dir: &std::path::Path,
) -> (TrainResult, Params) {
    std::fs::remove_dir_all(dir).ok();
    {
        let mut cfg = config(Algo::Ppo, 1, kill_after * MINIBATCH);
        cfg.checkpoint_dir = Some(dir.to_path_buf());
        cfg.checkpoint_every = Some(1);
        let (g, m, trainer) = multi_trainer(cfg);
        let (mut params, agent) = build_agent(&g, &m);
        trainer.train(&agent, &mut params).expect("first life trains");
    }
    let state = load_checkpoint(dir.join(CHECKPOINT_FILE)).expect("checkpoint readable");
    assert_eq!(state.samples as usize, kill_after * MINIBATCH);
    assert!(!state.entries.is_empty(), "multi-graph checkpoint carries the env pool");
    let (g, m, trainer) = multi_trainer(config(Algo::Ppo, 1, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train_from(&agent, &mut params, state).expect("resume accepted");
    (result, params)
}

#[test]
fn multi_graph_kill_and_resume_is_bit_identical() {
    const TOTAL: usize = 60;
    for kill_after in [1usize, 3, 5] {
        let dir = tmp(&format!("multi-{kill_after}"));
        let straight = multi_straight_run(TOTAL);
        let resumed = multi_killed_and_resumed(kill_after, TOTAL, &dir);
        let ctx = format!("multi-graph boundary {kill_after}");
        assert_run_matches(&straight, &resumed, &ctx);
        // Zero-shot probe points must replay identically through the resume:
        // the probe RNG is derived from (config seed, minibatch index), never
        // from training state lost in the kill.
        assert_eq!(straight.0.curve.probes, resumed.0.curve.probes, "{ctx}: probes");
        assert!(!straight.0.curve.probes.is_empty(), "{ctx}: probes were requested");
        // The pool itself restores: same graphs drawn, same per-graph counts.
        let names = |r: &TrainResult| {
            r.graphs.iter().map(|g| (g.name.clone(), g.samples)).collect::<Vec<_>>()
        };
        assert_eq!(names(&straight.0), names(&resumed.0), "{ctx}: graph summaries");
        std::fs::remove_dir_all(&dir).ok();
    }
}
