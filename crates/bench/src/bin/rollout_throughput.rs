//! Rollout-engine microbenchmark: end-to-end `train()` throughput serial vs
//! parallel vs parallel+cache, on Inception-V3 and GNMT, plus a minibatch
//! decode/sample microbenchmark comparing the batched policy API against the
//! per-episode path it replaced.
//!
//! Each configuration trains the same agent from the same seeds, so the
//! resulting curves are directly comparable: worker count never changes the
//! points (the determinism contract), and the cache changes only simulated
//! wall-clock charges, never measured values. Both invariants are checked here
//! and recorded in the emitted `BENCH_rollout_throughput.json`.
//!
//! The microbenchmark times two ways to decode one minibatch of actions — a
//! per-episode `decode` loop and one `decode_batch` call — and analogously
//! per-episode `sample` vs `sample_batch`. Both decode columns must produce
//! identical placements (batching is bit-identical by contract), and batched
//! decode must stay at least 1.3x faster than the per-episode loop on
//! Inception-V3.
//!
//! The `update_throughput` microbenchmark times one full minibatch policy
//! update three ways: the retired per-episode path (one backward traversal per
//! episode, naive `ikj` matmul kernel — the exact pre-single-backward update),
//! the single-backward fold on the naive kernel (isolating the one-traversal
//! win), and the shipped configuration (single backward + cache-blocked
//! kernel). The shipped path must reach at least 2x the retired path on
//! Inception-V3 at batch 16.
//!
//! With `--baseline PATH` the machine-robust speedup *ratios* (never absolute
//! wall-clock) are compared against a committed baseline artifact and the run
//! exits non-zero if any ratio regressed by more than 25%.

use eagle_bench::Cli;
use eagle_core::{
    Algo, EagleAgent, GraphSource, PlacementAgent, TrainResult, Trainer, TrainerConfig,
};
use eagle_devsim::{resolve_workers, Benchmark, Machine, MeasureConfig};
use eagle_rl::{fork_streams, StochasticPolicy};
use eagle_tensor::{optim::Adam, set_matmul_kernel, Grads, MatmulKernel, Params};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

struct Mode {
    label: &'static str,
    workers: usize,
    cache: bool,
}

const MODES: &[Mode] = &[
    Mode { label: "serial", workers: 1, cache: false },
    Mode { label: "parallel", workers: 8, cache: false },
    Mode { label: "parallel+cache", workers: 8, cache: true },
];

fn run_mode(b: Benchmark, mode: &Mode, cli: &Cli, samples: usize) -> (TrainResult, f64) {
    let machine = Machine::paper_machine();
    let graph = b.graph_for(&machine);
    let cache_capacity = if mode.cache { eagle_devsim::DEFAULT_CACHE_CAPACITY } else { 0 };
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let agent = EagleAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, samples);
    cfg.seed = cli.seed.wrapping_add(13);
    cfg.workers = mode.workers;
    let start = std::time::Instant::now();
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(1000 + cli.seed)
        .cache_capacity(cache_capacity)
        .recorder(cli.recorder.clone())
        .build()
        .expect("valid throughput trainer");
    let result = trainer.train(&agent, &mut params).expect("training run failed");
    (result, start.elapsed().as_secs_f64())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Minibatch size for the decode/sample microbenchmark. The batched-decode
/// speedup floor is contractual at batch >= 8; 16 matches a realistic PPO
/// minibatch while staying comfortably above that floor.
const MICRO_BATCH: usize = 16;
/// Timed repetitions per batch (plus one untimed warm-up).
const MICRO_ITERS: usize = 8;
/// Batches per column; the column reports its *fastest* batch mean. Taking
/// the minimum strips scheduler-preemption noise from both sides of every
/// gated ratio, keeping run-to-run spread well under the 25% regression floor
/// on a noisy shared CI host.
const MICRO_BATCHES: usize = 3;

/// Runs `f` once untimed to warm caches, then returns the fastest of
/// [`MICRO_BATCHES`] batch means (seconds per call over `iters` repetitions)
/// alongside the last output.
fn bench_loop<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..MICRO_BATCHES {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            out = f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    (best, out)
}

/// Times per-episode vs batched sampling and decoding of one minibatch and
/// checks that every path produces bit-identical outputs.
fn decode_microbench(b: Benchmark, cli: &Cli) -> Value {
    let machine = Machine::paper_machine();
    let graph = b.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let agent = EagleAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
    let sample_seed = cli.seed.wrapping_add(97);

    // Correctness first: the batched sampler over forked streams must replay
    // the per-episode loop over one master RNG exactly.
    let mut serial_rng = ChaCha8Rng::seed_from_u64(sample_seed);
    let serial_drawn: Vec<(Vec<usize>, f32)> =
        (0..MICRO_BATCH).map(|_| agent.sample(&params, &mut serial_rng)).collect();
    let mut master = ChaCha8Rng::seed_from_u64(sample_seed);
    let mut streams = fork_streams(&mut master, agent.rng_draws_per_sample(), MICRO_BATCH);
    let mut refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let batched_drawn = agent.sample_batch(&params, &mut refs);
    assert_eq!(
        serial_drawn,
        batched_drawn,
        "{}: sample_batch diverged from the per-episode sample loop",
        b.name()
    );
    let actions: Vec<Vec<usize>> = batched_drawn.into_iter().map(|(a, _)| a).collect();

    // Timing columns: each closure performs one full minibatch of work.
    let (sample_per_episode_sec, _) = bench_loop(MICRO_ITERS, || {
        let mut r = ChaCha8Rng::seed_from_u64(sample_seed);
        (0..MICRO_BATCH).map(|_| agent.sample(&params, &mut r)).collect::<Vec<_>>()
    });
    let (sample_batched_sec, _) = bench_loop(MICRO_ITERS, || {
        let mut m = ChaCha8Rng::seed_from_u64(sample_seed);
        let mut streams = fork_streams(&mut m, agent.rng_draws_per_sample(), MICRO_BATCH);
        let mut refs: Vec<&mut dyn RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        agent.sample_batch(&params, &mut refs)
    });
    let (decode_per_episode_sec, per_episode_placements) = bench_loop(MICRO_ITERS, || {
        actions.iter().map(|a| agent.decode(&params, a)).collect::<Vec<_>>()
    });
    let (decode_batched_sec, batched_placements) =
        bench_loop(MICRO_ITERS, || agent.decode_batch(&params, &actions));

    assert_eq!(
        per_episode_placements,
        batched_placements,
        "{}: decode_batch diverged from the per-episode loop",
        b.name()
    );

    let sample_speedup = sample_per_episode_sec / sample_batched_sec;
    let decode_speedup = decode_per_episode_sec / decode_batched_sec;
    println!(
        "  {:<12} batch {:>2}  decode: per-episode {:>8.1}us  batched {:>8.1}us ({:>5.2}x)  sample batched {:>5.2}x",
        b.name(),
        MICRO_BATCH,
        1e6 * decode_per_episode_sec,
        1e6 * decode_batched_sec,
        decode_speedup,
        sample_speedup,
    );
    if b == Benchmark::InceptionV3 {
        assert!(
            decode_speedup >= 1.3,
            "batched decode must be >= 1.3x the per-episode loop on {} at batch {} (got {:.2}x)",
            b.name(),
            MICRO_BATCH,
            decode_speedup
        );
    }

    obj(vec![
        ("benchmark", Value::from(b.name())),
        ("batch", Value::U64(MICRO_BATCH as u64)),
        ("iters", Value::U64(MICRO_ITERS as u64)),
        ("sample_per_episode_sec", Value::from(sample_per_episode_sec)),
        ("sample_batched_sec", Value::from(sample_batched_sec)),
        ("sample_speedup_batched_vs_per_episode", Value::from(sample_speedup)),
        ("decode_per_episode_sec", Value::from(decode_per_episode_sec)),
        ("decode_batched_sec", Value::from(decode_batched_sec)),
        ("decode_speedup_batched_vs_per_episode", Value::from(decode_speedup)),
        ("outputs_bit_identical", Value::Bool(true)),
    ])
}

/// Builds the per-episode REINFORCE-shaped losses the update microbenchmark
/// trains against: advantage-weighted log-probs, an entropy bonus, and the aux
/// head where the agent has one. Fixed pseudo-advantages keep every timed
/// column numerically identical work.
fn build_ep_losses(h: &mut eagle_rl::BatchScoreHandle) -> Vec<eagle_tensor::Var> {
    let episodes = h.episodes.clone();
    let mut losses = Vec::with_capacity(episodes.len());
    for (e, ep) in episodes.into_iter().enumerate() {
        let adv = 0.7 * (e as f32 - 0.5 * (MICRO_BATCH as f32 - 1.0)) + 0.3;
        let weighted = h.tape.scale(ep.log_prob, -adv);
        let ent = h.tape.scale(ep.entropy, -0.01);
        let mut loss = h.tape.add(weighted, ent);
        if let Some(aux) = ep.aux_loss {
            loss = h.tape.add(loss, aux);
        }
        losses.push(loss);
    }
    losses
}

/// Times one full minibatch policy update (score, backward, clip, Adam step)
/// on the retired per-episode path versus the single-backward fold, under both
/// matmul kernels, and records the machine-robust speedup ratios.
fn update_microbench(b: Benchmark, cli: &Cli) -> Value {
    let machine = Machine::paper_machine();
    let graph = b.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let agent = EagleAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
    let mut sample_rng = ChaCha8Rng::seed_from_u64(cli.seed.wrapping_add(193));
    let actions: Vec<Vec<usize>> =
        (0..MICRO_BATCH).map(|_| agent.sample(&params, &mut sample_rng).0).collect();

    // The pre-single-backward update: one backward traversal per episode,
    // then clip + step.
    let per_episode_update = |p: &mut Params, opt: &mut Adam, grads: &mut Grads| {
        let mut h = agent.score_batch(p, &actions);
        let losses = build_ep_losses(&mut h);
        grads.zero();
        for &loss in &losses {
            h.tape.backward_into(loss, grads);
        }
        grads.clip_global_norm(1.0);
        opt.step_grads(p, grads);
    };
    // The shipped update: sum the losses on the tape, traverse once, then
    // clip + step.
    let single_backward_update = |p: &mut Params, opt: &mut Adam, grads: &mut Grads| {
        let mut h = agent.score_batch(p, &actions);
        let losses = build_ep_losses(&mut h);
        let total = h.tape.add_n(&losses);
        grads.zero();
        h.tape.backward_into(total, grads);
        grads.clip_global_norm(1.0);
        opt.step_grads(p, grads);
    };

    set_matmul_kernel(MatmulKernel::Naive);
    let (per_episode_naive_sec, _) = {
        let mut p = params.clone();
        let mut opt = Adam::new(1e-3);
        let mut grads = Grads::for_params(&p);
        bench_loop(MICRO_ITERS, || per_episode_update(&mut p, &mut opt, &mut grads))
    };
    let (single_naive_sec, _) = {
        let mut p = params.clone();
        let mut opt = Adam::new(1e-3);
        let mut grads = Grads::for_params(&p);
        bench_loop(MICRO_ITERS, || single_backward_update(&mut p, &mut opt, &mut grads))
    };
    set_matmul_kernel(MatmulKernel::Blocked);
    let (single_blocked_sec, _) = {
        let mut p = params.clone();
        let mut opt = Adam::new(1e-3);
        let mut grads = Grads::for_params(&p);
        bench_loop(MICRO_ITERS, || single_backward_update(&mut p, &mut opt, &mut grads))
    };

    let fold_speedup = per_episode_naive_sec / single_naive_sec;
    let kernel_speedup = single_naive_sec / single_blocked_sec;
    let total_speedup = per_episode_naive_sec / single_blocked_sec;
    println!(
        "  {:<12} batch {:>2}  update: per-episode+naive {:>9.1}us  single+naive {:>9.1}us ({:>5.2}x)  single+blocked {:>9.1}us ({:>5.2}x total)",
        b.name(),
        MICRO_BATCH,
        1e6 * per_episode_naive_sec,
        1e6 * single_naive_sec,
        fold_speedup,
        1e6 * single_blocked_sec,
        total_speedup,
    );
    if b == Benchmark::InceptionV3 {
        assert!(
            total_speedup >= 2.0,
            "single-backward + blocked update must be >= 2x the per-episode path on {} at batch {} (got {:.2}x)",
            b.name(),
            MICRO_BATCH,
            total_speedup
        );
    }

    obj(vec![
        ("benchmark", Value::from(b.name())),
        ("batch", Value::U64(MICRO_BATCH as u64)),
        ("iters", Value::U64(MICRO_ITERS as u64)),
        ("update_per_episode_naive_sec", Value::from(per_episode_naive_sec)),
        ("update_single_backward_naive_sec", Value::from(single_naive_sec)),
        ("update_single_backward_blocked_sec", Value::from(single_blocked_sec)),
        ("update_speedup_single_backward_vs_per_episode", Value::from(fold_speedup)),
        ("update_speedup_blocked_vs_naive", Value::from(kernel_speedup)),
        ("update_speedup_vs_per_episode", Value::from(total_speedup)),
    ])
}

/// Ratio keys gated by `--baseline` in the `decode` section: machine-robust
/// speedups, never absolute wall-clock (the baseline may have been recorded on
/// different hardware).
const GATED_RATIOS: &[&str] =
    &["decode_speedup_batched_vs_per_episode", "sample_speedup_batched_vs_per_episode"];

/// Ratio keys gated by `--baseline` in the `update` section.
const GATED_UPDATE_RATIOS: &[&str] =
    &["update_speedup_single_backward_vs_per_episode", "update_speedup_vs_per_episode"];

/// Gates one artifact section's ratios against the baseline's matching
/// section; sets `failed` on any >25% regression.
fn gate_section(base: &Value, section: &str, entries: &[Value], keys: &[&str], failed: &mut bool) {
    let empty = Vec::new();
    let base_entries = base[section].as_array().unwrap_or(&empty);
    for entry in entries {
        let name = entry["benchmark"].as_str().expect("benchmark name");
        let Some(base_entry) = base_entries.iter().find(|e| e["benchmark"].as_str() == Some(name))
        else {
            println!("baseline has no {section} entry for {name}; skipping");
            continue;
        };
        for key in keys {
            let cur = entry[*key].as_f64().expect("current ratio");
            let Some(base_v) = base_entry[*key].as_f64() else { continue };
            let floor = 0.75 * base_v;
            if cur < floor {
                eprintln!(
                    "PERF REGRESSION: {name} {key} = {cur:.2}x vs baseline {base_v:.2}x (floor {floor:.2}x)"
                );
                *failed = true;
            } else {
                println!("  baseline {name} {key}: {cur:.2}x vs {base_v:.2}x baseline — ok");
            }
        }
    }
}

/// Compares this run's microbench speedup ratios against the committed
/// baseline artifact and exits non-zero on a >25% regression.
fn check_against_baseline(path: &std::path::Path, decode: &[Value], update: &[Value]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let base: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {}: {e}", path.display()));
    let mut failed = false;
    gate_section(&base, "decode", decode, GATED_RATIOS, &mut failed);
    gate_section(&base, "update", update, GATED_UPDATE_RATIOS, &mut failed);
    if failed {
        eprintln!("baseline comparison failed against {}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let cli = Cli::parse();
    let samples = cli.samples_override.unwrap_or(200);
    println!(
        "rollout throughput: {} samples/run, scale = {}, {} cores available",
        samples,
        cli.scale_name,
        resolve_workers(0)
    );

    let mut runs: Vec<Value> = Vec::new();
    for b in [Benchmark::InceptionV3, Benchmark::Gnmt] {
        let mut serial_elapsed = None;
        let mut serial_points = None;
        for mode in MODES {
            let (result, elapsed) = run_mode(b, mode, &cli, samples);
            let stats = result.telemetry;
            let speedup = match serial_elapsed {
                None => {
                    serial_elapsed = Some(elapsed);
                    1.0
                }
                Some(base) => base / elapsed,
            };
            // Same worker-count-independent curve, and — with the cache — the
            // same measured values (only simulated wall-clock charges shrink).
            let curve_check = match &serial_points {
                None => {
                    serial_points = Some(result.curve.points.clone());
                    true
                }
                Some(base) if !mode.cache => base == &result.curve.points,
                Some(base) => {
                    base.len() == result.curve.points.len()
                        && base
                            .iter()
                            .zip(&result.curve.points)
                            .all(|(a, b)| a.measured == b.measured)
                }
            };
            assert!(curve_check, "{}: {} diverged from the serial curve", b.name(), mode.label);
            println!(
                "  {:<12} {:<15} {:>7.2}s  {:>8.1} eps/s  speedup {:>5.2}x  hit rate {:>5.1}%",
                b.name(),
                mode.label,
                elapsed,
                stats.episodes_per_sec,
                speedup,
                100.0 * stats.cache_hit_rate,
            );
            runs.push(obj(vec![
                ("benchmark", Value::from(b.name())),
                ("mode", Value::from(mode.label)),
                ("workers", Value::U64(stats.workers as u64)),
                ("cache", Value::Bool(mode.cache)),
                ("samples", Value::U64(samples as u64)),
                ("elapsed_sec", Value::from(elapsed)),
                ("episodes_per_sec", Value::from(stats.episodes_per_sec)),
                ("speedup_vs_serial", Value::from(speedup)),
                ("cache_hits", Value::U64(stats.cache_hits)),
                ("cache_misses", Value::U64(stats.cache_misses)),
                ("cache_hit_rate", Value::from(stats.cache_hit_rate)),
                ("curve_matches_serial", Value::Bool(curve_check)),
                ("final_step_time", result.final_step_time.map_or(Value::Null, Value::from)),
            ]));
        }
    }

    println!("decode/sample microbench ({MICRO_ITERS} iters, batch {MICRO_BATCH}):");
    let decode: Vec<Value> =
        [Benchmark::InceptionV3, Benchmark::Gnmt].map(|b| decode_microbench(b, &cli)).into();
    println!("update microbench ({MICRO_ITERS} iters, batch {MICRO_BATCH}):");
    let update: Vec<Value> =
        [Benchmark::InceptionV3, Benchmark::Gnmt].map(|b| update_microbench(b, &cli)).into();
    if let Some(path) = &cli.baseline {
        check_against_baseline(path, &decode, &update);
    }

    let doc = obj(vec![
        ("bench", Value::from("rollout_throughput")),
        ("scale", Value::from(cli.scale_name.as_str())),
        ("seed", Value::U64(cli.seed)),
        ("available_cores", Value::U64(resolve_workers(0) as u64)),
        ("runs", Value::Array(runs)),
        ("decode", Value::Array(decode)),
        ("update", Value::Array(update)),
    ]);
    cli.write_artifact(
        "BENCH_rollout_throughput.json",
        &serde_json::to_string(&doc).expect("serialize"),
    );
    cli.finish_metrics("rollout_throughput");
}
