//! `train-inception`: EAGLE trains with PPO on Inception-V3 (1,182 ops) at
//! `quick` scale for a fixed sample budget.
//!
//! The untraced run repeats set-up + [`Trainer::train`] until the measured
//! time is up, each repetition on its own seeds derived from the workload
//! seed.
//! The traced run alternates `Trainer::train` with a copy of the trainer's
//! loop rebuilt from public calls, one span per call, and checks that both
//! produce the same curve point for point.

use std::collections::BTreeMap;
use std::time::Instant;

use eagle_core::{
    AgentScale, Algo, Curve, EagleAgent, GraphSource, PlacementAgent, TrainResult, Trainer,
    TrainerConfig,
};
use eagle_devsim::{simulate_recorded, Benchmark, Environment, Machine, MeasureConfig, Placement};
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_rl::{fork_streams, BatchScoreHandle, EmaBaseline, Ppo, StochasticPolicy, TrainSample};
use eagle_tensor::{optim::Adam, Grads, Params};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::Report;
use crate::stats::derive;
use crate::trace::{Trace, Tracer};

/// Placements sampled per training run (20 minibatches of 10).
const SAMPLES: usize = 200;

/// The trainer's per-minibatch phase spans, read from its own recorder.
const PHASES: [&str; 4] =
    ["trainer.sample_us", "trainer.decode_us", "trainer.evaluate_us", "trainer.update_us"];

/// Seeds of one training run, derived from the workload seed.
#[derive(Clone, Copy)]
struct Seeds {
    agent: u64,
    trainer: u64,
    env: u64,
}

impl Seeds {
    fn new(seed: u64, rep: u64) -> Self {
        Self {
            agent: derive(seed, 3 * rep),
            trainer: derive(seed, 3 * rep + 1),
            env: derive(seed, 3 * rep + 2),
        }
    }
}

/// Everything `Trainer::train` needs, built by the timed set-up.
struct Setup {
    machine: Machine,
    graph: OpGraph,
    agent: EagleAgent,
    params: Params,
    trainer: Trainer,
    env_seed: u64,
}

fn setup(seeds: Seeds, workers: usize, recorder: Recorder) -> Setup {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seeds.agent);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::quick(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, SAMPLES);
    cfg.seed = seeds.trainer;
    cfg.workers = workers;
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(seeds.env)
        .recorder(recorder)
        .build()
        .expect("paper trainer config is valid");
    Setup { machine, graph, agent, params, trainer, env_seed: seeds.env }
}

/// Checks one finished run; returns its best measured step time.
fn check_result(report: &mut Report, what: &str, result: &TrainResult) -> Option<f64> {
    if result.samples != SAMPLES || result.curve.points.len() != SAMPLES {
        report.problem(format!(
            "{what}: {} samples, {} curve points (expected {SAMPLES})",
            result.samples,
            result.curve.points.len()
        ));
    }
    match result.final_step_time {
        Some(t) if t.is_finite() && t > 0.0 => Some(t),
        other => {
            report.problem(format!("{what}: no valid final step time ({other:?})"));
            None
        }
    }
}

/// Per-minibatch host time (ms): the four phase spans of each minibatch.
fn minibatch_ms(recorder: &Recorder) -> Vec<f64> {
    let mut per: BTreeMap<u64, f64> = BTreeMap::new();
    for s in recorder.spans().iter().filter(|s| PHASES.contains(&s.name)) {
        *per.entry(s.seq).or_default() += s.micros / 1e3;
    }
    per.into_values().collect()
}

/// The untraced run: end-to-end metrics. Training runs follow one another
/// until `seconds` are up, each on its own seeds derived from `seed`.
pub fn run(seed: u64, seconds: u64, workers: usize) -> Report {
    let mut report = Report::default();
    let (mut setup_s, mut latency, mut best) = (vec![], vec![], vec![]);
    let (mut samples, mut train_s) = (0usize, 0.0f64);
    let started = Instant::now();
    let mut rep = 0;
    while rep == 0 || started.elapsed().as_secs() < seconds {
        let recorder = Recorder::new();
        let t0 = Instant::now();
        let mut st = setup(Seeds::new(seed, rep), workers, recorder.clone());
        setup_s.push(t0.elapsed().as_secs_f64());
        report.attempted += 1;
        let t1 = Instant::now();
        let result = st.trainer.train(&st.agent, &mut st.params);
        let host_s = t1.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                samples += r.samples;
                train_s += host_s;
                latency.extend(minibatch_ms(&recorder));
                match check_result(&mut report, &format!("run {rep}"), &r) {
                    Some(t) => best.push(t),
                    None => report.failed += 1,
                }
            }
            Err(e) => report.fail(format!("run {rep}: training failed: {e}")),
        }
        rep += 1;
    }
    report.median("setup_s", &setup_s);
    report.set(
        "placements_per_s",
        samples as f64 / train_s,
        format!("{samples} samples in {train_s:.3} s of Trainer::train over {rep} runs"),
    );
    report.mean("latency_mean_ms", &latency);
    report.mean("step_s", &best);
    crate::record_peak_rss(&mut report);
    report
}

/// Times `score_batch` without changing what it returns, so the score
/// forward shows as a child span of `rl.update`.
struct Timed<'a, A> {
    inner: &'a A,
    tracer: &'a Tracer,
    minibatch: u64,
}

impl<A: StochasticPolicy> StochasticPolicy for Timed<'_, A> {
    fn rng_draws_per_sample(&self) -> usize {
        self.inner.rng_draws_per_sample()
    }

    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)> {
        self.inner.sample_batch(params, rngs)
    }

    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
        let _s = self.tracer.span("tensor.score", self.minibatch);
        self.inner.score_batch(params, actions)
    }
}

/// What the traced loop produced.
struct Traced {
    curve: Curve,
    final_step_time: Option<f64>,
    params: Params,
    batches: Vec<Vec<TrainSample>>,
    placements: Vec<Placement>,
}

/// `Trainer::train`'s loop for a fixed graph source, rebuilt from public
/// calls with one span per call.
fn traced_train(t: &Tracer, st: &Setup, recorder: &Recorder, workers: usize) -> Traced {
    let cfg = st.trainer.config().clone();
    let agent = &st.agent;
    let mut params = st.params.clone();
    let _root = t.span("train", 0);
    let mut env = {
        let _s = t.span("devsim.env_build", 0);
        Environment::builder(st.graph.clone(), st.machine.clone())
            .seed(st.env_seed)
            .measure(MeasureConfig::default())
            .recorder(recorder.clone())
            .build()
            .expect("the trainer built this environment")
    };
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut baseline = EmaBaseline::new(cfg.ema_alpha);
    let mut ppo = Ppo::new(cfg.optim.clone(), cfg.ppo_clip, cfg.ppo_epochs);
    let mut curve = Curve::new(agent.name());
    let mut best: Option<(f64, Placement)> = None;
    let (mut samples, mut wall) = (0usize, 0.0f64);
    let (mut batches, mut all_placements) = (Vec::new(), Vec::new());
    let mut mb = 0u64;
    while samples < cfg.total_samples {
        let size = cfg.minibatch.min(cfg.total_samples - samples);
        let mut streams = {
            let _s = t.span("rl.fork_streams", mb);
            fork_streams(&mut rng, agent.rng_draws_per_sample(), size)
        };
        let drawn = {
            let _s = t.span("nn.sample", mb);
            let mut refs: Vec<&mut dyn rand::RngCore> =
                streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
            agent.sample_batch(&params, &mut refs)
        };
        let (actions, old_log_probs): (Vec<Vec<usize>>, Vec<f32>) = drawn.into_iter().unzip();
        let placements = {
            let _s = t.span("nn.decode", mb);
            agent.decode_batch(&params, &actions)
        };
        let measurements = {
            let _s = t.span("devsim.evaluate", mb);
            env.evaluate_batch(&placements, workers)
        };
        let batch = {
            let _s = t.span("rl.baseline", mb);
            let mut batch = Vec::with_capacity(size);
            for ((a, old_log_prob), (p, m)) in
                actions.into_iter().zip(old_log_probs).zip(placements.iter().zip(&measurements))
            {
                samples += 1;
                let reward = match m.step_time {
                    Some(time) => {
                        if best.as_ref().is_none_or(|(b, _)| time < *b) {
                            best = Some((time, p.clone()));
                        }
                        cfg.reward.apply(time)
                    }
                    None => cfg.reward.apply(cfg.invalid_penalty_time),
                };
                wall += m.wall_cost;
                curve.push(samples as u64, wall, m.step_time);
                let advantage = if cfg.use_baseline {
                    baseline.advantage(reward) as f32
                } else {
                    reward as f32
                };
                batch.push(TrainSample { actions: a, old_log_prob, advantage });
            }
            if cfg.normalize_adv && batch.len() > 1 {
                let n = batch.len() as f32;
                let mean = batch.iter().map(|s| s.advantage).sum::<f32>() / n;
                let var = batch.iter().map(|s| (s.advantage - mean).powi(2)).sum::<f32>() / n;
                let std = var.sqrt().max(1e-6);
                for s in &mut batch {
                    s.advantage /= std;
                }
            }
            batch
        };
        {
            let _s = t.span("rl.update", mb);
            ppo.update(&Timed { inner: agent, tracer: t, minibatch: mb }, &mut params, &batch);
        }
        batches.push(batch);
        all_placements.extend(placements);
        mb += 1;
    }
    let final_step_time = {
        let _s = t.span("trainer.final_eval", mb);
        best.and_then(|(_, p)| env.evaluate_final(&p))
    };
    Traced { curve, final_step_time, params, batches, placements: all_placements }
}

/// Times backward and Adam of one PPO epoch on each of the run's own
/// minibatches, on a copy of the trained parameters: ms per call.
fn update_split(st: &Setup, traced: &Traced) -> (Vec<f64>, Vec<f64>) {
    let cfg = st.trainer.config();
    let mut params = traced.params.clone();
    let mut opt = Adam::new(cfg.optim.lr);
    let mut grads = Grads::for_params(&params);
    let (mut backward, mut adam) = (vec![], vec![]);
    for batch in &traced.batches {
        let actions: Vec<Vec<usize>> = batch.iter().map(|s| s.actions.clone()).collect();
        let mut h = st.agent.score_batch(&params, &actions);
        // The clipped-surrogate loss exactly as `Ppo::update` builds it.
        let scale = 1.0 / batch.len() as f32;
        let mut losses = Vec::with_capacity(batch.len());
        for (ep, s) in h.episodes.clone().into_iter().zip(batch) {
            let old = h.tape.add_scalar(ep.log_prob, -s.old_log_prob);
            let ratio = h.tape.exp(old);
            let unclipped = h.tape.scale(ratio, s.advantage);
            let clipped_ratio = h.tape.clamp(ratio, 1.0 - cfg.ppo_clip, 1.0 + cfg.ppo_clip);
            let clipped = h.tape.scale(clipped_ratio, s.advantage);
            let surr = h.tape.min_elem(unclipped, clipped);
            let ent = h.tape.scale(ep.entropy, cfg.optim.ent_coef);
            let gain = h.tape.add(surr, ent);
            let neg = h.tape.neg(gain);
            let mut loss = h.tape.scale(neg, scale);
            if let Some(aux) = ep.aux_loss {
                let aux = h.tape.scale(aux, scale);
                loss = h.tape.add(loss, aux);
            }
            losses.push(loss);
        }
        let total = h.tape.add_n(&losses);
        let t1 = Instant::now();
        grads.zero();
        h.tape.backward_into(total, &mut grads);
        backward.push(t1.elapsed().as_secs_f64() * 1e3);
        grads.clip_global_norm(cfg.optim.grad_clip);
        let t2 = Instant::now();
        opt.step_grads(&mut params, &grads);
        adam.push(t2.elapsed().as_secs_f64() * 1e3);
    }
    (backward, adam)
}

/// The traced run: per-layer metrics and the curve-equality check.
pub fn run_traced(seed: u64, workers: usize, trace_out: &std::path::Path) -> Report {
    let mut report = Report::default();
    let seeds = Seeds::new(seed, 0);

    // Set-up calls, timed one by one.
    let st = setup(seeds, workers, Recorder::new());
    let (agent_new_ms, agent_build_ms) = {
        let mut p = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.agent);
        let t = Instant::now();
        EagleAgent::new(&mut p, &st.graph, &st.machine, AgentScale::quick(), &mut rng);
        let new_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut p = Params::new();
        let t = Instant::now();
        EagleAgent::new_for_inference(
            &mut p,
            &st.graph,
            &st.machine,
            AgentScale::quick(),
            &mut rng,
        );
        (new_ms, t.elapsed().as_secs_f64() * 1e3)
    };

    // Untraced and traced training alternate A B B A, so a change in machine
    // load during the run weighs on both sides alike.
    let mut reference: Option<TrainResult> = None;
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut first: Option<(Trace, Traced, Recorder)> = None;
    for side in ["untraced", "traced", "traced", "untraced"] {
        report.attempted += 1;
        if side == "untraced" {
            let mut params = st.params.clone();
            let t0 = Instant::now();
            let result = st.trainer.train(&st.agent, &mut params);
            untraced_ms += t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Err(e) => {
                    report.fail(format!("Trainer::train failed: {e}"));
                    return report;
                }
                Ok(r) => {
                    if check_result(&mut report, "Trainer::train", &r).is_none() {
                        report.failed += 1;
                    }
                    match &reference {
                        Some(a) if a.curve.points != r.curve.points => {
                            report.fail("Trainer::train is not deterministic for one seed")
                        }
                        Some(_) => {}
                        None => reference = Some(r),
                    }
                }
            }
            continue;
        }
        let tracer = Tracer::new(true);
        let recorder = Recorder::new();
        let traced = traced_train(&tracer, &st, &recorder, workers);
        let trace = tracer.finish();
        traced_ms += trace.spans()[0].ms();
        let result = reference.as_ref().expect("an untraced run comes first");
        let same_points = traced.curve.points == result.curve.points;
        let same_final = traced.final_step_time == result.final_step_time;
        if !(same_points && same_final) {
            let at = traced.curve.points.iter().zip(&result.curve.points).position(|(a, b)| a != b);
            report.fail(format!(
                "traced loop diverges from Trainer::train: curve equal {same_points} (first \
                 difference at point {at:?}), final step time {:?} vs {:?}",
                traced.final_step_time, result.final_step_time
            ));
        }
        first.get_or_insert((trace, traced, recorder));
    }
    let (trace, traced, recorder) = first.expect("two traced runs");

    let (backward, adam) = update_split(&st, &traced);
    let sim_recorder = Recorder::new();
    let mut simulate_ms = Vec::new();
    let mut valid = 0u64;
    for p in &traced.placements {
        let t = Instant::now();
        let outcome = simulate_recorded(&st.graph, &st.machine, p, &sim_recorder);
        simulate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        valid += u64::from(outcome.step_time().is_some());
    }

    report.median("rl.update_ms", &trace.durations("rl.update"));
    report.median("tensor.score_ms", &trace.durations("tensor.score"));
    report.median("tensor.backward_ms", &backward);
    report.median("tensor.adam_ms", &adam);
    report.median("nn.sample_ms", &trace.durations("nn.sample"));
    report.median("nn.decode_ms", &trace.durations("nn.decode"));
    report.set("nn.batch", SAMPLES as f64 / traced.batches.len() as f64, "episodes per forward");
    report.median("devsim.simulate_ms", &simulate_ms);
    report.median("devsim.evaluate_ms", &trace.durations("devsim.evaluate"));
    report.ratio(
        "devsim.events",
        sim_recorder.counter_value("devsim.engine.events") as f64,
        valid as f64,
        "events per valid simulation",
    );
    let hits = recorder.counter_value("devsim.cache.hits") as f64;
    let misses = recorder.counter_value("devsim.cache.misses") as f64;
    report.ratio("devsim.cache_hit_share", hits, hits + misses, "placement-cache hits / lookups");
    report.set("agent.build_ms", agent_build_ms, "EagleAgent::new_for_inference, one call");
    report.set(
        "trainer.warm_start_ms",
        agent_new_ms - agent_build_ms,
        format!("EagleAgent::new {agent_new_ms:.3} ms minus new_for_inference"),
    );
    report.median("trainer.final_eval_ms", &trace.durations("trainer.final_eval"));
    report.set("opgraph.ops", st.graph.len() as f64, "ops in the trained graph");
    crate::layer_shares(&mut report, &trace, 0);
    report.ratio(
        "obs.overhead_share",
        traced_ms - untraced_ms,
        untraced_ms,
        "(traced loop - Trainer::train) / Trainer::train host time, two runs each",
    );
    trace.save(trace_out);
    report
}
