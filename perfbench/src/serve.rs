//! The placement-daemon workloads: `serve-hot`, `serve-search`, `serve-fresh`.
//!
//! Each run starts an in-process `Server` on localhost TCP over its own
//! policy store, and two closed-loop client connections send placement
//! requests until the measurement time is up. Every reply is then checked
//! against a replay of the request through the public serving stages —
//! policy lookup, graph decode and fingerprint, agent build, batched sample
//! and decode, simulation, reply encoding — from the parameters published
//! under the reply's policy version. The traced run records one span per
//! stage of that replay.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eagle_core::{fnv1a64, AgentScale, EagleAgent, PlacementAgent, TrainerState, CHECKPOINT_FILE};
use eagle_devsim::{simulate_recorded, Benchmark, Machine};
use eagle_obs::Recorder;
use eagle_opgraph::{GraphGen, GraphGenConfig, OpGraph};
use eagle_rl::{fork_streams, StochasticPolicy};
use eagle_serve::api::{
    self, PlaceRequest, PlaceResponse, RegisterGraphRequest, Request, Response, API_SCHEMA_VERSION,
};
use eagle_serve::{
    publish_state, untrained_state, Client, PolicyStore, RouterConfig, Server, ServerConfig,
    GENERALIST_FAMILY,
};
use eagle_tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::Report;
use crate::stats::derive;
use crate::trace::Tracer;

/// Full daemon set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// Closed-loop client connections (and load-generator threads).
const CONNECTIONS: usize = 2;
/// Ops per generated `serve-fresh` graph.
const FRESH_OPS: usize = 2000;
/// Requests of the traced run that are also replayed untraced, to measure
/// the tracing overhead.
const OVERHEAD_REQUESTS: usize = 200;
/// Upper end of each client's think time between a reply and its next
/// request, µs. Seeded uniform think times keep the two connections from
/// locking into (or out of) one wave for a whole run, which would make the
/// wave size — and with it every latency — flip between runs.
const THINK_US: u64 = 2000;

/// Seed of the published (untrained) policy. It is part of the workload's
/// definition, like its graph: the best-of-k quality of an untrained policy
/// varies by a quarter between policy seeds, which would swamp the quality
/// metric, so the workload seed varies the requests and generated graphs.
const POLICY_SEED: u64 = 1;
/// Seed-derivation tags.
const TAG_WARMUP: u64 = 2;
const TAG_REQUEST: u64 = 1 << 40;
const TAG_GRAPH: u64 = 2 << 40;

/// Which daemon workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Quick Inception-V3 policy, one registered graph, 1 candidate, inline
    /// republishes.
    Hot,
    /// Tiny GNMT policy, one registered graph, 16 candidates.
    Search,
    /// Tiny generalist policy, a new generated graph per request, 16 candidates.
    Fresh,
}

impl Kind {
    fn family(self) -> &'static str {
        match self {
            Kind::Hot => "inception_v3",
            Kind::Search => "gnmt",
            Kind::Fresh => GENERALIST_FAMILY,
        }
    }

    /// Family named in requests; `None` asks for the generalist.
    fn request_family(self) -> Option<String> {
        match self {
            Kind::Fresh => None,
            k => Some(k.family().to_string()),
        }
    }

    fn scale_name(self) -> &'static str {
        match self {
            Kind::Hot => "quick",
            Kind::Search | Kind::Fresh => "tiny",
        }
    }

    fn scale(self) -> AgentScale {
        AgentScale::from_name(self.scale_name()).expect("preset scale name")
    }

    fn candidates(self) -> u32 {
        match self {
            Kind::Hot => 1,
            Kind::Search | Kind::Fresh => 16,
        }
    }

    /// Client 0 republishes the policy after every this many of its requests.
    fn republish_every(self) -> Option<u64> {
        match self {
            Kind::Hot => Some(50),
            Kind::Search | Kind::Fresh => None,
        }
    }
}

/// A per-run store directory, removed when dropped — also on unwinding.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(root: &Path, family: &str, k: u64) -> Self {
        let dir = root.join(format!("store-{family}-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run's inputs, all derived from the workload seed.
struct Inputs {
    kind: Kind,
    seed: u64,
    machine: Machine,
    /// The graph registered at set-up (and the only one, except for `Fresh`).
    graph: Arc<OpGraph>,
    generator: GraphGen,
}

impl Inputs {
    fn new(kind: Kind, seed: u64) -> Self {
        let machine = Machine::paper_machine();
        // Fixed batch size and memory pressure: the generated graphs differ in
        // structure, not in a 32x spread of compute that would swamp the
        // quality metric, and every one of them fits the machine.
        let config = GraphGenConfig {
            batch: (8, 8),
            memory_pressure: (1.0, 1.0),
            ..GraphGenConfig::with_target(FRESH_OPS)
        };
        let generator = GraphGen::new(config).expect("valid generator config");
        let graph = match kind {
            Kind::Hot => Benchmark::InceptionV3.graph_for(&machine),
            Kind::Search => Benchmark::Gnmt.graph_for(&machine),
            Kind::Fresh => generator.sample(derive(seed, TAG_WARMUP)),
        };
        Self { kind, seed, machine, graph: Arc::new(graph), generator }
    }

    fn request_seed(&self, client: usize, i: u64) -> u64 {
        derive(self.seed, TAG_REQUEST + ((client as u64) << 32) + i)
    }

    fn graph_seed(&self, client: usize, i: u64) -> u64 {
        derive(self.seed, TAG_GRAPH + ((client as u64) << 32) + i)
    }

    fn request(&self, id: u64, key: &str, seed: u64) -> PlaceRequest {
        let mut req = PlaceRequest::by_key(id, self.kind.family(), key);
        req.family = self.kind.request_family();
        req.candidates = self.kind.candidates();
        req.seed = seed;
        req
    }
}

/// The store a daemon serves from and what was published into it.
struct Published {
    dir: StoreDir,
    /// Key of the graph registered at set-up.
    key: String,
    /// Policy version → the parameters published under it.
    versions: HashMap<String, Params>,
    state: TrainerState,
    /// A second policy for inline republishes (`Hot` only).
    alternate: Option<TrainerState>,
}

/// A running daemon.
struct Daemon {
    server: Server,
    recorder: Recorder,
    published: Published,
}

/// Set-up timings.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    save_ms: Vec<f64>,
    register_ms: Vec<f64>,
}

/// A copy of `state` whose last parameter tensor is shifted, so it publishes
/// as a different policy version with different parameters.
fn perturbed(state: &TrainerState) -> TrainerState {
    let mut alt = state.clone();
    let last = alt.params.ids().last().expect("agents have parameters");
    for x in alt.params.get_mut(last).data_mut() {
        *x += 0.05;
    }
    alt
}

/// One timed set-up: policy, store, server, hot graph, warm-up request.
fn start(
    inputs: &Inputs,
    dir: StoreDir,
    workers: usize,
    times: &mut SetupTimes,
) -> Result<Daemon, String> {
    let kind = inputs.kind;
    let state = untrained_state(&inputs.graph, &inputs.machine, kind.scale(), POLICY_SEED)
        .map_err(|e| format!("untrained_state: {e}"))?;
    let t = Instant::now();
    let version = publish_state(&dir.0, kind.family(), kind.scale_name(), &state)
        .map_err(|e| format!("publish_state: {e}"))?;
    times.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let recorder = Recorder::new();
    let store = Arc::new(PolicyStore::open(&dir.0, recorder.clone()));
    let router = RouterConfig { sim_workers: workers, ..RouterConfig::default() };
    let server =
        Server::start(ServerConfig { addr: "127.0.0.1:0".into(), router }, store, recorder.clone())
            .map_err(|e| format!("Server::start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let key = client.register_graph(&inputs.graph).map_err(|e| format!("register_graph: {e}"))?;
    times.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
    // The first request loads the policy and builds the serving agent.
    let warm = client
        .place(inputs.request(u64::MAX, &key, derive(inputs.seed, TAG_WARMUP)))
        .map_err(|e| format!("warm-up request: {e}"))?;
    if let Some(err) = warm.error {
        return Err(format!("warm-up request failed: {err:?}"));
    }
    let alternate = kind.republish_every().map(|_| perturbed(&state));
    let versions = HashMap::from([(version, state.params.clone())]);
    let published = Published { dir, key, versions, state, alternate };
    Ok(Daemon { server, recorder, published })
}

/// One request of the timed window.
struct Sent {
    client: usize,
    index: u64,
    seed: u64,
    key: String,
    /// Round trip of `register_graph` (`Fresh` only), ms.
    register_ms: Option<f64>,
    /// Round trip of `place`, ms.
    place_ms: f64,
    reply: Result<PlaceResponse, String>,
}

impl Sent {
    fn id(&self) -> u64 {
        ((self.client as u64) << 32) | self.index
    }
}

/// What one client thread did.
#[derive(Default)]
struct ClientLog {
    sent: Vec<Sent>,
    published: Vec<(String, Params)>,
    save_ms: Vec<f64>,
    problems: Vec<String>,
}

/// One closed-loop connection: the next request goes out when the previous
/// reply is in. Client 0 of `Hot` also republishes the policy inline.
fn client_loop(
    inputs: &Inputs,
    store: &Published,
    addr: SocketAddr,
    c: usize,
    deadline: Instant,
) -> ClientLog {
    let kind = inputs.kind;
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            log.problems.push(format!("client {c}: connect: {e}"));
            return log;
        }
    };
    let mut republished = 0u64;
    let mut i = 0u64;
    while Instant::now() < deadline {
        let seed = inputs.request_seed(c, i);
        let mut sent = Sent {
            client: c,
            index: i,
            seed,
            key: store.key.clone(),
            register_ms: None,
            place_ms: 0.0,
            reply: Err(String::new()),
        };
        i += 1;
        if kind == Kind::Fresh {
            let graph = inputs.generator.sample(inputs.graph_seed(c, sent.index));
            if let Err(e) = GraphGen::validate(&graph) {
                log.problems.push(format!("generated graph {} is invalid: {e}", sent.id()));
            }
            let t = Instant::now();
            match client.register_graph(&graph) {
                Ok(key) => {
                    sent.register_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                    sent.key = key;
                }
                Err(e) => sent.reply = Err(format!("register_graph: {e}")),
            }
        }
        if sent.register_ms.is_some() || kind != Kind::Fresh {
            let req = inputs.request(sent.id(), &sent.key, seed);
            let t = Instant::now();
            sent.reply = client.place(req).map_err(|e| format!("place: {e}"));
            sent.place_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let dropped = sent.reply.is_err();
        log.sent.push(sent);
        std::thread::sleep(std::time::Duration::from_micros(seed % THINK_US));
        if dropped {
            // A dropped connection counts as a failure; carry on with a new one.
            match Client::connect(addr) {
                Ok(cl) => client = cl,
                Err(_) => return log,
            }
        }
        if let (0, Some(every), Some(alt)) = (c, kind.republish_every(), &store.alternate) {
            if i.is_multiple_of(every) {
                republished += 1;
                let state = if republished % 2 == 1 { alt } else { &store.state };
                let t = Instant::now();
                match publish_state(&store.dir.0, kind.family(), kind.scale_name(), state) {
                    Ok(v) => {
                        log.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        log.published.push((v, state.params.clone()));
                    }
                    Err(e) => log.problems.push(format!("republish: {e}")),
                }
            }
        }
    }
    log
}

/// The timed window's results.
struct Live {
    sent: Vec<Sent>,
    wall_s: f64,
    counters: HashMap<&'static str, u64>,
}

/// Server recorder counters the traced run reports.
const COUNTERS: [&str; 4] =
    ["serve.requests", "serve.waves", "serve.forwards", "serve.policy_reloads"];

/// Runs the closed loop until `seconds` are up, then stops the daemon.
fn live(
    inputs: &Inputs,
    daemon: Daemon,
    seconds: u64,
    times: &mut SetupTimes,
    report: &mut Report,
) -> (Published, Live) {
    let Daemon { server, recorder, mut published } = daemon;
    let addr = server.local_addr();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let store = &published;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || client_loop(inputs, store, addr, c, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let counters = COUNTERS.iter().map(|&n| (n, recorder.counter_value(n))).collect();
    server.shutdown();
    let mut sent = Vec::new();
    for log in logs {
        sent.extend(log.sent);
        times.save_ms.extend(log.save_ms);
        published.versions.extend(log.published);
        for p in log.problems {
            report.problem(p);
        }
    }
    (published, Live { sent, wall_s, counters })
}

/// Bytes of the graph object inside an encoded `register_graph` line: the
/// envelope writes `graph` as its last field.
fn graph_text(line: &str) -> Option<&str> {
    let at = line.find("\"graph\":")?;
    line.get(at + "\"graph\":".len()..line.len().checked_sub(1)?)
}

/// What a replay pass found.
#[derive(Default)]
struct Replayed {
    /// Server-side service time of each request's place call, ms, by id.
    service_ms: HashMap<u64, f64>,
    /// Wall time of each request's replay, ms, by id.
    request_ms: HashMap<u64, f64>,
    bytes: u64,
    ops: u64,
    builds: u64,
    valid_sims: u64,
    requests: u64,
    problems: Vec<String>,
}

/// The replay's agent cache: FIFO with the router's default capacity.
#[derive(Default)]
struct Agents {
    map: HashMap<(String, u64), Arc<EagleAgent>>,
    order: VecDeque<(String, u64)>,
}

/// Read-only context of a replay pass.
struct Replay<'a> {
    inputs: &'a Inputs,
    published: &'a Published,
    /// `None` in a check-only pass, which skips the stages that only cost
    /// time (policy lookup, reply decoding).
    store: Option<PolicyStore>,
    recorder: Recorder,
}

impl<'a> Replay<'a> {
    /// A replay that runs every serving stage, recording simulator counters
    /// into `recorder`.
    fn timed(inputs: &'a Inputs, published: &'a Published, recorder: Recorder) -> Self {
        let store = Some(PolicyStore::open(&published.dir.0, Recorder::new()));
        Self { inputs, published, store, recorder }
    }

    /// A replay that computes only what the reply check needs.
    fn check_only(inputs: &'a Inputs, published: &'a Published) -> Self {
        Self { inputs, published, store: None, recorder: Recorder::disabled() }
    }

    /// Replays how the daemon registers `graph`: the client encodes the line,
    /// the server decodes the graph, checks it and fingerprints it. Returns
    /// the decoded graph and its key.
    fn register(
        &self,
        t: &Tracer,
        id: u64,
        graph: &OpGraph,
        out: &mut Replayed,
    ) -> Option<(Arc<OpGraph>, String)> {
        let line = {
            let _s = t.span("api.encode_request", id);
            api::encode_request(&Request::RegisterGraph(RegisterGraphRequest {
                schema_version: API_SCHEMA_VERSION,
                id: 0,
                graph: graph.clone(),
            }))
        };
        out.bytes += line.len() as u64 + 1;
        let parsed = {
            let _s = t.span("opgraph.from_json", id);
            graph_text(&line).map(OpGraph::from_json)
        };
        let Some(Ok(parsed)) = parsed else {
            out.problems.push(format!("request {id}: registered graph does not decode"));
            return None;
        };
        let ok = {
            let _s = t.span("opgraph.validate", id);
            !parsed.is_empty() && parsed.is_acyclic()
        };
        let fp = {
            let _s = t.span("opgraph.fingerprint", id);
            fnv1a64(parsed.to_json().as_bytes())
        };
        if !ok {
            out.problems.push(format!("request {id}: registered graph is empty or cyclic"));
        }
        Some((Arc::new(parsed), format!("{fp:016x}")))
    }

    /// Replays one successful request and compares the result with its reply.
    fn request(&self, t: &Tracer, s: &Sent, agents: &mut Agents, out: &mut Replayed) {
        let id = s.id();
        let Ok(reply) = &s.reply else { return };
        if reply.error.is_some() {
            return;
        }
        let started = Instant::now();
        let _r = t.span("replay.request", id);
        out.requests += 1;
        let (graph, key) = if self.inputs.kind == Kind::Fresh {
            let g = {
                let _s = t.span("input.graphgen", id);
                self.inputs.generator.sample(self.inputs.graph_seed(s.client, s.index))
            };
            match self.register(t, id, &g, out) {
                Some(x) => x,
                None => return,
            }
        } else {
            (self.inputs.graph.clone(), self.published.key.clone())
        };
        if key != s.key {
            out.problems.push(format!("request {id}: graph key {key}, daemon said {}", s.key));
        }
        out.ops += graph.len() as u64;
        let Ok(fp) = u64::from_str_radix(&key, 16) else { return };
        let line = {
            let _s = t.span("api.encode_request", id);
            api::encode_request(&Request::Place(self.inputs.request(id, &key, s.seed)))
        };
        let service = Instant::now();
        let decoded = {
            let _s = t.span("api.decode_request", id);
            api::decode_request(&line)
        };
        let Ok(Request::Place(req)) = decoded else {
            out.problems.push(format!("request {id}: place line does not decode"));
            return;
        };
        if let Some(store) = &self.store {
            let family = req.family.clone().unwrap_or_else(|| GENERALIST_FAMILY.to_string());
            let _s = t.span("store.get", id);
            if let Err(e) = store.get(&family) {
                out.problems.push(format!("request {id}: store.get({family}): {e}"));
                return;
            }
        }
        let version = reply.policy_version.clone().unwrap_or_default();
        let Some(params) = self.published.versions.get(&version) else {
            out.problems.push(format!("request {id}: reply names unpublished version {version:?}"));
            return;
        };
        let cache_key = (version.clone(), fp);
        let agent = match agents.map.get(&cache_key) {
            Some(a) => a.clone(),
            None => {
                let _s = t.span("agent.build", id);
                let mut layout = Params::new();
                let mut rng = ChaCha8Rng::seed_from_u64(0);
                let agent = Arc::new(EagleAgent::new_for_inference(
                    &mut layout,
                    &graph,
                    &self.inputs.machine,
                    self.inputs.kind.scale(),
                    &mut rng,
                ));
                out.builds += 1;
                if agents.order.len() >= RouterConfig::default().agent_capacity {
                    if let Some(old) = agents.order.pop_front() {
                        agents.map.remove(&old);
                    }
                }
                agents.map.insert(cache_key.clone(), agent.clone());
                agents.order.push_back(cache_key);
                agent
            }
        };
        let mut streams = {
            let _s = t.span("rl.fork_streams", id);
            let mut master = ChaCha8Rng::seed_from_u64(req.seed);
            fork_streams(&mut master, agent.rng_draws_per_sample(), req.candidates as usize)
        };
        let actions: Vec<Vec<usize>> = {
            let _s = t.span("nn.sample", id);
            let mut refs: Vec<&mut dyn rand::RngCore> =
                streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
            agent.sample_batch(params, &mut refs).into_iter().map(|(a, _)| a).collect()
        };
        let placements = {
            let _s = t.span("nn.decode", id);
            agent.decode_batch(params, &actions)
        };
        // Best valid candidate: minimum predicted time, ties to the lowest index.
        let mut best: Option<(f64, usize)> = None;
        for (c, p) in placements.iter().enumerate() {
            let time = {
                let _s = t.span("devsim.simulate", id);
                simulate_recorded(&graph, &self.inputs.machine, p, &self.recorder).step_time()
            };
            if let Some(time) = time {
                out.valid_sims += 1;
                if best.is_none_or(|(b, _)| time < b) {
                    best = Some((time, c));
                }
            }
        }
        let expected = PlaceResponse {
            schema_version: API_SCHEMA_VERSION,
            id,
            placement: best.map(|(_, c)| placements[c].devices().iter().map(|d| d.0).collect()),
            predicted_step_time: best.map(|(time, _)| time),
            policy_version: Some(version),
            error: None,
        };
        let reply_line = {
            let _s = t.span("api.encode_response", id);
            api::encode_response(&Response::Place(expected.clone()))
        };
        out.service_ms.insert(id, service.elapsed().as_secs_f64() * 1e3);
        if self.store.is_some() {
            let _s = t.span("api.decode_response", id);
            let _ = api::decode_response(&reply_line);
        }
        out.bytes += (line.len() + reply_line.len()) as u64 + 2;
        if expected.placement != reply.placement
            || expected.predicted_step_time != reply.predicted_step_time
        {
            out.problems.push(format!(
                "request {id}: reply differs from its replay under version {:?} (predicted \
                 {:?}, replayed {:?})",
                reply.policy_version, reply.predicted_step_time, expected.predicted_step_time
            ));
        }
        out.request_ms.insert(id, started.elapsed().as_secs_f64() * 1e3);
    }
}

/// Successful requests' latencies and predicted step times.
struct Served {
    latency_ms: Vec<f64>,
    step_s: Vec<f64>,
}

/// Counts every request and checks every reply's shape: a placement naming
/// a machine device for every op, with a finite predicted time.
fn check_replies(inputs: &Inputs, sent: &[Sent], report: &mut Report) -> Served {
    let devices = inputs.machine.devices.len();
    let ops = (inputs.kind != Kind::Fresh).then(|| inputs.graph.len());
    let mut served = Served { latency_ms: Vec::new(), step_s: Vec::new() };
    for s in sent {
        report.attempted += 1;
        let reply = match &s.reply {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("request {}: {e}", s.id()));
                continue;
            }
        };
        if let Some(err) = &reply.error {
            report.fail(format!("request {}: error reply {:?}: {}", s.id(), err.code, err.message));
            continue;
        }
        let placed = reply.placement.as_deref().unwrap_or_default();
        let time = reply.predicted_step_time.filter(|t| t.is_finite() && *t > 0.0);
        let shape_ok = !placed.is_empty()
            && ops.is_none_or(|n| placed.len() == n)
            && placed.iter().all(|&d| usize::from(d) < devices);
        match time {
            Some(time) if shape_ok => {
                served.latency_ms.push(s.place_ms + s.register_ms.unwrap_or(0.0));
                served.step_s.push(time);
            }
            _ => report.fail(format!("request {}: no device per op or no step time", s.id())),
        }
    }
    served
}

/// One timed set-up of the daemon; `None` (with the failure reported) if it
/// does not come up.
fn timed_start(
    inputs: &Inputs,
    k: u64,
    workers: usize,
    out_dir: &Path,
    times: &mut SetupTimes,
    report: &mut Report,
) -> Option<Daemon> {
    let dir = StoreDir::new(out_dir, inputs.kind.family(), k);
    let t = Instant::now();
    match start(inputs, dir, workers, times) {
        Ok(d) => {
            times.setup_s.push(t.elapsed().as_secs_f64());
            Some(d)
        }
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up {k}: {e}"));
            None
        }
    }
}

/// Sets the daemon up and runs the timed window.
fn setup_and_run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    workers: usize,
    out_dir: &Path,
    report: &mut Report,
) -> Option<(Inputs, Published, Live, SetupTimes)> {
    let inputs = Inputs::new(kind, seed);
    let mut times = SetupTimes::default();
    let daemon = timed_start(&inputs, 0, workers, out_dir, &mut times, report)?;
    let (published, live) = live(&inputs, daemon, seconds, &mut times, report);
    Some((inputs, published, live, times))
}

/// The remaining timed set-ups, each stopped at once. They run after the
/// workload so that the memory earlier daemons leave in the allocator does
/// not count toward `peak_rss_mb`.
fn more_setups(
    inputs: &Inputs,
    workers: usize,
    out_dir: &Path,
    times: &mut SetupTimes,
    report: &mut Report,
) {
    for k in 1..SETUPS {
        match timed_start(inputs, k, workers, out_dir, times, report) {
            Some(d) => d.server.shutdown(),
            None => return,
        }
    }
}

/// Replays every request untraced on `workers` threads; returns the problems.
fn check_by_replay(
    inputs: &Inputs,
    published: &Published,
    sent: &[Sent],
    workers: usize,
) -> Vec<String> {
    let replay = Replay::check_only(inputs, published);
    let chunk = sent.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = sent
            .chunks(chunk)
            .map(|part| {
                let replay = &replay;
                s.spawn(move || {
                    let t = Tracer::new(false);
                    let mut agents = Agents::default();
                    let mut out = Replayed::default();
                    for r in part {
                        replay.request(&t, r, &mut agents, &mut out);
                    }
                    out.problems
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay thread")).collect()
    })
}

/// The untraced run: end-to-end metrics, every reply checked by replay.
pub fn run(kind: Kind, seed: u64, seconds: u64, workers: usize, out_dir: &Path) -> Report {
    let mut report = Report::default();
    let Some((inputs, published, live, mut times)) =
        setup_and_run(kind, seed, seconds, workers, out_dir, &mut report)
    else {
        return report;
    };
    let served = check_replies(&inputs, &live.sent, &mut report);
    for p in check_by_replay(&inputs, &published, &live.sent, workers) {
        report.fail(p);
    }
    crate::record_peak_rss(&mut report);
    more_setups(&inputs, workers, out_dir, &mut times, &mut report);
    let n = served.latency_ms.len();
    report.median("setup_s", &times.setup_s);
    report.set(
        "placements_per_s",
        n as f64 / live.wall_s,
        format!("{n} placements in {:.3} s over {CONNECTIONS} connections", live.wall_s),
    );
    report.mean("latency_mean_ms", &served.latency_ms);
    // Generated graphs' step times cluster in modes too.
    report.mean("step_s", &served.step_s);
    report
}

/// The traced run: counters from the live run, then one span per serving
/// stage of every request's replay.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
    workers: usize,
    out_dir: &Path,
    trace_out: &Path,
) -> Report {
    let mut report = Report::default();
    let Some((inputs, published, live, mut times)) =
        setup_and_run(kind, seed, seconds, workers, out_dir, &mut report)
    else {
        return report;
    };
    let served = check_replies(&inputs, &live.sent, &mut report);

    let ckpt = published.dir.0.join(kind.family()).join(CHECKPOINT_FILE);
    let t = Instant::now();
    if let Err(e) = eagle_core::load_checkpoint(&ckpt) {
        report.problem(format!("published checkpoint does not load: {e}"));
    }
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let ckpt_bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());

    // The same replay with tracing off, on a prefix of the requests.
    let prefix = &live.sent[..live.sent.len().min(OVERHEAD_REQUESTS)];
    let untraced = {
        let replay = Replay::timed(&inputs, &published, Recorder::disabled());
        let (t, mut agents, mut out) = (Tracer::new(false), Agents::default(), Replayed::default());
        for s in prefix {
            replay.request(&t, s, &mut agents, &mut out);
        }
        out
    };

    let recorder = Recorder::new();
    let replay = Replay::timed(&inputs, &published, recorder.clone());
    let tracer = Tracer::new(true);
    let mut out = Replayed::default();
    let mut setup_register = Replayed::default();
    {
        let _root = tracer.span("replay", 0);
        if kind != Kind::Fresh {
            // The set-up registration, the only one these workloads make.
            replay.register(&tracer, u64::MAX, &inputs.graph, &mut setup_register);
        }
        let mut agents = Agents::default();
        for s in &live.sent {
            replay.request(&tracer, s, &mut agents, &mut out);
        }
    }
    let trace = tracer.finish();
    for p in out.problems.iter().chain(&setup_register.problems) {
        report.fail(p.clone());
    }
    if out.requests as usize != served.latency_ms.len() {
        report.problem(format!(
            "replayed {} requests of {} served",
            out.requests,
            served.latency_ms.len()
        ));
    }

    more_setups(&inputs, workers, out_dir, &mut times, &mut report);
    let c = |name: &str| live.counters.get(name).copied().unwrap_or(0) as f64;
    let requests = out.requests as f64;
    report.median("store.get_ms", &trace.durations("store.get"));
    report.set("store.reloads", c("serve.policy_reloads"), "serve.policy_reloads in the live run");
    report.set("checkpoint.load_ms", load_ms, "load_checkpoint of the published policy, one call");
    report.median("checkpoint.save_ms", &times.save_ms);
    report.set("checkpoint.bytes", ckpt_bytes as f64, "size of the published checkpoint");
    report.ratio("router.wave_size", c("serve.requests"), c("serve.waves"), "requests per wave");
    report.ratio(
        "router.forwards_per_request",
        c("serve.forwards"),
        c("serve.requests"),
        "forwards per request",
    );
    let waits: Vec<f64> = live
        .sent
        .iter()
        .filter_map(|s| out.service_ms.get(&s.id()).map(|svc| s.place_ms - svc))
        .collect();
    report.median("router.wait_ms", &waits);
    report.median(
        "api.decode_ms",
        &trace.per_request(&["api.decode_request", "api.decode_response"]),
    );
    report.median(
        "api.encode_ms",
        &trace.per_request(&["api.encode_request", "api.encode_response"]),
    );
    report.ratio(
        "wire.bytes_per_request",
        out.bytes as f64,
        requests,
        "bytes on the wire per request",
    );
    let register_ms: Vec<f64> = match kind {
        Kind::Fresh => live.sent.iter().filter_map(|s| s.register_ms).collect(),
        _ => times.register_ms.clone(),
    };
    report.median("wire.register_ms", &register_ms);
    report.median("opgraph.from_json_ms", &trace.durations("opgraph.from_json"));
    report.median("opgraph.fingerprint_ms", &trace.durations("opgraph.fingerprint"));
    report.median("opgraph.validate_ms", &trace.durations("opgraph.validate"));
    report.ratio("opgraph.ops", out.ops as f64, requests, "ops per placed graph");
    report.median("agent.build_ms", &trace.durations("agent.build"));
    report.ratio(
        "agent.builds_per_request",
        out.builds as f64,
        requests,
        "agent builds per request",
    );
    report.median("nn.sample_ms", &trace.durations("nn.sample"));
    report.median("nn.decode_ms", &trace.durations("nn.decode"));
    report.set("nn.batch", f64::from(kind.candidates()), "episodes per forward in the replay");
    report.median("devsim.simulate_ms", &trace.durations("devsim.simulate"));
    report.median("devsim.evaluate_ms", &trace.per_request(&["devsim.simulate"]));
    report.ratio(
        "devsim.events",
        recorder.counter_value("devsim.engine.events") as f64,
        out.valid_sims as f64,
        "events per valid simulation",
    );
    let ids: Vec<u64> = prefix.iter().map(Sent::id).collect();
    let traced_ms: f64 = ids.iter().filter_map(|id| out.request_ms.get(id)).sum();
    let untraced_ms: f64 = ids.iter().filter_map(|id| untraced.request_ms.get(id)).sum();
    crate::layer_shares(&mut report, &trace, 0);
    report.ratio(
        "obs.overhead_share",
        traced_ms - untraced_ms,
        untraced_ms,
        &format!("(traced - untraced) / untraced replay time of the first {} requests", ids.len()),
    );
    trace.save(trace_out);
    report
}
