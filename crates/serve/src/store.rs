//! The checkpoint-backed policy store.
//!
//! On disk, a store is a directory with one subdirectory per graph family:
//!
//! ```text
//! store/
//!   inception_v3/
//!     policy.json      — manifest: agent kind + scale (how to rebuild the agent)
//!     checkpoint.json  — a standard trainer checkpoint (same format training writes)
//! ```
//!
//! The checkpoint file is exactly what `--checkpoint-dir` training produces, so
//! "publish" is copy-with-validation and a training run can point its checkpoint
//! dir straight into the store for live updates. On every call
//! [`PolicyStore::get`] reads the checkpoint's header line — at most 4 KiB —
//! and transparently **hot-reloads** when it differs from the header the
//! served entry was loaded from (training published a newer version): the new
//! parameters are swapped in behind an `Arc`, so requests already holding the
//! old entry finish on the old policy — nothing in flight is dropped.
//!
//! Freshness is *content* identity, not a `(len, mtime)` stamp — a same-size
//! rewrite landing within the filesystem's mtime granularity is exactly what a
//! fast re-publish produces, and a stamp check silently serves the stale policy
//! forever. The header carries the payload's length and FNV-1a-64 checksum, so
//! an unchanged header means the payload is either the one being served (up to
//! an FNV-64 collision) or corrupt, which a reload would reject anyway; the
//! per-wave cost is one small read instead of re-hashing the whole file. A
//! reload reads the file once and takes the version, the params and the new
//! header from those same bytes. A failed reload (torn copy, version skew)
//! keeps serving the previous entry and bumps `serve.policy_reload_errors`.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use eagle_core::{
    decode_checkpoint, encode_checkpoint, fnv1a64, load_checkpoint, AgentScale, CheckpointError,
    EagleAgent, TrainerState, CHECKPOINT_FILE,
};
use eagle_devsim::Machine;
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_tensor::Params;
use serde::{Deserialize, Serialize};

use crate::error::EagleError;

/// Manifest file name inside a family directory.
pub const MANIFEST_FILE: &str = "policy.json";

/// The family name the server falls back to when a request names an unknown
/// family or none at all: a policy trained on a *distribution* of graphs (the
/// multi-graph generalist trainer) rather than one benchmark. Publishing a
/// policy under this name opts the store into zero-shot answers.
pub const GENERALIST_FAMILY: &str = "generalist";

/// Manifest schema version.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Longest checkpoint header line the store serves from, `\n` included. The
/// freshness check in [`PolicyStore::get`] never reads more than this; a
/// checkpoint without a `\n` in its first `HEADER_CAP` bytes does not load.
const HEADER_CAP: usize = 4096;

/// Per-family manifest: everything needed to rebuild the serving agent around
/// the checkpoint's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Graph family this policy serves.
    pub family: String,
    /// Agent architecture; only `"eagle"` is currently served.
    pub agent: String,
    /// [`AgentScale`] preset name (`"paper"` / `"quick"` / `"tiny"`).
    pub scale: String,
}

/// One loaded policy: trained parameters plus how to rebuild their agent.
#[derive(Debug)]
pub struct PolicyEntry {
    /// Graph family.
    pub family: String,
    /// Agent scale the parameters were trained at.
    pub scale: AgentScale,
    /// Preset name of `scale`.
    pub scale_name: String,
    /// The trained parameters.
    pub params: Params,
    /// Content version: FNV-1a-64 of the checkpoint file bytes, in hex. This is
    /// the `policy_version` echoed in every [`crate::api::PlaceResponse`]. It
    /// is hashed from the same bytes `params` were decoded from, so it always
    /// names these parameters.
    pub version: String,
    /// The checkpoint's header line (without its `\n`) from those same bytes:
    /// what [`PolicyStore::get`]'s freshness check compares against.
    header: Vec<u8>,
}

/// A lazy, hot-reloading view over a store directory.
pub struct PolicyStore {
    root: PathBuf,
    entries: Mutex<HashMap<String, Arc<PolicyEntry>>>,
    recorder: Recorder,
}

impl PolicyStore {
    /// Opens a store rooted at `root`. Families load lazily on first
    /// [`get`](Self::get); the directory need not exist yet.
    pub fn open(root: impl Into<PathBuf>, recorder: Recorder) -> Self {
        Self { root: root.into(), entries: Mutex::new(HashMap::new()), recorder }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn family_dir(&self, family: &str) -> Result<PathBuf, EagleError> {
        // Family keys become path components; refuse separators and dot-files
        // so a wire-supplied family cannot escape the store root.
        if family.is_empty()
            || family.starts_with('.')
            || !family.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(EagleError::BadRequest(format!(
                "family key `{family}` is not a valid store name"
            )));
        }
        Ok(self.root.join(family))
    }

    fn load_entry(&self, family: &str) -> Result<PolicyEntry, EagleError> {
        let dir = self.family_dir(family)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_bytes = match std::fs::read_to_string(&manifest_path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(EagleError::UnknownFamily(family.to_string()));
            }
            Err(e) => return Err(EagleError::Io(e)),
        };
        let manifest: PolicyManifest = serde_json::from_str(&manifest_bytes)?;
        if manifest.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(EagleError::PolicyMismatch(format!(
                "manifest schema version {} (this build reads {MANIFEST_SCHEMA_VERSION})",
                manifest.schema_version
            )));
        }
        if manifest.agent != "eagle" {
            return Err(EagleError::PolicyMismatch(format!(
                "agent kind `{}` is not servable (only `eagle`)",
                manifest.agent
            )));
        }
        let scale = AgentScale::from_name(&manifest.scale).ok_or_else(|| {
            EagleError::PolicyMismatch(format!("unknown agent scale `{}`", manifest.scale))
        })?;
        // One read: version, header and params all come from these bytes, so
        // a publish landing mid-load cannot pair one file's version with
        // another's params.
        let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                EagleError::UnknownFamily(family.to_string())
            } else {
                EagleError::Io(e)
            }
        })?;
        let header = header_line(&bytes)
            .ok_or_else(|| {
                CheckpointError::Header(format!("no header line in the first {HEADER_CAP} bytes"))
            })?
            .to_vec();
        let version = format!("{:016x}", fnv1a64(&bytes));
        let state = decode_checkpoint(bytes)?;
        Ok(PolicyEntry {
            family: family.to_string(),
            scale,
            scale_name: manifest.scale,
            params: state.params,
            version,
            header,
        })
    }

    /// The current policy for `family`, loading it on first use and hot-
    /// reloading when a newer checkpoint file has appeared. Callers keep the
    /// returned `Arc` for the duration of one request/wave; a concurrent reload
    /// swaps the map entry without invalidating it.
    pub fn get(&self, family: &str) -> Result<Arc<PolicyEntry>, EagleError> {
        let mut entries = self.entries.lock().expect("policy store lock");
        if let Some(current) = entries.get(family).cloned() {
            let ckpt_path = self.family_dir(family)?.join(CHECKPOINT_FILE);
            // Freshness is content identity: the header line pins the
            // payload's length and checksum. A (len, mtime) stamp misses the
            // same-size rewrite inside one mtime tick that back-to-back
            // publishes hit.
            match read_header(&ckpt_path) {
                Some(header) if header == current.header => return Ok(current),
                // Changed (or temporarily unreadable): attempt a reload, but
                // never stop serving the version we already have.
                _ => match self.load_entry(family) {
                    Ok(fresh) => {
                        self.recorder.add("serve.policy_reloads", 1);
                        let fresh = Arc::new(fresh);
                        entries.insert(family.to_string(), fresh.clone());
                        return Ok(fresh);
                    }
                    Err(_) => {
                        self.recorder.add("serve.policy_reload_errors", 1);
                        return Ok(current);
                    }
                },
            }
        }
        let entry = Arc::new(self.load_entry(family)?);
        self.recorder.add("serve.policy_loads", 1);
        entries.insert(family.to_string(), entry.clone());
        Ok(entry)
    }
}

/// The header line of checkpoint `bytes` (without its `\n`), if one ends
/// within the first [`HEADER_CAP`] bytes.
fn header_line(bytes: &[u8]) -> Option<&[u8]> {
    let head = &bytes[..bytes.len().min(HEADER_CAP)];
    head.iter().position(|&b| b == b'\n').map(|end| &head[..end])
}

/// Reads at most [`HEADER_CAP`] bytes of the checkpoint at `path` and returns
/// its header line; `None` when the read fails or no line ends within the cap.
fn read_header(path: &Path) -> Option<Vec<u8>> {
    let mut head = Vec::with_capacity(HEADER_CAP);
    std::fs::File::open(path).ok()?.take(HEADER_CAP as u64).read_to_end(&mut head).ok()?;
    let end = header_line(&head)?.len();
    head.truncate(end);
    Some(head)
}

/// Publishes `state` into `root/<family>/` as a servable policy, returning the
/// content version. The checkpoint is written in the standard trainer format
/// (atomically), then the manifest — so a reader never observes a manifest
/// pointing at a missing checkpoint on first publish, and re-publishes swap the
/// checkpoint in place under the existing manifest.
pub fn publish_state(
    root: &Path,
    family: &str,
    scale_name: &str,
    state: &TrainerState,
) -> Result<String, EagleError> {
    if AgentScale::from_name(scale_name).is_none() {
        return Err(EagleError::BadRequest(format!("unknown agent scale `{scale_name}`")));
    }
    let dir = root.join(family);
    std::fs::create_dir_all(&dir)?;
    let bytes = encode_checkpoint(state)?;
    eagle_obs::write_atomic(dir.join(CHECKPOINT_FILE), &bytes)?;
    let manifest = PolicyManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        family: family.to_string(),
        agent: "eagle".to_string(),
        scale: scale_name.to_string(),
    };
    let manifest_json = serde_json::to_string(&manifest)?;
    eagle_obs::write_atomic(dir.join(MANIFEST_FILE), manifest_json.as_bytes())?;
    Ok(format!("{:016x}", fnv1a64(&bytes)))
}

/// Publishes an existing checkpoint file (e.g. from a training run's
/// `--checkpoint-dir`) into the store, validating that it decodes first.
pub fn publish_checkpoint(
    root: &Path,
    family: &str,
    scale_name: &str,
    checkpoint: &Path,
) -> Result<String, EagleError> {
    let state = load_checkpoint(checkpoint)?;
    publish_state(root, family, scale_name, &state)
}

/// Fabricates a servable (untrained but warm-started) policy state for
/// `graph`/`machine` at `scale` — how demo stores and CI smoke stores get a
/// policy without hours of training. The grouper warm start gives balanced
/// groupings, so sampled placements are structured rather than degenerate.
pub fn untrained_state(
    graph: &OpGraph,
    machine: &Machine,
    scale: AgentScale,
    seed: u64,
) -> Result<TrainerState, EagleError> {
    use eagle_devsim::{EnvSnapshot, Environment, MeasureConfig, RngState};
    use rand::SeedableRng;

    let env = Environment::builder(graph.clone(), machine.clone())
        .measure(MeasureConfig::exact())
        .seed(seed)
        .build()?;
    let mut params = Params::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let _agent = EagleAgent::new(&mut params, graph, machine, scale, &mut rng);
    Ok(TrainerState {
        samples: 0,
        minibatches: 0,
        num_invalid: 0,
        since_ce: 0,
        rng: RngState::capture(&rng),
        source: eagle_core::SourceState::initial(seed),
        wall: 0.0,
        history_actions: Vec::new(),
        history_rewards: Vec::new(),
        curve: eagle_core::Curve::new("untrained-seed"),
        params,
        opt_reinforce: eagle_tensor::optim::Adam::new(0.01),
        opt_ppo: eagle_tensor::optim::Adam::new(0.01),
        opt_ce: eagle_tensor::optim::Adam::new(0.01),
        entries: vec![eagle_core::GraphEntryState {
            origin: eagle_core::GraphOrigin::fixed(),
            name: graph.model_name.clone(),
            env: env.save_state(),
            baseline: eagle_rl::EmaBaseline::new(0.1),
            best: None,
            graph_samples: 0,
        }],
        retired_snapshot: EnvSnapshot::default(),
        start_snapshot: EnvSnapshot::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_devsim::Benchmark;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eagle-serve-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publish_then_get_roundtrips_params() {
        let root = tmp("roundtrip");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 3).unwrap();
        let version = publish_state(&root, "inception_v3", "tiny", &state).unwrap();

        let store = PolicyStore::open(&root, Recorder::new());
        let entry = store.get("inception_v3").unwrap();
        assert_eq!(entry.version, version);
        assert_eq!(entry.scale_name, "tiny");
        assert_eq!(entry.params.len(), state.params.len());
        // Second get is a cache hit (header unchanged), same Arc.
        let again = store.get("inception_v3").unwrap();
        assert!(Arc::ptr_eq(&entry, &again));
    }

    #[test]
    fn missing_family_is_typed() {
        let store = PolicyStore::open(tmp("missing"), Recorder::new());
        assert!(matches!(store.get("nope"), Err(EagleError::UnknownFamily(_))));
        // Path-escaping family keys are rejected, not resolved.
        assert!(matches!(store.get("../etc"), Err(EagleError::BadRequest(_))));
        assert!(matches!(store.get(""), Err(EagleError::BadRequest(_))));
    }

    #[test]
    fn hot_reload_swaps_without_invalidating_old_entry() {
        let root = tmp("reload");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let s1 = untrained_state(&graph, &machine, AgentScale::tiny(), 1).unwrap();
        let v1 = publish_state(&root, "fam", "tiny", &s1).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let old = store.get("fam").unwrap();
        assert_eq!(old.version, v1);

        let s2 = untrained_state(&graph, &machine, AgentScale::tiny(), 2).unwrap();
        let v2 = publish_state(&root, "fam", "tiny", &s2).unwrap();
        assert_ne!(v1, v2, "different seeds produce different checkpoint bytes");

        let new = store.get("fam").unwrap();
        assert_eq!(new.version, v2);
        assert_eq!(rec.counter_value("serve.policy_reloads"), 1);
        // The old Arc is still fully usable: in-flight requests finish on it.
        assert_eq!(old.version, v1);
        assert_eq!(old.params.len(), s1.params.len());
    }

    /// Regression: a republish that changes content but keeps the byte length
    /// AND lands within the filesystem's mtime granularity must still reload.
    /// The old `(len, mtime)` stamp check served the stale policy forever in
    /// exactly this case; the test pins the collision by rewriting the
    /// checkpoint at the same length and forcing it back to the original mtime.
    #[test]
    fn hot_reload_sees_same_size_same_mtime_rewrite() {
        use eagle_core::{CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION};

        let root = tmp("stealth_rewrite");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let mut state = untrained_state(&graph, &machine, AgentScale::tiny(), 7).unwrap();
        state.samples = 1;
        publish_state(&root, "fam", "tiny", &state).unwrap();
        let ckpt = root.join("fam").join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let (_, payload) = text.split_once('\n').unwrap();

        // Writes a valid checkpoint around `payload`, returning its content
        // version. The header line is space-padded to a fixed width (JSON
        // allows trailing whitespace), so the file length depends only on the
        // payload length and not on the decimal checksum's digit count.
        let write = |payload: &str| -> String {
            let header = format!(
                r#"{{"magic":"{CHECKPOINT_MAGIC}","schema_version":{CHECKPOINT_SCHEMA_VERSION},"checksum":{},"payload_bytes":{}}}"#,
                fnv1a64(payload.as_bytes()),
                payload.len()
            );
            let bytes = format!("{header:<128}\n{payload}");
            std::fs::write(&ckpt, &bytes).unwrap();
            format!("{:016x}", fnv1a64(bytes.as_bytes()))
        };
        let v1 = write(payload);
        let store = PolicyStore::open(&root, Recorder::new());
        assert_eq!(store.get("fam").unwrap().version, v1);
        let before = std::fs::metadata(&ckpt).unwrap();
        let (len, mtime) = (before.len(), before.modified().unwrap());

        // Same length, different content.
        let edited = payload.replacen("{\"samples\":1,", "{\"samples\":2,", 1);
        assert_ne!(edited, payload, "payload rewrite must hit");
        let v2 = write(&edited);
        assert_ne!(v1, v2, "content must actually differ");
        assert_eq!(std::fs::metadata(&ckpt).unwrap().len(), len, "rewrite keeps the length");
        // Pin the mtime back so a (len, mtime) stamp cannot tell them apart.
        let f = std::fs::OpenOptions::new().write(true).open(&ckpt).unwrap();
        f.set_modified(mtime).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let fresh = store.get("fam").unwrap();
        assert_eq!(fresh.version, v2, "stale policy served across a stealth rewrite");
        assert_eq!(fresh.params.len(), state.params.len());
    }

    fn same_params(a: &Params, b: &Params) -> bool {
        a.len() == b.len() && a.ids().zip(b.ids()).all(|(i, j)| a.get(i).data() == b.get(j).data())
    }

    /// Writes a valid checkpoint of `state` whose header line is space-padded
    /// to `header_width` bytes (JSON allows trailing whitespace).
    fn write_padded(path: &Path, state: &TrainerState, header_width: usize) {
        let bytes = encode_checkpoint(state).unwrap();
        let end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let mut padded = bytes[..end].to_vec();
        padded.resize(header_width, b' ');
        padded.extend_from_slice(&bytes[end..]);
        std::fs::write(path, padded).unwrap();
    }

    /// Regression: `version` and `params` come from one read of the file. When
    /// they came from two, a publish landing in between served the new params
    /// labelled with the old version.
    #[test]
    fn served_version_always_names_served_params() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let root = tmp("race");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let states =
            [1, 2].map(|seed| untrained_state(&graph, &machine, AgentScale::tiny(), seed).unwrap());
        let versions = states.each_ref().map(|s| publish_state(&root, "fam", "tiny", s).unwrap());
        assert_ne!(versions[0], versions[1]);
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let done = AtomicBool::new(false);
        let published = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                // Never panics, so the reader loop below always ends.
                let ok = (0..60).all(|i| {
                    publish_state(&root, "fam", "tiny", &states[i % 2]).ok().as_ref()
                        == Some(&versions[i % 2])
                });
                done.store(true, Ordering::SeqCst);
                ok
            });
            while !done.load(Ordering::SeqCst) {
                let entry = store.get("fam").unwrap();
                let which = versions
                    .iter()
                    .position(|v| *v == entry.version)
                    .expect("served version names a published state");
                assert!(
                    same_params(&entry.params, &states[which].params),
                    "params served under version {} are not that version's",
                    entry.version
                );
            }
            publisher.join().unwrap()
        });
        assert!(published, "every publish returns its state's version");
        assert!(rec.counter_value("serve.policy_reloads") > 0, "republishes are picked up");
        assert_eq!(rec.counter_value("serve.policy_reload_errors"), 0);
    }

    /// Freshness is the header line: payload bytes rewritten in place under an
    /// unchanged header keep serving the cached entry without a reload, and a
    /// valid republish (new header) still reloads.
    #[test]
    fn unchanged_header_keeps_serving_cached_entry() {
        let root = tmp("same_header");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let s1 = untrained_state(&graph, &machine, AgentScale::tiny(), 1).unwrap();
        publish_state(&root, "fam", "tiny", &s1).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let served = store.get("fam").unwrap();

        let ckpt = root.join("fam").join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let len = bytes.len();
        let payload_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[payload_start..].fill(b'x');
        std::fs::write(&ckpt, &bytes).unwrap();
        assert_eq!(std::fs::metadata(&ckpt).unwrap().len() as usize, len);

        let again = store.get("fam").unwrap();
        assert!(Arc::ptr_eq(&served, &again), "unchanged header must serve the cached entry");
        assert_eq!(rec.counter_value("serve.policy_reloads"), 0);
        assert_eq!(rec.counter_value("serve.policy_reload_errors"), 0);

        let s2 = untrained_state(&graph, &machine, AgentScale::tiny(), 2).unwrap();
        let v2 = publish_state(&root, "fam", "tiny", &s2).unwrap();
        let fresh = store.get("fam").unwrap();
        assert_eq!(fresh.version, v2);
        assert!(same_params(&fresh.params, &s2.params));
        assert_eq!(rec.counter_value("serve.policy_reloads"), 1);
    }

    /// A checkpoint with no `\n` in its first 4 KiB — garbage, or a valid
    /// checkpoint whose header line is padded past the cap — is a typed error
    /// on first load and a counted reload error for a family already served.
    #[test]
    fn header_past_the_cap_is_rejected_without_panicking() {
        let root = tmp("header_cap");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 1).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let garbage = |p: &Path| std::fs::write(p, vec![b'x'; 3 * HEADER_CAP]).unwrap();
        let padded = |p: &Path| write_padded(p, &state, HEADER_CAP);
        let over_cap: [&dyn Fn(&Path); 2] = [&garbage, &padded];
        for (i, corrupt) in over_cap.iter().enumerate() {
            // Never served: the first load fails with a typed error.
            let fresh = format!("fresh{i}");
            publish_state(&root, &fresh, "tiny", &state).unwrap();
            corrupt(&root.join(&fresh).join(CHECKPOINT_FILE));
            assert!(matches!(
                store.get(&fresh),
                Err(EagleError::Checkpoint(CheckpointError::Header(_)))
            ));

            // Already served: keep serving, count one reload error per get.
            let served_fam = format!("served{i}");
            publish_state(&root, &served_fam, "tiny", &state).unwrap();
            let served = store.get(&served_fam).unwrap();
            corrupt(&root.join(&served_fam).join(CHECKPOINT_FILE));
            let errors = rec.counter_value("serve.policy_reload_errors");
            let again = store.get(&served_fam).unwrap();
            assert!(Arc::ptr_eq(&served, &again));
            assert_eq!(rec.counter_value("serve.policy_reload_errors"), errors + 1);
        }
        // One byte under the cap still serves: the padded header line plus its
        // `\n` fills the cap exactly.
        publish_state(&root, "edge", "tiny", &state).unwrap();
        write_padded(&root.join("edge").join(CHECKPOINT_FILE), &state, HEADER_CAP - 1);
        let edge = store.get("edge").unwrap();
        assert!(same_params(&edge.params, &state.params));
        assert!(Arc::ptr_eq(&edge, &store.get("edge").unwrap()), "a capped header stays fresh");
    }
}
