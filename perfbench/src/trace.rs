//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records, on one thread, a span per timed call: name, start,
//! end, the enclosing span and a request id. Spans stay in memory until the
//! run ends and are then written as JSON lines. A span's *self time* is its
//! duration minus the time its children cover; the self times of a root and
//! all its descendants add up to the root's duration exactly, and the root's
//! own self time is what no layer span claimed (reported as unattributed).
//! A disabled tracer records nothing, so the same code path serves the
//! untraced pass that the tracing overhead is measured against.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or minibatch) the span belongs to.
    pub request: u64,
}

impl SpanRec {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Single-threaded span recorder; see the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans.borrow_mut()[self.id].end_ns = end;
            t.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recording tracer when `on`, a no-op one otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Opens a span, nested in the innermost open one.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { tracer: None, id: 0 };
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.stack.borrow().last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(SpanRec { name, start_ns, end_ns: 0, parent, request });
        self.stack.borrow_mut().push(id);
        SpanGuard { tracer: Some(self), id }
    }

    /// Takes the recorded spans out of the tracer.
    pub fn finish(self) -> Trace {
        let spans = self.spans.into_inner();
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns), "every span is closed");
        Trace::new(spans)
    }
}

/// Recorded spans with their self times.
pub struct Trace {
    spans: Vec<SpanRec>,
    self_ms: Vec<f64>,
}

/// Layer a span name belongs to: the name's first segment.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Trace {
    fn new(spans: Vec<SpanRec>) -> Self {
        let mut self_ms: Vec<f64> = spans.iter().map(SpanRec::ms).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_ms[p] -= s.ms();
            }
        }
        Self { spans, self_ms }
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(SpanRec::ms).collect()
    }

    /// Per-request sums of the durations of spans named in `names`, for
    /// every request that has at least one of them.
    pub fn per_request(&self, names: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.request).or_default() += s.ms();
        }
        sums.into_values().collect()
    }

    /// Self time (ms) per layer over `root` and its descendants. The root's
    /// own self time is returned under `"unattributed"`; the values add up to
    /// the root's duration.
    pub fn layer_self_ms(&self, root: usize) -> BTreeMap<String, f64> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        out.insert("unattributed".into(), self.self_ms[root]);
        // Parents open before their children, so one forward pass marks the subtree.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if s.parent.is_some_and(|p| inside[p]) {
                inside[i] = true;
                *out.entry(layer_of(s.name).to_string()).or_default() += self.self_ms[i];
            }
        }
        out
    }

    /// Writes the spans to `path`, warning on stderr if that fails: a run's
    /// metrics do not depend on the span file.
    pub fn save(&self, path: &Path) {
        if let Err(e) = self.write_jsonl(path) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }

    /// Writes one JSON object per span to `path`.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request,
                self.self_ms[i] * 1e3
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let t = Tracer::new(true);
        {
            let _root = t.span("root", 0);
            {
                let _a = t.span("nn.sample", 1);
                let _b = t.span("devsim.simulate", 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _c = t.span("nn.decode", 2);
        }
        let trace = t.finish();
        let layers = trace.layer_self_ms(0);
        let total: f64 = layers.values().sum();
        assert!((total - trace.spans()[0].ms()).abs() < 1e-9);
        assert!(layers["devsim"] >= 2.0);
        assert_eq!(trace.per_request(&["nn.sample", "devsim.simulate"]).len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("root", 0));
        assert!(t.finish().spans().is_empty());
    }
}
