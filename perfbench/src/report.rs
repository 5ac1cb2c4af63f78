//! What a workload hands back: counts, check failures and named metrics.

use std::collections::BTreeMap;

use crate::stats::Dist;

/// Outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (training runs, requests, registrations).
    pub attempted: u64,
    /// Operations that failed: error replies, dropped connections, training
    /// errors, invalid placements, replay mismatches.
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    /// Metric name → (value, how it was obtained).
    pub metrics: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Records a plain value.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.insert(name, (value, note.into()));
    }

    /// Records a timing's median, noting its tail and sample count (and
    /// the samples themselves when there are few).
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        let d = Dist::of(samples);
        let note = match samples.len() {
            2..=8 => format!("{d} {samples:.4?}"),
            _ => d.to_string(),
        };
        self.set(name, d.median, note);
    }

    /// Records the mean of `samples`, noting their median, tail and count.
    /// The bounded timings are means: a shared host alternates between a
    /// fast and a slow mode, and a median flips between the modes from run
    /// to run where a mean moves with their shares.
    pub fn mean(&mut self, name: &'static str, samples: &[f64]) {
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        let d = Dist::of(samples);
        let note = match samples.len() {
            2..=8 => format!("mean; {d} {samples:.4?}"),
            _ => format!("mean; {d}"),
        };
        self.set(name, mean, note);
    }

    /// Records a failed check, counting it as a failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Records a failed check that belongs to an operation already counted.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Sets `name` to `num / den`, or 0 when nothing was counted.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64, note: &str) {
        let v = if den > 0.0 { num / den } else { 0.0 };
        self.set(name, v, format!("{num} / {den} {note}"));
    }
}
