//! Order statistics over raw samples, seed mixing and process memory.

use std::fmt;

/// Highest quantile a sample of `n` supports: the one with ten samples
/// beyond it, at most p99 (reached at 1,000 samples), never below the median.
pub fn supported_tail(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Quantile `q` of ascending `sorted`, interpolating between order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, supported tail and count of one timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    /// Number of raw samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The highest supported tail quantile (see [`supported_tail`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Dist {
    /// Summarizes raw samples; all-zero for an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = supported_tail(v.len());
        Self { n: v.len(), median: quantile(&v, 0.5), tail_q, tail: quantile(&v, tail_q) }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.4}, p{} {:.4}, n={}",
            self.median,
            (self.tail_q * 1000.0).round() / 10.0,
            self.tail,
            self.n
        )
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives an independent seed for purpose `tag` from the workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

/// The process's peak resident set (`VmHWM`) in MiB, if the OS reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_keep_ten_samples_beyond() {
        assert_eq!(supported_tail(5000), 0.99);
        assert!((supported_tail(200) - 0.95).abs() < 1e-12);
        assert_eq!(supported_tail(10), 0.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(Dist::of(&[3.0, 1.0, 2.0]).median, 2.0);
    }
}
