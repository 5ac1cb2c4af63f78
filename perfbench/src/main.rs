//! The repository benchmark: EAGLE training throughput and placement-daemon
//! latency on four workloads, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-inception|serve-hot|serve-search|serve-fresh> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and how it was obtained, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 1 when an output check fails. See `perfbench/README.md`.

mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use serve::Kind;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("placements_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("step_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). A layer a workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("rl.update_ms", "ms"),
    ("tensor.score_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.adam_ms", "ms"),
    ("nn.sample_ms", "ms"),
    ("nn.decode_ms", "ms"),
    ("nn.batch", "count"),
    ("devsim.simulate_ms", "ms"),
    ("devsim.evaluate_ms", "ms"),
    ("devsim.events", "count"),
    ("devsim.cache_hit_share", "ratio"),
    ("store.get_ms", "ms"),
    ("store.reloads", "count"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("router.wave_size", "count"),
    ("router.forwards_per_request", "count"),
    ("router.wait_ms", "ms"),
    ("api.decode_ms", "ms"),
    ("api.encode_ms", "ms"),
    ("wire.bytes_per_request", "bytes"),
    ("wire.register_ms", "ms"),
    ("opgraph.from_json_ms", "ms"),
    ("opgraph.fingerprint_ms", "ms"),
    ("opgraph.validate_ms", "ms"),
    ("opgraph.ops", "count"),
    ("agent.build_ms", "ms"),
    ("agent.builds_per_request", "ratio"),
    ("trainer.warm_start_ms", "ms"),
    ("trainer.final_eval_ms", "ms"),
    ("share.rl", "ratio"),
    ("share.nn", "ratio"),
    ("share.devsim", "ratio"),
    ("share.store", "ratio"),
    ("share.wire", "ratio"),
    ("share.opgraph", "ratio"),
    ("share.agent", "ratio"),
    ("share.input", "ratio"),
    ("share.unattributed", "ratio"),
    ("obs.overhead_share", "ratio"),
    ("trace.wall_ms", "ms"),
];

const WORKLOADS: [&str; 4] = ["train-inception", "serve-hot", "serve-search", "serve-fresh"];

const USAGE: &str = "usage: perfbench --workload <train-inception|serve-hot|serve-search|\
                     serve-fresh> [--seed N] [--seconds N] [--trace 0|1]";

/// The share metric a span layer's self time counts toward.
fn share_metric(layer: &str) -> &'static str {
    match layer {
        "rl" | "tensor" => "share.rl",
        "nn" => "share.nn",
        "devsim" => "share.devsim",
        "store" | "checkpoint" => "share.store",
        "api" => "share.wire",
        "opgraph" => "share.opgraph",
        "agent" | "trainer" => "share.agent",
        "input" => "share.input",
        // The root's and the replay loop's own time: benchmark glue.
        _ => "share.unattributed",
    }
}

/// Splits the traced wall time of `root` into layer self times, prints the
/// table and records each layer's share.
pub fn layer_shares(report: &mut Report, trace: &trace::Trace, root: usize) {
    let wall_ms = trace.spans()[root].ms();
    let mut shares: std::collections::BTreeMap<&'static str, f64> =
        PER_LAYER.iter().filter(|(n, _)| n.starts_with("share.")).map(|(n, _)| (*n, 0.0)).collect();
    println!("traced wall time {wall_ms:.3} ms; self time by layer:");
    for (layer, ms) in trace.layer_self_ms(root) {
        println!("  {layer:<14} {ms:>12.3} ms  {:>6.2}%", 100.0 * ms / wall_ms);
        *shares.entry(share_metric(&layer)).or_default() += ms / wall_ms;
    }
    for (name, share) in shares {
        report.set(name, share, "share of traced wall time");
    }
    report.set("trace.wall_ms", wall_ms, "traced pass wall time");
}

/// Records the process's peak resident set so far as `peak_rss_mb`.
pub fn record_peak_rss(report: &mut Report) {
    match stats::peak_rss_mib() {
        Some(mib) => report.set("peak_rss_mb", mib, "VmHWM after the workload's checks"),
        None => report.problem("the OS does not report VmHWM"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One load-generator thread and one worker per core, at most two: the
    // program's pools (matmul shards, rollout and simulation workers) are
    // pinned to the same budget.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    eagle_obs::set_available_workers(workers);
    let out_dir = PathBuf::from(".bench_out");
    let trace_out = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let kind = match args.workload.as_str() {
        "serve-hot" => Some(Kind::Hot),
        "serve-search" => Some(Kind::Search),
        "serve-fresh" => Some(Kind::Fresh),
        _ => None,
    };
    let report = match (kind, args.trace) {
        (None, false) => train::run(args.seed, args.seconds, workers),
        (None, true) => train::run_traced(args.seed, workers, &trace_out),
        (Some(k), false) => serve::run(k, args.seed, args.seconds, workers, &out_dir),
        (Some(k), true) => {
            serve::run_traced(k, args.seed, args.seconds, workers, &out_dir, &trace_out)
        }
    };
    // The store directories are gone by now; drop the parent if it is empty.
    let _ = std::fs::remove_dir(&out_dir);
    finish(&args, report)
}

/// Prints every metric and the JSON result line; the exit code says whether
/// every check passed.
fn finish(args: &Args, mut report: Report) -> ExitCode {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} ({} run): attempted {}, failed {}, failed share {:.6}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let mut json = Vec::new();
    for &(name, unit) in table {
        let (value, note) = match report.metrics.get(name) {
            Some((v, note)) => (*v, note.clone()),
            None if args.trace => (0.0, "no calls on this workload".to_string()),
            None => {
                report.problem(format!("end-to-end metric {name} was not measured"));
                (0.0, "not measured".to_string())
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            report.problem(format!("{name} is not finite"));
            0.0
        };
        println!("  {name:<28} {value:>16.6} {unit:<6} {note}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for p in report.problems.iter().take(20) {
        println!("CHECK FAILED: {p}");
    }
    if report.problems.len() > 20 {
        println!("... and {} more failed checks", report.problems.len() - 20);
    }
    let correct = report.problems.is_empty() && report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` list the same names
    /// and units in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let here: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, here, "{key} differs from BENCHMARK.json");
        }
    }
}
