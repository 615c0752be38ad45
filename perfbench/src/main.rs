//! One benchmark for scperf: three workloads driven through the public
//! API, end-to-end metrics with tracing off, per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! perfbench --workload <tables|dse_sweep|serve_open> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Lines before it, each starting
//! with `#`, carry the host block, every metric by name with its unit and
//! sample count, and (traced) the folded stacks and layer self times.
//! See `perfbench/README.md` for why each workload and metric exists.

mod accuracy;
mod dse;
mod gen;
mod serve;
mod stats;
mod tables;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// End-to-end metrics: name and unit, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("sw_err_max_pct", "%"),
    ("hw_err_max_pct", "%"),
];

/// Per-layer metrics: name and unit, printed by every `--trace 1` run.
/// A layer a workload bypasses reads 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("kernel.activations", "count"),
    ("kernel.resume_ns", "ns"),
    ("kernel.plain_us", "us"),
    ("kernel.run_us", "us"),
    ("est.annotated_ops", "count"),
    ("est.segments", "count"),
    ("est.ns_per_op", "ns"),
    ("core.session_build_us", "us"),
    ("core.report_us", "us"),
    ("workloads.elaborate_us", "us"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.cache.inserts", "count"),
    ("dse.cache.evictions", "count"),
    ("dse.evaluate.hit_us", "us"),
    ("dse.evaluate.miss_us", "us"),
    ("dse.pareto_us", "us"),
    ("dse.pool.efficiency", "ratio"),
    ("dse.pool.steals", "count"),
    ("prog.attempts", "count"),
    ("prog.hit_ratio", "ratio"),
    ("prog.warm_hits", "count"),
    ("prog.rejects", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.forks", "count"),
    ("pool.resets", "count"),
    ("pool.exhausted", "count"),
    ("serve.engine.hit_us", "us"),
    ("serve.engine.miss_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.backlog_max", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.rejected.queue_full", "count"),
    ("serve.rejected.pool_exhausted", "count"),
    ("serve.rejected.deadline_exceeded", "count"),
    ("serve.rejected.sim_error", "count"),
    ("serve.repeat_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.gap_pct", "%"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One metric as printed: value, unit and where it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form `#` lines (folded stacks, layer table).
    pub text: String,
}

impl Run {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }
}

/// Highest resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads for `dse` jobs and serve workers: the host's CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// and the last result.
pub fn median_setup<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    let d = stats::Dist::new(times);
    (d.median().value, last.expect("at least one repetition"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["tables", "dse_sweep", "serve_open"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (tables, dse_sweep, serve_open)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn host_block(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"available_parallelism\":{},\"rustc\":{},\"git_rev\":{},\"profile\":{},\"workload\":{},\"seed\":{},\"run_seconds\":{},\"trace\":{}}}",
        nproc(),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("# host {}", host_block(&args));
    let outcome = catch_unwind(AssertUnwindSafe(|| match args.workload.as_str() {
        "tables" => tables::run(&args),
        "dse_sweep" => dse::run(&args),
        _ => serve::run(&args),
    }));
    let mut run = match outcome {
        Ok(run) => run,
        Err(_) => {
            eprintln!("perfbench: the {} workload panicked", args.workload);
            std::process::exit(1);
        }
    };
    if !args.trace && run.get("peak_rss_mb").is_none() {
        run.put("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    }

    for m in &run.metrics {
        println!("# metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    print!("{}", run.text);
    for w in &run.wrong {
        println!("# WRONG {w}");
    }

    let keys: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in keys {
        let value = match run.get(name) {
            Some(m) => m.value,
            // A bypassed layer, or a run whose wrong output stopped it
            // before the metric was measured.
            None if args.trace || !run.wrong.is_empty() => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        };
        let value = match value {
            v if v.is_finite() => v,
            // Nothing valid was timed: every attempt gave a wrong output.
            _ if !run.wrong.is_empty() => 0.0,
            _ => {
                eprintln!("perfbench: {name} is not a finite number");
                std::process::exit(1);
            }
        };
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.wrong.is_empty(),
        run.attempted.max(1),
        run.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
