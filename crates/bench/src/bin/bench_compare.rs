//! Regression gate over the committed bench baselines.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin bench_compare -- \
//!     [--threshold R] BASELINE.json CURRENT.json [BASELINE CURRENT ...]
//! ```
//!
//! Each pair is a committed baseline (`BENCH_kernel.json`,
//! `BENCH_estimator.json`) and a freshly produced run of the same bench
//! (typically `--quick`, redirected via `SCPERF_OBS_DIR`). Absolute
//! seconds are meaningless across hosts, so only the *scale-invariant
//! ratio* metrics are compared: the kernel's `thread_ratio` (stackless
//! activations/s over an OS-thread ping-pong), the parallel-evaluate
//! `speedup`s, serve's cache `reuse_speedup` and the estimator's
//! `memo_speedup` (live over memoized) and `prog_speedup` (live over
//! warm-started programs), which measure one code path against another
//! on the same machine in the same run.
//!
//! For every shared ratio metric the gate computes
//! `current / baseline`; a value of 1.0 means the fresh run reproduces
//! the committed ratio exactly. The run **fails (exit 1)** when any
//! metric falls below `1 - threshold` (default 0.5 — generous, because
//! quick-mode CI runs on small problem sizes are noisy; the gate is
//! for order-of-magnitude regressions, not 5% drifts). Min, median and
//! stddev of the ratio distribution are printed for trend-watching,
//! and the `attribution.overhead_pct` entries are echoed informatively.

use std::process::ExitCode;

use scperf_serve::json::{parse, Json};

/// Ratio-metric keys: higher is better, scale-invariant across hosts.
const RATIO_KEYS: [&str; 5] = [
    "speedup",
    "thread_ratio",
    "memo_speedup",
    "reuse_speedup",
    "prog_speedup",
];

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare [--threshold R] BASELINE.json CURRENT.json \
         [BASELINE CURRENT ...]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Extracts `(metric-name, value)` for every ratio metric in a bench
/// document's `benches` array.
fn ratio_metrics(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(benches) = doc.get("benches").and_then(|b| b.as_arr()) {
        for b in benches {
            let name = b.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            for key in RATIO_KEYS {
                if let Some(v) = b.get(key).and_then(|v| v.as_f64()) {
                    out.push((format!("{name}.{key}"), v));
                }
            }
        }
    }
    out
}

fn overhead_pct(doc: &Json) -> Option<f64> {
    doc.get("attribution")
        .and_then(|a| a.get("overhead_pct"))
        .and_then(|v| v.as_f64())
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn stddev(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
}

fn main() -> ExitCode {
    let mut threshold = 0.5_f64;
    let mut paths: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| (0.0..1.0).contains(&v))
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        usage();
    }

    let floor = 1.0 - threshold;
    let mut ratios: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;

    for pair in paths.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let base = load(base_path);
        let cur = load(cur_path);
        println!("{base_path} vs {cur_path}:");

        let base_metrics = ratio_metrics(&base);
        let cur_metrics = ratio_metrics(&cur);
        for (name, b) in &base_metrics {
            let Some((_, c)) = cur_metrics.iter().find(|(n, _)| n == name) else {
                println!("  {name:<28} missing from current run (skipped)");
                continue;
            };
            if *b <= 0.0 {
                continue;
            }
            let r = c / b;
            compared += 1;
            ratios.push(r);
            let verdict = if r < floor { "REGRESSED" } else { "ok" };
            println!(
                "  {name:<28} baseline {b:>6.2}x  current {c:>6.2}x  ratio {r:>5.2}  {verdict}"
            );
            if r < floor {
                failures.push(format!("{name}: {c:.2}x vs committed {b:.2}x"));
            }
        }
        if let (Some(b), Some(c)) = (overhead_pct(&base), overhead_pct(&cur)) {
            println!("  attribution overhead: baseline {b:+.2}%  current {c:+.2}% (informational)");
        }
    }

    if compared == 0 {
        eprintln!("no shared ratio metrics found — wrong files?");
        return ExitCode::FAILURE;
    }

    ratios.sort_by(|a, b| a.total_cmp(b));
    println!(
        "\n{compared} ratio metric(s): min {:.2}  median {:.2}  stddev {:.2}  (floor {floor:.2})",
        ratios[0],
        median(&ratios),
        stddev(&ratios),
    );

    if failures.is_empty() {
        println!("no regressions beyond threshold {threshold}");
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}
