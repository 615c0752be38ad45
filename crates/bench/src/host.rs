//! The `host` block every `BENCH_*.json` artifact carries: what a
//! reader needs to compare one artifact with another.

use scperf_obs::json::JsonWriter;

/// Trimmed stdout of `cmd args`, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the `"host"` key and object: `available_parallelism`
/// (`cores`), `mode` (quick or full), `git_rev` (`git describe
/// --always --dirty`) and `rustc` (`rustc -V`).
pub fn write_host(w: &mut JsonWriter, quick: bool, cores: usize) {
    w.key("host");
    w.begin_object();
    w.key("available_parallelism");
    w.value_u64(cores as u64);
    w.key("mode");
    w.value_str(if quick { "quick" } else { "full" });
    w.key("git_rev");
    w.value_str(&command_line("git", &["describe", "--always", "--dirty"]));
    w.key("rustc");
    w.value_str(&command_line("rustc", &["-V"]));
    w.end_object();
}
