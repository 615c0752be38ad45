//! # scperf-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5).
//! Each artifact has a binary:
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Table 1 (SW benchmarks vs ISS)           | `cargo run -p scperf-bench --release --bin table1` |
//! | Table 2 (HW FIR/Euler vs synthesis)      | `cargo run -p scperf-bench --release --bin table2` |
//! | Table 3 (vocoder processes vs ISS)       | `cargo run -p scperf-bench --release --bin table3` |
//! | Table 4 (vocoder post-proc on HW)        | `cargo run -p scperf-bench --release --bin table4` |
//! | Figures 1 & 2 (segmentation + graph)     | `cargo run -p scperf-bench --release --bin fig1_2` |
//! | Figure 3 (worked delay calculation)      | `cargo run -p scperf-bench --release --bin fig3` |
//! | Figure 4 (area/time solution space)      | `cargo run -p scperf-bench --release --bin fig4` |
//! | Figure 5 (untimed vs strict-timed)       | `cargo run -p scperf-bench --release --bin fig5` |
//! | Everything                               | `cargo run -p scperf-bench --release --bin all_experiments` |
//! | Mapping design-space exploration (DSE)   | `cargo run -p scperf-bench --release --bin dse` |
//! | Observability dump (`BENCH_obs.json` + Chrome trace) | `cargo run -p scperf-bench --release --bin obs_bench` |
//!
//! Wall-clock benches for the host-time columns live in `benches/`
//! (plain `harness = false` mains on [`microbench`]): `host_time`,
//! `ablations` and `trace_overhead`.

#![warn(missing_docs)]

pub mod calibration;
pub mod figures;
pub mod harness;
pub mod host;
pub mod microbench;
pub mod tables;

/// The design-space exploration engine, promoted to its own crate
/// (`scperf-dse`) in PR 2; re-exported here so the experiment binaries
/// and older call sites keep working.
pub use scperf_dse as dse;
