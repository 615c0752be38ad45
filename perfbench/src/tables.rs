//! `tables`: a closed loop, one client. Each pass runs the Table 1 suite
//! (six sequential cases, one process each) and the Table 3 vocoder
//! (five stages on cpu0), strict-timed with the calibrated cost table
//! through `SimConfig` → `Session`. Estimator-bound and kernel-light:
//! the calibrated table is fractional, so cost programs, trace replay
//! and the session pool are all bypassed. The inputs are fixed by the
//! paper; the seed is recorded and changes nothing.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use scperf_bench::calibration::calibrate;
use scperf_bench::harness::cpu_platform;
use scperf_core::{CostTable, Mode, SimConfig};
use scperf_kernel::{Simulator, Time};
use scperf_obs::MetricsSnapshot;
use scperf_workloads::vocoder::{self, pipeline};
use scperf_workloads::BenchCase;

use crate::stats::Dist;
use crate::trace::Tracer;
use crate::{accuracy, median_setup, Args, Run};

/// Frames of the Table 3 vocoder run (the `table3` binary's default).
pub const VOCODER_FRAMES: usize = 32;

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 15;

/// Everything one pass estimates. Passes must agree bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Estimates {
    /// Per Table 1 case: total cycles (bits), simulated end, checksum.
    cases: Vec<(u64, Time, i32)>,
    /// Per vocoder stage: total cycles (bits).
    stage_cycles: Vec<u64>,
    stage_checksums: [Option<i32>; 5],
    output: Option<i32>,
    vocoder_end: Time,
}

/// Kernel and estimator counters summed over a pass's sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounters {
    pub resumes: u64,
    pub resume_ns: u64,
    pub ops: u64,
    pub segments: u64,
    pub prog_hits: u64,
    pub prog_misses: u64,
    pub prog_warm_hits: u64,
    pub prog_rejects: u64,
}

impl SimCounters {
    pub fn add(&mut self, o: &SimCounters) {
        self.resumes += o.resumes;
        self.resume_ns += o.resume_ns;
        self.ops += o.ops;
        self.segments += o.segments;
        self.prog_hits += o.prog_hits;
        self.prog_misses += o.prog_misses;
        self.prog_warm_hits += o.prog_warm_hits;
        self.prog_rejects += o.prog_rejects;
    }

    pub fn absorb(&mut self, m: &MetricsSnapshot) {
        let c = |name| m.counter(name).unwrap_or(0);
        self.resumes += c("kernel.handoff.resumes");
        self.resume_ns += c("kernel.handoff.resume_nanos");
        self.ops += c("est.annotated_ops");
        self.segments += c("est.segments_closed");
        self.prog_hits += c("est.prog.hits");
        self.prog_misses += c("est.prog.misses");
        self.prog_warm_hits += c("est.prog.warm_hits");
        self.prog_rejects += c("est.prog.rejects");
    }

    /// Puts the kernel and estimator layer metrics on `run`; `per` is
    /// the divisor for the per-unit counts and `unit` names it.
    pub fn put(&self, run: &mut Run, per: f64, unit: &str) {
        run.put(
            "kernel.activations",
            self.resumes as f64 / per,
            "count",
            format!("process resumes per {unit}"),
        );
        run.put(
            "kernel.resume_ns",
            self.resume_ns as f64 / self.resumes.max(1) as f64,
            "ns",
            "mean handoff latency per resume",
        );
        run.put(
            "est.annotated_ops",
            self.ops as f64 / per,
            "count",
            format!("per {unit}"),
        );
        run.put(
            "est.segments",
            self.segments as f64 / per,
            "count",
            format!("per {unit}"),
        );
    }

    /// Puts the cost-program layer metrics on `run`.
    pub fn put_prog(&self, run: &mut Run) {
        let attempts = self.prog_hits + self.prog_misses;
        run.put("prog.attempts", attempts as f64, "count", "whole run");
        run.put(
            "prog.hit_ratio",
            self.prog_hits as f64 / attempts.max(1) as f64,
            "ratio",
            format!("{} of {attempts}", self.prog_hits),
        );
        run.put(
            "prog.warm_hits",
            self.prog_warm_hits as f64,
            "count",
            "whole run",
        );
        run.put(
            "prog.rejects",
            self.prog_rejects as f64,
            "count",
            "whole run",
        );
    }
}

struct Pass {
    table1_ns: u64,
    vocoder_ns: u64,
    est: Estimates,
    counters: SimCounters,
}

/// One pass: the six Table 1 cases, then the vocoder, each through its
/// own strict-timed session.
fn pass(cases: &[BenchCase], table: &CostTable, tr: &mut Tracer, id: u64) -> Pass {
    let mut counters = SimCounters::default();
    let mut est = Estimates {
        cases: Vec::with_capacity(cases.len()),
        stage_cycles: Vec::with_capacity(5),
        stage_checksums: [None; 5],
        output: None,
        vocoder_end: Time::ZERO,
    };
    let start = Instant::now();
    for case in cases {
        let (platform, cpu) = cpu_platform(table.clone());
        let value = Arc::new(Mutex::new(0_i32));
        let mut session = tr.time("core.session_build", id, || {
            let mut s = SimConfig::new()
                .platform(platform)
                .mode(Mode::StrictTimed)
                .build();
            let (slot, body) = (Arc::clone(&value), case.annotated);
            s.spawn("bench", cpu, move |_ctx| {
                *slot.lock().expect("case slot") = body();
            });
            s
        });
        let summary = tr
            .time("kernel.run", id, || session.run())
            .expect("Table 1 case simulates");
        let (report, metrics) =
            tr.time("core.report", id, || (session.report(), session.metrics()));
        counters.absorb(&metrics);
        let cycles = report.process("bench").map_or(f64::NAN, |p| p.total_cycles);
        let value = *value.lock().expect("case slot");
        est.cases.push((cycles.to_bits(), summary.end_time, value));
    }
    let table1_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let (platform, cpu) = cpu_platform(table.clone());
    let mut session = tr.time("core.session_build", id, || {
        SimConfig::new()
            .platform(platform)
            .mode(Mode::StrictTimed)
            .build()
    });
    let handles = tr.time("workloads.elaborate", id, || {
        let (sim, model) = session.parts_mut();
        pipeline::build(
            sim,
            model,
            pipeline::VocoderMapping::all_on(cpu),
            VOCODER_FRAMES,
        )
    });
    let summary = tr
        .time("kernel.run", id, || session.run())
        .expect("vocoder simulates");
    let (report, metrics) = tr.time("core.report", id, || (session.report(), session.metrics()));
    let vocoder_ns = start.elapsed().as_nanos() as u64;
    counters.absorb(&metrics);
    est.stage_cycles = pipeline::STAGE_NAMES
        .iter()
        .map(|n| {
            report
                .process(n)
                .map_or(f64::NAN, |p| p.total_cycles)
                .to_bits()
        })
        .collect();
    est.stage_checksums = *handles.stages.lock();
    est.output = *handles.output.lock();
    est.vocoder_end = summary.end_time;
    Pass {
        table1_ns,
        vocoder_ns,
        est,
        counters,
    }
}

/// The un-annotated twins of a pass on the bare kernel: each Table 1
/// case's plain form as one process, and `build_plain`'s vocoder.
fn plain_twins(cases: &[BenchCase], tr: &mut Tracer, id: u64) -> (Vec<i32>, Option<i32>) {
    let values = cases
        .iter()
        .map(|case| {
            tr.time("kernel.plain", id, || {
                let mut sim = Simulator::new();
                let value = Arc::new(Mutex::new(0_i32));
                let (slot, body) = (Arc::clone(&value), case.plain);
                sim.spawn("bench", move |_ctx| {
                    *slot.lock().expect("case slot") = body();
                });
                sim.run().expect("plain case runs");
                let v = *value.lock().expect("case slot");
                v
            })
        })
        .collect();
    let output = tr.time("kernel.plain", id, || {
        let mut sim = Simulator::new();
        let out = pipeline::build_plain(&mut sim, VOCODER_FRAMES);
        sim.run().expect("plain vocoder runs");
        let v = *out.lock();
        v
    });
    (values, output)
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let (setup_s, cal) = median_setup(SETUP_REPS, calibrate);
    run.put(
        "setup_s",
        setup_s,
        "s",
        format!("calibrate(), median of {SETUP_REPS}"),
    );
    let table1_rows = accuracy::measure(&cal, &mut run);

    // Oracles, untimed: the plain forms (which the accuracy pass checked
    // against the ISS) and the reference vocoder.
    let cases = scperf_workloads::table1_cases();
    let plain: Vec<i32> = cases.iter().map(|c| (c.plain)()).collect();
    let reference = vocoder::run_reference(VOCODER_FRAMES);
    let first = pass(&cases, &cal.table, &mut Tracer::off(), 0).est;
    for (i, case) in cases.iter().enumerate() {
        run.check(first.cases[i].2 == plain[i], || {
            format!("{}: annotated checksum differs from plain/ISS", case.name)
        });
        if let Some(rows) = &table1_rows {
            run.check(first.cases[i].0 == rows[i].lib_cycles.to_bits(), || {
                format!(
                    "{}: strict-timed cycles differ from the Table 1 estimate",
                    case.name
                )
            });
        }
    }
    for (i, chk) in first.stage_checksums.iter().enumerate() {
        run.check(*chk == Some(reference.checksums[i]), || {
            format!("vocoder stage {i}: checksum differs from run_reference")
        });
    }
    run.check(first.output == Some(reference.checksums[4]), || {
        "vocoder output differs from run_reference".into()
    });

    if args.trace {
        traced(args, &cases, &cal.table, &first, &mut run);
        return run;
    }

    let mut table1_ms = Vec::new();
    let mut vocoder_ms = Vec::new();
    let window = Instant::now();
    let mut id = 1;
    while window.elapsed() < args.window() {
        let p = pass(&cases, &cal.table, &mut Tracer::off(), id);
        id += 1;
        run.attempted += 1;
        if p.est != first {
            run.failed += 1;
            run.check(false, || {
                format!("pass {id}: estimates differ from the first pass")
            });
            continue;
        }
        table1_ms.push(p.table1_ns as f64 / 1e6);
        vocoder_ms.push(p.vocoder_ns as f64 / 1e6);
    }
    let t1 = Dist::new(table1_ms);
    let voc = Dist::new(vocoder_ms);
    let (m, t) = (t1.median(), t1.tail());
    run.put("table1_pass_ms_p50", m.value, "ms", m.note());
    run.put("table1_pass_ms_tail", t.value, "ms", t.note());
    let fps = VOCODER_FRAMES as f64 / (voc.median().value / 1e3);
    run.put(
        "vocoder_frames_per_s",
        fps,
        "1/s",
        format!("{VOCODER_FRAMES} frames / median run, n={}", voc.len()),
    );
    run.put(
        "vocoder_run_ms_p50",
        voc.median().value,
        "ms",
        voc.median().note(),
    );
    run.put(
        "vocoder_run_ms_tail",
        voc.tail().value,
        "ms",
        voc.tail().note(),
    );
    run.put(
        "fail_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} passes", run.failed, run.attempted),
    );
    run.put(
        "p50_ms",
        m.value,
        "ms",
        format!("Table 1 pass, {}", m.note()),
    );
    run.put(
        "throughput_per_s",
        fps,
        "1/s",
        "vocoder strict-timed frames per host second",
    );
    run
}

/// Alternates untraced and traced passes over the window; the traced
/// ones also run the plain twins.
fn traced(args: &Args, cases: &[BenchCase], table: &CostTable, first: &Estimates, run: &mut Run) {
    let mut tr = Tracer::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counters = SimCounters::default();
    let mut passes = 0_u64;
    let window = Instant::now();
    while window.elapsed() < args.window() {
        passes += 1;
        let id = passes;
        let p = pass(cases, table, &mut Tracer::off(), id);
        untraced_ms.push((p.table1_ns + p.vocoder_ns) as f64 / 1e6);

        let root = tr.enter("tables.pass", id);
        let p = pass(cases, table, &mut tr, id);
        tr.exit(root);
        traced_ms.push((p.table1_ns + p.vocoder_ns) as f64 / 1e6);
        counters.add(&p.counters);
        run.attempted += 2;
        run.check(p.est == *first, || {
            format!("traced pass {id}: estimates differ")
        });

        let root = tr.enter("tables.plain", id);
        let (values, output) = plain_twins(cases, &mut tr, id);
        tr.exit(root);
        run.check(
            values.iter().zip(&first.cases).all(|(v, c)| *v == c.2) && output == first.output,
            || format!("pass {id}: plain twins differ from the annotated checksums"),
        );
    }
    let per = passes.max(1) as f64;
    counters.put(run, per, "pass");
    counters.put_prog(run);
    let (_, strict_ns) = tr.total("kernel.run");
    let (_, plain_ns) = tr.total("kernel.plain");
    run.put(
        "kernel.run_us",
        tr.mean_us("kernel.run"),
        "us",
        "mean per session run",
    );
    run.put(
        "kernel.plain_us",
        tr.mean_us("kernel.plain"),
        "us",
        "mean per plain twin run",
    );
    run.put(
        "est.ns_per_op",
        (strict_ns as f64 - plain_ns as f64) / counters.ops.max(1) as f64,
        "ns",
        "(strict-timed runs - plain twins) / annotated ops",
    );
    run.put(
        "core.session_build_us",
        tr.mean_us("core.session_build"),
        "us",
        "mean per session",
    );
    run.put(
        "core.report_us",
        tr.mean_us("core.report"),
        "us",
        "report() + metrics(), mean",
    );
    run.put(
        "workloads.elaborate_us",
        tr.mean_us("workloads.elaborate"),
        "us",
        "pipeline::build, mean",
    );
    let overhead =
        (Dist::new(traced_ms).median().value / Dist::new(untraced_ms).median().value - 1.0) * 100.0;
    crate::trace::finish(run, &tr, overhead, "median traced vs untraced pass");
}
