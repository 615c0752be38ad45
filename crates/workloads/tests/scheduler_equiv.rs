//! Scheduler-equivalence tests: the stackless scheduler (process futures
//! polled on the scheduler thread) must be *observationally identical*
//! to the thread-per-process kernel it replaced — same functional
//! output, same [`SimSummary`], and a bit-identical functional trace.
//! The thread kernel is gone, so its results on these workloads are
//! pinned below as golden values (summary, trace length and an FNV-1a
//! hash of the functional projection). Anything else means the rewrite
//! changed simulation semantics, not just host performance.

use scperf_kernel::trace::functional_projection;
use scperf_kernel::{SimOptions, SimSummary, StopReason, Time, TraceMode};
use scperf_workloads::vocoder::pipeline::build_plain;

const NFRAMES: usize = 12;

type Projection = Vec<(String, String, String)>;

/// FNV-1a over the projected records, each field terminated by `0xff`.
fn fnv(trace: &Projection) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b, c) in trace {
        for s in [a, b, c] {
            for byte in s.bytes().chain(std::iter::once(0xff)) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn run_vocoder_jobs(jobs: usize) -> (i32, SimSummary, Projection) {
    let mut sim = SimOptions::new()
        .jobs(jobs)
        .tracing(TraceMode::Unbounded)
        .build();
    let out = build_plain(&mut sim, NFRAMES);
    let summary = sim.run().expect("vocoder runs to completion");
    let chk = out.lock().expect("sink produced a checksum");
    (chk, summary, functional_projection(&sim.take_trace()))
}

/// The five-stage vocoder pipeline — blocking FIFOs all the way through —
/// is the paper's own case study and the strongest available stressor of
/// suspend/resume round trips.
#[test]
fn vocoder_trace_matches_the_thread_kernel() {
    let (chk, summary, trace) = run_vocoder_jobs(1);
    assert_eq!(chk, -331_107_748, "functional checksum diverged");
    assert_eq!(
        summary,
        SimSummary {
            end_time: Time::ZERO,
            deltas: 16,
            activations: 48,
            reason: StopReason::EventsExhausted,
        },
        "summary diverged"
    );
    assert_eq!(trace.len(), 144, "functional trace length diverged");
    assert_eq!(
        fnv(&trace),
        0x7c3e_47a0_4ad1_2fc5,
        "functional trace diverged"
    );
}

/// The same vocoder under parallel evaluation (`jobs ∈ {2, 8}`) must
/// reproduce the sequential run exactly: same checksum, same summary,
/// same functional trace. This is the paper-case-study instance of the
/// determinism contract in `docs/PARALLELISM.md`.
#[test]
fn vocoder_trace_is_bit_identical_across_jobs() {
    let (chk_1, sum_1, trace_1) = run_vocoder_jobs(1);
    for jobs in [2usize, 8] {
        let (chk_j, sum_j, trace_j) = run_vocoder_jobs(jobs);
        assert_eq!(chk_1, chk_j, "functional checksum diverged at jobs={jobs}");
        assert_eq!(sum_1, sum_j, "summary diverged at jobs={jobs}");
        assert_eq!(trace_1, trace_j, "functional trace diverged at jobs={jobs}");
    }
}

/// A timed synthetic pipeline mixing wait(time) storms with blocking
/// channel traffic: timer ordering comes from the time wheel, wakeup
/// delivery from the poll loop — both must reproduce the thread kernel
/// exactly. (Four writers share one FIFO, so the model is not
/// determinate under `jobs > 1`; it runs sequentially only.)
#[test]
fn timed_pipeline_matches_the_thread_kernel() {
    fn run() -> (SimSummary, Projection) {
        let mut sim = SimOptions::new().build();
        sim.enable_tracing();
        let ch = sim.fifo::<u64>("stage", 3);
        for p in 0..4u64 {
            let tx = ch.clone();
            sim.spawn(format!("gen{p}"), move |mut ctx| async move {
                let mut x = p + 1;
                for _ in 0..32 {
                    // Deterministic pseudo-random waits, different per
                    // generator, some colliding at the same instant.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ctx.wait(Time::ns(x % 97)).await;
                    tx.write(&mut ctx, x).await;
                }
            });
        }
        let rx = ch;
        sim.spawn("fold", move |mut ctx| async move {
            let mut chk = 0u64;
            for i in 0..128 {
                chk = chk
                    .wrapping_mul(1099511628211)
                    .wrapping_add(rx.read(&mut ctx).await);
                if i % 16 == 15 {
                    ctx.emit_trace("chk", chk.to_string());
                }
            }
        });
        let summary = sim.run().expect("runs");
        (summary, functional_projection(&sim.take_trace()))
    }

    let (summary, trace) = run();
    assert_eq!(
        summary,
        SimSummary {
            end_time: Time::ps(1_805_000),
            deltas: 236,
            activations: 251,
            reason: StopReason::EventsExhausted,
        },
        "summary diverged"
    );
    assert_eq!(trace.len(), 264, "functional trace length diverged");
    assert_eq!(
        fnv(&trace),
        0x26e7_f14a_c6d0_4bc1,
        "functional trace diverged"
    );
}
