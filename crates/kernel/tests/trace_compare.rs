//! End-to-end tests for the §6 non-determinism check: run the same
//! model under two different timing back-annotations and diff the
//! per-stream functional trace content with `compare_traces`.
//!
//! A deterministic specification must produce identical per-process
//! streams however the scheduler interleaves it; a specification whose
//! output depends on arrival order (two producers racing into one
//! FIFO) must be flagged.

use scperf_kernel::trace::{compare_traces, functional_projection};
use scperf_kernel::{SimOptions, Simulator, Time, TraceMode, TraceRecord};

/// One producer → FIFO → one consumer. The producer's per-item delay is
/// a parameter; the functional content never depends on it. `jobs`
/// selects the evaluate-phase parallelism — the trace must not depend
/// on it at all (see `docs/PARALLELISM.md`).
fn run_deterministic_jobs(delay_ns: u64, jobs: usize) -> Vec<TraceRecord> {
    let mut sim = SimOptions::new()
        .jobs(jobs)
        .tracing(TraceMode::Unbounded)
        .build();
    let ch = sim.fifo::<u32>("ch", 2);
    let tx = ch.clone();
    sim.spawn("producer", move |mut ctx| async move {
        for i in 0..20u32 {
            if delay_ns > 0 {
                ctx.wait(Time::ns(delay_ns)).await;
            }
            tx.write(&mut ctx, i * i).await;
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |mut ctx| async move {
        let mut sum = 0u32;
        for _ in 0..20 {
            sum = sum.wrapping_add(rx.read(&mut ctx).await);
        }
        ctx.emit_trace("sum", sum.to_string());
    });
    sim.run().expect("runs");
    sim.take_trace()
}

fn run_deterministic(delay_ns: u64) -> Vec<TraceRecord> {
    run_deterministic_jobs(delay_ns, 1)
}

/// Two producers race into one FIFO; the consumer's read order (and its
/// running checksum) depends on the relative delays — a
/// scheduling-dependent, i.e. non-deterministic, specification. The
/// `seed` picks the timing annotation, standing in for the reordering a
/// timing back-annotation introduces.
fn run_racy(seed: u64) -> Vec<TraceRecord> {
    let mut sim = Simulator::new();
    sim.enable_tracing();
    let ch = sim.fifo::<u64>("shared", 4);
    for p in 0..2u64 {
        let tx = ch.clone();
        // Seed-dependent per-producer delay: different seeds reorder
        // the arrivals of the two producers.
        let delay = 1 + (seed.wrapping_mul(2654435761).wrapping_add(p)) % 7;
        sim.spawn(format!("producer{p}"), move |mut ctx| async move {
            for i in 0..10u64 {
                ctx.wait(Time::ns(delay)).await;
                tx.write(&mut ctx, p * 100 + i).await;
            }
        });
    }
    let rx = ch;
    sim.spawn("consumer", move |mut ctx| async move {
        let mut chk = 0u64;
        for _ in 0..20 {
            // Order-sensitive fold: a different interleaving gives a
            // different checksum, not just a permutation.
            chk = chk.wrapping_mul(31).wrapping_add(rx.read(&mut ctx).await);
        }
        ctx.emit_trace("checksum", chk.to_string());
    });
    sim.run().expect("runs");
    sim.take_trace()
}

#[test]
fn deterministic_model_agrees_across_timings() {
    let fast = run_deterministic(0);
    let slow = run_deterministic(13);
    // Global interleaving genuinely changed…
    assert_ne!(functional_projection(&fast), functional_projection(&slow));
    // …but every per-process stream is identical: deterministic.
    assert_eq!(compare_traces(&fast, &slow), Vec::<String>::new());
}

/// Parallel evaluation is held to a stronger bar than the §6 per-stream
/// check: the *entire* trace — global interleaving included — must be
/// bit-identical to the sequential kernel, for both timing annotations.
#[test]
fn deterministic_model_is_bit_identical_across_jobs() {
    for delay in [0u64, 13] {
        let seq = run_deterministic_jobs(delay, 1);
        for jobs in [2usize, 8] {
            let par = run_deterministic_jobs(delay, jobs);
            assert_eq!(seq, par, "full trace diverged at delay={delay} jobs={jobs}");
        }
    }
}

#[test]
fn seeded_nondeterministic_model_is_flagged() {
    let a = run_racy(1);
    let b = run_racy(2);
    let differing = compare_traces(&a, &b);
    // The consumer observes a different read order, so its stream (and
    // only a scheduling-dependent stream) must be reported.
    assert!(
        differing.iter().any(|s| s == "consumer"),
        "expected the racy consumer to be flagged, got {differing:?}"
    );
    // The same seed must reproduce the same behaviour (seeded, not
    // wild, non-determinism).
    let a2 = run_racy(1);
    assert_eq!(compare_traces(&a, &a2), Vec::<String>::new());
}
