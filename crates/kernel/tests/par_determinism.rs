//! The parallel-evaluate determinism contract, enforced end to end:
//! `SimSummary`, the full trace stream, and the simulated-time metrics
//! must be bit-identical for `jobs ∈ {1, 2, 8}` on determinate models,
//! and non-determinate constructs must be *reported*, not raced.
//!
//! See `docs/PARALLELISM.md` for the contract these tests pin down.

use proptest::prelude::*;
use scperf_kernel::{SimError, SimOptions, SimSummary, Time, TraceMode};

/// Runs `build` under the given parallelism and returns everything the
/// contract covers: the summary, the rendered trace stream, and the
/// metrics snapshot filtered down to simulated-time (deterministic)
/// counters.
fn observe(
    jobs: usize,
    build: impl FnOnce(&mut scperf_kernel::Simulator),
) -> (SimSummary, Vec<String>, Vec<(String, String)>) {
    let mut sim = SimOptions::new()
        .jobs(jobs)
        .tracing(TraceMode::Unbounded)
        .build();
    build(&mut sim);
    let summary = sim.run().expect("determinate model must run cleanly");
    let trace = sim
        .take_trace()
        .iter()
        .map(|r| {
            format!(
                "{}|{}|{}|{}|{}",
                r.time.as_ps(),
                r.delta,
                r.process,
                r.label,
                r.detail
            )
        })
        .collect();
    // Host-time and parallelism-bookkeeping counters legitimately vary
    // across jobs values; everything else must match bit-exactly.
    let metrics: Vec<(String, String)> = sim
        .metrics()
        .iter()
        .filter(|(name, _)| {
            !name.starts_with("kernel.par.") && !name.starts_with("kernel.handoff.")
        })
        .map(|(name, value)| (name.to_string(), format!("{value:?}")))
        .collect();
    (summary, trace, metrics)
}

/// Asserts the full contract across jobs ∈ {1, 2, 8}.
fn assert_bit_identical(build: impl Fn(&mut scperf_kernel::Simulator) + Copy) {
    let (s1, t1, m1) = observe(1, build);
    for jobs in [2usize, 8] {
        let (sj, tj, mj) = observe(jobs, build);
        assert_eq!(s1, sj, "SimSummary diverged at jobs={jobs}");
        assert_eq!(
            t1.len(),
            tj.len(),
            "trace length diverged at jobs={jobs}: {} vs {}",
            t1.len(),
            tj.len()
        );
        for (i, (a, b)) in t1.iter().zip(&tj).enumerate() {
            assert_eq!(a, b, "trace record {i} diverged at jobs={jobs}");
        }
        assert_eq!(m1, mj, "metrics diverged at jobs={jobs}");
    }
}

/// N independent producer→fifo→consumer pairs with skewed timing.
fn fifo_pairs(
    pairs: usize,
    items: u32,
    delay_ns: u64,
) -> impl Fn(&mut scperf_kernel::Simulator) + Copy {
    move |sim| {
        for p in 0..pairs {
            let f = sim.fifo::<u32>(format!("ch{p}"), 2);
            let (tx, rx) = (f.clone(), f);
            let d = delay_ns + p as u64;
            sim.spawn(format!("prod{p}"), move |mut ctx| async move {
                for i in 0..items {
                    tx.write(&mut ctx, i.wrapping_mul(p as u32 + 1)).await;
                    ctx.wait(Time::ns(d)).await;
                }
            });
            sim.spawn(format!("cons{p}"), move |mut ctx| async move {
                let mut acc = 0u64;
                for _ in 0..items {
                    acc += u64::from(rx.read(&mut ctx).await);
                }
                ctx.emit_trace("sum", acc.to_string());
            });
        }
    }
}

#[test]
fn fifo_workload_is_bit_identical_across_jobs() {
    assert_bit_identical(fifo_pairs(4, 40, 3));
}

#[test]
fn rendezvous_workload_is_bit_identical_across_jobs() {
    assert_bit_identical(|sim| {
        for p in 0..3 {
            let ch = sim.rendezvous::<u32>(format!("r{p}"));
            let (w, r) = (ch.clone(), ch);
            sim.spawn(format!("w{p}"), move |mut ctx| async move {
                for i in 0..20 {
                    w.write(&mut ctx, i + p as u32).await;
                    if p == 1 {
                        ctx.wait(Time::ns(7)).await;
                    }
                }
            });
            sim.spawn(format!("r{p}"), move |mut ctx| async move {
                let mut acc = 0u64;
                for _ in 0..20 {
                    acc += u64::from(r.read(&mut ctx).await);
                    if p == 2 {
                        ctx.wait(Time::ns(4)).await;
                    }
                }
                ctx.emit_trace("sum", acc.to_string());
            });
        }
    });
}

#[test]
fn signal_workload_is_bit_identical_across_jobs() {
    assert_bit_identical(|sim| {
        // One driver per signal (well-formed single-driver model) plus
        // a listener; drivers also run timed loops so rounds mix.
        for p in 0..3 {
            let s = sim.signal(format!("s{p}"), 0u32);
            let (sw, sr) = (s.clone(), s.clone());
            sim.spawn(format!("drv{p}"), move |mut ctx| async move {
                for i in 1..=10u32 {
                    sw.write(&mut ctx, i * (p as u32 + 1));
                    ctx.wait(Time::ns(5 + p as u64)).await;
                }
            });
            sim.spawn(format!("lst{p}"), move |mut ctx| async move {
                for _ in 0..10 {
                    let v = sr.wait_value_change(&mut ctx).await;
                    ctx.emit_trace("saw", v.to_string());
                }
            });
        }
    });
}

#[test]
fn mixed_primitives_are_bit_identical_across_jobs() {
    assert_bit_identical(|sim| {
        let m = sim.sim_mutex("bus");
        let sem = sim.sim_semaphore("pool", 2);
        let f = sim.fifo::<u32>("log", 8);
        let drain = f.clone();
        for p in 0..4 {
            let m = m.clone();
            let sem = sem.clone();
            let f = f.clone();
            sim.spawn(format!("user{p}"), move |mut ctx| async move {
                for round in 0..5u32 {
                    sem.acquire(&mut ctx).await;
                    m.lock(&mut ctx).await;
                    ctx.wait(Time::ns(2 + p as u64)).await;
                    f.write(&mut ctx, round * 10 + p as u32).await;
                    m.unlock(&mut ctx);
                    sem.release(&mut ctx);
                    ctx.wait(Time::ns(3)).await;
                }
            });
        }
        sim.spawn("drain", move |mut ctx| async move {
            let mut acc = 0u64;
            for _ in 0..20 {
                acc += u64::from(drain.read(&mut ctx).await);
            }
            ctx.emit_trace("total", acc.to_string());
        });
    });
}

#[test]
fn timed_events_and_delayed_notifies_are_bit_identical() {
    assert_bit_identical(|sim| {
        let ev = sim.event("tick");
        for p in 0..4 {
            let ev = ev.clone();
            sim.spawn(format!("timer{p}"), move |mut ctx| async move {
                for i in 0..8u64 {
                    ctx.wait(Time::ns(1 + (p as u64 + i) % 5)).await;
                    if p == 0 {
                        ev.notify_delayed(Time::ns(2));
                    }
                    ctx.emit_trace("beat", format!("{p}:{i}"));
                }
            });
        }
        let ev2 = ev.clone();
        sim.spawn("listener", move |mut ctx| async move {
            for _ in 0..8 {
                ctx.wait_event(&ev2).await;
                ctx.emit_trace("heard", "tick");
            }
        });
    });
}

proptest! {
    // Randomized shapes: pair count, item count and timing skew all
    // vary; the contract must hold for every determinate instance.
    #[test]
    fn random_fifo_workloads_are_bit_identical(
        pairs in 1usize..5,
        items in 1u32..30,
        delay in 0u64..6,
    ) {
        assert_bit_identical(fifo_pairs(pairs, items, delay));
    }
}

// ---- non-determinate constructs are reported, not raced ----

fn expect_non_determinate(build: impl FnOnce(&mut scperf_kernel::Simulator), needle: &str) {
    let mut sim = SimOptions::new().jobs(4).build();
    build(&mut sim);
    match sim.run() {
        Err(SimError::NonDeterminate { detail }) => {
            assert!(
                detail.contains(needle),
                "expected detail mentioning {needle:?}, got: {detail}"
            );
        }
        other => panic!("expected NonDeterminate, got {other:?}"),
    }
}

#[test]
fn conflicting_signal_writers_are_reported() {
    // The sequential kernel documents last-writer-wins for same-delta
    // signal writes (see signal.rs `last_writer_in_delta_wins`); under
    // parallel evaluation that order-dependence is reported instead.
    expect_non_determinate(
        |sim| {
            let s = sim.signal("s", 0u32);
            let s1 = s.clone();
            let s2 = s.clone();
            sim.spawn("a", move |mut ctx| async move { s1.write(&mut ctx, 1) });
            sim.spawn("b", move |mut ctx| async move { s2.write(&mut ctx, 2) });
        },
        "signal 's'",
    );
}

#[test]
fn conflicting_fifo_readers_are_reported() {
    expect_non_determinate(
        |sim| {
            let f = sim.fifo::<u32>("q", 4);
            let w = f.clone();
            let r1 = f.clone();
            let r2 = f;
            sim.spawn("w", move |mut ctx| async move {
                w.write(&mut ctx, 1).await;
                ctx.wait(Time::ZERO).await;
            });
            sim.spawn("r1", move |mut ctx| async move {
                let _ = r1.read(&mut ctx).await;
            });
            sim.spawn("r2", move |mut ctx| async move {
                let _ = r2.try_read(&mut ctx);
            });
        },
        "fifo 'q'",
    );
}

#[test]
fn immediate_notify_with_waiters_is_reported() {
    expect_non_determinate(
        |sim| {
            let ev = sim.event("now");
            let ev2 = ev.clone();
            sim.spawn(
                "waiter",
                move |mut ctx| async move { ctx.wait_event(&ev).await },
            );
            sim.spawn("notifier", move |_ctx| ev2.notify_immediate());
        },
        "'now'",
    );
}

#[test]
fn same_model_runs_clean_sequentially() {
    // The constructs above are *legal* at jobs = 1 (the sequential
    // kernel executes them in pid order); only parallel evaluation
    // must reject them.
    let mut sim = SimOptions::new().jobs(1).build();
    let s = sim.signal("s", 0u32);
    let s1 = s.clone();
    let s2 = s.clone();
    let sr = s.clone();
    sim.spawn("a", move |mut ctx| async move { s1.write(&mut ctx, 1) });
    sim.spawn("b", move |mut ctx| async move { s2.write(&mut ctx, 2) });
    sim.run().unwrap();
    assert_eq!(sr.read(), 2);
}

#[test]
fn attribution_forces_sequential_fallback_with_identical_results() {
    let build = fifo_pairs(3, 20, 2);
    let run = |jobs: usize| {
        let mut sim = SimOptions::new().jobs(jobs).attribution(true).build();
        build(&mut sim);
        let s = sim.run().unwrap();
        (s, sim.metrics())
    };
    let (s1, _) = run(1);
    let (s8, m8) = run(8);
    assert_eq!(s1, s8);
    // Every evaluate phase fell back (attribution is order-sensitive),
    // and the fallback is counted.
    assert_eq!(m8.counter("kernel.par.rounds"), Some(0));
    assert!(m8.counter("kernel.par.seq_fallbacks").unwrap_or(0) > 0);
}

#[test]
fn parallel_metrics_report_rounds_and_effects() {
    let build = fifo_pairs(4, 30, 1);
    let mut sim = SimOptions::new().jobs(4).build();
    build(&mut sim);
    sim.run().unwrap();
    let m = sim.metrics();
    assert_eq!(m.counter("kernel.par.jobs"), Some(4));
    assert!(m.counter("kernel.par.rounds").unwrap_or(0) > 0);
    let workers = m.counter("kernel.par.workers").unwrap_or(0);
    assert!((2..=4).contains(&workers), "workers = {workers}");
    assert!(m.counter("kernel.par.effects").unwrap_or(0) > 0);
}

#[test]
fn process_panic_is_still_reported_under_parallel_evaluation() {
    let mut sim = SimOptions::new().jobs(4).build();
    sim.spawn("calm", |mut ctx| async move { ctx.wait(Time::ns(1)).await });
    sim.spawn("bad", |_ctx| async { panic!("deliberate test panic") });
    sim.spawn(
        "calm2",
        |mut ctx| async move { ctx.wait(Time::ns(1)).await },
    );
    match sim.run() {
        Err(SimError::ProcessPanic { process, message }) => {
            assert_eq!(process, "bad");
            assert!(message.contains("deliberate"));
        }
        other => panic!("expected ProcessPanic, got {other:?}"),
    }
}
