//! Property tests for the session pool's determinism contract: a
//! recycled (reset) slot — estimating live or replaying traces recorded
//! on an earlier slot — must be bit-identical to a freshly built
//! session — summary, report, trace and produced data — at every
//! parallel-evaluate width, and an errored run must never poison the
//! slot it ran in.

use std::sync::Arc;

use proptest::prelude::*;
use scperf_core::{
    g_i64, CostTable, InstanceLimits, Platform, Replay, ResourceId, Session, SessionPool, SimConfig,
};
use scperf_kernel::{SimError, Time, TraceMode};
use scperf_sync::Mutex;

fn platform() -> (Platform, ResourceId, ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
    let hw = p.parallel("hw", Time::ns(10), CostTable::asic_hw(), 0.5);
    (p, cpu, hw)
}

fn config(jobs: usize) -> SimConfig {
    SimConfig::new()
        .platform(platform().0)
        .tracing(TraceMode::Unbounded)
        .jobs(jobs)
}

/// Recorded traces of the two stages, `(gen, xform)`.
type Traces = (Replay, Replay);

/// The two-stage pipeline under test: `gen` (annotated, on the CPU)
/// streams derived values into `xform` (annotated, on the accelerator),
/// and an untimed sink collects the results. When `traces` is given the
/// stages elaborate in replay mode with *plain* bodies computing the
/// same values — the cache-replay fast path.
fn elaborate(
    session: &mut Session,
    cpu: ResourceId,
    hw: ResourceId,
    nitems: usize,
    seed: i64,
    traces: Option<&Traces>,
) -> Arc<Mutex<Vec<i64>>> {
    let mid = session.fifo::<i64>("mid", 2);
    let out = session.fifo::<i64>("out", 2);
    let collected: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));

    let gen_value = move |i: usize| -> i64 {
        let mut acc = seed;
        for k in 0..4 {
            acc += (i + k) as i64 * 3;
        }
        acc
    };
    let tx = mid.clone();
    match traces.map(|t| t.0.clone()) {
        Some(replay) => {
            session.spawn_replaying("gen", cpu, replay, move |mut ctx| async move {
                for i in 0..nitems {
                    tx.write(&mut ctx, gen_value(i)).await;
                }
            });
        }
        None => {
            session.spawn("gen", cpu, move |mut ctx| async move {
                for i in 0..nitems {
                    let mut acc = g_i64(seed);
                    for k in 0..4 {
                        acc = acc + g_i64((i + k) as i64) * g_i64(3);
                    }
                    tx.write(&mut ctx, acc.get()).await;
                }
            });
        }
    }

    let rx = mid;
    let tx = out.clone();
    match traces.map(|t| t.1.clone()) {
        Some(replay) => {
            session.spawn_replaying("xform", hw, replay, move |mut ctx| async move {
                for _ in 0..nitems {
                    let v = rx.read(&mut ctx).await;
                    tx.write(&mut ctx, v * 2 - 1).await;
                }
            });
        }
        None => {
            session.spawn("xform", hw, move |mut ctx| async move {
                for _ in 0..nitems {
                    let v = rx.read(&mut ctx).await;
                    let r = g_i64(v) * g_i64(2) - g_i64(1);
                    tx.write(&mut ctx, r.get()).await;
                }
            });
        }
    }

    let sink = Arc::clone(&collected);
    session.spawn_untimed("sink", move |mut ctx| async move {
        for _ in 0..nitems {
            let v = out.read(&mut ctx).await;
            sink.lock().push(v);
        }
    });
    collected
}

/// Everything a run must reproduce bit for bit.
fn observe(session: &mut Session, collected: &Mutex<Vec<i64>>) -> impl PartialEq + std::fmt::Debug {
    let summary = session.run().expect("determinate pipeline");
    (
        summary,
        session.report(),
        session.take_events().events,
        collected.lock().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fresh vs reset vs recycled-and-replayed: identical down to the
    /// trace, for random workload sizes and seeds at jobs ∈ {1, 2, 8}.
    #[test]
    fn fresh_reset_and_replayed_sessions_are_bit_identical(
        nitems in 1usize..12,
        seed in -50_i64..50,
        jobs_idx in 0usize..3,
    ) {
        let jobs = [1, 2, 8][jobs_idx];
        let (_, cpu, hw) = platform();

        let mut fresh = config(jobs).build();
        let data = elaborate(&mut fresh, cpu, hw, nitems, seed, None);
        let oracle = observe(&mut fresh, &data);

        // Reset: run an unrelated scenario first so the slot is dirty.
        let mut recycled = config(jobs).build();
        recycled.spawn("other", cpu, |_ctx| {
            let _ = g_i64(5) * g_i64(7);
        });
        recycled.run().expect("warmup scenario");
        recycled.reset();
        let data = elaborate(&mut recycled, cpu, hw, nitems, seed, None);
        prop_assert_eq!(&observe(&mut recycled, &data), &oracle);

        // Replayed: a fresh slot records the stage traces, then the
        // recycled slot replays them.
        let pool = SessionPool::new(InstanceLimits::default(), move || config(jobs).build());
        let traces = {
            let mut slot = pool.acquire().expect("free slot");
            let recorder = slot.recorder();
            let data = elaborate(&mut slot, cpu, hw, nitems, seed, None);
            prop_assert_eq!(&observe(&mut slot, &data), &oracle);
            (
                recorder.replay("gen").expect("gen recorded"),
                recorder.replay("xform").expect("xform recorded"),
            )
        };
        let mut slot = pool.acquire().expect("free slot");
        let data = elaborate(&mut slot, cpu, hw, nitems, seed, Some(&traces));
        prop_assert_eq!(&observe(&mut slot, &data), &oracle);
        prop_assert_eq!(pool.stats().hits, 1, "the slot was recycled");
    }
}

#[test]
fn a_non_determinate_run_does_not_poison_its_slot() {
    // Conflicting same-delta signal writes are reported as
    // NonDeterminate under parallel evaluation; the slot that hosted
    // the failed run must come back from the pool reset and produce a
    // run bit-identical to a fresh session.
    let (_, cpu, hw) = platform();
    let pool = SessionPool::new(
        InstanceLimits {
            max_sessions: 1,
            ..InstanceLimits::default()
        },
        || config(4).build(),
    );

    {
        let mut slot = pool.acquire().expect("free slot");
        let sim = slot.sim();
        let s = sim.signal("s", 0_u32);
        let s1 = s.clone();
        let s2 = s;
        sim.spawn("a", move |mut ctx| async move { s1.write(&mut ctx, 1) });
        sim.spawn("b", move |mut ctx| async move { s2.write(&mut ctx, 2) });
        match slot.run() {
            Err(SimError::NonDeterminate { .. }) => {}
            other => panic!("expected NonDeterminate, got {other:?}"),
        }
    }

    let mut fresh = config(4).build();
    let data = elaborate(&mut fresh, cpu, hw, 6, 7, None);
    let oracle = observe(&mut fresh, &data);

    let mut slot = pool.acquire().expect("the slot was recycled");
    let data = elaborate(&mut slot, cpu, hw, 6, 7, None);
    assert_eq!(observe(&mut slot, &data), oracle);
    assert_eq!(pool.stats().resets, 1, "release after the failed run");
}
