//! Lost-wakeup regression tests for the scheduler's poll loop.
//!
//! A process suspends by awaiting a kernel wait, which registers its
//! wake-up in a waiter set or the timed queue; the scheduler polls it
//! again only once that wake-up fires. The failure mode of such a design
//! is a *lost wakeup*: a registration the scheduler never acts on, after
//! which the process is silently never polled again. Every test here
//! drives a blocking-channel pattern that would end early (or with a
//! wrong result) if a wakeup were lost.

use scperf_kernel::trace::functional_projection;
use scperf_kernel::{SimOptions, Simulator, Time};

/// Consumer blocks on an empty FIFO; the producer only writes after a
/// timed wait, so every read requires a block → timed-wakeup → unblock
/// round trip through the poll loop.
#[test]
fn fifo_read_wakes_blocked_consumer() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("ch", 1);
    let tx = ch.clone();
    sim.spawn("producer", move |mut ctx| async move {
        for i in 0..200u32 {
            ctx.wait(Time::ns(3)).await;
            tx.write(&mut ctx, i).await;
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |mut ctx| async move {
        let mut sum = 0u64;
        for _ in 0..200 {
            sum += u64::from(rx.read(&mut ctx).await);
        }
        assert_eq!(sum, 199 * 200 / 2);
    });
    let summary = sim.run().expect("no deadlock");
    assert_eq!(summary.end_time, Time::ns(600));
}

/// Producer blocks on a *full* FIFO; the consumer drains slowly, so every
/// write requires the symmetric blocked-writer wakeup.
#[test]
fn fifo_write_wakes_blocked_producer() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("narrow", 1);
    let tx = ch.clone();
    sim.spawn("producer", move |mut ctx| async move {
        for i in 0..100u32 {
            tx.write(&mut ctx, i).await; // blocks while the slot is occupied
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |mut ctx| async move {
        for expected in 0..100u32 {
            ctx.wait(Time::ns(5)).await;
            assert_eq!(rx.read(&mut ctx).await, expected);
        }
    });
    sim.run().unwrap_or_else(|e| panic!("{e:?}"));
}

/// `try_read` must never block, and a poller alternating `try_read` with
/// timed waits must still observe every item exactly once.
#[test]
fn try_read_polls_without_losing_items() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("polled", 2);
    let tx = ch.clone();
    sim.spawn("producer", move |mut ctx| async move {
        for i in 0..50u32 {
            ctx.wait(Time::ns(7)).await;
            tx.write(&mut ctx, i).await;
        }
    });
    let rx = ch;
    sim.spawn("poller", move |mut ctx| async move {
        let mut got = Vec::new();
        while got.len() < 50 {
            while let Some(v) = rx.try_read(&mut ctx) {
                got.push(v);
            }
            if got.len() < 50 {
                ctx.wait(Time::ns(2)).await;
            }
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    });
    sim.run().unwrap_or_else(|e| panic!("{e:?}"));
}

/// Event delta- and delayed-notification both wake a waiting process; a
/// ping-pong over two events exercises back-to-back activations in the same
/// delta cycle.
#[test]
fn event_notification_wakes_waiter() {
    let mut sim = Simulator::new();
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    let (p1, g1) = (ping.clone(), pong.clone());
    // The waiter spawns first: delta notification snapshots the waiter
    // set at notify time, so "b" must already be parked on `ping` when
    // "a" first notifies.
    sim.spawn("b", move |mut ctx| async move {
        for _ in 0..100 {
            ctx.wait_event(&p1).await;
            g1.notify_delayed(Time::ns(1));
        }
    });
    sim.spawn("a", move |mut ctx| async move {
        for _ in 0..100 {
            ping.notify_delta();
            ctx.wait_event(&pong).await;
        }
    });
    let summary = sim.run().unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(summary.end_time, Time::ns(100));
}

/// A wait far beyond the time wheel's ~68.7 ms span lands in the overflow
/// map; it must still fire, in order, interleaved with near-term waits.
#[test]
fn far_future_wait_crosses_wheel_span() {
    let mut sim = Simulator::new();
    sim.enable_tracing();
    sim.spawn("near", |mut ctx| async move {
        for i in 0..4 {
            ctx.wait(Time::ms(10)).await;
            ctx.emit_trace("tick", format!("near{i}"));
        }
    });
    sim.spawn("far", |mut ctx| async move {
        ctx.wait(Time::ms(100)).await; // > 2^36 ps wheel span → overflow path
        ctx.emit_trace("tick", "far");
    });
    let summary = sim.run().expect("runs");
    assert_eq!(summary.end_time, Time::ms(100));
    let order: Vec<String> = sim
        .take_trace()
        .into_iter()
        .filter(|r| r.label == "tick")
        .map(|r| r.detail)
        .collect();
    assert_eq!(order, vec!["near0", "near1", "near2", "near3", "far"]);
}

/// `run_until` may pause the simulation at an arbitrary wall between two
/// timed events; resuming must not drop or reorder pending wakeups.
#[test]
fn run_until_stepping_preserves_pending_wakeups() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("ch", 4);
    let tx = ch.clone();
    sim.spawn("producer", move |mut ctx| async move {
        for i in 0..10u32 {
            ctx.wait(Time::us(1)).await;
            tx.write(&mut ctx, i).await;
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |mut ctx| async move {
        let mut sum = 0u32;
        for _ in 0..10 {
            sum += rx.read(&mut ctx).await;
        }
        assert_eq!(sum, 45);
    });
    // Step through in awkward increments, including walls that land
    // between events and exactly on one.
    for limit_ns in [1_500, 3_000, 3_001, 9_999] {
        sim.run_until(Time::ns(limit_ns)).expect("step");
    }
    let summary = sim.run().expect("finish");
    assert_eq!(summary.end_time, Time::us(10));
}

/// The sequential poll loop and a parallel round must be observationally
/// identical: same summary, same trace, bit for bit, on a workload that
/// mixes blocking channels, events and timed waits.
#[test]
fn sequential_and_parallel_polling_produce_identical_traces() {
    fn run(jobs: usize) -> (scperf_kernel::SimSummary, Vec<(String, String, String)>) {
        let mut sim = SimOptions::new().jobs(jobs).build();
        sim.enable_tracing();
        let ch = sim.fifo::<u64>("ch", 2);
        let done = sim.event("done");
        let tx = ch.clone();
        sim.spawn("producer", move |mut ctx| async move {
            for i in 0..64u64 {
                if i % 3 == 0 {
                    ctx.wait(Time::ns(i)).await;
                }
                tx.write(&mut ctx, i.wrapping_mul(2654435761)).await;
            }
        });
        let rx = ch;
        let done_tx = done.clone();
        sim.spawn("consumer", move |mut ctx| async move {
            let mut chk = 0u64;
            for _ in 0..64 {
                chk = chk.wrapping_mul(31).wrapping_add(rx.read(&mut ctx).await);
                ctx.emit_trace("chk", chk.to_string());
            }
            done_tx.notify_delta();
        });
        sim.spawn("watcher", move |mut ctx| async move {
            ctx.wait_event(&done).await;
            ctx.emit_trace("watch", "done");
        });
        let summary = sim.run().expect("runs");
        let trace = functional_projection(&sim.take_trace());
        (summary, trace)
    }

    let (sum_seq, trace_seq) = run(1);
    for jobs in [2, 8] {
        let (sum_par, trace_par) = run(jobs);
        assert_eq!(sum_seq, sum_par, "jobs={jobs}");
        assert_eq!(trace_seq, trace_par, "jobs={jobs}");
    }
}
