//! Thread-coexistence audit for the estimator (PR 2 tentpole support).
//!
//! The design-space-exploration engine runs one `Simulator` + `PerfModel`
//! per worker thread, many workers per process. These tests pin the
//! invariants that makes that safe:
//!
//! * all estimator state is per-`PerfModel` (`Arc<EstimatorShared>`), not
//!   process-global, so concurrent models cannot observe each other;
//! * the `thread_local!` estimation context is installed on the *process*
//!   threads the kernel spawns (fresh per simulation), never on the
//!   worker thread driving `Simulator::run`;
//! * segment-cost replay ([`PerfModel::spawn_replaying`]) reproduces a
//!   live run's strict-timed schedule bit-exactly.

use scperf_core::{charge_op, timed_wait, CostTable, Mode, Op, PerfModel, Platform, Replay};
use scperf_kernel::{Simulator, Time};

/// Charges exactly `n` unit-cost Adds into the running segment.
fn burn(n: u64) {
    for _ in 0..n {
        charge_op(Op::Add);
    }
}

/// A two-process strict-timed scenario parameterized by a seed so each
/// concurrent instance computes different numbers: a producer charges
/// work then writes frames to a FIFO; a consumer reads and charges more.
/// Returns (end_time, producer cycles, consumer cycles).
fn run_pipeline(seed: u64) -> (Time, f64, f64) {
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let fifo = model.fifo::<u64>(&mut sim, "frames", 2);

    let tx = fifo.clone();
    model.spawn(&mut sim, "producer", cpu, move |mut ctx| async move {
        for i in 0..4_u64 {
            burn(100 + seed % 7 + i);
            tx.write(&mut ctx, i).await;
        }
    });
    model.spawn(&mut sim, "consumer", cpu, move |mut ctx| async move {
        for _ in 0..4 {
            let v = fifo.read(&mut ctx).await;
            burn(50 + v);
            timed_wait(&mut ctx, Time::ns(30)).await;
        }
    });

    let stats = sim.run().unwrap();
    let report = model.report();
    (
        stats.end_time,
        report.process("producer").unwrap().total_cycles,
        report.process("consumer").unwrap().total_cycles,
    )
}

#[test]
fn concurrent_models_match_sequential_oracle() {
    // Sequential oracle first…
    let expected: Vec<_> = (0..6).map(run_pipeline).collect();

    // …then the same six scenarios on six concurrent worker threads.
    let got: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6_u64)
            .map(|seed| scope.spawn(move || run_pipeline(seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(got, expected, "concurrent simulations must not interact");
}

#[test]
fn nested_simulation_on_a_process_thread_is_isolated() {
    // A process body that itself constructs and runs an inner simulation
    // (as a DSE evaluation inside a larger harness might). The inner
    // model's processes are polled on this same thread, so every inner
    // poll must stash the outer process's estimation context and put it
    // back untouched.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "outer", cpu, |_ctx| {
        burn(10);
        let (inner_end, _, _) = run_pipeline(3);
        assert!(inner_end > Time::ZERO);
        burn(10);
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.end_time, Time::ns(200), "20 cycles @ 10ns");
}

/// Runs the pipeline once while recording per-segment cycle traces,
/// returning (end_time, per-process traces).
fn record_traces(seed: u64) -> (Time, Replay, Replay) {
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let recorder = model.recorder();
    let fifo = model.fifo::<u64>(&mut sim, "frames", 2);

    let tx = fifo.clone();
    model.spawn(&mut sim, "producer", cpu, move |mut ctx| async move {
        for i in 0..4_u64 {
            burn(100 + seed % 7 + i);
            tx.write(&mut ctx, i).await;
        }
    });
    model.spawn(&mut sim, "consumer", cpu, move |mut ctx| async move {
        for _ in 0..4 {
            let v = fifo.read(&mut ctx).await;
            burn(50 + v);
            timed_wait(&mut ctx, Time::ns(30)).await;
        }
    });
    let stats = sim.run().unwrap();
    (
        stats.end_time,
        recorder.replay("producer").unwrap(),
        recorder.replay("consumer").unwrap(),
    )
}

#[test]
fn replayed_run_matches_live_run_bit_exactly() {
    let seed = 5;
    let (live_end, prod_trace, cons_trace) = record_traces(seed);
    assert!(!prod_trace.is_empty() && !cons_trace.is_empty());

    // Replay: identical channel-access structure, but the bodies do NOT
    // charge anything — cycles come from the recorded traces.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let fifo = model.fifo::<u64>(&mut sim, "frames", 2);

    let tx = fifo.clone();
    model.spawn_replaying(
        &mut sim,
        "producer",
        cpu,
        prod_trace.clone(),
        move |mut ctx| async move {
            for i in 0..4_u64 {
                // plain body: no charging at all
                tx.write(&mut ctx, i).await;
            }
        },
    );
    model.spawn_replaying(
        &mut sim,
        "consumer",
        cpu,
        cons_trace,
        move |mut ctx| async move {
            for _ in 0..4 {
                let _ = fifo.read(&mut ctx).await;
                timed_wait(&mut ctx, Time::ns(30)).await;
            }
        },
    );

    let stats = sim.run().unwrap();
    assert_eq!(stats.end_time, live_end, "replay must be bit-identical");
    let report = model.report();
    let live_total: f64 = prod_trace.cycles().iter().sum();
    assert_eq!(report.process("producer").unwrap().total_cycles, live_total);
}

#[test]
fn replay_with_charging_body_still_uses_trace() {
    // Even if the replayed body accidentally runs annotated code, the
    // charges are ignored and the trace wins — charging in replay mode
    // is a hard no-op.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn_replaying(&mut sim, "p", cpu, Replay::new(vec![40.0]), |_ctx| {
        burn(1_000_000); // ignored
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.end_time, Time::ns(400), "40 cycles @ 10ns");
}
