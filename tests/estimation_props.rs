//! Property-based tests of the estimation library's invariants, driven
//! by randomized annotated programs.

use proptest::collection::vec;
use proptest::prelude::*;
use scperf::core::{charge_op, timed_wait, CostTable, Mode, Op, PerfModel, Platform, ResourceKind};
use scperf::kernel::{Simulator, Time};

const CLOCK: Time = Time::ns(10);

/// A randomized straight-line "program": a list of (op, count) bursts
/// separated by waits.
fn run_bursts(
    kind: ResourceKind,
    mode: Mode,
    k: f64,
    rtos: f64,
    bursts: Vec<(u8, u16)>,
) -> (scperf::core::Report, Time) {
    let mut platform = Platform::new();
    let table = CostTable::risc_sw();
    let r = match kind {
        ResourceKind::Sequential => platform.sequential("cpu", CLOCK, table, rtos),
        ResourceKind::Parallel => platform.parallel("hw", CLOCK, table, k),
        ResourceKind::Environment => platform.environment("env"),
    };
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, mode);
    model.spawn(&mut sim, "p", r, move |mut ctx| async move {
        for (op_idx, n) in bursts {
            let op = scperf::core::ALL_OPS[op_idx as usize % scperf::core::OP_COUNT];
            for _ in 0..n {
                charge_op(op);
            }
            timed_wait(&mut ctx, Time::ZERO).await;
        }
    });
    let summary = sim.run().expect("burst program runs");
    (model.report(), summary.end_time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The process total equals the sum over its segments, and segment
    /// min/max bracket the mean.
    #[test]
    fn totals_are_sums_of_segments(bursts in vec((any::<u8>(), 0_u16..200), 1..12)) {
        let (report, _) =
            run_bursts(ResourceKind::Sequential, Mode::EstimateOnly, 0.0, 0.0, bursts);
        let p = report.process("p").unwrap();
        let seg_sum: f64 = p.segments.iter().map(|s| s.stats.total_cycles).sum();
        prop_assert!((seg_sum - p.total_cycles).abs() < 1e-6);
        for s in &p.segments {
            let mean = s.stats.total_cycles / s.stats.count as f64;
            prop_assert!(s.stats.min_cycles <= mean + 1e-9);
            prop_assert!(mean <= s.stats.max_cycles + 1e-9);
        }
    }

    /// Strict-timed simulated end time equals computation + RTOS for a
    /// single sequential process (no contention).
    #[test]
    fn single_process_end_time_is_exact(bursts in vec((any::<u8>(), 0_u16..200), 1..10)) {
        let (report, end) =
            run_bursts(ResourceKind::Sequential, Mode::StrictTimed, 0.0, 150.0, bursts);
        let p = report.process("p").unwrap();
        let expect = p.total_time + p.rtos_time;
        // Rounding: each segment is rounded to ps independently.
        let slack = Time::ps(p.segment_executions);
        prop_assert!(end >= expect.saturating_sub(slack) && end <= expect.saturating_add(slack),
            "end {end} vs expected {expect}");
    }

    /// The estimate is invariant to the simulation mode: timed and untimed
    /// runs report identical cycles.
    #[test]
    fn estimates_are_mode_invariant(bursts in vec((any::<u8>(), 0_u16..150), 1..8)) {
        let (a, _) = run_bursts(
            ResourceKind::Sequential, Mode::EstimateOnly, 0.0, 100.0, bursts.clone());
        let (b, _) = run_bursts(
            ResourceKind::Sequential, Mode::StrictTimed, 0.0, 100.0, bursts);
        prop_assert_eq!(
            a.process("p").unwrap().total_cycles,
            b.process("p").unwrap().total_cycles
        );
    }

    /// On parallel resources, the annotated time is monotone in k and
    /// bracketed by the T_min / T_max extremes.
    #[test]
    fn hw_k_is_monotone(bursts in vec((any::<u8>(), 1_u16..100), 1..6)) {
        let mut prev = 0.0_f64;
        for i in 0..=4 {
            let k = i as f64 / 4.0;
            let (report, _) = run_bursts(
                ResourceKind::Parallel, Mode::EstimateOnly, k, 0.0, bursts.clone());
            let total = report.process("p").unwrap().total_cycles;
            prop_assert!(total + 1e-9 >= prev, "k={k}: {total} < {prev}");
            prev = total;
        }
    }

    /// Environment processes never accumulate cycles, in any mode.
    #[test]
    fn environment_is_free(bursts in vec((any::<u8>(), 0_u16..300), 1..8)) {
        for mode in [Mode::EstimateOnly, Mode::StrictTimed] {
            let (report, end) =
                run_bursts(ResourceKind::Environment, mode, 0.0, 0.0, bursts.clone());
            prop_assert_eq!(report.process("p").unwrap().total_cycles, 0.0);
            prop_assert_eq!(end, Time::ZERO);
        }
    }

    /// Two identical processes sharing one CPU finish in exactly twice the
    /// single-process computation time (plus RTOS), regardless of the
    /// workload.
    #[test]
    fn shared_cpu_doubles_the_makespan(n in 1_u16..2000) {
        let run = |procs: usize| -> Time {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu", CLOCK, CostTable::risc_sw(), 0.0);
            let mut sim = Simulator::new();
            let model = PerfModel::new(platform, Mode::StrictTimed);
            for i in 0..procs {
                model.spawn(&mut sim, format!("p{i}"), cpu, move |_ctx| {
                    for _ in 0..n {
                        charge_op(Op::Add);
                    }
                });
            }
            sim.run().unwrap().end_time
        };
        let one = run(1);
        let two = run(2);
        prop_assert_eq!(two.as_ps(), one.as_ps() * 2);
    }
}
