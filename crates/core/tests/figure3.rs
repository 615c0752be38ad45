//! Reproduction of the paper's Figure 3 worked example.
//!
//! Cost table: `=`:2, `+`:1, `<`:3, `[]`:5, `if`:2.4, call:18.
//! Segment between `ch1.read()` and `ch2.read()`:
//!
//! ```c
//! ch1.read();
//! if (i < 0) i = c + d;    // time += t_if + t_<  (5.4);  += t_= + t_+  (8.4)
//! datai = array[i];        // time += t_= + t_[]  (15.4)
//! datao = func(datai);     // time += t_= + t_fc  (35.4); func adds 40.4 (75.8)
//! ch2.read();
//! ```
//!
//! The paper's running totals: 5.4 → 8.4 → 15.4 → 35.4 → **75.8** cycles.

use scperf_core::{g_call, g_if, CostTable, GArr, Mode, PerfModel, Platform, G};
use scperf_kernel::Simulator;
use scperf_kernel::Time;

/// `func` is constructed to contribute exactly 40.4 cycles with the Figure 3
/// table, *including* its one argument copy (an assign, 2): 1 branch (2.4)
/// + 1 comparison (3) + 5 index (25) + 4 assign (8).
fn func(x: G<i32>) -> G<i32> {
    let scratch = GArr::<i32>::zeroed(8);
    g_if!((x < 0) {});
    let mut last = G::raw(0);
    for i in 0..4 {
        last.assign(scratch.at_raw(i)); // [] + =  per iteration
    }
    let _ = scratch.at_raw(5); // final []
    last
}

#[test]
fn figure3_segment_costs_75_8_cycles() {
    let mut platform = Platform::new();
    // 100 MHz CPU, no RTOS cost so the segment time is pure computation.
    let cpu = platform.sequential("cpu", Time::ns(10), CostTable::figure3(), 0.0);

    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let ch1 = model.fifo::<i32>(&mut sim, "ch1", 1);
    let ch2 = model.fifo::<i32>(&mut sim, "ch2", 1);

    let (ch1_w, ch1_r) = (ch1.clone(), ch1);
    let (ch2_w, ch2_r) = (ch2.clone(), ch2);
    sim.spawn("env", move |mut ctx| async move {
        ch1_w.raw().write(&mut ctx, 0).await;
        ch2_w.raw().write(&mut ctx, 0).await;
    });
    model.spawn(&mut sim, "proc", cpu, move |mut ctx| async move {
        let mut i = G::raw(-1_i32);
        let c = G::raw(20_i32);
        let d = G::raw(22_i32);
        let array = GArr::<i32>::from_vec(vec![7; 8]);
        let mut datai = G::raw(0);
        let mut datao = G::raw(0);

        let _ = ch1_r.read(&mut ctx).await; // node: segment of interest starts here
        g_if!((i < 0) {
            i.assign(c + d);
        });
        datai.assign(array.at_raw(0));
        datao.assign(g_call!(func(datai)));
        let _ = ch2_r.read(&mut ctx).await; // node: segment of interest ends here
        let _ = datao;
    });
    sim.run().unwrap();

    let report = model.report();
    let proc = report.process("proc").unwrap();
    let seg = proc
        .segment("ch1.read", "ch2.read")
        .expect("segment ch1.read -> ch2.read recorded");
    assert_eq!(seg.stats.count, 1);
    assert!(
        (seg.stats.total_cycles - 75.8).abs() < 1e-9,
        "expected the paper's 75.8 cycles, got {}",
        seg.stats.total_cycles
    );
    // On the 100 MHz clock that is 758 ns.
    assert_eq!(seg.stats.total_time, Time::ps(758_000));
}

#[test]
fn figure3_condition_false_skips_branch_body() {
    // When the condition does not hold, only t_if + t_< accrue for the if.
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), CostTable::figure3(), 0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let ch1 = model.fifo::<i32>(&mut sim, "ch1", 1);
    let ch2 = model.fifo::<i32>(&mut sim, "ch2", 1);

    let (ch1_w, ch1_r) = (ch1.clone(), ch1);
    let (ch2_w, ch2_r) = (ch2.clone(), ch2);
    sim.spawn("env", move |mut ctx| async move {
        ch1_w.raw().write(&mut ctx, 0).await;
        ch2_w.raw().write(&mut ctx, 0).await;
    });
    model.spawn(&mut sim, "proc", cpu, move |mut ctx| async move {
        let mut i = G::raw(1_i32); // positive: branch body skipped
        let c = G::raw(20_i32);
        let d = G::raw(22_i32);
        let _ = ch1_r.read(&mut ctx).await;
        g_if!((i < 0) {
            i.assign(c + d);
        });
        let _ = ch2_r.read(&mut ctx).await;
    });
    sim.run().unwrap();

    let report = model.report();
    let seg = report
        .process("proc")
        .unwrap()
        .segment("ch1.read", "ch2.read")
        .unwrap()
        .stats
        .clone();
    assert!(
        (seg.total_cycles - 5.4).abs() < 1e-9,
        "got {}",
        seg.total_cycles
    );
}
