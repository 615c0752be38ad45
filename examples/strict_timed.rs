//! Untimed vs strict-timed simulation (the paper's Figure 5) and the §6
//! non-determinism check.
//!
//! The same three-process model is simulated twice: untimed (pure
//! delta-cycle order) and strict-timed (back-annotated segment times, with
//! P2 and P3 serialized on a shared CPU while P1 runs on HW). Then
//! `determinism::check` verifies the model's outcome does not depend on
//! the scheduling change.
//!
//! Run with `cargo run --release --example strict_timed`.

use scperf::prelude::*;

const CLOCK: Time = Time::ns(10);

/// A dependent add chain of `n` operations: `n` cycles of critical path on
/// HW, `n` add-costs on a CPU.
fn burn(n: u64) {
    let mut x = G::raw(0_i64);
    for _ in 0..n {
        x = x + G::raw(1);
    }
    let _ = x;
}

fn platform() -> (Platform, ResourceId, ResourceId) {
    let mut p = Platform::new();
    let hw = p.parallel("res1 (HW)", CLOCK, CostTable::asic_hw(), 1.0);
    let cpu = p.sequential("res0 (SW)", CLOCK, CostTable::risc_sw(), 100.0);
    (p, hw, cpu)
}

fn build(sim: &mut Simulator, model: &PerfModel, hw: ResourceId, cpu: ResourceId) {
    let s1 = model.signal(sim, "s1", 0_i32);
    let s2 = model.signal(sim, "s2", 0_i32);
    let s3 = model.signal(sim, "s3", 0_i32);
    model.spawn(sim, "P1", hw, move |mut ctx| async move {
        for i in 1..=3 {
            burn(400); // sg4
            s1.write(&mut ctx, i).await;
            timed_wait(&mut ctx, Time::ZERO).await;
        }
    });
    model.spawn(sim, "P2", cpu, move |mut ctx| async move {
        for i in 1..=3 {
            burn(300); // sg1
            s2.write(&mut ctx, i).await;
            timed_wait(&mut ctx, Time::ZERO).await;
        }
    });
    model.spawn(sim, "P3", cpu, move |mut ctx| async move {
        for i in 1..=3 {
            burn(500); // sg2
            s3.write(&mut ctx, i).await;
            timed_wait(&mut ctx, Time::ZERO).await;
        }
    });
}

fn run(mode: Mode) -> Vec<TraceRecord> {
    let (p, hw, cpu) = platform();
    let mut session = SimConfig::new()
        .platform(p)
        .mode(mode)
        .tracing(TraceMode::Unbounded)
        .build();
    {
        let (sim, model) = session.parts_mut();
        build(sim, model, hw, cpu);
    }
    session.run().expect("model runs");
    session.sim().take_trace()
}

fn main() {
    println!("--- untimed (delta-cycle) simulation ---");
    for r in run(Mode::EstimateOnly) {
        println!("{r}");
    }
    println!();
    println!("--- strict-timed simulation (P1 on HW; P2, P3 share the CPU) ---");
    for r in run(Mode::StrictTimed) {
        println!("{r}");
    }

    println!();
    let (p, hw, cpu) = platform();
    let outcome = determinism::check(&p, move |sim, model| build(sim, model, hw, cpu))
        .expect("both runs complete");
    if outcome.deterministic {
        println!("determinism check: PASS — the mapping changed only timing, not behaviour");
    } else {
        println!(
            "determinism check: FAIL — processes with diverging behaviour: {:?}",
            outcome.differing
        );
    }
}
