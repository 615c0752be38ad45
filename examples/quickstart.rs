//! Quickstart: estimate a two-process producer/consumer model.
//!
//! Shows the complete workflow of the paper's methodology:
//!
//! 1. declare a platform (one CPU),
//! 2. configure and build a simulation `Session` (processes + channels),
//! 3. write the computation against the annotated `G` types,
//! 4. run the strict-timed simulation and read the report.
//!
//! Run with `cargo run --release --example quickstart`.

use scperf::prelude::*;

fn main() -> Result<(), SimError> {
    // 1. Platform: a 100 MHz processor with the default RISC cost table
    //    and 150 cycles of RTOS overhead per channel access.
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 150.0);

    // 2. The model: a producer computing dot products, a consumer
    //    averaging them, connected by a FIFO — all owned by one session.
    let mut session = SimConfig::new()
        .platform(platform)
        .mode(Mode::StrictTimed)
        .build();
    let ch = session.fifo::<i64>("dots", 4);

    const VECTORS: usize = 50;
    const DIM: usize = 64;

    let tx = ch.clone();
    session.spawn("producer", cpu, move |mut ctx| async move {
        for v in 0..VECTORS {
            // 3. Annotated computation: every operator charges its cost.
            let mut acc = g_i64(0);
            g_for!(i in 0..DIM => {
                let a = G::raw((v * DIM + i) as i64 % 93);
                let b = G::raw((i * 7) as i64 % 31);
                acc.assign(acc + a * b);
            });
            tx.write(&mut ctx, acc.get()).await; // segment boundary (channel node)
        }
    });

    let rx = ch.clone();
    session.spawn("consumer", cpu, move |mut ctx| async move {
        let mut total = g_i64(0);
        for _ in 0..VECTORS {
            let v = g_i64(rx.read(&mut ctx).await);
            total.assign(total + v);
        }
        let avg = total / G::raw(VECTORS as i64);
        ctx.emit_trace("average", avg.get().to_string());
    });

    // 4. Run and report.
    let summary = session.run()?;
    println!("simulated end-to-end time: {}", summary.end_time);
    println!();

    let report = session.report();
    print!("{report}");
    println!();

    let producer = report.process("producer").expect("producer reported");
    println!(
        "producer: {:.0} estimated cycles over {} segments (mean {:.1} cycles/segment)",
        producer.total_cycles,
        producer.segment_executions,
        producer.mean_segment_cycles()
    );
    println!();
    println!("process graph of 'producer' (Graphviz DOT):");
    println!("{}", ProcessGraph::from_report(producer).to_dot());
    Ok(())
}
