//! Observability tour: tracing, metrics, profiling and sink export on a
//! small strict-timed model.
//!
//! Demonstrates the full `scperf::obs` surface:
//!
//! 1. enable compact in-memory tracing (interned symbols, no `String`
//!    per record) through the `SimConfig` builder and read the trace
//!    back as raw events,
//! 2. snapshot kernel + estimator metrics at end of simulation,
//! 3. profile host-time scheduler phases with `profile::span`,
//! 4. export a Chrome `trace_event` JSON document loadable in Perfetto
//!    (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Run with `cargo run --release --example observability`. Writes
//! `observability_trace.json` into the working directory.

use scperf::prelude::obs::chrome::ChromeTrace;
use scperf::prelude::obs::profile;
use scperf::prelude::*;

fn main() -> Result<(), SimError> {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 150.0);

    // 1. Tracing: a bounded ring keeps the most recent window, so a
    //    long simulation cannot exhaust memory. Use
    //    `TraceMode::Unbounded` for a complete buffer. The config also
    //    turns on per-segment samples, which feed the Chrome spans.
    let mut session = SimConfig::new()
        .platform(platform)
        .mode(Mode::StrictTimed)
        .tracing(TraceMode::Ring(10_000))
        .record_instantaneous()
        .build();

    // 3. Profiling: host-time spans around the scheduler phases (and
    //    any user code wrapped in `profile::span("...")`).
    profile::reset();
    profile::set_enabled(true);

    let ch = session.fifo::<i64>("dots", 4);

    let tx = ch.clone();
    session.spawn("producer", cpu, move |mut ctx| async move {
        for v in 0..40i64 {
            let mut acc = g_i64(0);
            for i in 0..32i64 {
                acc.assign(acc + G::raw(v * 32 + i) * G::raw(i % 7));
            }
            tx.write(&mut ctx, acc.get()).await;
        }
    });
    let rx = ch;
    session.spawn("consumer", cpu, move |mut ctx| async move {
        let mut total = g_i64(0);
        for _ in 0..40 {
            total.assign(total + g_i64(rx.read(&mut ctx).await));
        }
        ctx.emit_trace("total", total.get().to_string());
    });

    let summary = session.run()?;
    profile::set_enabled(false);
    println!(
        "simulated end: {} ({} deltas)\n",
        summary.end_time, summary.deltas
    );

    // 2. Metrics: kernel internals and estimator internals merge into
    //    one ordered snapshot (also JSON-renderable via `to_json()`).
    let metrics = session.metrics();
    println!("metrics snapshot:\n{metrics}");

    // 1b. The trace as compact events.
    let table = session.take_events();
    println!(
        "trace: {} compact events, {} interned strings, {} dropped by the ring",
        table.len(),
        table.strings.len(),
        table.dropped
    );
    for ev in table.events.iter().take(5) {
        println!(
            "  t={:<12} δ{:<3} {:<10} {:<12} {}",
            Time::ps(ev.time_ps).to_string(),
            ev.delta,
            table.process_name(ev),
            table.resolve(ev.label),
            ev.payload
        );
    }

    // 4. Chrome trace export: kernel events as per-process instant
    //    tracks plus the estimator's per-segment spans.
    let mut chrome = ChromeTrace::from_table(&table);
    chrome.merge(session.model().chrome_trace());
    chrome
        .write_to("observability_trace.json")
        .expect("write trace json");
    println!(
        "\nwrote observability_trace.json ({} events) — load it in Perfetto",
        chrome.len()
    );

    // 3b. Host-time profile report.
    println!("\nhost-time spans:");
    for (name, stats) in profile::report() {
        println!(
            "  {name:<16} total {:?} over {} calls",
            stats.total, stats.count
        );
    }
    Ok(())
}
