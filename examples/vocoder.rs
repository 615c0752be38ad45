//! The GSM-like vocoder case study (the paper's §5 concurrent example):
//! five analyzed processes on one CPU, with capture points on the frame
//! boundary for rate analysis.
//!
//! Run with `cargo run --release --example vocoder [nframes]`.

use scperf::prelude::workloads::vocoder;
use scperf::prelude::*;

fn main() -> Result<(), SimError> {
    let nframes: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);

    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 150.0);

    let mut session = SimConfig::new()
        .platform(platform)
        .mode(Mode::StrictTimed)
        .build();
    let handles = {
        let (sim, model) = session.parts_mut();
        vocoder::pipeline::build(
            sim,
            model,
            vocoder::pipeline::VocoderMapping::all_on(cpu),
            nframes,
        )
    };

    // A capture point on every decoded frame: its event list gives the
    // output frame rate (the paper's §4 "response times, throughputs,
    // input and output rates").
    let frame_tick = session.capture_point("frame_out");
    // Hook it through a monitor process watching the output channel is not
    // needed — the sink is in build(); instead we capture from a light
    // observer on simulated time.
    let cp = frame_tick.clone();
    session.spawn_untimed("rate_probe", move |mut ctx| async move {
        // Sample simulated time once per millisecond of simulated time.
        for _ in 0..200 {
            ctx.wait(Time::ms(1)).await;
            cp.capture_value(&ctx, ctx.now().as_us_f64());
        }
    });

    let summary = session.run()?;
    let reference = vocoder::run_reference(nframes);
    let out = handles.output.lock().expect("sink finished");
    assert_eq!(
        out, reference.checksums[4],
        "output must match the reference"
    );

    println!(
        "vocoder: {nframes} frames decoded correctly, simulated time {}",
        summary.end_time
    );
    println!();
    let report = session.report();
    print!("{report}");

    println!();
    println!("per-process estimated times:");
    for name in vocoder::pipeline::STAGE_NAMES {
        let p = report.process(name).expect("stage reported");
        println!(
            "  {:<12} {:>12.0} cycles  {:>12}  (+ RTOS {})",
            p.name,
            p.total_cycles,
            p.total_time.to_string(),
            p.rtos_time
        );
    }

    let captures = session.captures();
    let ticks = &captures[0];
    println!();
    println!(
        "capture point '{}': {} events, mean interval {:?}",
        ticks.name,
        ticks.events.len(),
        ticks.mean_interval()
    );
    println!("Matlab export of the first events:");
    let head = CaptureList {
        name: ticks.name.clone(),
        events: ticks.events.iter().take(8).copied().collect(),
    };
    print!("{}", head.to_matlab());
    Ok(())
}
