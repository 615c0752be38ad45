//! Cross-crate smoke for the root test suite: the kernel, the estimator,
//! the vocoder workload and the simulation service exercised together on
//! one cheap scenario (the 2-frame vocoder on a mixed CPU/CPU/HW
//! platform). Every way the workspace can execute that scenario — live
//! estimation, hybrid replay of recorded segment costs, warm-started
//! cost programs, the parallel evaluate phase and a snapshot fork — must
//! produce the same report and the same stage checksums, bit for bit;
//! and one `sim` request must make the round trip through
//! `Service::handle_line`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scperf::prelude::*;
use scperf::serve::json::parse;
use scperf::serve::{Responder, Service, ServiceConfig};
use scperf::workloads::vocoder::pipeline::{self, StageTrace, VocoderMapping, STAGE_NAMES};

const NFRAMES: usize = 2;

/// What one run reports; compared whole across execution paths.
#[derive(Debug, PartialEq)]
struct Outcome {
    summary: SimSummary,
    report: Report,
    stages: [Option<i32>; 5],
    output: Option<i32>,
}

fn platform() -> (Platform, VocoderMapping) {
    let mut platform = Platform::new();
    let cpu0 = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 120.0);
    let cpu1 = platform.sequential("cpu1", Time::ns(8), CostTable::risc_sw(), 80.0);
    let hw = platform.parallel("hw", Time::ns(5), CostTable::asic_hw(), 0.5);
    let mapping = VocoderMapping {
        lsp: cpu0,
        lpc_int: cpu1,
        acb: hw,
        icb: cpu0,
        post: cpu1,
    };
    (platform, mapping)
}

/// Elaborates the vocoder into `session` (replaying `replays` where
/// given), runs it and collects the outcome.
fn run(session: &mut Session, mapping: VocoderMapping, replays: [StageTrace; 5]) -> Outcome {
    let handles = {
        let (sim, model) = session.parts_mut();
        pipeline::build_hybrid(sim, model, mapping, NFRAMES, replays)
    };
    let summary = session.run().expect("vocoder simulates");
    let stages = *handles.stages.lock();
    let output = *handles.output.lock();
    Outcome {
        summary,
        report: session.report(),
        stages,
        output,
    }
}

fn replays_of(lookup: impl Fn(&str) -> Option<Replay>) -> [StageTrace; 5] {
    STAGE_NAMES.map(|name| Some(lookup(name).expect("stage trace recorded")))
}

#[test]
fn vocoder_is_bit_identical_across_live_replay_programs_parallel_and_fork() {
    let reference = scperf::workloads::vocoder::run_reference(NFRAMES);
    let (plat, mapping) = platform();

    // Live estimation, recording every stage's segment costs.
    let mut live = SimConfig::new()
        .platform(plat.clone())
        .record_costs()
        .build();
    let handles = {
        let (sim, model) = live.parts_mut();
        pipeline::build(sim, model, mapping, NFRAMES)
    };
    let summary = live.run().expect("live vocoder simulates");
    let recorder = live.recorder();
    let stages = *handles.stages.lock();
    let output = *handles.output.lock();
    let expected = Outcome {
        summary,
        report: live.report(),
        stages,
        output,
    };
    let reference_stages = reference.checksums.map(Some);
    assert_eq!(expected.stages, reference_stages, "stage checksums");
    assert_eq!(expected.output, Some(reference.checksums[4]));
    assert!(expected.summary.end_time > Time::ZERO);

    // Hybrid replay: every stage pops its recorded costs.
    let replayed = run(
        &mut SimConfig::new().platform(plat.clone()).build(),
        mapping,
        replays_of(|n| recorder.replay(n)),
    );
    assert_eq!(replayed, expected, "hybrid replay diverged from live");

    // Cost programs recorded by the live run, replayed from the start.
    let programs = Arc::new(live.programs());
    assert!(
        !programs.is_empty(),
        "the live run compiled no cost programs"
    );
    let mut warm_session = SimConfig::new()
        .platform(plat.clone())
        .program_set(programs)
        .build();
    let warm = run(&mut warm_session, mapping, Default::default());
    assert_eq!(warm, expected, "warm cost programs diverged from live");
    let warm_hits = warm_session.metrics().counter("est.prog.warm_hits");
    assert!(warm_hits.is_some_and(|n| n > 0), "no warm program replayed");

    // The parallel evaluate phase, estimating live.
    let parallel = run(
        &mut SimConfig::new().platform(plat.clone()).jobs(2).build(),
        mapping,
        Default::default(),
    );
    assert_eq!(parallel, expected, "jobs = 2 diverged from jobs = 1");

    // A snapshot of the live session, forked and replayed.
    let snapshot = live.snapshot();
    let forked = run(
        &mut snapshot.fork(),
        mapping,
        replays_of(|n| snapshot.replay(n)),
    );
    assert_eq!(forked, expected, "snapshot fork diverged from live");
}

#[test]
fn service_answers_one_sim_request() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (responder, lines) = Responder::collector();
    service.handle_line(
        r#"{"id":"smoke","mapping":["cpu0","cpu1","hw","cpu0","cpu1"],"nframes":2}"#,
        &responder,
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    let line = loop {
        if let Some(line) = lines.lock().first().cloned() {
            break line;
        }
        assert!(Instant::now() < deadline, "no response within 60 s");
        std::thread::sleep(Duration::from_millis(2));
    };
    let reply = parse(&line).expect("response is JSON");
    assert_eq!(reply.get("id").and_then(|v| v.as_str()), Some("smoke"));
    assert_eq!(
        reply.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{line}"
    );
    let end = reply.get("end_time_ps").and_then(|v| v.as_u64());
    assert!(end.is_some_and(|ps| ps > 0), "{line}");
    service.drain();
}
