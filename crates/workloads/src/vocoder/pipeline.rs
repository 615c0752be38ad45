//! The concurrent vocoder model: five analyzed processes connected by
//! FIFO channels, plus an environment source and sink.
//!
//! This is the system-level specification the paper's Table 3 measures:
//! the sequential ETSI code "divided in the 5 concurrent processes".

use std::sync::Arc;

use scperf_core::{GArr, PerfModel, Replay, ResourceId, G};
use scperf_kernel::Simulator;
use scperf_sync::Mutex;

use super::{checksum_acc, speech_frames, stages, MAX_LAG, ORDER};

/// The message flowing through the pipeline: each stage fills in its
/// fields and forwards the frame.
#[derive(Debug, Clone, Default)]
pub struct FrameMsg {
    /// Input speech (160 samples).
    pub speech: Vec<i32>,
    /// LPC coefficients (10, Q12) — set by LSP estimation.
    pub lpc: Vec<i32>,
    /// Interpolated coefficients (40) — set by LPC interpolation.
    pub aq: Vec<i32>,
    /// Residual (160) — set by ACB search.
    pub res: Vec<i32>,
    /// Adaptive-codebook contribution (160) — set by ACB search.
    pub acb: Vec<i32>,
    /// Complete excitation (160) — set by ICB search.
    pub exc: Vec<i32>,
    /// Decoded speech (160) — set by post-processing.
    pub out: Vec<i32>,
}

/// The architectural mapping of the five processes.
#[derive(Debug, Clone, Copy)]
pub struct VocoderMapping {
    /// Resource of "LSP estim.".
    pub lsp: ResourceId,
    /// Resource of "LPC int.".
    pub lpc_int: ResourceId,
    /// Resource of "ACB sear.".
    pub acb: ResourceId,
    /// Resource of "ICB sear.".
    pub icb: ResourceId,
    /// Resource of "Post Proc.".
    pub post: ResourceId,
}

impl VocoderMapping {
    /// Maps all five processes to one resource (the Table 3 setup: all SW
    /// on one processor).
    pub fn all_on(r: ResourceId) -> VocoderMapping {
        VocoderMapping {
            lsp: r,
            lpc_int: r,
            acb: r,
            icb: r,
            post: r,
        }
    }
}

/// The sink-side result, filled when the simulation completes.
pub type OutputChecksum = Arc<Mutex<Option<i32>>>;

/// Per-stage checksums exported by the analyzed processes after their last
/// frame (same folding as the reference pipeline and the ISS stage
/// programs).
pub type StageChecksums = Arc<Mutex<[Option<i32>; 5]>>;

/// Handles to everything the vocoder model reports back after `sim.run()`.
#[derive(Debug, Clone)]
pub struct VocoderHandles {
    /// Final decoded-output checksum (from the sink).
    pub output: OutputChecksum,
    /// Per-stage checksums, in pipeline order.
    pub stages: StageChecksums,
}

/// The five process names, in pipeline order, exactly as the paper's
/// Table 3 rows.
pub const STAGE_NAMES: [&str; 5] = [
    "LSP estim.",
    "LPC int.",
    "ACB sear.",
    "ICB sear.",
    "Post Proc.",
];

/// An optional recorded per-segment cycle trace for one stage, as
/// handed out by a [`scperf_core::Recorder`] after a run with
/// segment-cost recording enabled.
pub type StageTrace = Option<Replay>;

/// Elaborates the full vocoder model into `sim`/`model`: an environment
/// source feeding `nframes` frames, the five analyzed stage processes
/// connected by FIFOs, and an environment sink. Returns a handle that
/// holds the output checksum after `sim.run()`.
pub fn build(
    sim: &mut Simulator,
    model: &PerfModel,
    mapping: VocoderMapping,
    nframes: usize,
) -> VocoderHandles {
    build_hybrid(sim, model, mapping, nframes, [None, None, None, None, None])
}

/// Like [`build`], but stages with a recorded segment-cost trace run in
/// *replay* mode: the stage executes its plain (un-annotated)
/// implementation — so data still flows and checksums still hold — while
/// every segment's cycles are popped from the trace instead of being
/// re-estimated operation by operation. Timing is bit-identical to the
/// live run the trace was recorded from; host time drops because all
/// operator-overloading overhead disappears.
///
/// This is the workhorse of the design-space-exploration memoization
/// cache ([`scperf_dse`](../../../scperf_dse/index.html)): a stage's
/// per-segment cycles depend only on its own code, input data and the
/// cost model of the resource it is mapped to — not on where the *other*
/// stages are mapped — so a trace recorded once per `(stage, resource
/// cost model, nframes)` is valid across every mapping that shares them.
pub fn build_hybrid(
    sim: &mut Simulator,
    model: &PerfModel,
    mapping: VocoderMapping,
    nframes: usize,
    replays: [StageTrace; 5],
) -> VocoderHandles {
    let ch_in = model.fifo::<FrameMsg>(sim, "speech_in", 2);
    let ch_lsp = model.fifo::<FrameMsg>(sim, "lsp_out", 2);
    let ch_lpc = model.fifo::<FrameMsg>(sim, "lpcint_out", 2);
    let ch_acb = model.fifo::<FrameMsg>(sim, "acb_out", 2);
    let ch_icb = model.fifo::<FrameMsg>(sim, "icb_out", 2);
    let ch_out = model.fifo::<FrameMsg>(sim, "speech_out", 2);

    // Environment source: synthesizes the input frames (not analyzed).
    {
        let tx = ch_in.clone();
        sim.spawn("source", move |mut ctx| async move {
            for frame in speech_frames(nframes) {
                tx.write(
                    &mut ctx,
                    FrameMsg {
                        speech: frame,
                        ..FrameMsg::default()
                    },
                )
                .await;
            }
        });
    }

    let stage_chks: StageChecksums = Arc::new(Mutex::new([None; 5]));
    let [rp_lsp, rp_lpc, rp_acb, rp_icb, rp_post] = replays;

    // LSP estimation.
    {
        let rx = ch_in.clone();
        let tx = ch_lsp.clone();
        let chks = Arc::clone(&stage_chks);
        match rp_lsp {
            Some(trace) => {
                model.spawn_replaying(
                    sim,
                    STAGE_NAMES[0],
                    mapping.lsp,
                    trace,
                    move |mut ctx| async move {
                        let mut chk = 0_i32;
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            msg.lpc = stages::lsp_plain(&msg.speech);
                            chk = checksum_acc(chk, &msg.lpc);
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[0] = Some(chk);
                    },
                );
            }
            None => {
                model.spawn(
                    sim,
                    STAGE_NAMES[0],
                    mapping.lsp,
                    move |mut ctx| async move {
                        let mut chk = G::raw(0_i32);
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let speech = GArr::from_slice(&msg.speech);
                            msg.lpc = stages::lsp_annotated(&speech, &mut chk).into_vec();
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[0] = Some(chk.get());
                    },
                );
            }
        }
    }

    // LPC interpolation.
    {
        let rx = ch_lsp.clone();
        let tx = ch_lpc.clone();
        let chks = Arc::clone(&stage_chks);
        match rp_lpc {
            Some(trace) => {
                model.spawn_replaying(
                    sim,
                    STAGE_NAMES[1],
                    mapping.lpc_int,
                    trace,
                    move |mut ctx| async move {
                        let mut state = stages::LpcIntState::new();
                        let mut chk = 0_i32;
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            msg.aq = stages::lpcint_plain(&mut state, &msg.lpc);
                            chk = checksum_acc(chk, &msg.aq);
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[1] = Some(chk);
                    },
                );
            }
            None => {
                model.spawn(
                    sim,
                    STAGE_NAMES[1],
                    mapping.lpc_int,
                    move |mut ctx| async move {
                        let mut prev = GArr::<i32>::zeroed(ORDER);
                        let mut chk = G::raw(0_i32);
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let lpc = GArr::from_slice(&msg.lpc);
                            msg.aq = stages::lpcint_annotated(&mut prev, &lpc, &mut chk).into_vec();
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[1] = Some(chk.get());
                    },
                );
            }
        }
    }

    // Adaptive-codebook search.
    {
        let rx = ch_lpc.clone();
        let tx = ch_acb.clone();
        let chks = Arc::clone(&stage_chks);
        match rp_acb {
            Some(trace) => {
                model.spawn_replaying(
                    sim,
                    STAGE_NAMES[2],
                    mapping.acb,
                    trace,
                    move |mut ctx| async move {
                        let mut state = stages::AcbState::new();
                        let mut chk = 0_i32;
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let (res, acb, lags, gains) =
                                stages::acb_plain(&mut state, &msg.speech, &msg.aq);
                            msg.res = res;
                            msg.acb = acb;
                            chk = checksum_acc(checksum_acc(chk, &lags), &gains);
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[2] = Some(chk);
                    },
                );
            }
            None => {
                model.spawn(
                    sim,
                    STAGE_NAMES[2],
                    mapping.acb,
                    move |mut ctx| async move {
                        let mut hist = GArr::<i32>::zeroed(MAX_LAG);
                        let mut chk = G::raw(0_i32);
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let speech = GArr::from_slice(&msg.speech);
                            let aq = GArr::from_slice(&msg.aq);
                            let (res, acb, _lags, _gains) =
                                stages::acb_annotated(&mut hist, &speech, &aq, &mut chk);
                            msg.res = res.into_vec();
                            msg.acb = acb.into_vec();
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[2] = Some(chk.get());
                    },
                );
            }
        }
    }

    // Innovative-codebook search.
    {
        let rx = ch_acb.clone();
        let tx = ch_icb.clone();
        let chks = Arc::clone(&stage_chks);
        match rp_icb {
            Some(trace) => {
                model.spawn_replaying(
                    sim,
                    STAGE_NAMES[3],
                    mapping.icb,
                    trace,
                    move |mut ctx| async move {
                        let mut chk = 0_i32;
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            msg.exc = stages::icb_plain(&msg.res, &msg.acb);
                            chk = checksum_acc(chk, &msg.exc);
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[3] = Some(chk);
                    },
                );
            }
            None => {
                model.spawn(
                    sim,
                    STAGE_NAMES[3],
                    mapping.icb,
                    move |mut ctx| async move {
                        let mut chk = G::raw(0_i32);
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let res = GArr::from_slice(&msg.res);
                            let acb = GArr::from_slice(&msg.acb);
                            msg.exc = stages::icb_annotated(&res, &acb, &mut chk).into_vec();
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[3] = Some(chk.get());
                    },
                );
            }
        }
    }

    // Post-processing.
    {
        let rx = ch_icb.clone();
        let tx = ch_out.clone();
        let chks = Arc::clone(&stage_chks);
        match rp_post {
            Some(trace) => {
                model.spawn_replaying(
                    sim,
                    STAGE_NAMES[4],
                    mapping.post,
                    trace,
                    move |mut ctx| async move {
                        let mut state = stages::PostState::new();
                        let mut chk = 0_i32;
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            msg.out = stages::post_plain(&mut state, &msg.aq, &msg.exc);
                            chk = checksum_acc(chk, &msg.out);
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[4] = Some(chk);
                    },
                );
            }
            None => {
                model.spawn(
                    sim,
                    STAGE_NAMES[4],
                    mapping.post,
                    move |mut ctx| async move {
                        let mut synth_hist = GArr::<i32>::zeroed(ORDER);
                        let mut deemph = G::raw(0_i32);
                        let mut chk = G::raw(0_i32);
                        for _ in 0..nframes {
                            let mut msg = rx.read(&mut ctx).await;
                            let aq = GArr::from_slice(&msg.aq);
                            let exc = GArr::from_slice(&msg.exc);
                            msg.out = stages::post_annotated(
                                &mut synth_hist,
                                &mut deemph,
                                &aq,
                                &exc,
                                &mut chk,
                            )
                            .into_vec();
                            tx.write(&mut ctx, msg).await;
                        }
                        chks.lock()[4] = Some(chk.get());
                    },
                );
            }
        }
    }

    // Environment sink: accumulates the output checksum.
    let result: OutputChecksum = Arc::new(Mutex::new(None));
    {
        let result = Arc::clone(&result);
        let rx = ch_out.clone();
        sim.spawn("sink", move |mut ctx| async move {
            let mut checksum = 0_i32;
            for _ in 0..nframes {
                let msg = rx.read(&mut ctx).await;
                checksum = checksum_acc(checksum, &msg.out);
            }
            *result.lock() = Some(checksum);
        });
    }
    VocoderHandles {
        output: result,
        stages: stage_chks,
    }
}

/// Elaborates the *plain* (un-annotated) vocoder into `sim`: the same five
/// processes and channels built directly on the kernel with the reference
/// stage implementations. This is the "original SystemC specification"
/// whose host simulation time Table 3's overhead column compares against.
pub fn build_plain(sim: &mut Simulator, nframes: usize) -> OutputChecksum {
    let ch_in = sim.fifo::<FrameMsg>("speech_in", 2);
    let ch_lsp = sim.fifo::<FrameMsg>("lsp_out", 2);
    let ch_lpc = sim.fifo::<FrameMsg>("lpcint_out", 2);
    let ch_acb = sim.fifo::<FrameMsg>("acb_out", 2);
    let ch_icb = sim.fifo::<FrameMsg>("icb_out", 2);
    let ch_out = sim.fifo::<FrameMsg>("speech_out", 2);

    {
        let tx = ch_in.clone();
        sim.spawn("source", move |mut ctx| async move {
            for frame in speech_frames(nframes) {
                tx.write(
                    &mut ctx,
                    FrameMsg {
                        speech: frame,
                        ..FrameMsg::default()
                    },
                )
                .await;
            }
        });
    }
    {
        let (rx, tx) = (ch_in.clone(), ch_lsp.clone());
        sim.spawn(STAGE_NAMES[0], move |mut ctx| async move {
            for _ in 0..nframes {
                let mut msg = rx.read(&mut ctx).await;
                msg.lpc = stages::lsp_plain(&msg.speech);
                tx.write(&mut ctx, msg).await;
            }
        });
    }
    {
        let (rx, tx) = (ch_lsp.clone(), ch_lpc.clone());
        sim.spawn(STAGE_NAMES[1], move |mut ctx| async move {
            let mut state = stages::LpcIntState::new();
            for _ in 0..nframes {
                let mut msg = rx.read(&mut ctx).await;
                msg.aq = stages::lpcint_plain(&mut state, &msg.lpc);
                tx.write(&mut ctx, msg).await;
            }
        });
    }
    {
        let (rx, tx) = (ch_lpc.clone(), ch_acb.clone());
        sim.spawn(STAGE_NAMES[2], move |mut ctx| async move {
            let mut state = stages::AcbState::new();
            for _ in 0..nframes {
                let mut msg = rx.read(&mut ctx).await;
                let (res, acb, _lags, _gains) = stages::acb_plain(&mut state, &msg.speech, &msg.aq);
                msg.res = res;
                msg.acb = acb;
                tx.write(&mut ctx, msg).await;
            }
        });
    }
    {
        let (rx, tx) = (ch_acb.clone(), ch_icb.clone());
        sim.spawn(STAGE_NAMES[3], move |mut ctx| async move {
            for _ in 0..nframes {
                let mut msg = rx.read(&mut ctx).await;
                msg.exc = stages::icb_plain(&msg.res, &msg.acb);
                tx.write(&mut ctx, msg).await;
            }
        });
    }
    {
        let (rx, tx) = (ch_icb.clone(), ch_out.clone());
        sim.spawn(STAGE_NAMES[4], move |mut ctx| async move {
            let mut state = stages::PostState::new();
            for _ in 0..nframes {
                let mut msg = rx.read(&mut ctx).await;
                msg.out = stages::post_plain(&mut state, &msg.aq, &msg.exc);
                tx.write(&mut ctx, msg).await;
            }
        });
    }
    let result: OutputChecksum = Arc::new(Mutex::new(None));
    {
        let result = Arc::clone(&result);
        let rx = ch_out.clone();
        sim.spawn("sink", move |mut ctx| async move {
            let mut checksum = 0_i32;
            for _ in 0..nframes {
                let msg = rx.read(&mut ctx).await;
                checksum = checksum_acc(checksum, &msg.out);
            }
            *result.lock() = Some(checksum);
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::{CostTable, Mode, Platform};
    use scperf_kernel::Time;

    #[test]
    fn plain_pipeline_matches_reference() {
        let nframes = 4;
        let reference = crate::vocoder::run_reference(nframes);
        let mut sim = Simulator::new();
        let result = build_plain(&mut sim, nframes);
        let summary = sim.run().unwrap();
        assert_eq!(result.lock().unwrap(), reference.checksums[4]);
        // Untimed: everything happens in delta cycles at t = 0.
        assert_eq!(summary.end_time, Time::ZERO);
    }

    #[test]
    fn pipeline_matches_reference_and_is_timed() {
        let nframes = 4;
        let reference = crate::vocoder::run_reference(nframes);

        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let handles = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
        let summary = sim.run().unwrap();

        assert_eq!(
            handles.output.lock().expect("sink finished"),
            reference.checksums[4],
            "strict-timed pipeline output differs from reference"
        );
        let stage_chks = *handles.stages.lock();
        for (i, chk) in stage_chks.iter().enumerate() {
            assert_eq!(
                chk.expect("stage finished"),
                reference.checksums[i],
                "stage {} checksum differs",
                STAGE_NAMES[i]
            );
        }
        assert!(summary.end_time > Time::ZERO);

        let report = model.report();
        for name in STAGE_NAMES {
            let p = report
                .process(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(p.total_cycles > 0.0, "{name} has no estimate");
            assert!(p.rtos_time > Time::ZERO, "{name} charged no RTOS time");
        }
        // All five share one CPU: busy time must not exceed end time.
        assert!(report.resources[0].busy_time <= summary.end_time);
    }

    #[test]
    fn untimed_and_timed_agree_functionally() {
        let nframes = 3;
        let run = |mode: Mode| -> i32 {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
            let mut sim = Simulator::new();
            let model = PerfModel::new(platform, mode);
            let handles = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
            sim.run().unwrap();
            let out = handles.output.lock().expect("sink finished");
            out
        };
        assert_eq!(run(Mode::EstimateOnly), run(Mode::StrictTimed));
    }

    #[test]
    fn hybrid_replay_matches_live_run_bit_exactly() {
        let nframes = 3;
        let reference = crate::vocoder::run_reference(nframes);
        let build_platform = || {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
            (platform, cpu)
        };

        // Live run with trace recording on.
        let (platform, cpu) = build_platform();
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let recorder = model.recorder();
        let live = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
        let live_end = sim.run().unwrap().end_time;
        let live_report = model.report();
        let traces: Vec<Replay> = STAGE_NAMES
            .iter()
            .map(|n| recorder.replay(n).unwrap())
            .collect();
        // One trace entry per read node + write node per frame, plus exit.
        assert!(traces.iter().all(|t| t.len() == 2 * nframes + 1));

        // Replay run: all five stages replayed from the recorded traces.
        let (platform, cpu) = build_platform();
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let replays: [StageTrace; 5] = std::array::from_fn(|i| Some(traces[i].clone()));
        let replayed = build_hybrid(
            &mut sim,
            &model,
            VocoderMapping::all_on(cpu),
            nframes,
            replays,
        );
        let replay_end = sim.run().unwrap().end_time;

        assert_eq!(replay_end, live_end, "replay must be bit-identical");
        assert_eq!(*replayed.stages.lock(), *live.stages.lock());
        assert_eq!(
            replayed.output.lock().unwrap(),
            reference.checksums[4],
            "replayed pipeline must still produce correct data"
        );
        let replay_report = model.report();
        for name in STAGE_NAMES {
            assert_eq!(
                replay_report.process(name).unwrap().total_cycles,
                live_report.process(name).unwrap().total_cycles,
                "{name} cycles differ under replay"
            );
        }
    }

    #[test]
    fn post_on_hw_still_matches() {
        let nframes = 3;
        let reference = crate::vocoder::run_reference(nframes);
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
        let hw = platform.parallel("post_asic", Time::ns(10), CostTable::asic_hw(), 0.0);
        let mut mapping = VocoderMapping::all_on(cpu);
        mapping.post = hw;
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let handles = build(&mut sim, &model, mapping, nframes);
        sim.run().unwrap();
        assert_eq!(handles.output.lock().unwrap(), reference.checksums[4]);
    }
}
