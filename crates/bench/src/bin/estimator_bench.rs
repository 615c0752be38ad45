//! Estimator hot-path microbenchmarks: flat-TLS charging and
//! segment-site memoization, live against memoized against warm-started
//! programs, with absolute ns per charged operation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin estimator_bench -- [--reps N] [--quick]
//! ```
//!
//! Four benches:
//!
//! * **charge** — one process charging a tight stream of `Op::Add`s;
//!   the purest measure of the per-op charge cost.
//! * **plain_thread** — annotated `G` arithmetic on a thread with *no*
//!   installed estimation context: the absent-context path must be
//!   almost free (a single thread-local flag test per op).
//! * **fir** — the 64-tap/256-sample FIR workload, run live (no
//!   memoization) and memoized (segment sites replay).
//! * **vocoder** — the five-stage vocoder pipeline on one CPU, same two
//!   configurations plus a run warm-started from a shipped program set.
//!
//! Every configuration must produce bit-identical simulated time and
//! checksums — the bench asserts this — so the reported speedups are
//! pure host-time ratios at identical estimates. The configurations
//! compared by a ratio run in alternation, so both see the same host
//! load. Results go to `BENCH_estimator.json`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scperf_bench::host::write_host;
use scperf_core::{charge_op, CostTable, MemoMode, Op, Platform, ProgramSet, SimConfig, G};
use scperf_kernel::Time;
use scperf_obs::json::JsonWriter;
use scperf_workloads::fir;
use scperf_workloads::vocoder::pipeline::{self, VocoderMapping};

struct Args {
    reps: usize,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        reps: 5,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .expect("--reps expects a positive integer");
            }
            "--quick" => args.quick = true,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// How one session is configured: memoization off, or segment-site
/// replay (the default).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Live,
    Memoized,
}

impl Config {
    fn apply(self, cfg: SimConfig) -> SimConfig {
        cfg.site_memo(match self {
            Config::Live => MemoMode::Off,
            Config::Memoized => MemoMode::Replay,
        })
    }
}

/// One measured run: the simulated end time and checksum (for the
/// bit-identity assertions) plus the host time it took.
struct Run {
    end_time_ps: u64,
    checksum: i64,
    elapsed: Duration,
    site_hits: u64,
    fast_charges: u64,
}

/// Keeps the faster of `best` and `r` (noise only adds time).
fn keep_faster(best: &mut Option<Run>, r: Run) {
    if best.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
        *best = Some(r);
    }
}

fn sw_platform() -> (Platform, scperf_core::ResourceId) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
    (platform, cpu)
}

/// A tight stream of `ops` additions through the charging entry point.
/// With `attribution` the arbitration point additionally accounts
/// per-resource busy and contention time on every segment flush.
fn charge_stream(config: Config, ops: u64, attribution: bool) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config
        .apply(SimConfig::new().platform(platform).attribution(attribution))
        .build();
    session.spawn("charger", cpu, move |_ctx| {
        for _ in 0..ops {
            charge_op(Op::Add);
        }
    });
    let start = Instant::now();
    let summary = session.run().expect("charge stream runs");
    let hot = session.model().hot_stats();
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum: 0,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// Annotated arithmetic on a thread with no installed context: every
/// charge must reduce to one thread-local flag test.
fn plain_thread(ops: u64) -> Duration {
    std::thread::spawn(move || {
        let mut x = G::raw(1_i64);
        let one = G::raw(1_i64);
        let start = Instant::now();
        for _ in 0..ops {
            x.assign(x + one);
        }
        std::hint::black_box(x.get());
        start.elapsed()
    })
    .join()
    .expect("plain thread")
}

/// `iters` full FIR passes in one process.
fn fir_run(config: Config, iters: usize) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config.apply(SimConfig::new().platform(platform)).build();
    let out = Arc::new(Mutex::new(0_i64));
    let sink = Arc::clone(&out);
    session.spawn("fir", cpu, move |_ctx| {
        let mut acc = 0_i64;
        for _ in 0..iters {
            acc = acc.wrapping_add(fir::annotated() as i64);
        }
        *sink.lock().expect("sink") = acc;
    });
    let start = Instant::now();
    let summary = session.run().expect("fir runs");
    let hot = session.model().hot_stats();
    let checksum = *out.lock().expect("sink");
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// The five-stage pipeline, all stages on one CPU, `nframes` frames.
fn vocoder_run(config: Config, nframes: usize) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config.apply(SimConfig::new().platform(platform)).build();
    let handles = {
        let (sim, model) = session.parts_mut();
        pipeline::build(sim, model, VocoderMapping::all_on(cpu), nframes)
    };
    let start = Instant::now();
    let summary = session.run().expect("vocoder runs");
    let hot = session.model().hot_stats();
    let checksum = handles.output.lock().expect("pipeline finished") as i64;
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// The memoized vocoder pipeline warm-started from a shared program
/// set: every site replays from the first frame on. Returns the run and
/// the number of programs fetched out of the warm set.
fn vocoder_warm_run(set: Arc<ProgramSet>, nframes: usize) -> (Run, u64) {
    let (platform, cpu) = sw_platform();
    let mut session = Config::Memoized
        .apply(SimConfig::new().platform(platform).program_set(set))
        .build();
    let handles = {
        let (sim, model) = session.parts_mut();
        pipeline::build(sim, model, VocoderMapping::all_on(cpu), nframes)
    };
    let start = Instant::now();
    let summary = session.run().expect("warm vocoder runs");
    let hot = session.model().hot_stats();
    let checksum = handles.output.lock().expect("pipeline finished") as i64;
    (
        Run {
            end_time_ps: summary.end_time.as_ps(),
            checksum,
            elapsed: start.elapsed(),
            site_hits: hot.site_hits,
            fast_charges: hot.fast_charges,
        },
        hot.prog_warm_hits,
    )
}

/// Best-of-`reps` wall time per configuration, live and memoized runs
/// alternating, with bit-identity asserted between them.
fn bench(name: &'static str, reps: usize, run: impl Fn(Config) -> Run) -> BenchResult {
    let (mut live, mut memo) = (None, None);
    for _ in 0..reps {
        keep_faster(&mut live, run(Config::Live));
        keep_faster(&mut memo, run(Config::Memoized));
    }
    let (live, memo) = (live.expect("reps > 0"), memo.expect("reps > 0"));
    assert_eq!(
        live.end_time_ps, memo.end_time_ps,
        "{name}: memoization changed the estimate"
    );
    assert_eq!(live.checksum, memo.checksum, "{name}: data changed");
    assert_eq!(
        live.fast_charges, memo.fast_charges,
        "{name}: memoization changed the charged op count"
    );
    let r = BenchResult { name, live, memo };
    println!(
        "{:>12}: live {:>9.2?} ({:>6.2} ns/op)  memoized {:>9.2?} ({:>6.2} ns/op, {:>5.2}x, {} site hits)",
        r.name,
        r.live.elapsed,
        r.ns_per_op(&r.live),
        r.memo.elapsed,
        r.ns_per_op(&r.memo),
        r.memo_speedup(),
        r.memo.site_hits,
    );
    r
}

struct BenchResult {
    name: &'static str,
    live: Run,
    memo: Run,
}

impl BenchResult {
    /// Live over memoized wall time.
    fn memo_speedup(&self) -> f64 {
        self.live.elapsed.as_secs_f64() / self.memo.elapsed.as_secs_f64()
    }

    /// Host nanoseconds per charged operation of `run` (every
    /// configuration charges the same operations).
    fn ns_per_op(&self, run: &Run) -> f64 {
        run.elapsed.as_secs_f64() * 1e9 / self.live.fast_charges.max(1) as f64
    }
}

fn main() {
    let args = parse_args();
    let scale = if args.quick { 10 } else { 1 };
    let charge_ops = 4_000_000 / scale as u64;
    let plain_ops = 20_000_000 / scale as u64;
    let fir_iters = 20 / scale.min(10);
    let voc_frames = 20 / scale.min(10);
    let attr_pairs = 4 * args.reps + 1;

    println!(
        "estimator hot-path microbench (best of {} reps{})",
        args.reps,
        if args.quick { ", quick" } else { "" }
    );

    // The absent-context case first: it needs no session at all.
    let mut plain_best = Duration::MAX;
    for _ in 0..args.reps {
        plain_best = plain_best.min(plain_thread(plain_ops));
    }
    let plain_ns_per_op = plain_best.as_secs_f64() * 1e9 / plain_ops as f64;
    println!(
        "{:>12}: {:>9.2?} for {} ops ({:.2} ns/op, no context installed)",
        "plain_thread", plain_best, plain_ops, plain_ns_per_op
    );

    let results = [
        bench("charge", args.reps, |c| charge_stream(c, charge_ops, false)),
        bench("fir", args.reps, |c| fir_run(c, fir_iters)),
        bench("vocoder", args.reps, |c| vocoder_run(c, voc_frames)),
    ];

    // Attribution overhead: busy/contention accounting on the memoized
    // charge stream. Off and on run back to back in pairs (alternating
    // which goes first), so both halves of a pair see the same host
    // load; the overhead is the median of the per-pair ratios. The
    // estimate must stay bit-identical and the overhead ≤ 5%.
    let mut ratios = Vec::with_capacity(attr_pairs);
    let (mut attr_off, mut attr_on) = (None, None);
    for pair in 0..attr_pairs {
        let measure = |on| charge_stream(Config::Memoized, charge_ops, on);
        let (off, on) = if pair % 2 == 0 {
            let off = measure(false);
            (off, measure(true))
        } else {
            let on = measure(true);
            (measure(false), on)
        };
        assert_eq!(
            off.end_time_ps, on.end_time_ps,
            "charge: attribution changed the estimate"
        );
        ratios.push(on.elapsed.as_secs_f64() / off.elapsed.as_secs_f64());
        keep_faster(&mut attr_off, off);
        keep_faster(&mut attr_on, on);
    }
    let (base, attr) = (attr_off.expect("pairs > 0"), attr_on.expect("pairs > 0"));
    ratios.sort_by(f64::total_cmp);
    let attr_overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        " attribution: off {:>9.2?}  on {:>9.2?}  overhead {:+.2}% (median of {} pairs, {:+.2}% .. {:+.2}%)",
        base.elapsed,
        attr.elapsed,
        attr_overhead * 100.0,
        attr_pairs,
        (ratios[0] - 1.0) * 100.0,
        (ratios[ratios.len() - 1] - 1.0) * 100.0,
    );

    // Cross-process program sharing: harvest the memoized vocoder's
    // compiled programs, round-trip them through the wire encoding, and
    // warm-start fresh sessions from the decoded set — the serialize →
    // ship → charge path `scperf-serve` and `scperf-dse` use.
    let harvested = {
        let (platform, cpu) = sw_platform();
        let mut session = Config::Memoized
            .apply(SimConfig::new().platform(platform))
            .build();
        {
            let (sim, model) = session.parts_mut();
            pipeline::build(sim, model, VocoderMapping::all_on(cpu), voc_frames);
        }
        session.run().expect("harvest vocoder runs");
        session.programs()
    };
    let wire = harvested.to_bytes();
    let decoded = Arc::new(ProgramSet::from_bytes(&wire).expect("program set round-trips"));
    assert_eq!(
        *decoded, harvested,
        "wire round-trip changed the program set"
    );
    let mut warm_best: Option<Run> = None;
    let mut warm_hits = 0;
    for _ in 0..args.reps {
        let (r, hits) = vocoder_warm_run(Arc::clone(&decoded), voc_frames);
        warm_hits = hits;
        keep_faster(&mut warm_best, r);
    }
    let warm = warm_best.expect("reps > 0");
    let vocoder = &results[2];
    assert_eq!(
        vocoder.live.end_time_ps, warm.end_time_ps,
        "vocoder: warm-started programs changed the estimate"
    );
    assert_eq!(
        vocoder.live.checksum, warm.checksum,
        "vocoder: warm-started programs changed the data"
    );
    assert!(
        warm_hits > 0,
        "warm run fetched nothing from the shared set"
    );
    let prog_speedup = vocoder.live.elapsed.as_secs_f64() / warm.elapsed.as_secs_f64();
    println!(
        "    programs: {} bytes on the wire, warm {:>9.2?} ({:>6.2} ns/op, {:>5.2}x over live, {} warm fetches)",
        wire.len(),
        warm.elapsed,
        vocoder.ns_per_op(&warm),
        prog_speedup,
        warm_hits,
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut w = JsonWriter::new();
    w.begin_object();
    write_host(&mut w, args.quick, cores);
    w.key("reps");
    w.value_u64(args.reps as u64);
    w.key("quick");
    w.value_bool(args.quick);
    w.key("attribution");
    w.begin_object();
    w.key("bench");
    w.value_str("charge/memoized");
    w.key("pairs");
    w.value_u64(attr_pairs as u64);
    w.key("off_seconds");
    w.value_f64(base.elapsed.as_secs_f64());
    w.key("on_seconds");
    w.value_f64(attr.elapsed.as_secs_f64());
    w.key("overhead_pct");
    w.value_f64(attr_overhead * 100.0);
    w.key("estimates_identical");
    w.value_bool(true);
    w.end_object();
    w.key("plain_thread");
    w.begin_object();
    w.key("ops");
    w.value_u64(plain_ops);
    w.key("seconds");
    w.value_f64(plain_best.as_secs_f64());
    w.key("ns_per_op");
    w.value_f64(plain_ns_per_op);
    w.end_object();
    w.key("benches");
    w.begin_array();
    for r in &results {
        w.begin_object();
        w.key("name");
        w.value_str(r.name);
        w.key("end_time_ps");
        w.value_u64(r.live.end_time_ps);
        w.key("fast_charges");
        w.value_u64(r.live.fast_charges);
        w.key("live_seconds");
        w.value_f64(r.live.elapsed.as_secs_f64());
        w.key("live_ns_per_op");
        w.value_f64(r.ns_per_op(&r.live));
        w.key("memoized_seconds");
        w.value_f64(r.memo.elapsed.as_secs_f64());
        w.key("memoized_ns_per_op");
        w.value_f64(r.ns_per_op(&r.memo));
        w.key("memo_speedup");
        w.value_f64(r.memo_speedup());
        w.key("site_hits");
        w.value_u64(r.memo.site_hits);
        if r.name == "vocoder" {
            w.key("warm_seconds");
            w.value_f64(warm.elapsed.as_secs_f64());
            w.key("warm_ns_per_op");
            w.value_f64(r.ns_per_op(&warm));
            w.key("prog_speedup");
            w.value_f64(prog_speedup);
            w.key("prog_warm_hits");
            w.value_u64(warm_hits);
            w.key("program_bytes");
            w.value_u64(wire.len() as u64);
        }
        w.key("estimates_identical");
        w.value_bool(true);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_estimator.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_estimator.json");
    println!("bench results -> {path}");

    // Workloads with memoizable sites must replay something.
    assert!(results[1].memo.site_hits > 0, "fir recorded no site hits");
    assert!(
        results[2].memo.site_hits > 0,
        "vocoder recorded no site hits"
    );
    if !args.quick {
        // Quick mode is a CI smoke run on loaded shared machines; the
        // throughput floor is only meaningful at full problem sizes.
        for r in &results[1..] {
            assert!(
                r.memo_speedup() >= 1.5,
                "{}: memoized estimation must be >=1.5x over live (got {:.2}x)",
                r.name,
                r.memo_speedup()
            );
        }
        assert!(
            attr_overhead <= 0.05,
            "attribution accounting must cost <=5% on the charge stream (got {:+.2}%)",
            attr_overhead * 100.0
        );
    }
}
