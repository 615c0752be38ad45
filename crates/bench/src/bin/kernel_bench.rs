//! Kernel hot-path microbenchmarks: the scheduler's poll loop, the
//! timed-notification queue and the parallel evaluate phase.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin kernel_bench -- [--reps N] [--quick]
//! ```
//!
//! Three kernels measure activation throughput of the stackless
//! scheduler (process bodies are futures polled on the scheduler
//! thread):
//!
//! * **pingpong** — two processes over a [`scperf_kernel::Rendezvous`];
//!   every transfer is a chain of suspend/resume round trips, the purest
//!   activation stressor.
//! * **fanout** — one notifier delta-firing a [`scperf_kernel::Event`]
//!   with many waiters; measures wakeup batching through the evaluate
//!   phase.
//! * **timer_storm** — many processes issuing dense `wait(time)` calls
//!   with colliding deadlines (plus a far-future tail beyond the time
//!   wheel's span); stresses the timed queue.
//!
//! Each of the three reports its activations/s and a `thread_ratio`:
//! that rate divided by the round-trip rate of an OS-thread
//! park/unpark ping-pong measured in the same run (best of samples
//! taken around each kernel) — the cost one
//! activation had when every process ran on its own thread. Both rates
//! come from the same host, so the ratio compares across hosts.
//!
//! Two further scenarios sweep the parallel evaluate phase
//! (`SimOptions::jobs`, see `docs/PARALLELISM.md`) at `jobs = 1` vs
//! `jobs = 8`:
//!
//! * **par_pairs** — 8 independent FIFO producer/consumer pairs with
//!   per-activation busy work; every delta is 16 processes wide.
//! * **par_fanout** — an event broadcast to 32 computing waiters; the
//!   waking delta is 32 processes wide.
//!
//! Every repetition of a kernel (and both `jobs` values) must produce the
//! *same* [`SimSummary`] — the bench asserts this — so the reported rates
//! and ratios are pure host-time measurements at identical simulated
//! behaviour. Results go to `BENCH_kernel.json`, with a `host` block
//! (CPU count, quick or full, git revision, compiler).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scperf_kernel::{SimOptions, SimSummary, Time};
use scperf_obs::json::JsonWriter;

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

/// Two processes rendezvous `iters` times. Each transfer blocks both
/// sides, so the activation count is proportional to `iters`. With `attribution` the kernel additionally
/// accounts per-process wait time and per-channel blocked time on every
/// one of those transfers — the worst case for the accounting.
fn pingpong(iters: u64, attribution: bool) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().attribution(attribution).build();
    let ch = sim.rendezvous::<u64>("pingpong");
    let tx = ch.clone();
    sim.spawn("ping", move |mut ctx| async move {
        for i in 0..iters {
            tx.write(&mut ctx, i).await;
        }
    });
    let rx = ch;
    sim.spawn("pong", move |mut ctx| async move {
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(rx.read(&mut ctx).await);
        }
        std::hint::black_box(acc);
    });
    let start = Instant::now();
    let summary = sim.run().expect("pingpong runs");
    (summary, start.elapsed())
}

/// One notifier delta-fires an event `rounds` times; `procs` waiters all
/// wake each round.
fn fanout(procs: usize, rounds: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().build();
    let ev = sim.event("broadcast");
    for p in 0..procs {
        let ev = ev.clone();
        sim.spawn(format!("waiter{p}"), move |mut ctx| async move {
            for _ in 0..rounds {
                ctx.wait_event(&ev).await;
            }
        });
    }
    sim.spawn("notifier", move |mut ctx| async move {
        for _ in 0..rounds {
            // The waiters are all parked by the time the notifier runs
            // (spawn order); the timed wait separates the rounds.
            ev.notify_delta();
            ctx.wait(Time::ns(1)).await;
        }
    });
    let start = Instant::now();
    let summary = sim.run().expect("fanout runs");
    (summary, start.elapsed())
}

/// `procs` processes each issue `waits` timed waits with colliding
/// xorshift-derived deadlines, plus one far-future wait past the time
/// wheel's ~68.7 ms span to exercise the overflow path.
fn timer_storm(procs: usize, waits: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().build();
    for p in 0..procs {
        sim.spawn(format!("timer{p}"), move |mut ctx| async move {
            let mut x = p as u64 + 1;
            for _ in 0..waits {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // 0..=999 ps: dense, frequently colliding deadlines.
                ctx.wait(Time::ps(x % 1_000)).await;
            }
            ctx.wait(Time::ms(80 + p as u64)).await; // overflow-map tail
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("timer storm runs");
    (summary, start.elapsed())
}

/// Busy-work standing in for a process body's computation: `rounds` of
/// xorshift on `x`. This is what the parallel evaluate phase can overlap
/// across workers.
fn spin(mut x: u64, rounds: u64) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// `pairs` independent producer→FIFO→consumer pairs; every activation
/// burns `work` xorshift rounds. All pairs are runnable in the same
/// deltas, so the evaluate phase is `2 * pairs` wide — the shape the
/// parallel kernel (`SimOptions::jobs`) is built for.
fn par_pairs(jobs: usize, pairs: usize, iters: u64, work: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().jobs(jobs).build();
    for p in 0..pairs {
        let ch = sim.fifo::<u64>(format!("ch{p}"), 4);
        let tx = ch.clone();
        sim.spawn(format!("prod{p}"), move |mut ctx| async move {
            for i in 0..iters {
                tx.write(&mut ctx, spin(i + p as u64 + 1, work)).await;
                ctx.wait(Time::ns(1)).await;
            }
        });
        let rx = ch;
        sim.spawn(format!("cons{p}"), move |mut ctx| async move {
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(spin(rx.read(&mut ctx).await, work));
            }
            std::hint::black_box(acc);
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("par_pairs runs");
    (summary, start.elapsed())
}

/// Wide fanout with per-waiter computation: one notifier delta-fires an
/// event `rounds` times and `procs` waiters each burn `work` xorshift
/// rounds per wake. The waking delta is `procs` wide.
fn par_fanout(jobs: usize, procs: usize, rounds: u64, work: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().jobs(jobs).build();
    let ev = sim.event("broadcast");
    for p in 0..procs {
        let ev = ev.clone();
        sim.spawn(format!("waiter{p}"), move |mut ctx| async move {
            let mut acc = p as u64 + 1;
            for _ in 0..rounds {
                ctx.wait_event(&ev).await;
                acc = spin(acc, work);
            }
            std::hint::black_box(acc);
        });
    }
    sim.spawn("notifier", move |mut ctx| async move {
        for _ in 0..rounds {
            ev.notify_delta();
            ctx.wait(Time::ns(1)).await;
        }
    });
    let start = Instant::now();
    let summary = sim.run().expect("par_fanout runs");
    (summary, start.elapsed())
}

/// Best-of-`reps` wall time (minimum is the standard microbench
/// estimator: noise only ever adds time). Every repetition must simulate
/// the same thing: the summaries are asserted identical.
fn measure(
    name: &str,
    reps: usize,
    run: impl Fn() -> (SimSummary, Duration),
) -> (SimSummary, Duration) {
    let mut best: Option<(SimSummary, Duration)> = None;
    for _ in 0..reps {
        let (summary, elapsed) = run();
        match &best {
            Some((first, b)) => {
                assert_eq!(*first, summary, "{name}: repetitions disagree");
                if elapsed < *b {
                    best = Some((summary, elapsed));
                }
            }
            None => best = Some((summary, elapsed)),
        }
    }
    best.expect("reps > 0")
}

/// Best-of-`reps` wall times of two variants of one scenario, run in
/// alternation so drift of a shared host (other tenants, frequency)
/// hits both alike. All runs must simulate the same thing.
fn measure_alternating(
    name: &str,
    reps: usize,
    a: impl Fn() -> (SimSummary, Duration),
    b: impl Fn() -> (SimSummary, Duration),
) -> (SimSummary, Duration, Duration) {
    let (summary, mut best_a) = a();
    let mut best_b = Duration::MAX;
    for rep in 0..reps {
        if rep > 0 {
            let (s, t) = a();
            assert_eq!(s, summary, "{name}: repetitions disagree");
            best_a = best_a.min(t);
        }
        let (s, t) = b();
        assert_eq!(s, summary, "{name}: variants disagree");
        best_b = best_b.min(t);
    }
    (summary, best_a, best_b)
}

/// Round trips per second of a two-thread park/unpark ping-pong: one
/// side hands a turn flag to the other and parks until it comes back.
/// Each round trip is what one activation cost when every process ran
/// on its own OS thread behind a run-baton. Best of `reps`: on a small
/// shared host the rate swings several-fold (about 70k vs 300k+ round
/// trips/s on 2 CPUs) with whether the two threads get a CPU each, and
/// that state lasts for seconds, so the caller also samples repeatedly
/// across the run. The best sample is the thread model's most
/// favourable figure, which keeps `thread_ratio` conservative.
fn thread_pingpong_rate(reps: usize, iters: u64) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let turn = Arc::new(AtomicBool::new(false));
        let main = std::thread::current();
        let peer_turn = Arc::clone(&turn);
        let start = Instant::now();
        let peer = std::thread::spawn(move || {
            for _ in 0..iters {
                while !peer_turn.load(Ordering::Acquire) {
                    std::thread::park();
                }
                peer_turn.store(false, Ordering::Release);
                main.unpark();
            }
        });
        let peer_thread = peer.thread().clone();
        for _ in 0..iters {
            turn.store(true, Ordering::Release);
            peer_thread.unpark();
            while turn.load(Ordering::Acquire) {
                std::thread::park();
            }
        }
        peer.join().expect("ping-pong peer thread");
        best = best.min(start.elapsed().as_secs_f64());
    }
    iters as f64 / best
}

struct ParResult {
    name: &'static str,
    summary: SimSummary,
    jobs1: Duration,
    jobs8: Duration,
}

impl ParResult {
    fn speedup(&self) -> f64 {
        self.jobs1.as_secs_f64() / self.jobs8.as_secs_f64()
    }
    fn activations_per_sec(&self, d: Duration) -> f64 {
        self.summary.activations as f64 / d.as_secs_f64()
    }
}

/// Runs a jobs-parameterized scenario at `jobs = 1` and `jobs = 8`
/// (alternating) and asserts the determinism contract
/// (`docs/PARALLELISM.md`): the summaries must be bit-identical, so the
/// speedup is a pure host-time ratio at identical simulated behaviour.
fn par_bench(
    name: &'static str,
    reps: usize,
    run: impl Fn(usize) -> (SimSummary, Duration),
) -> ParResult {
    let (summary, jobs1, jobs8) = measure_alternating(name, reps, || run(1), || run(8));
    let r = ParResult {
        name,
        summary,
        jobs1,
        jobs8,
    };
    println!(
        "{:>12}: jobs=1  {:>9.2?}  jobs=8 {:>9.2?}  speedup {:>5.2}x  \
         ({} activations, {:.0}/s -> {:.0}/s)",
        r.name,
        r.jobs1,
        r.jobs8,
        r.speedup(),
        r.summary.activations,
        r.activations_per_sec(r.jobs1),
        r.activations_per_sec(r.jobs8),
    );
    r
}

struct BenchResult {
    name: &'static str,
    summary: SimSummary,
    elapsed: Duration,
}

impl BenchResult {
    fn activations_per_sec(&self) -> f64 {
        self.summary.activations as f64 / self.elapsed.as_secs_f64()
    }
}

fn bench(name: &'static str, reps: usize, run: impl Fn() -> (SimSummary, Duration)) -> BenchResult {
    let (summary, elapsed) = measure(name, reps, run);
    let r = BenchResult {
        name,
        summary,
        elapsed,
    };
    println!(
        "{:>12}: {:>9.2?}  {} activations, {:.0}/s",
        r.name,
        r.elapsed,
        r.summary.activations,
        r.activations_per_sec(),
    );
    r
}

/// Trimmed stdout of `cmd args`, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` block: what a reader needs to compare this artifact with
/// another one.
fn write_host(w: &mut JsonWriter, quick: bool, cores: usize) {
    w.key("host");
    w.begin_object();
    w.key("available_parallelism");
    w.value_u64(cores as u64);
    w.key("mode");
    w.value_str(if quick { "quick" } else { "full" });
    w.key("git_rev");
    w.value_str(&command_line("git", &["describe", "--always", "--dirty"]));
    w.key("rustc");
    w.value_str(&command_line("rustc", &["-V"]));
    w.end_object();
}

fn main() {
    let args = parse_args();
    let scale = if args.quick { 10 } else { 1 };
    let pingpong_iters = 200_000 / scale;
    let fanout_procs = 64;
    let fanout_rounds = 2_000 / scale;
    let storm_procs = 32;
    let storm_waits = 4_000 / scale;
    let thread_iters = 20_000 / scale;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "kernel hot-path microbench (best of {} reps{}, {cores} CPU(s))",
        args.reps,
        if args.quick { ", quick" } else { "" }
    );

    // The thread ping-pong is sampled around each kernel and the best
    // sample kept (see `thread_pingpong_rate`).
    let sample = || thread_pingpong_rate(args.reps.max(3), thread_iters);
    let mut thread_rate = sample();
    let pingpong_result = bench("pingpong", args.reps, || pingpong(pingpong_iters, false));
    thread_rate = thread_rate.max(sample());
    let fanout_result = bench("fanout", args.reps, || fanout(fanout_procs, fanout_rounds));
    thread_rate = thread_rate.max(sample());
    let storm_result = bench("timer_storm", args.reps, || {
        timer_storm(storm_procs, storm_waits)
    });
    thread_rate = thread_rate.max(sample());
    let results = [pingpong_result, fanout_result, storm_result];
    println!(" thread ping-pong: {thread_rate:.0} round trips/s (best sample)");
    for r in &results {
        println!(
            "{:>12}: {:.1}x the thread ping-pong",
            r.name,
            r.activations_per_sec() / thread_rate
        );
    }

    // Parallel-evaluate scenarios (SimOptions::jobs): wide deltas with
    // real per-activation computation, jobs = 1 vs jobs = 8. Both runs
    // must be bit-identical in simulated behaviour (asserted inside
    // par_bench); the speedup is meaningful only on a multi-core host.
    let par_results = [
        par_bench("par_pairs", args.reps, |j| {
            par_pairs(j, 8, 2_000 / scale, 2_000)
        }),
        par_bench("par_fanout", args.reps, |j| {
            par_fanout(j, 32, 500 / scale, 4_000)
        }),
    ];

    // Attribution overhead: the scheduling-state accounting rides the
    // activation-heaviest kernel (pingpong). Off and on runs alternate,
    // so drift of the host during the bench hits both sides alike; the
    // summaries must stay bit-identical and the host-time overhead ≤ 5%.
    let (attr_sum, attr_off, attr_on) = measure_alternating(
        "pingpong+attribution",
        args.reps,
        || pingpong(pingpong_iters, false),
        || pingpong(pingpong_iters, true),
    );
    assert_eq!(
        attr_sum, results[0].summary,
        "pingpong: attribution changed simulated behaviour"
    );
    let attr_overhead = attr_on.as_secs_f64() / attr_off.as_secs_f64() - 1.0;
    println!(
        " attribution: off {:>9.2?}  on {:>9.2?}  overhead {:+.2}%",
        attr_off,
        attr_on,
        attr_overhead * 100.0
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    write_host(&mut w, args.quick, cores);
    w.key("reps");
    w.value_u64(args.reps as u64);
    w.key("quick");
    w.value_bool(args.quick);
    w.key("thread_pingpong_round_trips_per_sec");
    w.value_f64(thread_rate);
    w.key("attribution");
    w.begin_object();
    w.key("bench");
    w.value_str("pingpong");
    w.key("off_seconds");
    w.value_f64(attr_off.as_secs_f64());
    w.key("on_seconds");
    w.value_f64(attr_on.as_secs_f64());
    w.key("overhead_pct");
    w.value_f64(attr_overhead * 100.0);
    w.key("summaries_identical");
    w.value_bool(true);
    w.end_object();
    w.key("benches");
    w.begin_array();
    for r in &results {
        w.begin_object();
        w.key("name");
        w.value_str(r.name);
        w.key("activations");
        w.value_u64(r.summary.activations);
        w.key("deltas");
        w.value_u64(r.summary.deltas);
        w.key("end_time_ps");
        w.value_u64(r.summary.end_time.as_ps());
        w.key("seconds");
        w.value_f64(r.elapsed.as_secs_f64());
        w.key("activations_per_sec");
        w.value_f64(r.activations_per_sec());
        w.key("thread_activations_per_sec");
        w.value_f64(thread_rate);
        w.key("thread_ratio");
        w.value_f64(r.activations_per_sec() / thread_rate);
        w.key("summaries_identical");
        w.value_bool(true);
        w.end_object();
    }
    for r in &par_results {
        w.begin_object();
        w.key("name");
        w.value_str(r.name);
        w.key("activations");
        w.value_u64(r.summary.activations);
        w.key("deltas");
        w.value_u64(r.summary.deltas);
        w.key("end_time_ps");
        w.value_u64(r.summary.end_time.as_ps());
        w.key("jobs1_seconds");
        w.value_f64(r.jobs1.as_secs_f64());
        w.key("jobs8_seconds");
        w.value_f64(r.jobs8.as_secs_f64());
        w.key("jobs1_activations_per_sec");
        w.value_f64(r.activations_per_sec(r.jobs1));
        w.key("jobs8_activations_per_sec");
        w.value_f64(r.activations_per_sec(r.jobs8));
        w.key("speedup");
        w.value_f64(r.speedup());
        w.key("summaries_identical");
        w.value_bool(true);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_kernel.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_kernel.json");
    println!("bench results -> {path}");

    if !args.quick {
        // Quick mode is a CI smoke run on loaded shared machines; the
        // overhead bound is only meaningful at full problem sizes.
        assert!(
            attr_overhead <= 0.05,
            "attribution accounting must cost <=5% on pingpong (got {:+.2}%)",
            attr_overhead * 100.0
        );
    }

    // The >=2x parallel-throughput bar only makes sense with real cores
    // to spread the evaluate phase over; on a 1-core host jobs = 8 is
    // pure overhead (the determinism assert above still ran).
    if !args.quick && cores >= 4 {
        for r in &par_results {
            assert!(
                r.speedup() >= 2.0,
                "{}: expected >=2x activation throughput at jobs=8 on a \
                 {cores}-core host (got {:.2}x)",
                r.name,
                r.speedup()
            );
        }
    } else {
        println!(
            " (parallel >=2x speedup bar skipped: {cores} core(s), quick={})",
            args.quick
        );
    }
}
