//! `serve_open`: an open loop of Poisson arrivals into
//! `Service::handle_line`, from one generator thread, with
//! `ServiceConfig::default()` apart from `workers` (= the host's CPUs).
//! Each request is timed from when it was due to its response callback,
//! so a stall is charged to every request queued behind it. The only
//! workload that exercises parse, admission, queue, pool fork/reset,
//! cost programs and render; it writes the trace cache and the snapshot
//! store that `dse_sweep` only reads.
//!
//! A run has phases: warm-up, open loop at [`LO_RPS`] and [`HI_RPS`], a
//! closed saturation phase that never lets a CPU idle, and the
//! `serve_max_rps` search. The gated latencies come from the saturation
//! phase: between open-loop arrivals the CPUs idle, and the host's
//! wake-up latency then swings the open-loop figures by tens of percent
//! from run to run (see README).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scperf_core::{InstanceLimits, SessionPool};
use scperf_dse::{run_indexed, SegmentCostCache};
use scperf_serve::{engine, json, render, Request, Responder, Scenario, Service, ServiceConfig};

use crate::gen::{self, Req};
use crate::stats::Dist;
use crate::tables::SimCounters;
use crate::trace::Tracer;
use crate::{accuracy, median_setup, nproc, Args, Run};

/// The two fixed offered rates, in requests per second: about 30 % and
/// 70 % of `serve_max_rps` as first measured (see README). Never moved.
pub const LO_RPS: f64 = 240.0;
pub const HI_RPS: f64 = 560.0;
/// Latency limit on p99 for `serve_max_rps`, from due time to response.
pub const LIMIT_MS: f64 = 50.0;
/// Rate step of the `serve_max_rps` search.
const STEP: f64 = 1.05;
/// Steps the search may take in one run.
const MAX_STEPS: usize = 12;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 15;
/// Requests in flight per worker in the saturation phase.
const SATURATION_INFLIGHT: usize = 2;
/// Shares of `--seconds` given to each open-loop phase (`lo`, `hi`), to
/// the saturation phase behind the gated metrics, and to each step of
/// the `serve_max_rps` search. The gated phase gets most of the run:
/// its latency drifts by several percent over seconds, and a longer
/// phase averages more of that drift.
const OPEN_SHARE: f64 = 0.08;
const SATURATION_SHARE: f64 = 0.75;
const STEP_SHARE: f64 = 0.015;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: nproc(),
        ..ServiceConfig::default()
    }
}

/// `(request id, response line)` pairs.
type Lines = Vec<(String, String)>;

/// Per request index: when its response arrived, and the line.
type Slots = Vec<Option<(Instant, String)>>;

/// Response lines keyed by request index, with their arrival instants.
#[derive(Clone)]
struct Collector {
    slots: Arc<Mutex<Slots>>,
    received: Arc<AtomicUsize>,
}

impl Collector {
    fn new(n: usize) -> Collector {
        Collector {
            slots: Arc::new(Mutex::new(vec![None; n])),
            received: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A responder filing each line under the index its `"id"` ends
    /// with (`<tag><index>`).
    fn responder(&self) -> Responder {
        let me = self.clone();
        Responder::new(move |line| {
            let at = Instant::now();
            let idx = id_of(line)
                .and_then(|id| id.rsplit(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse::<usize>().ok());
            if let Some(i) = idx {
                if let Some(slot) = me.slots.lock().expect("collector").get_mut(i) {
                    *slot = Some((at, line.to_string()));
                }
            }
            me.received.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// Waits until `n` responses arrived or `timeout` passed.
    fn wait(&self, n: usize, timeout: Duration) {
        let start = Instant::now();
        while self.received.load(Ordering::SeqCst) < n && start.elapsed() < timeout {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn take(&self) -> Slots {
        std::mem::take(&mut *self.slots.lock().expect("collector"))
    }
}

fn id_of(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"id\":\"")? + 6..];
    Some(&rest[..rest.find('"')?])
}

/// The error code of an error response, `None` for `ok`.
fn error_code(line: &str) -> Option<String> {
    if line.contains("\"status\":\"ok\"") {
        return None;
    }
    let code = line
        .find("\"code\":\"")
        .map(|i| &line[i + 8..])
        .and_then(|rest| rest.find('"').map(|j| rest[..j].to_string()));
    Some(code.unwrap_or_else(|| "unknown".into()))
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Latency (ms, due → response) of every answered request; refused
    /// and failed ones are `None`.
    latency_ms: Vec<Option<f64>>,
    /// Error responses by code, plus `missing` for unanswered ones.
    errors: BTreeMap<String, u64>,
    /// Requests per second actually offered (count / schedule span).
    offered_rps: f64,
    backlog_max: usize,
    gen_lag_ms: Vec<f64>,
    /// `(id, response line)` of every `ok` response, for checking.
    ok_lines: Lines,
    /// Pending jobs when the last request was sent.
    backlog_end: usize,
}

impl Phase {
    fn sent(&self) -> usize {
        self.latency_ms.len()
    }

    fn failed(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Requests that failed, were refused or took longer than the limit.
    fn misses(&self) -> usize {
        self.latency_ms
            .iter()
            .filter(|l| l.is_none_or(|ms| ms > LIMIT_MS))
            .count()
    }

    fn latencies(&self) -> Dist {
        Dist::new(self.latency_ms.iter().flatten().copied().collect())
    }
}

/// Sends `reqs` on their schedule from this thread and collects every
/// response.
fn open_loop(service: &Service, reqs: &[Req]) -> Phase {
    let collector = Collector::new(reqs.len());
    let responder = collector.responder();
    let mut phase = Phase::default();
    let start = Instant::now() + Duration::from_millis(1);
    for r in reqs {
        let due = start + Duration::from_nanos(r.due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        phase
            .gen_lag_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        phase.backlog_max = phase.backlog_max.max(service.pending());
        service.handle_line(&r.line, &responder);
    }
    phase.backlog_end = service.pending();
    collector.wait(reqs.len(), Duration::from_secs(20));
    let span = reqs.last().map_or(0, |r| r.due_ns).max(1) as f64 / 1e9;
    phase.offered_rps = reqs.len() as f64 / span;
    for (r, slot) in reqs.iter().zip(collector.take()) {
        let due = start + Duration::from_nanos(r.due_ns);
        match slot {
            Some((at, line)) => match error_code(&line) {
                None => {
                    phase
                        .latency_ms
                        .push(Some(at.saturating_duration_since(due).as_secs_f64() * 1e3));
                    phase.ok_lines.push((r.id.clone(), line));
                }
                Some(code) => {
                    phase.latency_ms.push(None);
                    *phase.errors.entry(code).or_default() += 1;
                }
            },
            None => {
                phase.latency_ms.push(None);
                *phase.errors.entry("missing".into()).or_default() += 1;
            }
        }
    }
    phase
}

/// A closed loop that keeps `inflight` requests outstanding, so the
/// queue never empties and no CPU idles: each answer releases the next
/// line, until `window` has passed. Returns, per answered request, when
/// it was answered (s since the start) and its latency (submit → answer,
/// ms), plus the `ok` answers and how many requests were sent.
fn saturated(
    service: &Service,
    reqs: &[Req],
    inflight: usize,
    window: Duration,
) -> (Vec<(f64, f64)>, Lines, usize) {
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, String)>();
    let tx = Mutex::new(tx);
    let responder = Responder::new(move |line| {
        let _ = tx
            .lock()
            .expect("sender")
            .send((Instant::now(), line.to_string()));
    });
    let start = Instant::now();
    let mut sent: HashMap<String, Instant> = HashMap::new();
    let mut done = Vec::new();
    let mut ok = Vec::new();
    let mut next = reqs.iter();
    let mut count = 0;
    loop {
        while sent.len() < inflight && start.elapsed() < window {
            let Some(r) = next.next() else { break };
            count += 1;
            sent.insert(r.id.clone(), Instant::now());
            service.handle_line(&r.line, &responder);
        }
        if sent.is_empty() {
            break;
        }
        let Ok((at, line)) = rx.recv_timeout(Duration::from_secs(20)) else {
            break;
        };
        let Some(id) = id_of(&line).map(str::to_string) else {
            continue;
        };
        let Some(t0) = sent.remove(&id) else { continue };
        done.push((
            at.duration_since(start).as_secs_f64(),
            at.saturating_duration_since(t0).as_secs_f64() * 1e3,
        ));
        if error_code(&line).is_none() {
            ok.push((id, line));
        }
    }
    (done, ok, count)
}

/// Gives a phase's requests ids of their own: `<tag><index>`.
fn retag(reqs: Vec<Req>, tag: &str) -> Vec<Req> {
    reqs.into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            let id = format!("{tag}{i}");
            r.line = r.line.replacen(
                &format!("\"id\":\"{}\"", r.id),
                &format!("\"id\":\"{id}\""),
                1,
            );
            r.id = id;
            r
        })
        .collect()
}

/// Every request sent and every `ok` answer, for the output check.
#[derive(Default)]
struct Log {
    requests: HashMap<String, String>,
    ok_lines: Lines,
}

impl Log {
    fn add(&mut self, reqs: &[Req], ok_lines: &[(String, String)]) {
        self.requests
            .extend(reqs.iter().map(|r| (r.id.clone(), r.line.clone())));
        self.ok_lines.extend_from_slice(ok_lines);
    }
}

fn wait_idle(service: &Service) {
    let start = Instant::now();
    while service.pending() > 0 && start.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A per-phase stream seed, so phases of one run never share novel
/// shapes while all share the popular set.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(phase)
}

/// Scenario of a request line (lines are generated, hence valid).
fn parse(line: &str) -> (String, Scenario) {
    let v = json::parse(line).expect("generated lines are JSON");
    match Request::from_json(&v).expect("generated lines are valid") {
        Request::Sim { id, scenario } => (id, scenario),
        other => panic!("generated a non-sim request: {other:?}"),
    }
}

fn direct_pool(slots: usize) -> SessionPool {
    SessionPool::new(
        InstanceLimits {
            max_sessions: slots,
            ..InstanceLimits::default()
        },
        engine::pool_factory(0),
    )
}

/// Checks every `ok` line against a direct call (parse → execute_pooled
/// → render, timing off) on a pool and cache of its own. Lines that
/// differ only in their id share one direct call.
fn check_ok_lines(log: &Log, run: &mut Run) {
    let (lines, requests) = (&log.ok_lines, &log.requests);
    let mut shapes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, (id, _)) in lines.iter().enumerate() {
        let line = &requests[id];
        shapes
            .entry(line.replacen(&format!("\"id\":\"{id}\""), "\"id\":\"ID\"", 1))
            .or_default()
            .push(i);
    }
    let keys: Vec<&String> = shapes.keys().collect();
    let jobs = nproc();
    let pool = direct_pool(jobs + 1);
    let cache = SegmentCostCache::new();
    let (expected, _) = run_indexed(jobs, keys.len(), |k| {
        let (_, sc) = parse(keys[k]);
        engine::execute_pooled(&sc, &pool, Some(&cache), None, 0)
            .map(|out| render::ok_sim("ID", &sc, &out))
            .map_err(|e| e.message)
    });
    for (key, want) in keys.iter().zip(expected) {
        for &i in &shapes[*key] {
            let (id, got) = &lines[i];
            let want = want
                .as_ref()
                .map(|w| w.replacen("\"id\":\"ID\"", &format!("\"id\":\"{id}\""), 1));
            if want.as_ref() != Ok(got) {
                run.failed = (run.failed + 1).min(run.attempted);
            }
            run.check(want.as_ref() == Ok(got), || {
                format!("request {id}: service answered {got}, direct call gives {want:?}")
            });
        }
    }
}

/// The `serve_max_rps` search: steps of [`STEP`] from [`HI_RPS`], up
/// while a step meets the limit, down while it does not. A step meets
/// it when at most 1 % of its requests miss [`LIMIT_MS`] (refusals and
/// failures count as misses) and the backlog is not growing. A miss on
/// the way up is retried once at the same rate. Returns
/// the offered rate of the highest step that met it, and the steps.
fn max_rps(
    service: &Service,
    seed: u64,
    step_s: f64,
    log: &mut Log,
    text: &mut String,
) -> (f64, usize) {
    let mut rate = HI_RPS;
    let mut best = 0.0;
    let mut going_up = None;
    let mut retried = false;
    let mut steps = 0;
    while steps < MAX_STEPS {
        steps += 1;
        let count = ((rate * step_s) as usize).max(20);
        let reqs = retag(
            gen::stream(phase_seed(seed, 100 + steps as u64), rate, count),
            &format!("m{steps}x"),
        );
        let phase = open_loop(service, &reqs);
        wait_idle(service);
        log.add(&reqs, &phase.ok_lines);
        let ok = phase.misses() * 100 <= phase.sent()
            && phase.backlog_end <= ServiceConfig::default().queue_capacity / 2;
        let lat = phase.latencies();
        text.push_str(&format!(
            "# serve_max_rps step {steps}: offered {:.1}/s, {} sent, {} missed, p50 {:.2} ms, p99 {:.2} ms, backlog max {} end {}, {}\n",
            phase.offered_rps,
            phase.sent(),
            phase.misses(),
            lat.pct(50.0),
            lat.pct(99.0),
            phase.backlog_max,
            phase.backlog_end,
            if ok { "meets the limit" } else { "misses the limit" }
        ));
        match (ok, going_up) {
            (true, None | Some(true)) => {
                best = phase.offered_rps;
                going_up = Some(true);
                retried = false;
                rate *= STEP;
            }
            (false, None | Some(false)) => {
                going_up = Some(false);
                rate /= STEP;
            }
            // One miss on the way up may be a host stall: retry the
            // same rate once with a fresh stream before stopping.
            (false, Some(true)) if !retried => retried = true,
            (false, Some(true)) => break,
            (true, Some(false)) => {
                best = phase.offered_rps;
                break;
            }
        }
    }
    (best, steps)
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let warm = gen::warmup();
    // The warm-up keeps requests in flight like the saturation phase: a
    // one-at-a-time warm-up lets the CPUs idle between requests, and its
    // time then follows the host's wake-up latency.
    let inflight = SATURATION_INFLIGHT * config().workers;
    let ((service, (_, warm_ok, sent)), setup_s) = {
        let (s, last) = median_setup(SETUP_REPS, || {
            let service = Service::new(config());
            let warmed = saturated(&service, &warm, inflight, Duration::MAX);
            (service, warmed)
        });
        (last, s)
    };
    run.put(
        "setup_s",
        setup_s,
        "s",
        format!(
            "Service::new through the answered warm-up of the {} popular shapes, median of {SETUP_REPS}",
            warm.len()
        ),
    );
    run.check(sent == warm.len() && warm_ok.len() == warm.len(), || {
        format!(
            "{} of {} warm-up requests answered ok",
            warm_ok.len(),
            warm.len()
        )
    });
    let mut log = Log::default();
    log.add(&warm, &warm_ok);
    let cal = scperf_bench::calibration::calibrate();
    accuracy::measure(&cal, &mut run);
    if args.trace {
        traced(args, &service, &mut run);
        return run;
    }

    let secs = args.seconds;
    let mut phases = Vec::new();
    for (k, tag, rate) in [(1, "lo", LO_RPS), (2, "hi", HI_RPS)] {
        let count = (rate * secs * OPEN_SHARE) as usize;
        let reqs = retag(gen::stream(phase_seed(args.seed, k), rate, count), tag);
        let phase = open_loop(&service, &reqs);
        wait_idle(&service);
        log.add(&reqs, &phase.ok_lines);
        phases.push(phase);
    }
    // Every phase's refusals and failures, for `fail_frac`.
    let (mut sent_all, mut failed_all) = (0, 0);
    for (tag, phase) in ["lo", "hi"].iter().zip(&phases) {
        sent_all += phase.sent() as u64;
        failed_all += phase.failed();
        let d = phase.latencies();
        let (m, t) = (d.median(), d.tail());
        run.put(&format!("serve_{tag}_p50_ms"), m.value, "ms", m.note());
        run.put(&format!("serve_{tag}_p99_ms"), t.value, "ms", t.note());
        run.put(
            &format!("serve_{tag}_offered_rps"),
            phase.offered_rps,
            "1/s",
            format!("{} requests", phase.sent()),
        );
        let lag = Dist::new(phase.gen_lag_ms.clone()).tail();
        run.put(
            &format!("serve_{tag}_gen_lag_ms"),
            lag.value,
            "ms",
            lag.note(),
        );
        for (code, n) in &phase.errors {
            run.put(
                &format!("serve_{tag}_errors.{code}"),
                *n as f64,
                "count",
                "",
            );
        }
    }

    // Every novel request leaves a snapshot in the unbounded store, so
    // RSS is read while the request count is fixed: the saturation phase
    // and the search send as many requests as the host's speed allows.
    run.put(
        "peak_rss_mb",
        crate::peak_rss_mb(),
        "MB",
        "VmHWM after the lo and hi phases",
    );

    // The saturation phase ignores due times; the stream only has to
    // outlast the window, at up to four times the `hi` rate.
    let sat_window = secs * SATURATION_SHARE;
    let reqs = retag(
        gen::stream(
            phase_seed(args.seed, 3),
            HI_RPS,
            (4.0 * HI_RPS * sat_window) as usize,
        ),
        "s",
    );
    let (sat, answered, sent) = saturated(
        &service,
        &reqs,
        inflight,
        Duration::from_secs_f64(sat_window),
    );
    log.add(&reqs, &answered);
    // The result line's attempted/failed: the gated phase. Open-loop refusals
    // at lo and hi are admission control under host stalls; they are in
    // fail_frac and the per-phase error counts.
    run.attempted += sent as u64;
    run.failed += (sent - answered.len()) as u64;
    sent_all += sent as u64;
    failed_all += (sent - answered.len()) as u64;
    let lat = Dist::new(sat.iter().map(|l| l.1).collect());
    let (m, t) = (lat.median(), lat.tail());
    // Little's law: with `inflight` requests always outstanding, the
    // answer rate is inflight ÷ latency; the median latency keeps one
    // stall from setting it.
    let sat_rps = inflight as f64 / (m.value / 1e3);
    run.put(
        "serve_sat_p50_ms",
        m.value,
        "ms",
        format!("{inflight} in flight, {}", m.note()),
    );
    run.put(
        "serve_sat_tail_ms",
        t.value,
        "ms",
        format!("{inflight} in flight, {}", t.note()),
    );
    run.put(
        "serve_sat_rps",
        sat_rps,
        "1/s",
        format!("{inflight} in flight / median latency"),
    );
    let (max, steps) = max_rps(
        &service,
        args.seed,
        secs * STEP_SHARE,
        &mut log,
        &mut run.text,
    );
    run.put(
        "serve_max_rps",
        max,
        "1/s",
        format!("offered rate of the highest step meeting p99 <= {LIMIT_MS} ms; {steps} steps of x{STEP} from {HI_RPS}"),
    );
    run.put(
        "fail_frac",
        failed_all as f64 / sent_all.max(1) as f64,
        "ratio",
        format!("{failed_all} of {sent_all} requests at lo, hi and saturation"),
    );
    run.put(
        "p50_ms",
        m.value,
        "ms",
        format!("serve_sat_p50_ms, {}", m.note()),
    );
    run.put("throughput_per_s", sat_rps, "1/s", "serve_sat_rps");
    check_ok_lines(&log, &mut run);
    run
}

/// The traced run: an open-loop phase at [`HI_RPS`] against the
/// service for its own counters, then the same lines replayed in
/// program order through the public calls the service makes — parse,
/// `engine::execute_pooled`, render — once untraced and once traced.
/// The traced replay's lines must equal the service's answers.
fn traced(args: &Args, service: &Service, run: &mut Run) {
    let reqs = gen::stream(
        phase_seed(args.seed, 2),
        HI_RPS,
        (HI_RPS * args.seconds * 0.3) as usize,
    );
    // Zero the service's counters and histograms so queue wait covers
    // this phase only; pool and cache statistics are lifetime totals,
    // hence the deltas below.
    let sink = Responder::new(|_| {});
    service.handle_line("{\"op\":\"stats\",\"reset\":true}", &sink);
    let before = service.metrics();
    let phase = open_loop(service, &reqs);
    wait_idle(service);
    let after = service.metrics();
    // As in the untraced run, admission-control refusals under a host
    // stall are counted in serve.rejected.*, not as failures.
    let refused = phase.errors.get("queue_full").copied().unwrap_or(0);
    run.attempted += phase.sent() as u64;
    run.failed += phase.failed() - refused;

    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let gauge = |name: &str| after.gauge(name).unwrap_or(0.0);
    let (hits, misses) = (delta("pool.hits"), delta("pool.misses"));
    let repeats = reqs.iter().filter(|r| r.repeat).count();
    run.put(
        "pool.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} of {}", hits + misses),
    );
    run.put(
        "serve.repeat_share",
        repeats as f64 / reqs.len().max(1) as f64,
        "ratio",
        format!("generated repeats, configured {}", gen::REPEAT_SHARE),
    );
    run.put("pool.forks", delta("pool.forks") as f64, "count", "phase");
    run.put("pool.resets", delta("pool.resets") as f64, "count", "phase");
    run.put(
        "pool.exhausted",
        delta("pool.exhausted") as f64,
        "count",
        "phase",
    );
    let (ch, cm) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    run.put(
        "serve.cache.hit_ratio",
        ch as f64 / (ch + cm).max(1) as f64,
        "ratio",
        format!("{ch} of {} stage lookups", ch + cm),
    );
    run.put(
        "serve.cache.evictions",
        delta("serve.cache.evictions") as f64,
        "count",
        "phase",
    );
    run.put(
        "serve.queue_wait_us.p50",
        gauge("serve.queue_wait.p50_us"),
        "us",
        "Service::metrics",
    );
    run.put(
        "serve.queue_wait_us.p99",
        gauge("serve.queue_wait.p99_us"),
        "us",
        "Service::metrics",
    );
    run.put(
        "serve.backlog_max",
        phase.backlog_max as f64,
        "count",
        "pending() at each send",
    );
    let lag = Dist::new(phase.gen_lag_ms.clone()).pct(99.0);
    run.put(
        "serve.gen_lag_ms.p99",
        lag,
        "ms",
        format!("n={}", phase.sent()),
    );
    for code in [
        "queue_full",
        "pool_exhausted",
        "deadline_exceeded",
        "sim_error",
    ] {
        let n = phase.errors.get(code).copied().unwrap_or(0);
        run.put(
            &format!("serve.rejected.{code}"),
            n as f64,
            "count",
            "phase",
        );
    }
    let attempts = delta("est.prog.hits") + delta("est.prog.misses");
    run.put("prog.attempts", attempts as f64, "count", "phase");
    run.put(
        "prog.hit_ratio",
        delta("est.prog.hits") as f64 / attempts.max(1) as f64,
        "ratio",
        format!("{} of {attempts}", delta("est.prog.hits")),
    );
    run.put(
        "prog.warm_hits",
        delta("est.prog.warm_hits") as f64,
        "count",
        "phase",
    );
    run.put(
        "prog.rejects",
        delta("est.prog.rejects") as f64,
        "count",
        "phase",
    );

    // Replays on a pool and cache of their own, warmed like the service.
    let warm: Vec<(String, Scenario)> = gen::warmup().iter().map(|r| parse(&r.line)).collect();
    let answers: HashMap<&str, &str> = phase
        .ok_lines
        .iter()
        .map(|(id, l)| (id.as_str(), l.as_str()))
        .collect();
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut tr = Tracer::new();
    let mut counters = SimCounters::default();
    for traced in [false, true] {
        let pool = direct_pool(2);
        let cache = SegmentCostCache::new();
        for (_, sc) in &warm {
            engine::execute_pooled(sc, &pool, Some(&cache), None, 0).expect("warmup simulates");
        }
        let mut t = if traced { Tracer::new() } else { Tracer::off() };
        let start = Instant::now();
        for (i, r) in reqs.iter().enumerate() {
            let id = i as u64;
            let root = t.enter("serve.request", id);
            let (rid, sc) = t.time("serve.parse", id, || parse(&r.line));
            let hits_before = pool.stats().hits;
            let s = t.enter("serve.engine", id);
            let out = engine::execute_pooled(&sc, &pool, Some(&cache), None, 0);
            t.exit(s);
            let hit = pool.stats().hits > hits_before;
            if traced {
                t.rename(
                    s,
                    if hit {
                        "serve.engine.hit"
                    } else {
                        "serve.engine.miss"
                    },
                );
            }
            let line = t.time("serve.render", id, || match &out {
                Ok(out) => render::ok_sim(&rid, &sc, out),
                Err(e) => render::error(Some(&rid), e, None),
            });
            t.exit(root);
            if let Ok(out) = &out {
                if traced {
                    counters.absorb(&out.sim_metrics);
                }
            }
            if traced {
                if let Some(answer) = answers.get(rid.as_str()) {
                    run.check(*answer == line, || {
                        format!(
                            "request {rid}: service answered {answer}, traced call gives {line}"
                        )
                    });
                }
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if traced {
            traced_ms = ms;
            tr = t;
        } else {
            untraced_ms = ms;
        }
    }
    counters.put(run, reqs.len().max(1) as f64, "request");
    run.put(
        "serve.parse_us",
        tr.mean_us("serve.parse"),
        "us",
        "json::parse + Request::from_json, mean",
    );
    run.put(
        "serve.render_us",
        tr.mean_us("serve.render"),
        "us",
        "render::ok_sim, mean",
    );
    let (nh, _) = tr.total("serve.engine.hit");
    let (nm, _) = tr.total("serve.engine.miss");
    run.put(
        "serve.engine.hit_us",
        tr.mean_us("serve.engine.hit"),
        "us",
        format!("execute_pooled, mean of {nh} pool hits"),
    );
    run.put(
        "serve.engine.miss_us",
        tr.mean_us("serve.engine.miss"),
        "us",
        format!("execute_pooled, mean of {nm} pool misses"),
    );
    crate::trace::finish(
        run,
        &tr,
        (traced_ms / untraced_ms - 1.0) * 100.0,
        "traced vs untraced replay of the phase",
    );
}
