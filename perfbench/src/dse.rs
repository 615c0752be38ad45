//! `dse_sweep`: a closed loop of 243-point `scperf_dse::sweep` calls with
//! the calibrated table, the trace cache on and `jobs` = the host's CPUs,
//! as the `dse` binary runs them. Reuse-bound and kernel-bound: after
//! the first few points every stage replays a cached trace, the
//! estimator barely runs, and the fractional calibrated table keeps cost
//! programs off. The mapping space is fixed; the seed changes nothing.

use std::time::Instant;

use scperf_bench::calibration::calibrate;
use scperf_core::{table_fingerprint, CostTable, SimConfig};
use scperf_dse::sweep::{evaluate, sweep, SweepConfig, SweepResult};
use scperf_dse::{
    all_mappings, build_platform, pareto, platform_cost, resolve_mapping, run_indexed, DesignPoint,
    SegmentCostCache, Target,
};
use scperf_workloads::vocoder::pipeline::{self, StageTrace, STAGE_NAMES};

use crate::stats::Dist;
use crate::tables::SimCounters;
use crate::trace::Tracer;
use crate::{accuracy, median_setup, nproc, Args, Run};

/// Frames per design point (the `dse` binary's default).
const FRAMES: usize = 2;

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 15;

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let (setup_s, cal) = median_setup(SETUP_REPS, calibrate);
    run.put(
        "setup_s",
        setup_s,
        "s",
        format!("calibrate(), median of {SETUP_REPS}"),
    );
    accuracy::measure(&cal, &mut run);
    let config = SweepConfig {
        table: cal.table.clone(),
        nframes: FRAMES,
        jobs: nproc(),
        kernel_jobs: 1,
        use_cache: true,
        limit: None,
        legacy_charging: false,
        programs_in: None,
    };
    // The untimed oracle: sequential, no cache.
    let oracle = sweep(&SweepConfig {
        jobs: 1,
        use_cache: false,
        ..config.clone()
    });

    if args.trace {
        traced(args, &config, &oracle, &mut run);
        return run;
    }

    let mut seconds = Vec::new();
    let window = Instant::now();
    while window.elapsed() < args.window() {
        let start = Instant::now();
        let result = sweep(&config);
        let s = start.elapsed().as_secs_f64();
        run.attempted += 1;
        if result.points != oracle.points || result.frontier != oracle.frontier {
            run.failed += 1;
            let n = run.attempted;
            run.check(false, || format!("sweep {n}: differs from the oracle"));
            continue;
        }
        seconds.push(s);
    }
    let d = Dist::new(seconds);
    let (m, t) = (d.median(), d.tail());
    run.put("sweep_s_p50", m.value, "s", m.note());
    run.put("sweep_s_tail", t.value, "s", t.note());
    run.put(
        "fail_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} sweeps", run.failed, run.attempted),
    );
    run.put(
        "p50_ms",
        m.value * 1e3,
        "ms",
        format!("243-point sweep, {}", m.note()),
    );
    run.put(
        "throughput_per_s",
        oracle.points.len() as f64 / m.value,
        "1/s",
        format!(
            "design points per host second at the median sweep, jobs={}",
            config.jobs
        ),
    );
    run
}

/// Per window step: one untraced sweep, the same sweep as per-point
/// `evaluate` calls on a shared cache over the pool (the `dse.*`
/// layer), and one sequential pass that opens each evaluation up into
/// its public steps (the `core`/`workloads`/`kernel` layers).
fn traced(args: &Args, config: &SweepConfig, oracle: &SweepResult, run: &mut Run) {
    let mut tr = Tracer::new();
    let mappings = all_mappings();
    let jobs = config.jobs;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut counters = SimCounters::default();
    let (mut hits, mut lookups, mut inserts, mut evictions, mut steals) = (0, 0, 0, 0, 0);
    let mut busy_ns = 0_f64;
    let mut capacity_ns = 0_f64;
    let mut evaluated = 0_u64;
    let mut id = 0;
    let window = Instant::now();
    while window.elapsed() < args.window() {
        id += 1;
        let start = Instant::now();
        let _ = std::hint::black_box(sweep(config));
        untraced_s.push(start.elapsed().as_secs_f64());

        // The sweep as per-point evaluate calls.
        let cache = SegmentCostCache::new();
        let origin = tr.origin();
        let root = tr.enter_wide("dse.sweep", id, jobs as u32);
        let start = Instant::now();
        let (timed, pool) = run_indexed(jobs, mappings.len(), |i| {
            let begin = origin.elapsed().as_nanos() as u64;
            let before = cache.stats().misses;
            let point = evaluate(&config.table, mappings[i], FRAMES, Some(&cache));
            let miss = cache.stats().misses > before;
            (point, begin, origin.elapsed().as_nanos() as u64, miss)
        });
        let points: Vec<DesignPoint> = timed.iter().map(|t| t.0.clone()).collect();
        let frontier = tr.time("dse.pareto", id, || pareto(&points));
        let wall = start.elapsed().as_nanos() as f64;
        tr.exit(root);
        traced_s.push(wall / 1e9);
        for (i, (_, begin, end, miss)) in timed.iter().enumerate() {
            let name = if *miss {
                "dse.evaluate.miss"
            } else {
                "dse.evaluate.hit"
            };
            tr.record(name, i as u64, *begin, *end, root);
            busy_ns += (end - begin) as f64;
        }
        capacity_ns += wall * jobs as f64;
        let stats = cache.stats();
        hits += stats.hits;
        lookups += stats.hits + stats.misses;
        inserts += stats.misses;
        evictions += stats.evictions;
        steals += pool.steals;
        run.attempted += 1;
        run.check(
            points == oracle.points && frontier == oracle.frontier,
            || format!("traced sweep {id}: differs from the oracle"),
        );

        // The same points, each evaluation opened into its steps.
        let cache = SegmentCostCache::new();
        let root = tr.enter("dse.sweep.steps", id);
        for (i, &mapping) in mappings.iter().enumerate() {
            let point = evaluate_steps(
                &config.table,
                mapping,
                &cache,
                &mut tr,
                i as u64,
                &mut counters,
            );
            run.check(point == oracle.points[i], || {
                format!("sweep {id} point {i}: stepwise evaluation differs from the oracle")
            });
        }
        tr.exit(root);
        evaluated += mappings.len() as u64;
    }
    counters.put(run, evaluated.max(1) as f64, "design point");
    counters.put_prog(run);
    run.put(
        "kernel.run_us",
        tr.mean_us("kernel.run"),
        "us",
        "mean per point",
    );
    run.put(
        "core.session_build_us",
        tr.mean_us("core.session_build"),
        "us",
        "mean per point",
    );
    run.put(
        "core.report_us",
        tr.mean_us("core.report"),
        "us",
        "metrics(), mean per point",
    );
    run.put(
        "workloads.elaborate_us",
        tr.mean_us("workloads.elaborate"),
        "us",
        "pipeline::build_hybrid, mean per point",
    );
    run.put(
        "dse.cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        format!("{hits} of {lookups} stage lookups"),
    );
    run.put(
        "dse.cache.inserts",
        inserts as f64 / id as f64,
        "count",
        "per sweep",
    );
    run.put(
        "dse.cache.evictions",
        evictions as f64 / id as f64,
        "count",
        "per sweep",
    );
    let (n_hit, _) = tr.total("dse.evaluate.hit");
    let (n_miss, _) = tr.total("dse.evaluate.miss");
    run.put(
        "dse.evaluate.hit_us",
        tr.mean_us("dse.evaluate.hit"),
        "us",
        format!("mean of {n_hit} points (classed by the cache's miss count across the call)"),
    );
    run.put(
        "dse.evaluate.miss_us",
        tr.mean_us("dse.evaluate.miss"),
        "us",
        format!("mean of {n_miss} points"),
    );
    run.put(
        "dse.pareto_us",
        tr.mean_us("dse.pareto"),
        "us",
        "mean per sweep",
    );
    run.put(
        "dse.pool.efficiency",
        busy_ns / capacity_ns.max(1.0),
        "ratio",
        format!("sum of evaluate / (sweep wall x {jobs} jobs)"),
    );
    run.put(
        "dse.pool.steals",
        steals as f64 / id as f64,
        "count",
        "per sweep",
    );
    let overhead =
        (Dist::new(traced_s).median().value / Dist::new(untraced_s).median().value - 1.0) * 100.0;
    crate::trace::finish(
        run,
        &tr,
        overhead,
        "median traced evaluate-sweep vs untraced sweep()",
    );
}

/// `scperf_dse::evaluate` opened into its public steps, each a span:
/// cache lookup, session build, elaboration, the kernel run, cache
/// insert and the metrics read.
fn evaluate_steps(
    table: &CostTable,
    mapping: [Target; 5],
    cache: &SegmentCostCache,
    tr: &mut Tracer,
    id: u64,
    counters: &mut SimCounters,
) -> DesignPoint {
    let span = tr.enter("dse.evaluate", id);
    let (platform, vm, fingerprints, replays) = tr.time("dse.cache.lookup", id, || {
        let (platform, ids) = build_platform(table);
        let vm = resolve_mapping(mapping, ids);
        let resources = [vm.lsp, vm.lpc_int, vm.acb, vm.icb, vm.post];
        let fingerprints: Vec<u64> = resources
            .iter()
            .map(|&r| SegmentCostCache::fingerprint(platform.resource(r), FRAMES))
            .collect();
        let replays: [StageTrace; 5] = std::array::from_fn(|s| cache.get(s, fingerprints[s]));
        (platform, vm, fingerprints, replays)
    });
    let missing: Vec<usize> = (0..5).filter(|&s| replays[s].is_none()).collect();
    let (mut session, recorder) = tr.time("core.session_build", id, || {
        let mut config = SimConfig::new().platform(platform);
        if let Some(set) = cache.programs(table_fingerprint(table)) {
            config = config.program_set(set);
        }
        let mut session = config.build();
        let recorder = (!missing.is_empty()).then(|| session.recorder());
        (session, recorder)
    });
    let handles = tr.time("workloads.elaborate", id, || {
        let (sim, model) = session.parts_mut();
        pipeline::build_hybrid(sim, model, vm, FRAMES, replays)
    });
    let summary = tr
        .time("kernel.run", id, || session.run())
        .expect("mapping simulates");
    tr.time("dse.cache.insert", id, || {
        if let Some(recorder) = &recorder {
            for &stage in &missing {
                let trace = recorder
                    .replay(STAGE_NAMES[stage])
                    .expect("trace recorded for live stage");
                cache.insert(stage, fingerprints[stage], trace);
            }
        }
        cache.publish_programs(&session.programs());
    });
    let metrics = tr.time("core.report", id, || session.metrics());
    counters.absorb(&metrics);
    tr.exit(span);
    let checksum = handles.output.lock().expect("sink finished");
    DesignPoint {
        mapping,
        latency: summary.end_time,
        cost: platform_cost(&mapping),
        checksum,
    }
}
