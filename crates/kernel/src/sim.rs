//! The simulator: elaboration (spawning processes, creating channels) and
//! the scheduler loop.
//!
//! Every process is a future. The scheduler polls the runnable ones in
//! pid order on its own thread; a poll returns when the body awaits its
//! next kernel wait (or finishes). The kernel's waiter sets and timed
//! queue already say which pids are runnable, so the futures are polled
//! with a no-op waker.

use std::fmt;
use std::sync::Arc;

use scperf_obs::{MemorySink, MetricsSnapshot, TraceSink, TraceTable};

use crate::config::{SimOptions, TraceMode};
use crate::event::Event;
use crate::parallel::Effect;
use crate::process::{
    mark_suspended, poll_process, Activation, ProcCtx, ProcFuture, ProcId, ProcessBody,
};
use crate::state::{AdvanceOutcome, ProcMeta, SchedSnapshot, Shared};
use crate::time::Time;
use crate::trace::TraceRecord;

/// Why a call to [`Simulator::run`] / [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No runnable processes and no pending notifications remain.
    EventsExhausted,
    /// The time limit passed to [`Simulator::run_until`] was reached.
    TimeLimit,
}

/// Statistics describing a finished (or paused) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSummary {
    /// Simulation time when the run stopped.
    pub end_time: Time,
    /// Total delta cycles executed.
    pub deltas: u64,
    /// Total process activations (dispatches).
    pub activations: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Errors surfaced by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A process body panicked; carries the process name and panic message.
    ProcessPanic {
        /// Name of the panicking process.
        process: String,
        /// Stringified panic payload.
        message: String,
    },
    /// Parallel evaluation (`jobs > 1`) detected a construct whose
    /// outcome depends on process execution order within one delta
    /// cycle — conflicting same-delta channel accesses (two writers on
    /// a signal, two readers on a fifo) or an immediate notification
    /// with live waiters. Such a model is not a *determinate
    /// specification* in the sense of the paper's §4, so instead of
    /// silently racing the kernel stops and reports it. The simulator
    /// is poisoned afterwards. See `docs/PARALLELISM.md`.
    NonDeterminate {
        /// Human-readable description of the conflicting construct.
        detail: String,
    },
    /// A process body awaited a future that is not a kernel wait: its
    /// poll returned `Pending` without registering a wake-up, so the
    /// scheduler could never run it again. Processes may only suspend on
    /// [`ProcCtx::wait`], [`ProcCtx::wait_event`] and the channel
    /// operations built on them. The simulator is poisoned afterwards.
    ForeignAwait {
        /// Name of the offending process.
        process: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::NonDeterminate { detail } => {
                write!(
                    f,
                    "non-determinate construct under parallel evaluation: {detail}"
                )
            }
            SimError::ForeignAwait { process } => {
                write!(
                    f,
                    "process '{process}' suspended on a future the kernel cannot wake \
                     (only ProcCtx waits and channel operations may be awaited)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A discrete-event simulator with SystemC semantics.
///
/// Elaborate the model by spawning processes ([`Simulator::spawn`]) and
/// creating channels, then call [`Simulator::run`]. Each process body is
/// a future that the scheduler polls on its own thread, so execution is
/// cooperative and deterministic: within a delta cycle, runnable
/// processes execute in spawn order.
///
/// # Examples
///
/// ```
/// use scperf_kernel::{Simulator, Time};
///
/// let mut sim = Simulator::new();
/// let fifo = sim.fifo::<u32>("data", 2);
/// let (tx, rx) = (fifo.clone(), fifo);
/// sim.spawn("producer", move |mut ctx| async move {
///     for i in 0..4 {
///         tx.write(&mut ctx, i).await;
///     }
/// });
/// sim.spawn("consumer", move |mut ctx| async move {
///     let mut sum = 0;
///     for _ in 0..4 {
///         sum += rx.read(&mut ctx).await;
///     }
///     assert_eq!(sum, 6);
/// });
/// let summary = sim.run()?;
/// assert_eq!(summary.end_time, Time::ZERO); // untimed model: all in delta cycles
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
pub struct Simulator {
    shared: Arc<Shared>,
    /// One future per spawned process, indexed by pid; `None` once the
    /// process terminated.
    procs: Vec<Option<ProcFuture>>,
    errored: bool,
    /// Accumulated process→scheduler resume latency: host time from a
    /// process suspending to its poll returning, exported through
    /// [`Simulator::metrics`] as `kernel.handoff.*`.
    resume_nanos: u64,
    resumes: u64,
    /// Evaluate-phase parallelism degree; 1 = the sequential poll loop.
    jobs: usize,
    /// Lazily created dispatcher pool for parallel rounds (one worker
    /// fewer than [`Simulator::dispatchers`]; the scheduler thread polls
    /// the first chunk inline).
    pool: Option<scperf_sync::WorkerPool>,
}

impl Simulator {
    /// Creates an empty simulator with default options.
    pub fn new() -> Simulator {
        Simulator::with_options(SimOptions::new())
    }

    /// Creates an empty simulator from a [`SimOptions`] value: the
    /// parallelism degree, attribution and the trace-sink wiring, in one
    /// place. This is the constructor the `scperf_core::SimConfig`
    /// session builder threads its kernel half through.
    pub fn with_options(options: SimOptions) -> Simulator {
        let mut sim = Simulator {
            shared: Shared::new(),
            procs: Vec::new(),
            errored: false,
            resume_nanos: 0,
            resumes: 0,
            jobs: 1,
            pool: None,
        };
        sim.set_jobs(options.jobs);
        if options.attribution {
            sim.set_attribution(true);
        }
        match options.sink {
            Some(sink) => sim.set_trace_sink(sink),
            None => match options.trace {
                TraceMode::Off => {}
                TraceMode::Unbounded => sim.enable_tracing(),
                TraceMode::Ring(n) => sim.enable_tracing_ring(n),
            },
        }
        sim
    }

    /// Sets the evaluate-phase parallelism degree (normally through
    /// [`SimOptions::jobs`]). `0` is treated as `1`. With `jobs > 1`
    /// each delta's runnable set is partitioned across dispatcher
    /// threads and process side effects are committed in canonical
    /// pid order at the delta boundary, keeping results bit-identical
    /// to `jobs = 1` for determinate models — see `docs/PARALLELISM.md`.
    /// Call before `run`.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The configured evaluate-phase parallelism degree.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Spawns a process (the analogue of `SC_THREAD`). `body` receives
    /// the process's [`ProcCtx`] and returns the process future —
    /// normally an `async move` block that awaits waits and channel
    /// operations (see [`ProcessBody`]). The body runs when the
    /// simulation starts and the process terminates when it returns.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn spawn<F, R, M>(&mut self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(ProcCtx) -> R + Send + 'static,
        R: ProcessBody<M>,
    {
        let name = name.into();
        let pid = self.shared.with_state(|st| {
            assert!(
                !st.started,
                "processes must be spawned before the simulation starts"
            );
            st.procs.push(ProcMeta::new(name));
            st.procs.len() - 1
        });
        let ctx = ProcCtx {
            pid,
            shared: Arc::clone(&self.shared),
        };
        self.procs.push(Some(Box::pin(async move {
            body(ctx).into_process_future().await;
            mark_suspended();
        })));
        ProcId(pid)
    }

    /// Creates a named event (for testbench components and channels).
    pub fn event(&mut self, name: impl Into<String>) -> Event {
        Event::new(Arc::clone(&self.shared), name)
    }

    /// Enables trace recording into an unbounded in-memory sink. Call
    /// before `run`.
    pub fn enable_tracing(&mut self) {
        if !self.shared.tracing_fast() {
            self.shared.set_sink(Some(Box::new(MemorySink::new())));
        }
    }

    /// Enables trace recording into a ring buffer keeping roughly the
    /// last `max_events` events — bounded memory for long simulations.
    pub fn enable_tracing_ring(&mut self, max_events: usize) {
        self.shared
            .set_sink(Some(Box::new(MemorySink::ring(max_events))));
    }

    /// Installs a custom [`TraceSink`] (streaming writer, aggregator,
    /// …). Replaces any previous sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.shared.set_sink(Some(sink));
    }

    /// Disables tracing and returns the installed sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.shared.take_sink()
    }

    /// Takes the recorded trace as legacy string-based records (a view
    /// materialized from the compact event buffer). Tracing stays
    /// enabled with a fresh buffer.
    ///
    /// Returns an empty vector when tracing is disabled or a custom
    /// (non-memory) sink is installed.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let table = self.take_events();
        table
            .events
            .iter()
            .map(|ev| crate::trace::materialize_record(&table, ev))
            .collect()
    }

    /// Takes the recorded trace as a detached [`TraceTable`] (compact
    /// events plus string table and process names). Tracing stays
    /// enabled with a fresh buffer.
    pub fn take_events(&mut self) -> TraceTable {
        self.shared.with_state(|st| {
            let (events, dropped) = match st.sink.as_mut().and_then(|s| s.as_memory()) {
                Some(mem) => {
                    let dropped = mem.dropped();
                    (mem.drain(), dropped)
                }
                None => (Vec::new(), 0),
            };
            TraceTable {
                events,
                strings: st.interner.snapshot(),
                process_names: st.procs.iter().map(|p| p.name.clone()).collect(),
                dropped,
            }
        })
    }

    /// Snapshots the kernel's metrics (delta cycles, context switches,
    /// notification counts, per-channel access counts, …). Available at
    /// any point, with or without tracing.
    ///
    /// This includes the accumulated process→scheduler resume latency
    /// (`kernel.handoff.*`): one resume per activation, timed from the
    /// process suspending on a kernel wait (or finishing) to the
    /// scheduler continuing after its poll.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.shared.with_state(|st| st.metrics_snapshot());
        m.set_counter("kernel.handoff.resumes", self.resumes);
        m.set_counter("kernel.handoff.resume_nanos", self.resume_nanos);
        if self.resumes > 0 {
            m.set_gauge(
                "kernel.handoff.mean_resume_ns",
                self.resume_nanos as f64 / self.resumes as f64,
            );
        }
        if self.jobs > 1 {
            use std::sync::atomic::Ordering::Relaxed;
            let par = &self.shared.par;
            m.set_counter("kernel.par.jobs", self.jobs as u64);
            m.set_counter("kernel.par.rounds", par.rounds.load(Relaxed));
            m.set_counter("kernel.par.workers", par.workers.load(Relaxed));
            m.set_counter("kernel.par.effects", par.effects_committed.load(Relaxed));
            m.set_counter("kernel.par.commit_nanos", par.commit_nanos.load(Relaxed));
            m.set_counter("kernel.par.seq_fallbacks", par.seq_fallbacks.load(Relaxed));
        }
        m
    }

    /// Enables/disables scheduling-state attribution: per-process
    /// waiting-time accounting and per-channel queue-depth/blocked-time
    /// counters, all in *simulated* time. Attribution is
    /// measurement-only — simulated behaviour is bit-identical whether
    /// it is on or off. Usually set through
    /// [`SimOptions::attribution`]; call before `run`.
    pub fn set_attribution(&mut self, enable: bool) {
        self.shared.set_attribution(enable);
    }

    /// Snapshots the scheduling attribution: per-process activation and
    /// wait accounting plus per-channel access/contention counters.
    /// The time-valued fields are only populated when attribution was
    /// enabled ([`SimOptions::attribution`] /
    /// [`Simulator::set_attribution`]); the snapshot's `enabled` flag
    /// records which.
    pub fn sched_stats(&self) -> SchedSnapshot {
        self.shared.with_state(|st| st.sched_snapshot())
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now_fast()
    }

    /// The name of a process.
    pub fn process_name(&self, pid: ProcId) -> String {
        self.shared.with_state(|st| st.procs[pid.0].name.clone())
    }

    /// Ids of all spawned processes, in spawn order.
    pub fn process_ids(&self) -> Vec<ProcId> {
        self.shared
            .with_state(|st| (0..st.procs.len()).map(ProcId).collect())
    }

    /// Number of spawned processes.
    pub fn process_count(&self) -> usize {
        self.shared.with_state(|st| st.procs.len())
    }

    /// Number of registered channels (FIFOs, signals, rendezvous).
    pub fn channel_count(&self) -> usize {
        self.shared.with_state(|st| st.chan_stats.len())
    }

    /// Runs until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics and
    /// [`SimError::ForeignAwait`] if one suspends on a future the kernel
    /// cannot wake; the simulator cannot be resumed afterwards.
    pub fn run(&mut self) -> Result<SimSummary, SimError> {
        self.run_until(Time::MAX)
    }

    /// Runs until no events remain or simulation time would exceed `limit`.
    /// Can be called repeatedly with growing limits to step a simulation.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run_until(&mut self, limit: Time) -> Result<SimSummary, SimError> {
        assert!(!self.errored, "simulator is poisoned by an earlier error");
        self.shared.with_state(|st| {
            if !st.started {
                st.started = true;
                for pid in 0..st.procs.len() {
                    st.runnable.insert(pid);
                }
            }
        });
        let reason = loop {
            // Evaluate phase.
            {
                let _span = scperf_obs::profile::span("kernel.evaluate");
                let runnable = self.shared.with_state(|st| st.runnable.len());
                if self.parallel_round_possible(runnable) {
                    self.evaluate_parallel()?;
                } else {
                    if self.jobs > 1 && runnable > 0 {
                        self.shared
                            .par
                            .seq_fallbacks
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    loop {
                        let next = self.shared.with_state(|st| {
                            let pid = st.runnable.pop_first();
                            st.current = pid;
                            pid
                        });
                        let Some(pid) = next else { break };
                        self.dispatch(pid)?;
                    }
                    self.shared.with_state(|st| st.current = None);
                }
            }
            // Update phase.
            {
                let _span = scperf_obs::profile::span("kernel.update");
                self.shared.with_state(|st| st.run_update_phase());
            }
            // Delta notification phase.
            let progressed = self.shared.with_state(|st| {
                if st.next_runnable.is_empty() {
                    false
                } else {
                    st.runnable = std::mem::take(&mut st.next_runnable);
                    st.delta += 1;
                    true
                }
            });
            if progressed {
                continue;
            }
            // Timed notification phase.
            let advanced = self.shared.with_state(|st| {
                let outcome = st.advance_time(limit);
                self.shared.publish_now(st);
                outcome
            });
            match advanced {
                AdvanceOutcome::Advanced => continue,
                AdvanceOutcome::LimitReached => break StopReason::TimeLimit,
                AdvanceOutcome::Exhausted => break StopReason::EventsExhausted,
            }
        };
        Ok(self.shared.with_state(|st| SimSummary {
            end_time: st.now,
            deltas: st.delta,
            activations: st.activations,
            reason,
        }))
    }

    fn note_resume(&mut self, latency: Option<u64>) {
        if let Some(ns) = latency {
            self.resume_nanos += ns;
            self.resumes += 1;
        }
    }

    /// Polls process `pid` once on the scheduler thread and books the
    /// activation.
    fn dispatch(&mut self, pid: usize) -> Result<(), SimError> {
        let fut = self.procs[pid]
            .as_mut()
            .expect("a runnable process has a live future");
        let (outcome, latency) = poll_process(pid, fut);
        self.note_resume(latency);
        let waiting = matches!(outcome, Activation::Suspended);
        self.shared.with_state(|st| {
            st.activations += 1;
            if st.attribution {
                let now = st.now;
                let p = &mut st.procs[pid];
                p.activations += 1;
                if waiting {
                    // The wake paths in `KernelState` close the span.
                    p.wait_since = Some(now);
                }
            }
        });
        match outcome {
            Activation::Suspended => Ok(()),
            Activation::Finished => {
                self.shared.with_state(|st| st.procs[pid].alive = false);
                self.procs[pid] = None;
                Ok(())
            }
            Activation::Panicked(message) => {
                self.errored = true;
                self.procs[pid] = None;
                let process = self.shared.with_state(|st| {
                    st.procs[pid].alive = false;
                    st.procs[pid].name.clone()
                });
                Err(SimError::ProcessPanic { process, message })
            }
            Activation::Foreign => {
                self.errored = true;
                let process = self.shared.with_state(|st| st.procs[pid].name.clone());
                Err(SimError::ForeignAwait { process })
            }
        }
    }

    /// A parallel round needs `jobs > 1`, at least two runnable
    /// processes, and no feature that forces the sequential path
    /// (attribution's wait-span accounting is order-sensitive). A
    /// reset-and-reused simulator whose new life spawned more processes
    /// than its effect-log table holds also falls back.
    fn parallel_round_possible(&self, runnable: usize) -> bool {
        self.jobs > 1
            && runnable >= 2
            && !self.shared.attribution_fast()
            && self.shared.par.logs_fit(self.procs.len())
    }

    /// How many threads poll a parallel round: `jobs`, but no more than
    /// the host has CPUs (and at least two, so a round stays a round).
    /// A poll is far cheaper than a pool hand-off, so dispatchers beyond
    /// the CPU count only add wake-ups; the chunking never changes the
    /// committed result.
    fn dispatchers(&self) -> usize {
        static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let cpus =
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        self.jobs.min(cpus.max(2))
    }

    /// Runs one evaluate phase in parallel: snapshot the runnable set,
    /// poll ascending-pid chunks of it across the pool (chunk 0 inline
    /// on the scheduler thread), then commit every buffered effect in
    /// canonical pid order. See `docs/PARALLELISM.md` for the contract.
    fn evaluate_parallel(&mut self) -> Result<(), SimError> {
        use std::sync::atomic::Ordering;

        // Snapshot *without draining*: the commit loop pops `runnable`
        // exactly like the sequential kernel, so depth-derived metrics
        // (ready_peak) evolve identically.
        let members: Vec<usize> = self
            .shared
            .with_state(|st| st.runnable.iter().copied().collect());
        let nprocs = self.procs.len();
        let gate = self.shared.par.begin_round(members.clone(), nprocs);
        let dispatchers = self.dispatchers();
        let workers = dispatchers.min(members.len());
        if workers > 1 && self.pool.is_none() {
            self.pool = Some(scperf_sync::WorkerPool::new("scperf-par", dispatchers - 1));
        }
        let polled: Arc<Polled> = Arc::new(scperf_sync::Mutex::new(Vec::new()));

        // One contiguous ascending chunk per dispatcher. Ascending
        // order within a chunk is what keeps the pid-order fences
        // deadlock-free: the smallest unpolled pid is always at the
        // head of some dispatcher's chunk.
        let base = members.len() / workers;
        let extra = members.len() % workers;
        let mut rest = members.iter();
        let mut chunks: Vec<Vec<(usize, ProcFuture)>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk = rest
                .by_ref()
                .take(len)
                .map(|&pid| {
                    let fut = self.procs[pid]
                        .take()
                        .expect("a runnable process has a live future");
                    (pid, fut)
                })
                .collect();
            chunks.push(chunk);
        }
        let mut chunk_iter = chunks.into_iter();
        let inline_chunk = chunk_iter.next().expect("at least one chunk");
        for chunk in chunk_iter {
            let gate = Arc::clone(&gate);
            let polled = Arc::clone(&polled);
            let pool = self.pool.as_ref().expect("pool exists when workers > 1");
            pool.submit(move || poll_chunk(chunk, &gate, &polled));
        }
        poll_chunk(inline_chunk, &gate, &polled);
        if let Some(pool) = &self.pool {
            pool.wait_idle();
        }
        // Every member's poll returned; flip back to live-kernel mode so
        // the commit replay below goes through the normal paths.
        self.shared.par.end_round();
        self.shared.par.rounds.fetch_add(1, Ordering::Relaxed);
        self.shared
            .par
            .workers
            .fetch_max(workers as u64, Ordering::Relaxed);

        let mut outs: Vec<Option<Activation>> = (0..nprocs).map(|_| None).collect();
        for (pid, fut, outcome, latency) in std::mem::take(&mut *polled.lock()) {
            self.note_resume(latency);
            self.procs[pid] = Some(fut);
            outs[pid] = Some(outcome);
        }

        // Conflicting same-delta accesses detected mid-round mean the
        // model is not a determinate spec: report, don't race.
        let hazards = self.shared.par.take_hazards();
        if let Some(detail) = hazards.into_iter().next() {
            self.errored = true;
            return Err(SimError::NonDeterminate { detail });
        }

        // Commit: replay each member's effects in ascending pid order,
        // each log in program order, through the same KernelState entry
        // points the sequential kernel uses — reproducing sequence
        // numbers, metrics and the trace stream bit-exactly.
        let commit_start = std::time::Instant::now();
        let mut effects_committed = 0u64;
        let mut finished: Vec<usize> = Vec::new();
        let shared = Arc::clone(&self.shared);
        let result: Result<(), SimError> = shared.with_state(|st| {
            while let Some(pid) = st.runnable.pop_first() {
                st.current = Some(pid);
                for effect in self.shared.par.drain(pid) {
                    effects_committed += 1;
                    match effect {
                        Effect::Schedule { delay, action } => st.schedule(delay, action),
                        Effect::WaitEvent { ev } => {
                            st.events[ev].waiters.insert(pid);
                        }
                        Effect::NotifyDelta { ev } => st.notify_event_delta(ev),
                        Effect::NotifyImmediate { ev } => {
                            if !st.events[ev].waiters.is_empty() {
                                return Err(SimError::NonDeterminate {
                                    detail: format!(
                                        "immediate notification of event '{}' with live \
                                         waiters during a parallel evaluate round (wakes \
                                         within the current delta depend on execution \
                                         order); use notify_delta or run with jobs = 1",
                                        st.events[ev].name
                                    ),
                                });
                            }
                            st.notify_event_immediate(ev);
                        }
                        Effect::Trace {
                            label,
                            chan,
                            payload,
                        } => {
                            st.record_event(Some(pid), label, chan, payload);
                        }
                        Effect::TraceText { label, detail } => {
                            st.record_text(Some(pid), &label, &detail);
                        }
                    }
                }
                st.activations += 1;
                match outs[pid].take() {
                    Some(Activation::Suspended) | None => {}
                    Some(Activation::Finished) => {
                        st.procs[pid].alive = false;
                        finished.push(pid);
                    }
                    Some(Activation::Panicked(message)) => {
                        st.procs[pid].alive = false;
                        finished.push(pid);
                        return Err(SimError::ProcessPanic {
                            process: st.procs[pid].name.clone(),
                            message,
                        });
                    }
                    Some(Activation::Foreign) => {
                        return Err(SimError::ForeignAwait {
                            process: st.procs[pid].name.clone(),
                        });
                    }
                }
            }
            st.current = None;
            Ok(())
        });
        self.shared
            .par
            .effects_committed
            .fetch_add(effects_committed, Ordering::Relaxed);
        self.shared
            .par
            .commit_nanos
            .fetch_add(commit_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        for pid in finished {
            self.procs[pid] = None;
        }
        if result.is_err() {
            self.errored = true;
        }
        result
    }

    /// Returns this simulator to its just-constructed state so a pooled
    /// slot can be reused without paying thread-pool, allocation and
    /// interner setup again: every process future is dropped (running
    /// the destructors of whatever a blocked process still held), the
    /// kernel state (time, queues, events, process table, metrics,
    /// channel registries, trace sink) is cleared in place, the
    /// `kernel.par.*` counters are zeroed, and the error/poison flag is
    /// cleared — a [`SimError::NonDeterminate`] in the previous life
    /// does not poison the next one. The `jobs` degree, attribution flag
    /// and the lazily created dispatcher pool are kept.
    ///
    /// After a reset the simulator behaves exactly like
    /// `Simulator::with_options` with the same options: spawn processes,
    /// create channels, run. Verified bit-identical to a fresh build by
    /// the core pool determinism tests.
    pub fn reset(&mut self) {
        // Break the kernel ↔ channel reference cycle, then drop the
        // previous life's processes (same as Drop).
        self.shared.with_state(|st| st.clear_update_hooks());
        self.procs.clear();
        // Drop the sink through `set_sink` so the lock-free tracing
        // mirror stays in sync, then clear the state in place.
        self.shared.set_sink(None);
        self.shared.with_state(|st| {
            st.reset();
            self.shared.publish_now(st);
        });
        self.shared.par.reset_counters();
        self.errored = false;
        self.resume_nanos = 0;
        self.resumes = 0;
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

/// What each dispatcher of a parallel round hands back per member: the
/// pid, its future, how the poll ended and the resume latency.
type Polled = scperf_sync::Mutex<Vec<(usize, ProcFuture, Activation, Option<u64>)>>;

/// Polls one ascending chunk of a parallel round on the calling thread,
/// marking each member yielded on the round gate as its poll returns
/// (releasing any higher-pid fences waiting on it).
fn poll_chunk(chunk: Vec<(usize, ProcFuture)>, gate: &crate::parallel::RoundGate, polled: &Polled) {
    for (pid, mut fut) in chunk {
        let (outcome, latency) = poll_process(pid, &mut fut);
        gate.mark_yielded(pid);
        polled.lock().push((pid, fut, outcome, latency));
    }
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator::new()
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        // Break the kernel ↔ channel reference cycle; the process
        // futures (and everything blocked processes hold) drop with
        // `procs`.
        self.shared.with_state(|st| st.clear_update_hooks());
        self.procs.clear();
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("processes", &self.procs.len())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_finishes_immediately() {
        let mut sim = Simulator::new();
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ZERO);
        assert_eq!(s.reason, StopReason::EventsExhausted);
        assert_eq!(s.activations, 0);
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulator::new();
        sim.spawn("p", |mut ctx| async move {
            ctx.wait(Time::ns(5)).await;
            ctx.wait(Time::ns(7)).await;
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(12));
        assert_eq!(s.reason, StopReason::EventsExhausted);
    }

    #[test]
    fn processes_interleave_by_time() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let mut sim = Simulator::new();
        let tx1 = tx.clone();
        sim.spawn("a", move |mut ctx| async move {
            ctx.wait(Time::ns(10)).await;
            tx1.send(("a", ctx.now())).unwrap();
        });
        sim.spawn("b", move |mut ctx| async move {
            ctx.wait(Time::ns(5)).await;
            tx.send(("b", ctx.now())).unwrap();
        });
        sim.run().unwrap();
        let order: Vec<_> = rx.try_iter().collect();
        assert_eq!(order, vec![("b", Time::ns(5)), ("a", Time::ns(10))]);
    }

    #[test]
    fn same_instant_wakes_in_pid_order() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let mut sim = Simulator::new();
        for name in ["x", "y", "z"] {
            let tx = tx.clone();
            sim.spawn(name, move |mut ctx| async move {
                ctx.wait(Time::ns(3)).await;
                tx.send(name).unwrap();
            });
        }
        sim.run().unwrap();
        let order: Vec<_> = rx.try_iter().collect();
        assert_eq!(order, vec!["x", "y", "z"]);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = Simulator::new();
        sim.spawn("p", |mut ctx| async move {
            ctx.wait(Time::ns(100)).await;
        });
        let s = sim.run_until(Time::ns(10)).unwrap();
        assert_eq!(s.reason, StopReason::TimeLimit);
        assert_eq!(s.end_time, Time::ns(10));
        let s = sim.run().unwrap();
        assert_eq!(s.reason, StopReason::EventsExhausted);
        assert_eq!(s.end_time, Time::ns(100));
    }

    #[test]
    fn zero_wait_is_one_timestep() {
        let mut sim = Simulator::new();
        sim.spawn("p", |mut ctx| async move {
            let d0 = ctx.delta_count();
            ctx.wait(Time::ZERO).await;
            assert_eq!(ctx.now(), Time::ZERO);
            assert!(ctx.delta_count() > d0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn event_wait_and_notify() {
        let mut sim = Simulator::new();
        let ev = sim.event("go");
        let ev2 = ev.clone();
        sim.spawn("waiter", move |mut ctx| async move {
            ctx.wait_event(&ev).await;
            assert_eq!(ctx.now(), Time::ns(42));
        });
        sim.spawn("notifier", move |mut ctx| async move {
            ctx.wait(Time::ns(42)).await;
            ev2.notify_delta();
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(42));
    }

    #[test]
    fn immediate_notification_runs_same_evaluate_phase() {
        let mut sim = Simulator::new();
        let ev = sim.event("now");
        let ev2 = ev.clone();
        // waiter (pid 0) waits first, notifier (pid 1) fires immediately at
        // time zero; the waiter must complete in the same delta.
        sim.spawn("waiter", move |mut ctx| async move {
            ctx.wait_event(&ev).await;
            assert_eq!(ctx.delta_count(), 0);
        });
        sim.spawn("notifier", move |_ctx| {
            ev2.notify_immediate();
        });
        sim.run().unwrap();
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulator::new();
        sim.spawn("bad", |_ctx| async { panic!("deliberate test panic") });
        let err = sim.run().unwrap_err();
        match err {
            SimError::ProcessPanic { process, message } => {
                assert_eq!(process, "bad");
                assert!(message.contains("deliberate"));
            }
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
    }

    /// Counts its drops, standing in for whatever a blocked process
    /// holds (buffers, handles, guards).
    struct DropCounter(Arc<std::sync::atomic::AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Spawns `n` processes that each hold a [`DropCounter`] and block
    /// forever on an event nobody notifies.
    fn spawn_stuck(sim: &mut Simulator, n: usize, drops: &Arc<std::sync::atomic::AtomicUsize>) {
        let ev = sim.event("never");
        for i in 0..n {
            let (ev, held) = (ev.clone(), DropCounter(Arc::clone(drops)));
            sim.spawn(format!("stuck{i}"), move |mut ctx| async move {
                let _held = held;
                ctx.wait_event(&ev).await; // never notified
                unreachable!();
            });
        }
    }

    #[test]
    fn drop_runs_destructors_of_blocked_processes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulator::new();
        spawn_stuck(&mut sim, 3, &drops);
        let s = sim.run().unwrap();
        assert_eq!(s.reason, StopReason::EventsExhausted);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "blocked, not dropped yet");
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn reset_runs_destructors_of_blocked_processes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = crate::SimOptions::new().jobs(2).build();
        spawn_stuck(&mut sim, 4, &drops);
        sim.run().unwrap();
        sim.reset();
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        // Never-started processes drop too.
        spawn_stuck(&mut sim, 2, &drops);
        sim.reset();
        assert_eq!(drops.load(Ordering::SeqCst), 6);
    }

    /// A future that is never ready and registers no kernel wake-up.
    struct Never;

    impl std::future::Future for Never {
        type Output = ();
        fn poll(
            self: std::pin::Pin<&mut Self>,
            _cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<()> {
            std::task::Poll::Pending
        }
    }

    #[test]
    fn foreign_future_is_a_typed_error_not_a_hang() {
        for jobs in [1, 2] {
            let mut sim = crate::SimOptions::new().jobs(jobs).build();
            sim.spawn("fine", |mut ctx| async move {
                ctx.wait(Time::ns(1)).await;
            });
            sim.spawn("foreign", |mut ctx| async move {
                ctx.wait(Time::ns(1)).await;
                Never.await;
            });
            match sim.run() {
                Err(SimError::ForeignAwait { process }) => assert_eq!(process, "foreign"),
                other => panic!("jobs={jobs}: expected ForeignAwait, got {other:?}"),
            }
            let err = SimError::ForeignAwait {
                process: "foreign".into(),
            };
            assert!(err.to_string().contains("'foreign'"));
        }
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn foreign_future_poisons_the_simulator() {
        let mut sim = Simulator::new();
        sim.spawn("foreign", |_ctx| Never);
        assert!(sim.run().is_err());
        let _ = sim.run();
    }

    #[test]
    fn panic_in_a_parallel_round_is_reported_and_poisons() {
        let mut sim = crate::SimOptions::new().jobs(2).build();
        for i in 0..4 {
            sim.spawn(format!("p{i}"), move |mut ctx| async move {
                ctx.wait(Time::ns(1)).await;
                assert!(i != 2, "deliberate test panic in p{i}");
            });
        }
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "p2");
                assert!(message.contains("deliberate"));
            }
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(again.is_err(), "a panicked simulator stays poisoned");
    }

    #[test]
    fn resume_latency_counts_one_resume_per_activation() {
        let mut sim = Simulator::new();
        sim.spawn("p", |mut ctx| async move {
            ctx.wait(Time::ns(1)).await;
            ctx.wait(Time::ns(1)).await;
        });
        let s = sim.run().unwrap();
        let m = sim.metrics();
        assert_eq!(m.counter("kernel.handoff.resumes"), Some(s.activations));
        assert!(m.counter("kernel.handoff.resume_nanos").is_some());
    }

    #[test]
    #[should_panic(expected = "outside its own process")]
    fn a_context_smuggled_into_another_process_panics() {
        let mut sim = Simulator::new();
        let (tx, rx) = std::sync::mpsc::channel::<ProcCtx>();
        sim.spawn("owner", move |ctx| async move {
            tx.send(ctx).unwrap();
        });
        sim.spawn("thief", move |_ctx| async move {
            let mut stolen = rx.recv().unwrap();
            stolen.wait(Time::ns(1)).await;
        });
        // The panic surfaces as ProcessPanic; re-raise it for should_panic.
        if let Err(e) = sim.run() {
            panic!("{e}");
        }
    }

    #[test]
    fn tracing_records_emitted_events() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        sim.spawn("p", |mut ctx| async move {
            ctx.wait(Time::ns(1)).await;
            ctx.emit_trace("custom", "hello");
        });
        sim.run().unwrap();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "custom");
        assert_eq!(trace[0].process, "p");
        assert_eq!(trace[0].time, Time::ns(1));
    }

    #[test]
    fn activations_are_counted() {
        let mut sim = Simulator::new();
        sim.spawn("p", |mut ctx| async move {
            ctx.wait(Time::ns(1)).await;
            ctx.wait(Time::ns(1)).await;
        });
        let s = sim.run().unwrap();
        // initial dispatch + 2 wakes = 3 activations
        assert_eq!(s.activations, 3);
    }

    #[test]
    fn attribution_accounts_waits_in_simulated_time() {
        let mut sim = crate::SimOptions::new().attribution(true).build();
        let ev = sim.event("go");
        let ev2 = ev.clone();
        sim.spawn("waiter", move |mut ctx| async move {
            ctx.wait_event(&ev).await;
        });
        sim.spawn("notifier", move |mut ctx| async move {
            ctx.wait(Time::ns(42)).await;
            ev2.notify_delta();
        });
        sim.run().unwrap();
        let stats = sim.sched_stats();
        assert!(stats.enabled);
        let waiter = &stats.processes[0];
        assert_eq!(waiter.name, "waiter");
        assert_eq!(waiter.waits, 1);
        assert_eq!(waiter.wait, Time::ns(42));
        assert_eq!(waiter.activations, 2);
        // Timed waits are wait episodes too: the notifier slept 42ns.
        let notifier = &stats.processes[1];
        assert_eq!(notifier.waits, 1);
        assert_eq!(notifier.wait, Time::ns(42));
    }

    #[test]
    fn attribution_tracks_channel_depth_and_blocked_time() {
        let mut sim = crate::SimOptions::new().attribution(true).build();
        let f = sim.fifo::<u32>("ch", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |mut ctx| async move {
            for i in 0..4 {
                w.write(&mut ctx, i).await; // fills to depth 2, then blocks
            }
        });
        sim.spawn("r", move |mut ctx| async move {
            ctx.wait(Time::ns(10)).await;
            for _ in 0..4 {
                let _ = r.read(&mut ctx).await;
            }
        });
        sim.run().unwrap();
        let stats = sim.sched_stats();
        let ch = &stats.channels[0];
        assert_eq!(ch.name, "ch");
        assert_eq!(ch.writes, 4);
        assert_eq!(ch.reads, 4);
        assert_eq!(ch.max_depth, 2);
        assert!(ch.blocks > 0);
        // The writer blocked on a full FIFO until the reader started
        // draining at 10ns.
        assert!(ch.blocked >= Time::ns(10), "blocked = {:?}", ch.blocked);
        let m = sim.metrics();
        assert!(m.counter("kernel.sched.w.wait_ns").unwrap() >= 10);
        assert!(m.counter("channel.ch.max_depth").unwrap() == 2);
        assert!(m.counter("channel.ch.blocked_ns").unwrap() >= 10);
    }

    #[test]
    fn attribution_is_bit_identical_and_off_stays_zero() {
        let run = |attr: bool| {
            let mut sim = crate::SimOptions::new().attribution(attr).build();
            let f = sim.fifo::<u32>("ch", 1);
            let (w, r) = (f.clone(), f);
            sim.spawn("w", move |mut ctx| async move {
                for i in 0..8 {
                    w.write(&mut ctx, i).await;
                    ctx.wait(Time::ns(3)).await;
                }
            });
            sim.spawn("r", move |mut ctx| async move {
                for _ in 0..8 {
                    let _ = r.read(&mut ctx).await;
                    ctx.wait(Time::ns(5)).await;
                }
            });
            let summary = sim.run().unwrap();
            (summary, sim.sched_stats())
        };
        let (s_on, st_on) = run(true);
        let (s_off, st_off) = run(false);
        assert_eq!(s_on, s_off, "attribution must not change simulated results");
        assert!(st_on.enabled && !st_off.enabled);
        assert!(st_on.processes.iter().any(|p| p.waits > 0));
        assert!(st_off
            .processes
            .iter()
            .all(|p| p.waits == 0 && p.wait == Time::ZERO && p.activations == 0));
        assert!(st_off
            .channels
            .iter()
            .all(|c| c.max_depth == 0 && c.blocked == Time::ZERO));
    }

    fn elaborate_fifo_pair(sim: &mut Simulator) {
        let f = sim.fifo::<u32>("ch", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |mut ctx| async move {
            for i in 0..4 {
                w.write(&mut ctx, i).await;
                ctx.wait(Time::ns(3)).await;
            }
        });
        sim.spawn("r", move |mut ctx| async move {
            for _ in 0..4 {
                let _ = r.read(&mut ctx).await;
                ctx.wait(Time::ns(5)).await;
            }
        });
    }

    #[test]
    fn reset_reuses_a_simulator_bit_identically() {
        let mut fresh = Simulator::new();
        fresh.enable_tracing();
        elaborate_fifo_pair(&mut fresh);
        let s_fresh = fresh.run().unwrap();
        let t_fresh = fresh.take_trace();

        // Run an unrelated model first, then reset and rebuild the same
        // model: summary and full trace must match the fresh run.
        let mut reused = Simulator::new();
        reused.enable_tracing();
        reused.spawn("other", |mut ctx| async move {
            ctx.wait(Time::us(1)).await;
            ctx.emit_trace("leftover", "state that must not leak");
        });
        reused.run().unwrap();
        reused.reset();
        reused.enable_tracing();
        elaborate_fifo_pair(&mut reused);
        let s_reused = reused.run().unwrap();
        assert_eq!(s_fresh, s_reused);
        assert_eq!(t_fresh, reused.take_trace());
    }

    #[test]
    fn reset_clears_the_poison_flag_after_a_panic() {
        let mut sim = Simulator::new();
        sim.spawn("bad", |_ctx| async { panic!("deliberate test panic") });
        assert!(sim.run().is_err());
        sim.reset();
        sim.spawn("good", |mut ctx| async move { ctx.wait(Time::ns(7)).await });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(7));
    }

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn spawn_after_start_panics() {
        let mut sim = Simulator::new();
        sim.run().unwrap();
        sim.spawn("late", |_| {});
    }
}
