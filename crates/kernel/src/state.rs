//! The kernel's shared mutable state and the scheduler's phase primitives.
//!
//! All of this is `pub(crate)`: user code interacts with it through
//! [`crate::Simulator`], [`crate::ProcCtx`], [`crate::Event`] and the
//! channels.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use scperf_obs::{Interner, MetricsSnapshot, Payload, Sym, TraceEvent, TraceSink};
use scperf_sync::Mutex;

use crate::time::Time;
use crate::wheel::{TimerWheel, WheelPop};

/// A channel that participates in the update phase (e.g. signals, FIFOs).
///
/// `update` is called by the scheduler between the evaluate phase and delta
/// notification, with exclusive access to the kernel state so it can post
/// delta notifications.
pub(crate) trait UpdateHook: Send + Sync {
    fn update(&self, st: &mut KernelState);
}

/// Entries in the timed-notification queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TimedAction {
    /// Wake a process blocked in `wait(time)`.
    WakeProc(usize),
    /// Fire an event notified with a delay.
    NotifyEvent(usize),
}

#[derive(Debug, Default)]
pub(crate) struct EventState {
    pub(crate) name: String,
    pub(crate) waiters: BTreeSet<usize>,
}

#[derive(Debug)]
pub(crate) struct ProcMeta {
    pub(crate) name: String,
    pub(crate) alive: bool,
    /// Attribution: simulated instant this process last blocked, when
    /// it is currently waiting. `None` while runnable/running (or when
    /// attribution is off — the fields below then stay zero).
    pub(crate) wait_since: Option<Time>,
    /// Attribution: total simulated time spent blocked.
    pub(crate) wait_total: Time,
    /// Attribution: number of completed wait episodes.
    pub(crate) waits: u64,
    /// Attribution: number of times this process was dispatched.
    pub(crate) activations: u64,
}

impl ProcMeta {
    pub(crate) fn new(name: String) -> ProcMeta {
        ProcMeta {
            name,
            alive: true,
            wait_since: None,
            wait_total: Time::ZERO,
            waits: 0,
            activations: 0,
        }
    }
}

/// Always-on per-channel access counters. Channels bump these with
/// relaxed atomics on their own hot path (no kernel lock, no
/// allocation); the kernel owns a registry of them for snapshots.
#[derive(Debug, Default)]
pub(crate) struct ChanStats {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) blocks: AtomicU64,
    /// Attribution: high-water mark of the buffered element count
    /// (FIFOs only; stays 0 elsewhere and when attribution is off).
    pub(crate) max_depth: AtomicU64,
    /// Attribution: total simulated picoseconds processes spent blocked
    /// on this channel (0 when attribution is off).
    pub(crate) blocked_ps: AtomicU64,
}

pub(crate) struct ChanStatsEntry {
    pub(crate) name: String,
    pub(crate) stats: Arc<ChanStats>,
}

/// Scheduler-internal counters, updated under the kernel lock.
#[derive(Debug, Default)]
pub(crate) struct KernelMetrics {
    pub(crate) immediate_notifications: u64,
    pub(crate) delta_notifications: u64,
    pub(crate) timed_scheduled: u64,
    pub(crate) timed_fired: u64,
    pub(crate) moot_wakes: u64,
    pub(crate) update_phases: u64,
    pub(crate) ready_peak: usize,
    pub(crate) events_recorded: u64,
}

/// Interned label symbols for the kernel's own record sites, created
/// once so the hot path never touches the intern hash map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelLabels {
    pub(crate) fifo_read: Sym,
    pub(crate) fifo_write: Sym,
    pub(crate) signal_update: Sym,
    pub(crate) rendezvous_read: Sym,
    pub(crate) rendezvous_write: Sym,
}

impl KernelLabels {
    fn new(interner: &mut Interner) -> KernelLabels {
        KernelLabels {
            fifo_read: interner.intern("fifo.read"),
            fifo_write: interner.intern("fifo.write"),
            signal_update: interner.intern("signal.update"),
            rendezvous_read: interner.intern("rendezvous.read"),
            rendezvous_write: interner.intern("rendezvous.write"),
        }
    }
}

/// Everything the scheduler and the process-side handles share.
pub(crate) struct KernelState {
    pub(crate) now: Time,
    pub(crate) delta: u64,
    /// Processes runnable in the current evaluate phase, ordered by id for
    /// determinism.
    pub(crate) runnable: BTreeSet<usize>,
    /// Processes woken for the next delta cycle.
    pub(crate) next_runnable: BTreeSet<usize>,
    /// Timed notifications, fired in (time, sequence number) order.
    pub(crate) timed: TimerWheel,
    seq: u64,
    pub(crate) events: Vec<EventState>,
    pub(crate) procs: Vec<ProcMeta>,
    /// Currently executing process (evaluate phase only).
    pub(crate) current: Option<usize>,
    /// Strong references: channels must outlive every process handle so a
    /// pending update is never lost. The resulting `Shared` ↔ channel
    /// reference cycle is broken in `Simulator::drop`.
    update_hooks: Vec<Option<Arc<dyn UpdateHook>>>,
    update_requests: BTreeSet<usize>,
    /// Structured trace sink; `None` disables tracing entirely.
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    /// Symbol table for labels, channel names and text payloads.
    pub(crate) interner: Interner,
    pub(crate) labels: KernelLabels,
    pub(crate) metrics: KernelMetrics,
    pub(crate) chan_stats: Vec<ChanStatsEntry>,
    pub(crate) activations: u64,
    pub(crate) started: bool,
    /// Attribution accounting toggle (mirrored lock-free in
    /// [`Shared::attribution_fast`] for channel hot paths).
    pub(crate) attribution: bool,
}

impl KernelState {
    pub(crate) fn new() -> KernelState {
        let mut interner = Interner::new();
        let labels = KernelLabels::new(&mut interner);
        KernelState {
            now: Time::ZERO,
            delta: 0,
            runnable: BTreeSet::new(),
            next_runnable: BTreeSet::new(),
            timed: TimerWheel::new(),
            seq: 0,
            events: Vec::new(),
            procs: Vec::new(),
            current: None,
            update_hooks: Vec::new(),
            update_requests: BTreeSet::new(),
            sink: None,
            interner,
            labels,
            metrics: KernelMetrics::default(),
            chan_stats: Vec::new(),
            activations: 0,
            started: false,
            attribution: false,
        }
    }

    /// Closes an attribution wait episode for `pid` at the current
    /// simulated time. Cheap no-op when the process was not blocked
    /// (attribution off, or a spurious wake).
    fn end_wait(&mut self, pid: usize) {
        if let Some(since) = self.procs[pid].wait_since.take() {
            let p = &mut self.procs[pid];
            p.wait_total = p.wait_total.saturating_add(self.now.saturating_sub(since));
            p.waits += 1;
        }
    }

    pub(crate) fn new_event(&mut self, name: impl Into<String>) -> usize {
        let id = self.events.len();
        self.events.push(EventState {
            name: name.into(),
            waiters: BTreeSet::new(),
        });
        id
    }

    pub(crate) fn register_update_hook(&mut self, hook: Arc<dyn UpdateHook>) -> usize {
        let id = self.update_hooks.len();
        self.update_hooks.push(Some(hook));
        id
    }

    /// Breaks the `Shared` ↔ channel reference cycle at simulator teardown.
    pub(crate) fn clear_update_hooks(&mut self) {
        for h in &mut self.update_hooks {
            *h = None;
        }
    }

    /// Returns the state to its just-constructed condition so a pooled
    /// simulator slot can be reused without rebuilding: time, delta
    /// counter, ready queues, time wheel, events, process table, update
    /// hooks, metrics and channel registries are all cleared, and the
    /// interner is rebuilt. Rebuilding the interner is safe for the
    /// immutable [`KernelLabels`] copy in [`Shared::labels`]: the five
    /// kernel labels are interned first and in a fixed order, so the
    /// fresh interner assigns them the same `Sym` ids. The trace sink
    /// is dropped (the caller re-syncs the lock-free tracing mirror and
    /// reinstalls a sink if it wants one); the `attribution` flag keeps
    /// its value, matching its lock-free mirror.
    pub(crate) fn reset(&mut self) {
        self.now = Time::ZERO;
        self.delta = 0;
        self.runnable.clear();
        self.next_runnable.clear();
        self.timed = TimerWheel::new();
        self.seq = 0;
        self.events.clear();
        self.procs.clear();
        self.current = None;
        self.update_hooks.clear();
        self.update_requests.clear();
        self.sink = None;
        let mut interner = Interner::new();
        self.labels = KernelLabels::new(&mut interner);
        self.interner = interner;
        self.metrics = KernelMetrics::default();
        self.chan_stats.clear();
        self.activations = 0;
        self.started = false;
    }

    pub(crate) fn request_update(&mut self, hook_id: usize) {
        self.update_requests.insert(hook_id);
    }

    /// Schedules a timed action `delay` after the current time.
    pub(crate) fn schedule(&mut self, delay: Time, action: TimedAction) {
        let at = self.now.saturating_add(delay);
        self.seq += 1;
        self.metrics.timed_scheduled += 1;
        self.timed.push(at.as_ps(), self.seq, action);
    }

    /// Immediate notification: wakes waiters into the *current* evaluate
    /// phase (SystemC `notify()`).
    pub(crate) fn notify_event_immediate(&mut self, ev: usize) {
        self.metrics.immediate_notifications += 1;
        let waiters = std::mem::take(&mut self.events[ev].waiters);
        for pid in waiters {
            if self.procs[pid].alive {
                self.runnable.insert(pid);
                self.end_wait(pid);
            }
        }
        self.note_ready_depth();
    }

    /// Delta notification: wakes waiters at the start of the next delta
    /// cycle (SystemC `notify(SC_ZERO_TIME)`).
    pub(crate) fn notify_event_delta(&mut self, ev: usize) {
        self.metrics.delta_notifications += 1;
        let waiters = std::mem::take(&mut self.events[ev].waiters);
        for pid in waiters {
            if self.procs[pid].alive {
                self.next_runnable.insert(pid);
                // Delta wakes land at the same simulated instant, so
                // this contributes zero time but counts the episode.
                self.end_wait(pid);
            }
        }
    }

    fn note_ready_depth(&mut self) {
        let depth = self.runnable.len().max(self.next_runnable.len());
        if depth > self.metrics.ready_peak {
            self.metrics.ready_peak = depth;
        }
    }

    /// Runs the update phase: every channel that requested an update gets
    /// its `update` callback.
    pub(crate) fn run_update_phase(&mut self) {
        if !self.update_requests.is_empty() {
            self.metrics.update_phases += 1;
        }
        while let Some(id) = self.update_requests.pop_first() {
            // Clone the Arc out so the hook may itself mutate kernel state.
            let hook = self.update_hooks[id].clone();
            if let Some(hook) = hook {
                hook.update(self);
            }
        }
    }

    /// Outcome of [`KernelState::advance_time`].
    pub(crate) fn advance_time(&mut self, limit: Time) -> AdvanceOutcome {
        loop {
            // Fire everything scheduled for the earliest pending instant.
            let (t, actions) = match self.timed.pop_next(limit.as_ps()) {
                WheelPop::Empty => return AdvanceOutcome::Exhausted,
                WheelPop::Beyond => {
                    self.now = limit;
                    self.timed.fast_forward(limit.as_ps());
                    return AdvanceOutcome::LimitReached;
                }
                WheelPop::Fired { time, actions } => (Time::ps(time), actions),
            };
            self.now = t;
            self.delta += 1;
            for (_, action) in actions {
                self.metrics.timed_fired += 1;
                match action {
                    TimedAction::WakeProc(pid) => {
                        if self.procs[pid].alive {
                            self.runnable.insert(pid);
                            // `self.now` is already the wake instant.
                            self.end_wait(pid);
                        } else {
                            self.metrics.moot_wakes += 1;
                        }
                    }
                    TimedAction::NotifyEvent(ev) => self.notify_event_immediate(ev),
                }
            }
            if !self.runnable.is_empty() {
                self.note_ready_depth();
                return AdvanceOutcome::Advanced;
            }
            // Every action at `t` was moot (dead waiters, eventless
            // notification) — keep advancing.
        }
    }

    /// Records one structured trace event. No-op without a sink; with
    /// one, this copies a few words plus the payload — no `String`
    /// clones (the legacy hot path cloned process + label + detail per
    /// record).
    pub(crate) fn record_event(
        &mut self,
        pid: Option<usize>,
        label: Sym,
        chan: Sym,
        payload: Payload,
    ) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let pid = pid
            .or(self.current)
            .map(|p| p as u32)
            .unwrap_or(scperf_obs::NO_PROCESS);
        self.metrics.events_recorded += 1;
        sink.record(
            &self.interner,
            &TraceEvent {
                time_ps: self.now.as_ps(),
                delta: self.delta,
                pid,
                label,
                chan,
                payload,
            },
        );
    }

    /// Records a user-emitted event with a free-form text detail.
    pub(crate) fn record_text(&mut self, pid: Option<usize>, label: &str, detail: &str) {
        if self.sink.is_none() {
            return;
        }
        let label = self.interner.intern(label);
        self.record_event(pid, label, Sym::NONE, Payload::text(detail));
    }

    pub(crate) fn tracing_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Registers a channel's always-on access counters; returns the
    /// handle the channel bumps from its own lock.
    pub(crate) fn register_chan_stats(&mut self, name: &str) -> Arc<ChanStats> {
        let stats = Arc::new(ChanStats::default());
        self.chan_stats.push(ChanStatsEntry {
            name: name.to_owned(),
            stats: Arc::clone(&stats),
        });
        stats
    }

    /// Builds a metrics snapshot of the kernel's internals: scheduler
    /// counters plus per-channel access counts.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.set_counter("kernel.delta_cycles", self.delta);
        m.set_counter("kernel.context_switches", self.activations);
        m.set_counter("kernel.processes", self.procs.len() as u64);
        m.set_counter("kernel.events", self.events.len() as u64);
        m.set_counter(
            "kernel.notifications.immediate",
            self.metrics.immediate_notifications,
        );
        m.set_counter(
            "kernel.notifications.delta",
            self.metrics.delta_notifications,
        );
        m.set_counter("kernel.timed.scheduled", self.metrics.timed_scheduled);
        m.set_counter("kernel.timed.fired", self.metrics.timed_fired);
        m.set_counter("kernel.timed.moot_wakes", self.metrics.moot_wakes);
        m.set_counter("kernel.wheel.pushes", self.timed.stats.pushes);
        m.set_counter(
            "kernel.wheel.overflow_pushes",
            self.timed.stats.overflow_pushes,
        );
        m.set_counter("kernel.wheel.scan_steps", self.timed.stats.scan_steps);
        m.set_gauge("kernel.timed.pending", self.timed.len() as f64);
        m.set_counter("kernel.update_phases", self.metrics.update_phases);
        m.set_counter("kernel.ready_queue.peak", self.metrics.ready_peak as u64);
        m.set_counter("kernel.trace.events_recorded", self.metrics.events_recorded);
        m.set_gauge("kernel.sim_time_ns", self.now.as_ps() as f64 / 1e3);
        for entry in &self.chan_stats {
            let base = format!("channel.{}", entry.name);
            m.set_counter(
                format!("{base}.reads"),
                entry.stats.reads.load(Ordering::Relaxed),
            );
            m.set_counter(
                format!("{base}.writes"),
                entry.stats.writes.load(Ordering::Relaxed),
            );
            m.set_counter(
                format!("{base}.blocks"),
                entry.stats.blocks.load(Ordering::Relaxed),
            );
            if self.attribution {
                m.set_counter(
                    format!("{base}.max_depth"),
                    entry.stats.max_depth.load(Ordering::Relaxed),
                );
                m.set_counter(
                    format!("{base}.blocked_ns"),
                    entry.stats.blocked_ps.load(Ordering::Relaxed) / 1_000,
                );
            }
        }
        if self.attribution {
            for p in &self.procs {
                let base = format!("kernel.sched.{}", p.name);
                m.set_counter(format!("{base}.wait_ns"), p.wait_total.as_ps() / 1_000);
                m.set_counter(format!("{base}.waits"), p.waits);
                m.set_counter(format!("{base}.activations"), p.activations);
            }
        }
        m
    }

    /// Builds the structured attribution snapshot surfaced through
    /// [`crate::Simulator::sched_stats`].
    pub(crate) fn sched_snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            enabled: self.attribution,
            processes: self
                .procs
                .iter()
                .map(|p| ProcSchedStats {
                    name: p.name.clone(),
                    activations: p.activations,
                    waits: p.waits,
                    wait: p.wait_total,
                })
                .collect(),
            channels: self
                .chan_stats
                .iter()
                .map(|e| ChannelSchedStats {
                    name: e.name.clone(),
                    reads: e.stats.reads.load(Ordering::Relaxed),
                    writes: e.stats.writes.load(Ordering::Relaxed),
                    blocks: e.stats.blocks.load(Ordering::Relaxed),
                    max_depth: e.stats.max_depth.load(Ordering::Relaxed),
                    blocked: Time::ps(e.stats.blocked_ps.load(Ordering::Relaxed)),
                })
                .collect(),
        }
    }
}

/// Per-process scheduling attribution, in *simulated* time. Part of a
/// [`SchedSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSchedStats {
    /// Process name as given to `spawn`.
    pub name: String,
    /// Number of times the scheduler dispatched this process.
    pub activations: u64,
    /// Number of completed wait episodes (a process still blocked at
    /// the end of the run is not counted).
    pub waits: u64,
    /// Total simulated time spent blocked across those episodes.
    pub wait: Time,
}

/// Per-channel access and contention counters. Part of a
/// [`SchedSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSchedStats {
    /// Channel name.
    pub name: String,
    /// Completed read operations.
    pub reads: u64,
    /// Completed write operations.
    pub writes: u64,
    /// Times a process blocked on this channel (full/empty/absent peer).
    pub blocks: u64,
    /// High-water mark of the buffered element count (FIFOs; 0 for
    /// unbuffered channels or when attribution is off).
    pub max_depth: u64,
    /// Total simulated time processes spent blocked on this channel
    /// (zero when attribution is off).
    pub blocked: Time,
}

/// Snapshot of the kernel's scheduling attribution: who waited, for how
/// long, and on which channels. Obtained from
/// [`crate::Simulator::sched_stats`]. The time-valued fields are only
/// populated when [`crate::SimOptions::attribution`] was enabled;
/// `enabled` records which.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedSnapshot {
    /// Whether attribution accounting was on for this run.
    pub enabled: bool,
    /// Per-process stats, in spawn order.
    pub processes: Vec<ProcSchedStats>,
    /// Per-channel stats, in registration order.
    pub channels: Vec<ChannelSchedStats>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdvanceOutcome {
    /// Time moved forward (or stayed, for zero-delay wakes) and at least one
    /// process became runnable.
    Advanced,
    /// The next timed action lies beyond the run limit.
    LimitReached,
    /// No timed actions remain.
    Exhausted,
}

/// The shared handle: one `Arc<Shared>` per simulator, cloned into every
/// process context, event and channel.
pub(crate) struct Shared {
    state: Mutex<KernelState>,
    /// Mirror of `KernelState::tracing_enabled()`, readable without the
    /// kernel lock so channels can skip payload capture entirely when
    /// tracing is off (the zero-allocation disabled path).
    tracing: AtomicBool,
    /// Mirror of `KernelState::attribution`, readable without the
    /// kernel lock so channels can skip wait-span timestamping and
    /// depth tracking entirely when attribution is off.
    attribution: AtomicBool,
    /// Mirror of `KernelState::now` in picoseconds, readable without the
    /// kernel lock: processes read the clock far more often than the
    /// scheduler advances it. Written only by the scheduler thread
    /// between evaluate phases; every poll is ordered after that write
    /// by the dispatch itself (same thread, or the worker pool's
    /// hand-off), so the value publishes nothing and `Relaxed` suffices.
    now_ps: AtomicU64,
    /// Parallel-evaluate round state (effect logs, gate, counters).
    pub(crate) par: crate::parallel::ParShared,
    /// Copy of `KernelState::labels`, readable without the kernel lock
    /// so parallel rounds can build buffered trace effects lock-free.
    pub(crate) labels: KernelLabels,
}

impl Shared {
    pub(crate) fn new() -> Arc<Shared> {
        let state = KernelState::new();
        let labels = state.labels;
        Arc::new(Shared {
            state: Mutex::new(state),
            tracing: AtomicBool::new(false),
            attribution: AtomicBool::new(false),
            now_ps: AtomicU64::new(0),
            par: crate::parallel::ParShared::new(),
            labels,
        })
    }

    /// Lock-free check: is a parallel evaluate round in flight? When
    /// true, process-side kernel effects must be buffered via
    /// [`Shared::par`] instead of mutating the kernel state.
    #[inline]
    pub(crate) fn par_active_fast(&self) -> bool {
        self.par.active_fast()
    }

    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut KernelState) -> R) -> R {
        f(&mut self.state.lock())
    }

    /// Current simulation time, without the kernel lock.
    #[inline]
    pub(crate) fn now_fast(&self) -> Time {
        Time::ps(self.now_ps.load(Ordering::Relaxed))
    }

    /// Republishes `KernelState::now` to the lock-free mirror; call after
    /// anything that moves the clock (time advance, reset).
    pub(crate) fn publish_now(&self, st: &KernelState) {
        self.now_ps.store(st.now.as_ps(), Ordering::Relaxed);
    }

    /// Lock-free check used by channels before capturing payloads.
    pub(crate) fn tracing_fast(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Lock-free check used by channels before attribution accounting.
    pub(crate) fn attribution_fast(&self) -> bool {
        self.attribution.load(Ordering::Relaxed)
    }

    /// Enables/disables attribution accounting, keeping the lock-free
    /// mirror flag in sync.
    pub(crate) fn set_attribution(&self, enable: bool) {
        self.with_state(|st| {
            self.attribution.store(enable, Ordering::Relaxed);
            st.attribution = enable;
        });
    }

    /// Installs (or removes) the trace sink, keeping the lock-free
    /// mirror flag in sync.
    pub(crate) fn set_sink(&self, sink: Option<Box<dyn TraceSink>>) {
        self.with_state(|st| {
            self.tracing.store(sink.is_some(), Ordering::Relaxed);
            st.sink = sink;
        });
    }

    /// Takes the current sink out (e.g. to drain a `MemorySink`),
    /// leaving tracing disabled.
    pub(crate) fn take_sink(&self) -> Option<Box<dyn TraceSink>> {
        self.with_state(|st| {
            self.tracing.store(false, Ordering::Relaxed);
            st.sink.take()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_procs(n: usize) -> KernelState {
        let mut st = KernelState::new();
        for i in 0..n {
            st.procs.push(ProcMeta::new(format!("p{i}")));
        }
        st
    }

    #[test]
    fn schedule_orders_by_time_then_sequence() {
        let mut st = state_with_procs(3);
        st.schedule(Time::ns(5), TimedAction::WakeProc(2));
        st.schedule(Time::ns(1), TimedAction::WakeProc(0));
        st.schedule(Time::ns(1), TimedAction::WakeProc(1));
        assert_eq!(st.advance_time(Time::MAX), AdvanceOutcome::Advanced);
        assert_eq!(st.now, Time::ns(1));
        assert_eq!(st.runnable.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        st.runnable.clear();
        assert_eq!(st.advance_time(Time::MAX), AdvanceOutcome::Advanced);
        assert_eq!(st.now, Time::ns(5));
        assert!(st.runnable.contains(&2));
    }

    #[test]
    fn advance_respects_limit() {
        let mut st = state_with_procs(1);
        st.schedule(Time::ns(10), TimedAction::WakeProc(0));
        assert_eq!(st.advance_time(Time::ns(5)), AdvanceOutcome::LimitReached);
        assert_eq!(st.now, Time::ns(5));
        // The entry is still pending and fires when the limit is lifted.
        assert_eq!(st.advance_time(Time::MAX), AdvanceOutcome::Advanced);
        assert_eq!(st.now, Time::ns(10));
    }

    #[test]
    fn advance_skips_moot_instants() {
        let mut st = state_with_procs(2);
        st.procs[0].alive = false;
        st.schedule(Time::ns(1), TimedAction::WakeProc(0));
        st.schedule(Time::ns(2), TimedAction::WakeProc(1));
        assert_eq!(st.advance_time(Time::MAX), AdvanceOutcome::Advanced);
        assert_eq!(st.now, Time::ns(2));
        assert!(st.runnable.contains(&1));
    }

    #[test]
    fn exhausted_when_no_timed_actions() {
        let mut st = state_with_procs(1);
        assert_eq!(st.advance_time(Time::MAX), AdvanceOutcome::Exhausted);
    }

    #[test]
    fn event_notification_routing() {
        let mut st = state_with_procs(2);
        let ev = st.new_event("e");
        st.events[ev].waiters.insert(0);
        st.events[ev].waiters.insert(1);
        st.notify_event_delta(ev);
        assert!(st.runnable.is_empty());
        assert_eq!(st.next_runnable.len(), 2);

        st.next_runnable.clear();
        st.events[ev].waiters.insert(0);
        st.notify_event_immediate(ev);
        assert!(st.runnable.contains(&0));
    }

    #[test]
    fn reset_reproduces_fresh_state_and_label_syms() {
        let mut st = state_with_procs(2);
        let fresh_labels = st.labels;
        st.schedule(Time::ns(5), TimedAction::WakeProc(1));
        let _ = st.new_event("e");
        st.interner.intern("user-label-that-shifts-sym-ids");
        st.activations = 7;
        st.started = true;
        st.reset();
        assert_eq!(st.now, Time::ZERO);
        assert_eq!(st.delta, 0);
        assert!(st.runnable.is_empty() && st.next_runnable.is_empty());
        assert_eq!(st.timed.len(), 0);
        assert!(st.events.is_empty() && st.procs.is_empty());
        assert_eq!(st.activations, 0);
        assert!(!st.started);
        // The fixed intern order reproduces identical label symbols, so
        // the immutable copy in `Shared::labels` stays valid.
        assert_eq!(st.labels.fifo_read, fresh_labels.fifo_read);
        assert_eq!(st.labels.signal_update, fresh_labels.signal_update);
        assert_eq!(st.labels.rendezvous_write, fresh_labels.rendezvous_write);
    }

    #[test]
    fn dead_processes_are_not_woken() {
        let mut st = state_with_procs(1);
        st.procs[0].alive = false;
        let ev = st.new_event("e");
        st.events[ev].waiters.insert(0);
        st.notify_event_delta(ev);
        assert!(st.next_runnable.is_empty());
    }
}
