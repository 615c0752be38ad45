//! Parallel-evaluate support: per-process effect logs, the round gate,
//! and the `kernel.par.*` counters.
//!
//! The paper's §4 delta-cycle semantics make the *evaluate* phase
//! order-independent for determinate specifications: within one delta,
//! runnable processes may execute in any order (or concurrently) as
//! long as their side effects on the kernel become visible in one
//! canonical order. The kernel exploits that with a buffered-effect
//! protocol (see `docs/PARALLELISM.md` for the full contract):
//!
//! 1. At the start of a parallel round the scheduler snapshots the
//!    runnable set (ascending pid), flips [`ParShared::active`], and
//!    installs a [`RoundGate`] listing the round's members.
//! 2. The members' futures are polled concurrently, one pool worker
//!    per ascending pid chunk (chunk 0 on the scheduler thread).
//!    Kernel-visible side effects (schedules, event waits/notifies,
//!    trace records) are appended to the process's own [`Effect`] log
//!    instead of mutating [`crate::state::KernelState`] directly.
//! 3. When every member's poll has returned, the scheduler *commits*: it
//!    replays each log in ascending-pid order — each effect in program
//!    order — through the exact same `KernelState` functions the
//!    sequential kernel uses. Sequence numbers, metrics and the trace
//!    stream therefore come out bit-identical to a sequential run.
//!
//! Primitives whose effects are visible to *other processes in the same
//! delta* (rendezvous slots, sim-mutexes, semaphores, the estimator's
//! §4 resource arbitration) cannot be buffered; they call
//! [`crate::process::ProcCtx::par_fence`], which blocks until every
//! lower-pid member of the round has yielded — serializing just those
//! interactions in canonical pid order while everything else overlaps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use scperf_obs::{Payload, Sym};
use scperf_sync::{Condvar, Mutex};

use crate::state::TimedAction;
use crate::time::Time;

/// One buffered kernel-visible side effect of a process running inside
/// a parallel evaluate round. Replayed in (pid, program-order) at
/// commit through the normal sequential `KernelState` entry points.
pub(crate) enum Effect {
    /// `ctx.wait(delay).await` or `Event::notify_delayed`: push onto the
    /// timer wheel (reproduces the wheel's FIFO `seq` numbers because
    /// replay order equals canonical order).
    Schedule {
        /// Delay relative to the current simulated time.
        delay: Time,
        /// What fires when the timer expires.
        action: TimedAction,
    },
    /// `ctx.wait_event(ev).await`: park this process on the event's waiter
    /// set.
    WaitEvent {
        /// Target event id.
        ev: usize,
    },
    /// `Event::notify_delta`: wake the waiters at the next delta.
    NotifyDelta {
        /// Target event id.
        ev: usize,
    },
    /// `Event::notify_immediate`: only legal under parallel evaluation
    /// when the event has no waiters at commit time — an immediate wake
    /// *within* the current delta would depend on execution order,
    /// which is exactly what the determinism contract forbids.
    NotifyImmediate {
        /// Target event id.
        ev: usize,
    },
    /// A channel trace record with an interned label (fifo/rendezvous
    /// read/write).
    Trace {
        /// Interned record-site label (e.g. `fifo.read`).
        label: Sym,
        /// Interned channel name.
        chan: Sym,
        /// Captured value.
        payload: Payload,
    },
    /// A free-form text trace record (`ProcCtx::emit_trace`).
    TraceText {
        /// Record-site label.
        label: String,
        /// Pre-rendered detail text.
        detail: String,
    },
}

/// Tracks which members of the current parallel round have yielded, so
/// order-sensitive primitives can wait for every lower pid first.
///
/// Deadlock-freedom: a fence only ever waits on *strictly lower* pids,
/// and per-worker chunks are ascending, so the smallest non-yielded pid
/// in the round is never blocked by the gate and can always progress.
pub(crate) struct RoundGate {
    /// Round members, ascending.
    members: Vec<usize>,
    /// Yielded flag per member (indexed like `members`).
    yielded: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl RoundGate {
    pub(crate) fn new(members: Vec<usize>) -> Arc<RoundGate> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let n = members.len();
        Arc::new(RoundGate {
            members,
            yielded: Mutex::new(vec![false; n]),
            cv: Condvar::new(),
        })
    }

    /// Records that `pid` yielded back to its dispatcher this round.
    pub(crate) fn mark_yielded(&self, pid: usize) {
        if let Ok(i) = self.members.binary_search(&pid) {
            let mut y = self.yielded.lock();
            y[i] = true;
            drop(y);
            self.cv.notify_all();
        }
    }

    /// Blocks until every member with a pid lower than `pid` has
    /// yielded. No-op for the lowest member or for non-members.
    pub(crate) fn fence(&self, pid: usize) {
        let i = match self.members.binary_search(&pid) {
            Ok(i) => i,
            Err(_) => return,
        };
        if i == 0 {
            return;
        }
        let mut y = self.yielded.lock();
        while !y[..i].iter().all(|&done| done) {
            self.cv.wait(&mut y);
        }
    }
}

/// Parallel-evaluate state hanging off [`crate::state::Shared`]: the
/// round-active flag the process-side fast paths branch on, the effect
/// logs, hazard reports, and the `kernel.par.*` counters.
pub(crate) struct ParShared {
    /// True exactly while a parallel round is executing. Process-side
    /// code buffers effects instead of touching the kernel state.
    active: AtomicBool,
    /// Monotonic round id (starts at 1); channels use it to scope their
    /// same-round conflict trackers.
    round: AtomicU64,
    /// Gate for the round in flight.
    gate: Mutex<Option<Arc<RoundGate>>>,
    /// Per-pid effect logs, sized once at the first parallel round.
    logs: OnceLock<Vec<Mutex<Vec<Effect>>>>,
    /// Non-determinate constructs observed (conflicting same-delta
    /// channel accesses). Reported after the round completes.
    hazards: Mutex<Vec<String>>,
    /// `kernel.par.rounds`: parallel rounds executed.
    pub(crate) rounds: AtomicU64,
    /// `kernel.par.workers`: max dispatchers used in any one round
    /// (including the scheduler thread running chunk 0 inline).
    pub(crate) workers: AtomicU64,
    /// `kernel.par.effects`: effects replayed at commit.
    pub(crate) effects_committed: AtomicU64,
    /// `kernel.par.commit_nanos`: host time spent in commit replay.
    pub(crate) commit_nanos: AtomicU64,
    /// `kernel.par.seq_fallbacks`: evaluate phases run sequentially
    /// although `jobs > 1` (runnable set too small, or a feature such
    /// as attribution forces the sequential path).
    pub(crate) seq_fallbacks: AtomicU64,
}

impl ParShared {
    pub(crate) fn new() -> ParShared {
        ParShared {
            active: AtomicBool::new(false),
            round: AtomicU64::new(0),
            gate: Mutex::new(None),
            logs: OnceLock::new(),
            hazards: Mutex::new(Vec::new()),
            rounds: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            effects_committed: AtomicU64::new(0),
            commit_nanos: AtomicU64::new(0),
            seq_fallbacks: AtomicU64::new(0),
        }
    }

    /// Lock-free branch used on every process-side kernel interaction.
    #[inline]
    pub(crate) fn active_fast(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Current round id (valid only while a round is active).
    pub(crate) fn round_id(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Opens a round over `members` (ascending pids): sizes the logs,
    /// bumps the round id, installs the gate and flips `active`.
    pub(crate) fn begin_round(&self, members: Vec<usize>, nprocs: usize) -> Arc<RoundGate> {
        self.logs
            .get_or_init(|| (0..nprocs).map(|_| Mutex::new(Vec::new())).collect());
        self.round.fetch_add(1, Ordering::Relaxed);
        let gate = RoundGate::new(members);
        *self.gate.lock() = Some(Arc::clone(&gate));
        self.active.store(true, Ordering::Release);
        gate
    }

    /// Closes the round: clears `active` (so commit replay goes through
    /// the live kernel paths) and drops the gate.
    pub(crate) fn end_round(&self) {
        self.active.store(false, Ordering::Release);
        *self.gate.lock() = None;
    }

    /// Appends a buffered effect to `pid`'s log.
    pub(crate) fn append(&self, pid: usize, effect: Effect) {
        self.logs.get().expect("round active")[pid]
            .lock()
            .push(effect);
    }

    /// Drains `pid`'s effect log for commit replay.
    pub(crate) fn drain(&self, pid: usize) -> Vec<Effect> {
        match self.logs.get() {
            Some(logs) => std::mem::take(&mut *logs[pid].lock()),
            None => Vec::new(),
        }
    }

    /// Blocks until all round members below `pid` have yielded (no-op
    /// when no round is active).
    pub(crate) fn fence(&self, pid: usize) {
        let gate = self.gate.lock().clone();
        if let Some(gate) = gate {
            gate.fence(pid);
        }
    }

    /// True when the per-pid effect-log table (sized once, at the first
    /// parallel round) can hold `nprocs` logs. A reused simulator that
    /// spawns more processes than its first life had falls back to
    /// sequential evaluation instead of resizing the lock-free table.
    pub(crate) fn logs_fit(&self, nprocs: usize) -> bool {
        match self.logs.get() {
            Some(logs) => logs.len() >= nprocs,
            None => true,
        }
    }

    /// Zeroes the `kernel.par.*` counters and drops any stale hazard
    /// reports, for simulator-slot reuse. The effect logs need no
    /// clearing: every commit drains them.
    pub(crate) fn reset_counters(&self) {
        self.rounds.store(0, Ordering::Relaxed);
        self.workers.store(0, Ordering::Relaxed);
        self.effects_committed.store(0, Ordering::Relaxed);
        self.commit_nanos.store(0, Ordering::Relaxed);
        self.seq_fallbacks.store(0, Ordering::Relaxed);
        self.hazards.lock().clear();
    }

    /// Records a non-determinate construct detected mid-round.
    pub(crate) fn report_hazard(&self, detail: String) {
        self.hazards.lock().push(detail);
    }

    /// Takes the hazards observed this round (sorted for determinism).
    pub(crate) fn take_hazards(&self) -> Vec<String> {
        let mut h = std::mem::take(&mut *self.hazards.lock());
        h.sort();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_releases_in_pid_order() {
        let gate = RoundGate::new(vec![2, 5, 9]);
        // Lowest member never blocks.
        gate.fence(2);
        // Non-members never block.
        gate.fence(7);
        let g = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            g.fence(9); // must wait for 2 and 5
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished());
        gate.mark_yielded(2);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished(), "pid 5 has not yielded yet");
        gate.mark_yielded(5);
        t.join().unwrap();
    }

    #[test]
    fn hazards_come_back_sorted() {
        let par = ParShared::new();
        par.report_hazard("zz".into());
        par.report_hazard("aa".into());
        assert_eq!(par.take_hazards(), vec!["aa".to_string(), "zz".to_string()]);
        assert!(par.take_hazards().is_empty());
    }
}
