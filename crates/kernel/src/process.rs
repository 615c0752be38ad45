//! Process identity, the per-process execution context, and the
//! suspension points a process body awaits.
//!
//! A process is a future. Its body is an `async` block over a
//! [`ProcCtx`]; every `.await` on a kernel wait ([`ProcCtx::wait`],
//! [`ProcCtx::wait_event`], or a channel operation built on them) is a
//! node in the sense of the paper's §2, and the code between two such
//! awaits is one segment. The scheduler polls a runnable process's
//! future on its own thread; the poll returns when the body reaches its
//! next node.

use std::cell::Cell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use crate::event::Event;
use crate::parallel::Effect;
use crate::state::{Shared, TimedAction};
use crate::time::Time;

/// Identifies a process within one simulator. Ordered by spawn order; the
/// scheduler uses this order to make delta cycles deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// The process's index in spawn order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

thread_local! {
    /// Pid of the process being polled on this thread; `usize::MAX` when
    /// none. Set by the scheduler around every poll. Needed because
    /// `Event::notify_*` carry no `ProcCtx`, and used to catch a
    /// context that escaped into another process.
    static CURRENT_PID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Host instant at which the polled process last suspended on a
    /// kernel wait (or finished). `None` after a poll means the body
    /// returned `Pending` without registering a wake-up.
    static SUSPENDED_AT: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The simulation pid being polled on this thread, if any.
pub(crate) fn current_pid() -> Option<usize> {
    let pid = CURRENT_PID.with(Cell::get);
    (pid != usize::MAX).then_some(pid)
}

/// Stamps the moment the polled process hands control back to the
/// scheduler: at a kernel wait, and when the body finishes.
pub(crate) fn mark_suspended() {
    SUSPENDED_AT.with(|c| c.set(Some(Instant::now())));
}

/// How one poll of a process future ended.
#[derive(Debug)]
pub(crate) enum Activation {
    /// Suspended on a kernel wait; stays alive.
    Suspended,
    /// The body returned; the process terminated.
    Finished,
    /// The body panicked; carries the panic message.
    Panicked(String),
    /// The body returned `Pending` without registering a kernel wait: it
    /// awaited a future the scheduler cannot wake.
    Foreign,
}

/// A spawned process body, boxed for the scheduler.
pub(crate) type ProcFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Polls process `pid` once on the calling thread. Returns how the poll
/// ended and the host time from the process suspending (or finishing)
/// to the poll returning — the `kernel.handoff.*` resume latency.
pub(crate) fn poll_process(pid: usize, fut: &mut ProcFuture) -> (Activation, Option<u64>) {
    let prev = CURRENT_PID.with(|c| c.replace(pid));
    SUSPENDED_AT.with(|c| c.set(None));
    let mut cx = Context::from_waker(std::task::Waker::noop());
    let polled =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
    let stamp = SUSPENDED_AT.with(Cell::take);
    CURRENT_PID.with(|c| c.set(prev));
    let latency = stamp.map(|t| t.elapsed().as_nanos() as u64);
    let outcome = match polled {
        Ok(Poll::Ready(())) => Activation::Finished,
        Ok(Poll::Pending) if stamp.is_some() => Activation::Suspended,
        Ok(Poll::Pending) => Activation::Foreign,
        Err(payload) => Activation::Panicked(panic_message(payload.as_ref())),
    };
    (outcome, latency)
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What a process body closure may return: a future (an `async move`
/// block) for a body that suspends on waits and channel operations, or
/// `()` for a body with no suspension point, which runs to completion in
/// its first activation. Either way the scheduler polls it like any
/// other process. The `Marker` parameter only keeps the two
/// implementations apart; callers never name it.
pub trait ProcessBody<Marker>: Send + 'static {
    /// The future the scheduler polls.
    type Future: Future<Output = ()> + Send + 'static;
    /// Converts the body's return value into that future.
    fn into_process_future(self) -> Self::Future;
}

/// [`ProcessBody`] marker for bodies returning a future.
#[derive(Debug)]
pub enum AsyncBody {}

/// [`ProcessBody`] marker for bodies returning `()`.
#[derive(Debug)]
pub enum PlainBody {}

impl<F> ProcessBody<AsyncBody> for F
where
    F: Future<Output = ()> + Send + 'static,
{
    type Future = F;
    fn into_process_future(self) -> F {
        self
    }
}

impl ProcessBody<PlainBody> for () {
    type Future = std::future::Ready<()>;
    fn into_process_future(self) -> Self::Future {
        std::future::ready(())
    }
}

/// The execution context handed to every process body.
///
/// All interaction between a process and the simulated world goes through
/// this context: reading the clock, timed waits, and (indirectly, via the
/// channels) event waits. Waits return futures; the process suspends
/// when it awaits one. A process that returns from its body terminates.
///
/// Cloning yields another handle to the *same* process, for wrappers that
/// pass the context into an inner body and still need it afterwards. A
/// context only works inside its own process: awaiting a wait through a
/// context that escaped into another process panics.
///
/// # Examples
///
/// ```
/// use scperf_kernel::{Simulator, Time};
///
/// let mut sim = Simulator::new();
/// sim.spawn("ticker", |mut ctx| async move {
///     for _ in 0..3 {
///         ctx.wait(Time::ns(10)).await;
///     }
///     assert_eq!(ctx.now(), Time::ns(30));
/// });
/// sim.run().unwrap();
/// ```
#[derive(Clone)]
pub struct ProcCtx {
    pub(crate) pid: usize,
    pub(crate) shared: Arc<Shared>,
}

impl ProcCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        ProcId(self.pid)
    }

    /// This process's name.
    pub fn name(&self) -> String {
        self.shared.with_state(|st| st.procs[self.pid].name.clone())
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now_fast()
    }

    /// Number of delta cycles executed so far.
    pub fn delta_count(&self) -> u64 {
        self.shared.with_state(|st| st.delta)
    }

    /// Suspends this process for `delay` of simulated time
    /// (SystemC `wait(sc_time)`).
    ///
    /// A zero delay suspends until the next timed-notification phase at the
    /// same instant, i.e. it behaves like `wait(SC_ZERO_TIME)`.
    pub fn wait(&mut self, delay: Time) -> Wait<'_> {
        Wait {
            ctx: self,
            on: WaitOn::Time(delay),
            registered: false,
        }
    }

    /// Suspends this process until `event` is notified.
    ///
    /// User processes following the paper's specification methodology never
    /// call this directly — channels do — but testbench components may.
    pub fn wait_event(&mut self, event: &Event) -> Wait<'_> {
        Wait {
            ctx: self,
            on: WaitOn::Event(event.id),
            registered: false,
        }
    }

    /// Appends a record to the simulator's trace (no-op when tracing is
    /// disabled). `label` classifies the record; `detail` carries values.
    pub fn emit_trace(&mut self, label: &str, detail: impl Into<String>) {
        if !self.shared.tracing_fast() {
            return;
        }
        let pid = self.pid;
        let detail = detail.into();
        if self.shared.par_active_fast() {
            self.shared.par.append(
                pid,
                Effect::TraceText {
                    label: label.to_string(),
                    detail,
                },
            );
        } else {
            self.shared
                .with_state(|st| st.record_text(Some(pid), label, &detail));
        }
    }

    /// Waits, inside a parallel evaluate round, until every runnable
    /// process with a lower pid has yielded for this delta. Outside a
    /// parallel round (the default `jobs = 1` kernel) this is a single
    /// atomic load and returns immediately.
    ///
    /// Order-sensitive primitives — rendezvous channels, [`crate::SimMutex`],
    /// [`crate::SimSemaphore`], and the estimator's sequential-resource
    /// arbitration in `scperf-core` — call this before touching state
    /// that other processes can observe within the same delta, so those
    /// interactions happen in canonical ascending-pid order and the
    /// parallel kernel stays bit-identical to the sequential one (see
    /// `docs/PARALLELISM.md`).
    pub fn par_fence(&self) {
        if self.shared.par_active_fast() {
            self.shared.par.fence(self.pid);
        }
    }

    /// Registers this process's wake-up for `on` with the kernel (or, in
    /// a parallel round, with its effect log).
    fn register(&self, on: WaitOn) {
        assert_eq!(
            current_pid(),
            Some(self.pid),
            "a ProcCtx was awaited outside its own process (P{})",
            self.pid
        );
        let pid = self.pid;
        if self.shared.par_active_fast() {
            let effect = match on {
                WaitOn::Time(delay) => Effect::Schedule {
                    delay,
                    action: TimedAction::WakeProc(pid),
                },
                WaitOn::Event(ev) => Effect::WaitEvent { ev },
            };
            self.shared.par.append(pid, effect);
        } else {
            self.shared.with_state(|st| match on {
                WaitOn::Time(delay) => st.schedule(delay, TimedAction::WakeProc(pid)),
                WaitOn::Event(ev) => {
                    st.events[ev].waiters.insert(pid);
                }
            });
        }
    }
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("pid", &self.pid).finish()
    }
}

#[derive(Debug, Clone, Copy)]
enum WaitOn {
    Time(Time),
    Event(usize),
}

/// The future returned by [`ProcCtx::wait`] and [`ProcCtx::wait_event`].
///
/// The first poll registers the wake-up with the kernel and suspends the
/// process; the scheduler polls the process again only once that wake-up
/// fired, and the second poll completes.
#[must_use = "a kernel wait does nothing unless `.await`ed"]
pub struct Wait<'a> {
    ctx: &'a ProcCtx,
    on: WaitOn,
    registered: bool,
}

impl Future for Wait<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.registered {
            return Poll::Ready(());
        }
        self.ctx.register(self.on);
        self.registered = true;
        mark_suspended();
        Poll::Pending
    }
}

impl fmt::Debug for Wait<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wait")
            .field("pid", &self.ctx.pid)
            .field("on", &self.on)
            .field("registered", &self.registered)
            .finish()
    }
}
