//! Signal channel with `sc_signal` semantics: writes are committed in the
//! update phase and a value-changed event fires one delta later.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use scperf_obs::{Payload, Sym};
use scperf_sync::Mutex;

use crate::event::Event;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::{ChanStats, KernelState, UpdateHook};

struct SignalBuf<T> {
    current: T,
    next: Option<T>,
    /// Parallel round the writer tracker belongs to (only touched while
    /// a parallel evaluate round is active).
    par_round: u64,
    /// Pid that wrote this round; `usize::MAX` = none. "Last write in
    /// execution order wins" is order-dependent, so a second distinct
    /// same-delta writer under parallel evaluation is a hazard.
    par_writer: usize,
}

struct SignalInner<T> {
    name: String,
    /// The signal name interned in the kernel's symbol table.
    name_sym: Sym,
    buf: Mutex<SignalBuf<T>>,
    changed_ev: Event,
    stats: Arc<ChanStats>,
}

impl<T: Send + Clone + PartialEq + std::fmt::Debug + 'static> UpdateHook for SignalInner<T> {
    fn update(&self, st: &mut KernelState) {
        let mut buf = self.buf.lock();
        if let Some(next) = buf.next.take() {
            if next != buf.current {
                buf.current = next;
                // Snapshot the committed value only when a sink is live;
                // the legacy path formatted a `String` on every commit.
                let payload = st.tracing_enabled().then(|| Payload::capture(&buf.current));
                drop(buf);
                st.notify_event_delta(self.changed_ev.id);
                if let Some(payload) = payload {
                    let label = st.labels.signal_update;
                    st.record_event(None, label, self.name_sym, payload);
                }
            }
        }
    }
}

/// A cloneable handle to a signal (the analogue of `sc_signal<T>`).
/// Create with [`Simulator::signal`].
///
/// Reads never block and always return the *committed* value; a write only
/// becomes visible after the update phase of the delta in which it was
/// performed. When several processes write the same signal in one delta,
/// the last write (in execution order) wins — as in SystemC, well-formed
/// models have a single driver per signal.
pub struct Signal<T> {
    inner: Arc<SignalInner<T>>,
    hook_id: usize,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Signal<T> {
        Signal {
            inner: Arc::clone(&self.inner),
            hook_id: self.hook_id,
        }
    }
}

impl Simulator {
    /// Creates a signal initialized to `initial`.
    pub fn signal<T>(&mut self, name: impl Into<String>, initial: T) -> Signal<T>
    where
        T: Send + Clone + PartialEq + std::fmt::Debug + 'static,
    {
        let name = name.into();
        let changed_ev = self.event(format!("{name}.changed"));
        let shared = Arc::clone(self.shared());
        let (name_sym, stats) =
            shared.with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        let inner = Arc::new(SignalInner {
            name,
            name_sym,
            buf: Mutex::new(SignalBuf {
                current: initial,
                next: None,
                par_round: 0,
                par_writer: usize::MAX,
            }),
            changed_ev,
            stats,
        });
        let hook_id = shared
            .with_state(|st| st.register_update_hook(Arc::clone(&inner) as Arc<dyn UpdateHook>));
        Signal { inner, hook_id }
    }
}

impl<T: Send + Clone + PartialEq + std::fmt::Debug + 'static> Signal<T> {
    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The committed value.
    pub fn read(&self) -> T {
        self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.buf.lock().current.clone()
    }

    /// Schedules `value` to be committed in the update phase of the current
    /// delta cycle.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
        {
            let mut buf = self.inner.buf.lock();
            if ctx.shared.par_active_fast() {
                let round = ctx.shared.par.round_id();
                if buf.par_round != round {
                    buf.par_round = round;
                    buf.par_writer = usize::MAX;
                }
                if buf.par_writer != usize::MAX && buf.par_writer != ctx.pid {
                    ctx.shared.par.report_hazard(format!(
                        "signal '{}': processes P{} and P{} both write in the same delta \
                         cycle (last-writer-wins depends on execution order)",
                        self.inner.name,
                        buf.par_writer.min(ctx.pid),
                        buf.par_writer.max(ctx.pid)
                    ));
                }
                buf.par_writer = ctx.pid;
            }
            buf.next = Some(value);
        }
        let shared = Arc::clone(&ctx.shared);
        shared.with_state(|st| st.request_update(self.hook_id));
    }

    /// The event notified (delta) whenever the committed value changes.
    pub fn value_changed_event(&self) -> &Event {
        &self.inner.changed_ev
    }

    /// Blocks the calling process until the committed value changes
    /// (testbench convenience; user processes under the paper's methodology
    /// communicate through FIFOs and rendezvous channels instead).
    pub async fn wait_value_change(&self, ctx: &mut ProcCtx) -> T {
        ctx.wait_event(&self.inner.changed_ev).await;
        self.read()
    }
}

impl<T> std::fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.inner.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use std::sync::mpsc;

    #[test]
    fn write_commits_at_update_phase() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let (sw, sr) = (s.clone(), s.clone());
        sim.spawn("w", move |mut ctx| async move {
            sw.write(&mut ctx, 5);
            assert_eq!(sw.read(), 0, "write must not be visible before update");
            ctx.wait(Time::ZERO).await;
            assert_eq!(sw.read(), 5);
        });
        sim.run().unwrap();
        assert_eq!(sr.read(), 5);
    }

    #[test]
    fn value_changed_event_fires_once_per_change() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let (sw, sr) = (s.clone(), s.clone());
        let (tx, rx) = mpsc::channel();
        sim.spawn("listener", move |mut ctx| async move {
            let v = sr.wait_value_change(&mut ctx).await;
            tx.send(v).unwrap();
        });
        sim.spawn("driver", move |mut ctx| async move {
            ctx.wait(Time::ns(5)).await;
            sw.write(&mut ctx, 0); // no change: must not wake the listener
            ctx.wait(Time::ns(5)).await;
            sw.write(&mut ctx, 9);
        });
        sim.run().unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn last_writer_in_delta_wins() {
        let mut sim = Simulator::new();
        let s = sim.signal("s", 0_u32);
        let s1 = s.clone();
        let s2 = s.clone();
        let sr = s.clone();
        sim.spawn("a", move |mut ctx| s1.write(&mut ctx, 1));
        sim.spawn("b", move |mut ctx| s2.write(&mut ctx, 2));
        sim.run().unwrap();
        assert_eq!(sr.read(), 2);
    }

    #[test]
    fn signal_update_is_traced() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        let s = sim.signal("sig", false);
        let sw = s.clone();
        sim.spawn("w", move |mut ctx| sw.write(&mut ctx, true));
        sim.run().unwrap();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "signal.update");
        assert!(trace[0].detail.contains("sig=true"));
    }
}
