//! Notification events.
//!
//! [`Event`] is a cloneable handle to a kernel-owned notification object,
//! the analogue of `sc_event`. Per the single-source specification
//! methodology the paper builds on (§2), *user processes never touch events
//! directly* — they interact exclusively through channels and timed waits —
//! but channels and testbench components are built from them.

use std::sync::Arc;

use crate::parallel::Effect;
use crate::state::{Shared, TimedAction};
use crate::time::Time;

/// A cloneable handle to a simulation event.
///
/// Created with [`crate::Simulator::event`] (or internally by channels).
/// Processes can block on it via [`crate::ProcCtx::wait_event`]; anyone
/// holding the handle can notify it.
#[derive(Clone)]
pub struct Event {
    pub(crate) id: usize,
    pub(crate) shared: Arc<Shared>,
}

impl Event {
    pub(crate) fn new(shared: Arc<Shared>, name: impl Into<String>) -> Event {
        let id = shared.with_state(|st| st.new_event(name));
        Event { id, shared }
    }

    /// The name given at creation.
    pub fn name(&self) -> String {
        self.shared.with_state(|st| st.events[self.id].name.clone())
    }

    /// Immediate notification: processes waiting on this event become
    /// runnable in the *current* evaluate phase (SystemC `notify()`).
    ///
    /// Under parallel evaluation (`jobs > 1`) an immediate notification
    /// that would wake a waiter *within* the current delta makes the
    /// outcome depend on process execution order; the kernel reports it
    /// as [`crate::SimError::NonDeterminate`] at the delta boundary
    /// instead of racing. Immediate notifications with no waiters stay
    /// legal (see `docs/PARALLELISM.md`).
    pub fn notify_immediate(&self) {
        if let Some(pid) = self.buffering_pid() {
            self.shared
                .par
                .append(pid, Effect::NotifyImmediate { ev: self.id });
            return;
        }
        self.shared
            .with_state(|st| st.notify_event_immediate(self.id));
    }

    /// Delta notification: waiting processes run in the next delta cycle
    /// (SystemC `notify(SC_ZERO_TIME)`).
    pub fn notify_delta(&self) {
        if let Some(pid) = self.buffering_pid() {
            self.shared
                .par
                .append(pid, Effect::NotifyDelta { ev: self.id });
            return;
        }
        self.shared.with_state(|st| st.notify_event_delta(self.id));
    }

    /// Timed notification `delay` after the current simulation time
    /// (SystemC `notify(t)`).
    pub fn notify_delayed(&self, delay: Time) {
        if let Some(pid) = self.buffering_pid() {
            self.shared.par.append(
                pid,
                Effect::Schedule {
                    delay,
                    action: TimedAction::NotifyEvent(self.id),
                },
            );
            return;
        }
        self.shared
            .with_state(|st| st.schedule(delay, TimedAction::NotifyEvent(self.id)));
    }

    /// When a parallel round is active *and* the caller runs inside a
    /// process poll, returns the pid whose effect log must buffer this
    /// notification. Events have no `ProcCtx`, so the pid comes from the
    /// thread-local the scheduler sets around every poll.
    fn buffering_pid(&self) -> Option<usize> {
        if self.shared.par_active_fast() {
            crate::process::current_pid()
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id)
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Simulator, Time};

    #[test]
    fn delayed_notification_fires_at_the_right_time() {
        let mut sim = Simulator::new();
        let ev = sim.event("tick");
        let ev2 = ev.clone();
        sim.spawn("waiter", move |mut ctx| async move {
            ctx.wait_event(&ev).await;
            assert_eq!(ctx.now(), Time::ns(25));
        });
        sim.spawn("notifier", move |_ctx| {
            ev2.notify_delayed(Time::ns(25));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(25));
    }

    #[test]
    fn notification_without_waiters_is_harmless() {
        let mut sim = Simulator::new();
        let ev = sim.event("nobody");
        sim.spawn("p", move |mut ctx| async move {
            ev.notify_immediate();
            ev.notify_delta();
            ev.notify_delayed(Time::ns(5));
            ctx.wait(Time::ns(1)).await;
        });
        // The pending delayed notification still advances simulated time
        // to 5ns (as in SystemC) and then everything ends cleanly.
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(5));
    }

    #[test]
    fn event_name_and_debug() {
        let mut sim = Simulator::new();
        let ev = sim.event("my_event");
        assert_eq!(ev.name(), "my_event");
        let dbg = format!("{ev:?}");
        assert!(dbg.contains("my_event"));
    }

    #[test]
    fn delayed_notification_to_terminated_process_is_dropped() {
        let mut sim = Simulator::new();
        let ev = sim.event("late");
        let ev2 = ev.clone();
        sim.spawn("shortlived", move |mut ctx| async move {
            // Waits once, gets woken, terminates before the second fire.
            ctx.wait_event(&ev).await;
        });
        sim.spawn("notifier", move |mut ctx| async move {
            ctx.wait(Time::ns(1)).await;
            ev2.notify_immediate();
            ev2.notify_delayed(Time::ns(10)); // no one left to hear this
        });
        // The moot notification advances time to 11ns, wakes nobody, and
        // the simulation ends.
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(11));
    }
}
