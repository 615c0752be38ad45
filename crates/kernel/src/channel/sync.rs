//! Synchronization primitives: the analogues of `sc_mutex` and
//! `sc_semaphore`.
//!
//! Like their SystemC counterparts these are *simulation-level* primitives
//! arbitrating simulated processes; the host-thread safety underneath is
//! provided by the kernel itself. Lock hand-off is deterministic: waiters
//! are woken through a delta-notified event and re-acquire in process-id
//! order.

use std::sync::Arc;

use scperf_sync::Mutex as HostMutex;

use crate::event::Event;
use crate::process::ProcCtx;
use crate::sim::Simulator;

struct SimMutexInner {
    name: String,
    /// Holder's process id, if locked.
    holder: HostMutex<Option<usize>>,
    released_ev: Event,
}

/// A simulated mutex (the analogue of `sc_mutex`). Create with
/// [`Simulator::sim_mutex`].
///
/// # Examples
///
/// ```
/// use scperf_kernel::{Simulator, Time};
///
/// let mut sim = Simulator::new();
/// let m = sim.sim_mutex("bus");
/// for name in ["a", "b"] {
///     let m = m.clone();
///     sim.spawn(name, move |mut ctx| async move {
///         m.lock(&mut ctx).await;
///         ctx.wait(Time::ns(10)).await; // exclusive use of the bus
///         m.unlock(&mut ctx);
///     });
/// }
/// let summary = sim.run()?;
/// assert_eq!(summary.end_time, Time::ns(20)); // fully serialized
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
pub struct SimMutex {
    inner: Arc<SimMutexInner>,
}

impl Clone for SimMutex {
    fn clone(&self) -> SimMutex {
        SimMutex {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Simulator {
    /// Creates a simulated mutex.
    pub fn sim_mutex(&mut self, name: impl Into<String>) -> SimMutex {
        let name = name.into();
        let released_ev = self.event(format!("{name}.released"));
        SimMutex {
            inner: Arc::new(SimMutexInner {
                name,
                holder: HostMutex::new(None),
                released_ev,
            }),
        }
    }
}

impl SimMutex {
    /// The mutex's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Acquires the mutex, suspending the calling process while another
    /// process holds it.
    ///
    /// # Panics
    ///
    /// Panics if the calling process already holds it (like `sc_mutex`,
    /// it is not recursive).
    pub async fn lock(&self, ctx: &mut ProcCtx) {
        loop {
            // Lock state is immediately visible to other processes, so
            // under parallel evaluation acquisition happens in
            // canonical pid order (the documented hand-off order).
            ctx.par_fence();
            {
                let mut holder = self.inner.holder.lock();
                match *holder {
                    None => {
                        *holder = Some(ctx.pid().index());
                        return;
                    }
                    Some(h) => {
                        assert!(
                            h != ctx.pid().index(),
                            "mutex '{}' is not recursive",
                            self.inner.name
                        );
                    }
                }
            }
            ctx.wait_event(&self.inner.released_ev).await;
        }
    }

    /// Attempts to acquire without blocking; `true` on success.
    pub fn try_lock(&self, ctx: &mut ProcCtx) -> bool {
        ctx.par_fence();
        let mut holder = self.inner.holder.lock();
        if holder.is_none() {
            *holder = Some(ctx.pid().index());
            true
        } else {
            false
        }
    }

    /// Releases the mutex and wakes waiters (next delta cycle).
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold the mutex.
    pub fn unlock(&self, ctx: &mut ProcCtx) {
        ctx.par_fence();
        {
            let mut holder = self.inner.holder.lock();
            assert_eq!(
                *holder,
                Some(ctx.pid().index()),
                "process releasing mutex '{}' does not hold it",
                self.inner.name
            );
            *holder = None;
        }
        self.inner.released_ev.notify_delta();
    }
}

impl std::fmt::Debug for SimMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMutex")
            .field("name", &self.inner.name)
            .finish()
    }
}

struct SimSemaphoreInner {
    name: String,
    count: HostMutex<u32>,
    posted_ev: Event,
}

/// A simulated counting semaphore (the analogue of `sc_semaphore`).
/// Create with [`Simulator::sim_semaphore`].
pub struct SimSemaphore {
    inner: Arc<SimSemaphoreInner>,
}

impl Clone for SimSemaphore {
    fn clone(&self) -> SimSemaphore {
        SimSemaphore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Simulator {
    /// Creates a counting semaphore with `initial` permits.
    pub fn sim_semaphore(&mut self, name: impl Into<String>, initial: u32) -> SimSemaphore {
        let name = name.into();
        let posted_ev = self.event(format!("{name}.posted"));
        SimSemaphore {
            inner: Arc::new(SimSemaphoreInner {
                name,
                count: HostMutex::new(initial),
                posted_ev,
            }),
        }
    }
}

impl SimSemaphore {
    /// The semaphore's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Current number of available permits.
    pub fn value(&self) -> u32 {
        *self.inner.count.lock()
    }

    /// Acquires one permit, suspending while none are available
    /// (`sc_semaphore::wait`).
    pub async fn acquire(&self, ctx: &mut ProcCtx) {
        loop {
            // See `SimMutex::lock`: permits are handed out in pid order
            // under parallel evaluation.
            ctx.par_fence();
            {
                let mut count = self.inner.count.lock();
                if *count > 0 {
                    *count -= 1;
                    return;
                }
            }
            ctx.wait_event(&self.inner.posted_ev).await;
        }
    }

    /// Attempts to acquire without blocking (`sc_semaphore::trywait`).
    pub fn try_acquire(&self, ctx: &mut ProcCtx) -> bool {
        ctx.par_fence();
        let mut count = self.inner.count.lock();
        if *count > 0 {
            *count -= 1;
            true
        } else {
            false
        }
    }

    /// Releases one permit and wakes waiters (`sc_semaphore::post`).
    pub fn release(&self, ctx: &mut ProcCtx) {
        ctx.par_fence();
        *self.inner.count.lock() += 1;
        self.inner.posted_ev.notify_delta();
    }
}

impl std::fmt::Debug for SimSemaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSemaphore")
            .field("name", &self.inner.name)
            .field("value", &self.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn mutex_serializes_critical_sections() {
        let mut sim = Simulator::new();
        let m = sim.sim_mutex("m");
        let peak = Arc::new(AtomicU32::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        for i in 0..4 {
            let m = m.clone();
            let peak = Arc::clone(&peak);
            let inside = Arc::clone(&inside);
            sim.spawn(format!("p{i}"), move |mut ctx| async move {
                m.lock(&mut ctx).await;
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                ctx.wait(Time::ns(10)).await;
                inside.fetch_sub(1, Ordering::SeqCst);
                m.unlock(&mut ctx);
            });
        }
        let s = sim.run().unwrap();
        assert_eq!(peak.load(Ordering::SeqCst), 1, "mutual exclusion violated");
        assert_eq!(s.end_time, Time::ns(40));
    }

    #[test]
    fn try_lock_does_not_block() {
        let mut sim = Simulator::new();
        let m = sim.sim_mutex("m");
        let (m1, m2) = (m.clone(), m);
        sim.spawn("holder", move |mut ctx| async move {
            assert!(m1.try_lock(&mut ctx));
            ctx.wait(Time::ns(100)).await;
            m1.unlock(&mut ctx);
        });
        sim.spawn("prober", move |mut ctx| async move {
            ctx.wait(Time::ns(10)).await;
            assert!(!m2.try_lock(&mut ctx));
            ctx.wait(Time::ns(100)).await;
            assert!(m2.try_lock(&mut ctx));
            m2.unlock(&mut ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn semaphore_admits_up_to_n() {
        let mut sim = Simulator::new();
        let sem = sim.sim_semaphore("pool", 2);
        let peak = Arc::new(AtomicU32::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        for i in 0..6 {
            let sem = sem.clone();
            let peak = Arc::clone(&peak);
            let inside = Arc::clone(&inside);
            sim.spawn(format!("w{i}"), move |mut ctx| async move {
                sem.acquire(&mut ctx).await;
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                ctx.wait(Time::ns(10)).await;
                inside.fetch_sub(1, Ordering::SeqCst);
                sem.release(&mut ctx);
            });
        }
        let s = sim.run().unwrap();
        assert_eq!(peak.load(Ordering::SeqCst), 2);
        // 6 jobs, 2 at a time, 10ns each = 30ns.
        assert_eq!(s.end_time, Time::ns(30));
    }

    #[test]
    fn semaphore_value_tracks_permits() {
        let mut sim = Simulator::new();
        let sem = sim.sim_semaphore("s", 3);
        let probe = sem.clone();
        sim.spawn("p", move |mut ctx| async move {
            assert_eq!(sem.value(), 3);
            sem.acquire(&mut ctx).await;
            assert_eq!(sem.value(), 2);
            assert!(sem.try_acquire(&mut ctx));
            assert_eq!(sem.value(), 1);
            sem.release(&mut ctx);
            sem.release(&mut ctx);
        });
        sim.run().unwrap();
        assert_eq!(probe.value(), 3);
    }

    #[test]
    fn non_holder_unlock_panics_the_process() {
        let mut sim = Simulator::new();
        let m = sim.sim_mutex("m");
        sim.spawn("bad", move |mut ctx| async move {
            m.unlock(&mut ctx);
        });
        let err = sim.run().unwrap_err();
        assert!(err.to_string().contains("does not hold"));
    }
}
