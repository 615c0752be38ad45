//! Bounded blocking FIFO channel with `sc_fifo` semantics.
//!
//! Values written in one delta cycle become visible to readers only after
//! the update phase, and space freed by reads becomes visible to writers
//! only after the update phase — exactly the OSCI `sc_fifo` protocol. This
//! is what keeps an untimed model deterministic regardless of the order in
//! which runnable processes execute within a delta.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use scperf_obs::{Payload, Sym};
use scperf_sync::Mutex;

use crate::event::Event;
use crate::parallel::Effect;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::{ChanStats, KernelState, UpdateHook};

struct FifoBuf<T> {
    q: VecDeque<T>,
    /// Number of committed (readable) items at the front of `q`.
    readable: usize,
    /// Items written since the last update phase.
    written: usize,
    /// Items read since the last update phase.
    read: usize,
    /// Parallel round the conflict trackers below belong to (stale
    /// values from earlier rounds are ignored). Only touched while a
    /// parallel evaluate round is active.
    par_round: u64,
    /// Pid that read (or attempted to) this round; `usize::MAX` = none.
    par_reader: usize,
    /// Pid that wrote (or attempted to) this round; `usize::MAX` = none.
    par_writer: usize,
}

impl<T> FifoBuf<T> {
    /// Rolls the same-round conflict trackers over to `round`.
    fn par_roll(&mut self, round: u64) {
        if self.par_round != round {
            self.par_round = round;
            self.par_reader = usize::MAX;
            self.par_writer = usize::MAX;
        }
    }
}

struct FifoInner<T> {
    name: String,
    /// The channel name interned in the kernel's symbol table.
    name_sym: Sym,
    capacity: usize,
    buf: Mutex<FifoBuf<T>>,
    data_ev: Event,
    space_ev: Event,
    stats: Arc<ChanStats>,
}

impl<T: Send + std::fmt::Debug> UpdateHook for FifoInner<T> {
    fn update(&self, st: &mut KernelState) {
        let mut buf = self.buf.lock();
        buf.readable = buf.q.len();
        if buf.written > 0 {
            buf.written = 0;
            st.notify_event_delta(self.data_ev.id);
        }
        if buf.read > 0 {
            buf.read = 0;
            st.notify_event_delta(self.space_ev.id);
        }
    }
}

/// A cloneable handle to a bounded blocking FIFO (the analogue of
/// `sc_fifo<T>`). Create with [`Simulator::fifo`].
///
/// Reads block while the FIFO is empty; writes block while it is full.
/// Handles are cheap to clone; typically one clone goes to the producer and
/// one to the consumer.
pub struct Fifo<T> {
    inner: Arc<FifoInner<T>>,
    hook_id: usize,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Fifo<T> {
        Fifo {
            inner: Arc::clone(&self.inner),
            hook_id: self.hook_id,
        }
    }
}

impl Simulator {
    /// Creates a bounded FIFO channel with space for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Simulator::rendezvous`] for
    /// unbuffered synchronous communication).
    pub fn fifo<T: Send + std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
    ) -> Fifo<T> {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        let name = name.into();
        let data_ev = self.event(format!("{name}.data"));
        let space_ev = self.event(format!("{name}.space"));
        let shared = Arc::clone(self.shared());
        let (name_sym, stats) =
            shared.with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        let inner = Arc::new(FifoInner {
            name,
            name_sym,
            capacity,
            buf: Mutex::new(FifoBuf {
                q: VecDeque::with_capacity(capacity),
                readable: 0,
                written: 0,
                read: 0,
                par_round: 0,
                par_reader: usize::MAX,
                par_writer: usize::MAX,
            }),
            data_ev,
            space_ev,
            stats,
        });
        let hook_id = shared
            .with_state(|st| st.register_update_hook(Arc::clone(&inner) as Arc<dyn UpdateHook>));
        Fifo { inner, hook_id }
    }
}

impl<T: Send + std::fmt::Debug + 'static> Fifo<T> {
    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The channel's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of committed items currently readable.
    pub fn num_available(&self) -> usize {
        let buf = self.inner.buf.lock();
        buf.readable - buf.read
    }

    /// Number of free slots visible to writers.
    pub fn num_free(&self) -> usize {
        let buf = self.inner.buf.lock();
        self.inner.capacity - buf.readable - buf.written
    }

    /// Same-delta conflict detection under parallel evaluation: a
    /// second distinct reader (or writer) process in one round makes
    /// the outcome order-dependent — which one gets the last item or
    /// slot — so it is reported as a non-determinate construct instead
    /// of being silently raced. One reader plus one writer per delta
    /// is always fine: `sc_fifo` update-phase semantics decouple them.
    fn par_track(&self, ctx: &ProcCtx, buf: &mut FifoBuf<T>, is_read: bool) {
        if !ctx.shared.par_active_fast() {
            return;
        }
        buf.par_roll(ctx.shared.par.round_id());
        let slot = if is_read {
            &mut buf.par_reader
        } else {
            &mut buf.par_writer
        };
        if *slot != usize::MAX && *slot != ctx.pid {
            let role = if is_read { "read" } else { "write" };
            ctx.shared.par.report_hazard(format!(
                "fifo '{}': processes P{} and P{} both {role} in the same delta cycle",
                self.inner.name,
                (*slot).min(ctx.pid),
                (*slot).max(ctx.pid)
            ));
        }
        *slot = ctx.pid;
    }

    /// Blocking read: suspends the calling process until a committed value
    /// is available (the analogue of `sc_fifo::read`).
    pub async fn read(&self, ctx: &mut ProcCtx) -> T {
        loop {
            let taken = {
                let mut buf = self.inner.buf.lock();
                self.par_track(ctx, &mut buf, true);
                if buf.readable > buf.read {
                    let v = buf.q.pop_front().expect("readable item present");
                    buf.read += 1;
                    Some(v)
                } else {
                    None
                }
            };
            match taken {
                Some(v) => {
                    self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
                    // Capture the payload outside the kernel lock, and only
                    // when a sink is installed: with tracing off the read
                    // path performs no allocation at all.
                    let payload = ctx.shared.tracing_fast().then(|| Payload::capture(&v));
                    let shared = Arc::clone(&ctx.shared);
                    if shared.par_active_fast() {
                        // The update request is live (an idempotent,
                        // order-independent set insert); the trace
                        // record is buffered for pid-order commit.
                        shared.with_state(|st| st.request_update(self.hook_id));
                        if let Some(payload) = payload {
                            shared.par.append(
                                ctx.pid,
                                Effect::Trace {
                                    label: shared.labels.fifo_read,
                                    chan: self.inner.name_sym,
                                    payload,
                                },
                            );
                        }
                    } else {
                        shared.with_state(|st| {
                            st.request_update(self.hook_id);
                            if let Some(payload) = payload {
                                let label = st.labels.fifo_read;
                                st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                            }
                        });
                    }
                    return v;
                }
                None => {
                    self.inner.stats.blocks.fetch_add(1, Ordering::Relaxed);
                    // Attribution: measure the blocked span in simulated
                    // time (lock-free gate; off = no extra kernel calls).
                    let t0 = ctx.shared.attribution_fast().then(|| ctx.now());
                    ctx.wait_event(&self.inner.data_ev).await;
                    if let Some(t0) = t0 {
                        let span = ctx.now().saturating_sub(t0).as_ps();
                        self.inner
                            .stats
                            .blocked_ps
                            .fetch_add(span, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Blocking write: suspends the calling process until space is free
    /// (the analogue of `sc_fifo::write`).
    pub async fn write(&self, ctx: &mut ProcCtx, value: T) {
        let mut value = Some(value);
        loop {
            let wrote = {
                let mut buf = self.inner.buf.lock();
                self.par_track(ctx, &mut buf, false);
                if self.inner.capacity - buf.readable - buf.written > 0 {
                    let v = value.take().expect("value still pending");
                    // Only snapshot the value when tracing is live — the
                    // legacy path built a `String` here unconditionally.
                    let payload = ctx.shared.tracing_fast().then(|| Payload::capture(&v));
                    buf.q.push_back(v);
                    buf.written += 1;
                    if ctx.shared.attribution_fast() {
                        self.inner
                            .stats
                            .max_depth
                            .fetch_max(buf.q.len() as u64, Ordering::Relaxed);
                    }
                    Some(payload)
                } else {
                    None
                }
            };
            match wrote {
                Some(payload) => {
                    self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&ctx.shared);
                    if shared.par_active_fast() {
                        shared.with_state(|st| st.request_update(self.hook_id));
                        if let Some(payload) = payload {
                            shared.par.append(
                                ctx.pid,
                                Effect::Trace {
                                    label: shared.labels.fifo_write,
                                    chan: self.inner.name_sym,
                                    payload,
                                },
                            );
                        }
                    } else {
                        shared.with_state(|st| {
                            st.request_update(self.hook_id);
                            if let Some(payload) = payload {
                                let label = st.labels.fifo_write;
                                st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                            }
                        });
                    }
                    return;
                }
                None => {
                    self.inner.stats.blocks.fetch_add(1, Ordering::Relaxed);
                    let t0 = ctx.shared.attribution_fast().then(|| ctx.now());
                    ctx.wait_event(&self.inner.space_ev).await;
                    if let Some(t0) = t0 {
                        let span = ctx.now().saturating_sub(t0).as_ps();
                        self.inner
                            .stats
                            .blocked_ps
                            .fetch_add(span, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Non-blocking read; `None` when no committed value is available.
    pub fn try_read(&self, ctx: &mut ProcCtx) -> Option<T> {
        let taken = {
            let mut buf = self.inner.buf.lock();
            self.par_track(ctx, &mut buf, true);
            if buf.readable > buf.read {
                let v = buf.q.pop_front().expect("readable item present");
                buf.read += 1;
                Some(v)
            } else {
                None
            }
        };
        if taken.is_some() {
            self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&ctx.shared);
            shared.with_state(|st| st.request_update(self.hook_id));
        }
        taken
    }

    /// The event notified (delta) when new data becomes readable.
    pub fn data_written_event(&self) -> &Event {
        &self.inner.data_ev
    }
}

impl<T> std::fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fifo")
            .field("name", &self.inner.name)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use std::sync::mpsc;

    #[test]
    fn values_pass_in_order() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |mut ctx| async move {
            for i in 0..10 {
                w.write(&mut ctx, i).await;
            }
        });
        let (tx, rx) = mpsc::channel();
        sim.spawn("r", move |mut ctx| async move {
            for _ in 0..10 {
                tx.send(r.read(&mut ctx).await).unwrap();
            }
        });
        sim.run().unwrap();
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn write_blocks_when_full() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 1);
        let (w, r) = (f.clone(), f);
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |mut ctx| async move {
            w.write(&mut ctx, 1).await;
            w.write(&mut ctx, 2).await; // blocks until reader drains
        });
        sim.spawn("r", move |mut ctx| async move {
            ctx.wait(Time::ns(50)).await;
            tx.send((r.read(&mut ctx).await, ctx.now())).unwrap();
            tx.send((r.read(&mut ctx).await, ctx.now())).unwrap();
        });
        sim.run().unwrap();
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!(got[0].1 >= Time::ns(50));
    }

    #[test]
    fn same_delta_write_not_visible_until_update() {
        // Reader polls with try_read in the same delta the writer writes:
        // sc_fifo semantics say it must see nothing yet.
        let mut sim = Simulator::new();
        let f = sim.fifo::<u32>("f", 4);
        let (w, r) = (f.clone(), f.clone());
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |mut ctx| async move {
            w.write(&mut ctx, 7).await;
            // keep the process alive into the next delta so the probe can run
            ctx.wait(Time::ZERO).await;
        });
        sim.spawn("probe", move |mut ctx| async move {
            // runs in the same evaluate phase as the write (pid order: w first)
            let same_delta = r.try_read(&mut ctx);
            tx.send(same_delta).unwrap();
            ctx.wait(Time::ZERO).await;
            let next = r.try_read(&mut ctx);
            tx.send(next).unwrap();
        });
        sim.run().unwrap();
        let got: Vec<Option<u32>> = rx.try_iter().collect();
        assert_eq!(got, vec![None, Some(7)]);
    }

    #[test]
    fn num_available_and_free_track_commits() {
        let mut sim = Simulator::new();
        let f = sim.fifo::<u8>("f", 3);
        let w = f.clone();
        let probe = f.clone();
        sim.spawn("w", move |mut ctx| async move {
            assert_eq!(w.num_free(), 3);
            w.write(&mut ctx, 1).await;
            assert_eq!(w.num_free(), 2);
            assert_eq!(w.num_available(), 0); // not committed yet
            ctx.wait(Time::ZERO).await;
            assert_eq!(w.num_available(), 1);
        });
        sim.run().unwrap();
        assert_eq!(probe.num_available(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let mut sim = Simulator::new();
        let _ = sim.fifo::<u8>("bad", 0);
    }

    #[test]
    fn tracing_records_channel_ops() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        let f = sim.fifo::<u32>("ch", 1);
        let (w, r) = (f.clone(), f);
        sim.spawn(
            "w",
            move |mut ctx| async move { w.write(&mut ctx, 9).await },
        );
        sim.spawn("r", move |mut ctx| async move {
            let _ = r.read(&mut ctx).await;
        });
        sim.run().unwrap();
        let trace = sim.take_trace();
        let labels: Vec<&str> = trace.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["fifo.write", "fifo.read"]);
        assert!(trace[0].detail.contains("ch=9"));
    }
}
