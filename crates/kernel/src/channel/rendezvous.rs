//! Unbuffered synchronous (CSP-style) channel.
//!
//! A write completes only when a reader has consumed the value, and a read
//! completes only when a writer has produced one — the rendezvous of CSP,
//! one of the models of computation the single-source methodology supports
//! (Herrera et al., "Modeling of CSP, KPN and SR systems with SystemC").
//!
//! The channel is intended for exactly one writer and one reader process.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use scperf_obs::{Payload, Sym};
use scperf_sync::Mutex;

use crate::event::Event;
use crate::parallel::Effect;
use crate::process::ProcCtx;
use crate::sim::Simulator;
use crate::state::ChanStats;

struct RendezvousInner<T> {
    name: String,
    /// The channel name interned in the kernel's symbol table.
    name_sym: Sym,
    slot: Mutex<Option<T>>,
    data_ev: Event,
    consumed_ev: Event,
    stats: Arc<ChanStats>,
}

/// A cloneable handle to a rendezvous channel. Create with
/// [`Simulator::rendezvous`].
pub struct Rendezvous<T> {
    inner: Arc<RendezvousInner<T>>,
}

impl<T> Clone for Rendezvous<T> {
    fn clone(&self) -> Rendezvous<T> {
        Rendezvous {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Simulator {
    /// Creates a rendezvous (unbuffered, fully synchronous) channel.
    pub fn rendezvous<T: Send + std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
    ) -> Rendezvous<T> {
        let name = name.into();
        let data_ev = self.event(format!("{name}.data"));
        let consumed_ev = self.event(format!("{name}.consumed"));
        let (name_sym, stats) = self
            .shared()
            .with_state(|st| (st.interner.intern(&name), st.register_chan_stats(&name)));
        Rendezvous {
            inner: Arc::new(RendezvousInner {
                name,
                name_sym,
                slot: Mutex::new(None),
                data_ev,
                consumed_ev,
                stats,
            }),
        }
    }
}

impl<T: Send + std::fmt::Debug + 'static> Rendezvous<T> {
    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Offers `value` and blocks until the reader has consumed it.
    pub async fn write(&self, ctx: &mut ProcCtx, value: T) {
        // Wait for the slot to be free (a previous offer still pending).
        let mut value = Some(value);
        loop {
            // The slot is immediately visible to the reader (rendezvous
            // cannot use update-phase buffering), so under parallel
            // evaluation slot accesses must happen in canonical pid
            // order: wait for every lower-pid round member first.
            ctx.par_fence();
            let placed = {
                let mut slot = self.inner.slot.lock();
                if slot.is_none() {
                    let v = value.take().expect("value still pending");
                    // Snapshot the value only when tracing is live — the
                    // legacy path formatted a `String` for every write.
                    let payload = ctx.shared.tracing_fast().then(|| Payload::capture(&v));
                    *slot = Some(v);
                    Some(payload)
                } else {
                    None
                }
            };
            match placed {
                Some(payload) => {
                    self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
                    if let Some(payload) = payload {
                        let shared = Arc::clone(&ctx.shared);
                        if shared.par_active_fast() {
                            shared.par.append(
                                ctx.pid,
                                Effect::Trace {
                                    label: shared.labels.rendezvous_write,
                                    chan: self.inner.name_sym,
                                    payload,
                                },
                            );
                        } else {
                            shared.with_state(|st| {
                                let label = st.labels.rendezvous_write;
                                st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                            });
                        }
                    }
                    self.inner.data_ev.notify_delta();
                    break;
                }
                None => {
                    self.inner.stats.blocks.fetch_add(1, Ordering::Relaxed);
                    self.timed_wait(ctx, &self.inner.consumed_ev).await;
                }
            }
        }
        // Block until the reader takes the value (the rendezvous itself).
        loop {
            ctx.par_fence();
            if self.inner.slot.lock().is_none() {
                break;
            }
            self.inner.stats.blocks.fetch_add(1, Ordering::Relaxed);
            self.timed_wait(ctx, &self.inner.consumed_ev).await;
        }
    }

    /// Blocks until a writer offers a value, consumes it and releases the
    /// writer.
    pub async fn read(&self, ctx: &mut ProcCtx) -> T {
        loop {
            // See `write`: slot accesses are serialized in pid order
            // under parallel evaluation.
            ctx.par_fence();
            let taken = self.inner.slot.lock().take();
            match taken {
                Some(v) => {
                    self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
                    if ctx.shared.tracing_fast() {
                        let payload = Payload::capture(&v);
                        let shared = Arc::clone(&ctx.shared);
                        if shared.par_active_fast() {
                            shared.par.append(
                                ctx.pid,
                                Effect::Trace {
                                    label: shared.labels.rendezvous_read,
                                    chan: self.inner.name_sym,
                                    payload,
                                },
                            );
                        } else {
                            shared.with_state(|st| {
                                let label = st.labels.rendezvous_read;
                                st.record_event(Some(ctx.pid), label, self.inner.name_sym, payload);
                            });
                        }
                    }
                    self.inner.consumed_ev.notify_delta();
                    return v;
                }
                None => {
                    self.inner.stats.blocks.fetch_add(1, Ordering::Relaxed);
                    self.timed_wait(ctx, &self.inner.data_ev).await;
                }
            }
        }
    }

    /// Waits on `ev`, charging the blocked span (in simulated time) to
    /// this channel when attribution is on.
    async fn timed_wait(&self, ctx: &mut ProcCtx, ev: &Event) {
        let t0 = ctx.shared.attribution_fast().then(|| ctx.now());
        ctx.wait_event(ev).await;
        if let Some(t0) = t0 {
            let span = ctx.now().saturating_sub(t0).as_ps();
            self.inner
                .stats
                .blocked_ps
                .fetch_add(span, Ordering::Relaxed);
        }
    }
}

impl<T> std::fmt::Debug for Rendezvous<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rendezvous")
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
    fn write_blocks_until_read() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        sim.spawn("w", move |mut ctx| async move {
            w.write(&mut ctx, 11).await;
            tx.send(("write done", ctx.now())).unwrap();
        });
        sim.spawn("r", move |mut ctx| async move {
            ctx.wait(Time::ns(20)).await;
            let v = r.read(&mut ctx).await;
            tx2.send(("read done", ctx.now())).unwrap();
            assert_eq!(v, 11);
        });
        sim.run().unwrap();
        let got: Vec<_> = rx.try_iter().collect();
        // The reader consumes at 20ns; the writer can only complete after.
        assert_eq!(got[0].0, "read done");
        assert!(got[1].1 >= Time::ns(20));
    }

    #[test]
    fn read_blocks_until_write() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        sim.spawn("r", move |mut ctx| async move {
            let v = r.read(&mut ctx).await;
            assert_eq!(v, 5);
            assert!(ctx.now() >= Time::ns(30));
        });
        sim.spawn("w", move |mut ctx| async move {
            ctx.wait(Time::ns(30)).await;
            w.write(&mut ctx, 5).await;
        });
        sim.run().unwrap();
    }

    #[test]
    fn repeated_rendezvous_preserves_order() {
        let mut sim = Simulator::new();
        let ch = sim.rendezvous::<u32>("r");
        let (w, r) = (ch.clone(), ch);
        let (tx, rx) = mpsc::channel();
        sim.spawn("w", move |mut ctx| async move {
            for i in 0..5 {
                w.write(&mut ctx, i).await;
            }
        });
        sim.spawn("r", move |mut ctx| async move {
            for _ in 0..5 {
                tx.send(r.read(&mut ctx).await).unwrap();
            }
        });
        sim.run().unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }
}
