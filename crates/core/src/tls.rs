//! Per-process estimation context.
//!
//! The paper's library works by *implicitly* intercepting every overloaded
//! operator executed by the running process. The kernel polls one process
//! at a time per thread, so a `thread_local!` slot holding *the polled
//! process's* context is the exact analogue: [`crate::PerfModel::spawn`]
//! installs the context when the process first runs, the annotated
//! [`crate::G`] types charge into it, and the channel wrappers drain it at
//! every segment boundary. Between polls the context is moved out of the
//! slots ([`stash`]) into the process's future and moved back in
//! ([`restore`]) when the scheduler polls it again, so every process sees
//! exactly its own accumulators whichever thread polls it.
//!
//! # The two-tier layout
//!
//! Charging is the most-executed code in the whole system (§3: *every*
//! elementary operation charges), so the context is split in two:
//!
//! * [`FastSlots`] — a flat thread-local of [`Cell`]s holding exactly the
//!   state mutated per operation: a one-byte state discriminant, the
//!   running accumulators (`acc`, `max_ready`), the dense cost table
//!   (pre-ceiled for parallel resources) and the per-op counters.
//!   [`charge`] reads the discriminant once and performs branch-predictable
//!   arithmetic on the cells — no `RefCell` borrow, no `Option` unwrap.
//!   On an un-instrumented thread the discriminant is [`S_ABSENT`] and the
//!   whole call is a single flag test.
//! * [`ThreadCtx`] — the rest of the context behind a
//!   `RefCell<Option<…>>`, touched only at segment boundaries
//!   (`take_segment`), at site-memo region edges and by DFG recording.
//!
//! `install` seeds the fast slots from the `ThreadCtx`; `take_segment`
//! drains the accumulators out of them; `uninstall` clears them.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::cost::{CostTable, Op, OpCounts, OP_COUNT};
use crate::estimator::EstimatorShared;
use crate::hw::{Dfg, DfgNode, NO_NODE};
use crate::prog::{fingerprint_costs, ProgStore, RecEvent};
use crate::resource::{ResourceId, ResourceKind};
use crate::site::MemoMode;

/// Fast-slot state: no context installed — charging is a no-op.
pub(crate) const S_ABSENT: u8 = 0;
/// Fast-slot state: context installed but charging is disabled
/// (environment resource, trace replay, or inside a replayed site region).
pub(crate) const S_PASSIVE: u8 = 1;
/// Fast-slot state: live sequential charging (`acc += cost`).
pub(crate) const S_SEQ: u8 = 2;
/// Fast-slot state: live parallel charging (ceiled latency, ready times).
pub(crate) const S_PAR: u8 = 3;
/// Fast-slot state: parallel charging with DFG recording (outlined path —
/// the node push needs the `RefCell` context).
pub(crate) const S_PAR_DFG: u8 = 4;

/// Effective memo mode: off (mirrors `MemoMode::Off as u8`).
pub(crate) const MEMO_OFF: u8 = MemoMode::Off as u8;
/// Effective memo mode: replay recorded deltas.
pub(crate) const MEMO_REPLAY: u8 = MemoMode::Replay as u8;
/// Effective memo mode: replay + live re-charge with bit-equality asserts.
pub(crate) const MEMO_VERIFY: u8 = MemoMode::Verify as u8;

/// The flat per-op fast path: every field a [`Cell`], mutated without any
/// `RefCell` borrow. One instance per thread; meaningful only while a
/// [`ThreadCtx`] is installed.
pub(crate) struct FastSlots {
    /// One of the `S_*` discriminants.
    pub(crate) state: Cell<u8>,
    /// Effective site-memoization mode (a `MemoMode` as `u8`); `0` = off.
    pub(crate) memo: Cell<u8>,
    /// Bumped at every segment boundary; site regions use it to detect a
    /// boundary firing inside the region.
    pub(crate) seg_gen: Cell<u32>,
    /// Sequential: accumulated fractional cycles. Parallel: accumulated
    /// single-ALU cycles (`T_max`).
    pub(crate) acc: Cell<f64>,
    /// Parallel: critical-path frontier (`T_min`).
    pub(crate) max_ready: Cell<f64>,
    /// Dense cost snapshot; pre-ceiled (`ceil().max(0.0)`) for parallel
    /// states so the hot path does no rounding.
    pub(crate) costs: [Cell<f64>; OP_COUNT],
    /// Per-op execution counters for the running segment.
    pub(crate) counts: [Cell<u64>; OP_COUNT],
    /// Site-memo regions satisfied from the cache this segment.
    pub(crate) site_hits: Cell<u64>,
    /// Site-memo regions recorded (first execution) this segment.
    pub(crate) site_misses: Cell<u64>,
}

impl FastSlots {
    const fn new() -> FastSlots {
        FastSlots {
            state: Cell::new(S_ABSENT),
            memo: Cell::new(0),
            seg_gen: Cell::new(0),
            acc: Cell::new(0.0),
            max_ready: Cell::new(0.0),
            costs: [const { Cell::new(0.0) }; OP_COUNT],
            counts: [const { Cell::new(0) }; OP_COUNT],
            site_hits: Cell::new(0),
            site_misses: Cell::new(0),
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    pub(crate) static FAST: FastSlots = const { FastSlots::new() };
}

/// Cursor over a previously recorded per-segment cycle trace.
///
/// When installed, the process is in *replay* mode: operator charging is
/// a no-op and every segment boundary pops the next recorded cycle count
/// instead of recomputing it. Sound whenever the process's charging is
/// deterministic in (code, input data, cost table) — which the
/// single-source methodology guarantees for data-independent workloads —
/// because the popped value is bit-identical to what live estimation
/// would produce.
pub(crate) struct ReplayCursor {
    /// Recorded cycle counts, one per `end_segment` in execution order.
    pub(crate) trace: Arc<Vec<f64>>,
    /// Per-segment op counts and HW extremes, parallel to `trace`;
    /// `None` for bare cycle vectors (timing-only replay).
    pub(crate) detail: Option<Arc<Vec<crate::recorder::SegDetail>>>,
    /// Index of the next segment to replay.
    pub(crate) next: usize,
}

/// The running segment's accumulated state for one process thread.
pub(crate) struct ThreadCtx {
    pub(crate) est: Arc<EstimatorShared>,
    pub(crate) pid: usize,
    pub(crate) resource: ResourceId,
    pub(crate) kind: ResourceKind,
    /// Snapshot of the resource's cost table (dense, for fast access).
    pub(crate) costs: [f64; OP_COUNT],
    pub(crate) k: f64,
    pub(crate) rtos_cycles: f64,
    /// Optional full dataflow-graph recording (for HLS export).
    pub(crate) dfg: Option<Dfg>,
    /// Node at which the current segment started.
    pub(crate) current_node: u32,
    /// Replay mode: pop recorded segment costs instead of charging.
    pub(crate) replay: Option<ReplayCursor>,
    /// Requested site-memoization mode; the effective mode additionally
    /// requires a sequential resource, live estimation and an
    /// integer-valued cost table (see [`CostTable::is_integral`]).
    pub(crate) memo: MemoMode,
    /// Compiled cost programs for memoized regions, keyed by
    /// `(site id, caller key)`, plus the optional warm set shared across
    /// processes/sessions.
    pub(crate) progs: ProgStore,
    /// Nested-region events logged while an enclosing site records
    /// (drained by the recording guard's drop).
    pub(crate) rec_events: Vec<RecEvent>,
    /// Number of site regions currently recording on this thread.
    pub(crate) rec_depth: u32,
    /// Recycled DFG node buffer (arena reuse across segments).
    pub(crate) dfg_spare: Vec<DfgNode>,
    /// Scratch finish-time buffer for sealing DFG critical paths.
    pub(crate) cp_scratch: Vec<u64>,
}

/// Everything one finished segment drained out of the context.
pub(crate) struct SegmentTake {
    /// Accumulated cycles (sequential) / single-ALU cycles (parallel).
    pub(crate) acc: f64,
    /// Critical-path frontier (parallel).
    pub(crate) max_ready: f64,
    /// Per-op counts.
    pub(crate) counts: OpCounts,
    /// The sealed DFG, when recording was on.
    pub(crate) dfg: Option<Dfg>,
    /// Site-memo cache hits this segment.
    pub(crate) site_hits: u64,
    /// Site-memo cache misses (recordings) this segment.
    pub(crate) site_misses: u64,
    /// 1 when this segment's DFG node buffer was recycled from the arena.
    pub(crate) arena_reuse: u64,
}

/// Installs the context for this process thread and arms the fast slots.
pub(crate) fn install(mut ctx: ThreadCtx) {
    let state = if ctx.replay.is_some() || ctx.kind == ResourceKind::Environment {
        S_PASSIVE
    } else {
        match ctx.kind {
            ResourceKind::Sequential => S_SEQ,
            ResourceKind::Parallel => {
                if ctx.dfg.is_some() {
                    S_PAR_DFG
                } else {
                    S_PAR
                }
            }
            ResourceKind::Environment => unreachable!(),
        }
    };
    // Memoized delta replay is bit-exact only when every cost is an
    // integer-valued f64 (all partial sums are then exact); otherwise the
    // site regions silently stay live.
    let memo = if state == S_SEQ && integral(&ctx.costs) {
        ctx.memo as u8
    } else {
        MemoMode::Off as u8
    };
    // A process whose regions never memoize (environment, HW, replaying,
    // fractional table, memo off) has no use for a warm set: drop it
    // silently. A set recorded under a different cost table must not
    // replay: drop it too, counted in `est.prog.rejects`, so every
    // region records afresh against the installed table.
    if let Some(warm) = ctx.progs.warm.as_ref() {
        if memo == MEMO_OFF {
            ctx.progs.warm = None;
        } else if warm.table_fp() != fingerprint_costs(&ctx.costs) {
            ctx.progs.warm = None;
            ctx.progs.rejects += 1;
        }
    }
    FAST.with(|f| {
        debug_assert_eq!(
            f.state.get(),
            S_ABSENT,
            "estimation context installed twice"
        );
        let par = matches!(state, S_PAR | S_PAR_DFG);
        for i in 0..OP_COUNT {
            let c = ctx.costs[i];
            f.costs[i].set(if par { c.ceil().max(0.0) } else { c });
            f.counts[i].set(0);
        }
        f.acc.set(0.0);
        f.max_ready.set(0.0);
        f.site_hits.set(0);
        f.site_misses.set(0);
        f.memo.set(memo);
        f.state.set(state);
    });
    CTX.with(|slot| {
        let mut slot = slot.borrow_mut();
        debug_assert!(slot.is_none(), "estimation context installed twice");
        *slot = Some(ctx);
    });
}

fn integral(costs: &[f64; OP_COUNT]) -> bool {
    costs.iter().all(|c| c.is_finite() && c.fract() == 0.0)
}

/// Removes the context (at process-body exit) and disarms the fast
/// slots; charges made since the last segment boundary are discarded
/// (the next [`install`] re-seeds every slot).
pub(crate) fn uninstall() -> Option<ThreadCtx> {
    let ctx = CTX.with(|slot| slot.borrow_mut().take())?;
    FAST.with(|f| {
        f.memo.set(MEMO_OFF);
        f.state.set(S_ABSENT);
    });
    Some(ctx)
}

/// A suspended process's estimation state: the context and its fast
/// slots, moved verbatim out of the thread-locals.
pub(crate) struct Stashed {
    ctx: ThreadCtx,
    fast: FastCopy,
}

/// A verbatim copy of [`FastSlots`].
struct FastCopy {
    state: u8,
    memo: u8,
    seg_gen: u32,
    acc: f64,
    max_ready: f64,
    costs: [f64; OP_COUNT],
    counts: [u64; OP_COUNT],
    site_hits: u64,
    site_misses: u64,
}

/// Moves the installed context, if any, out of this thread's slots and
/// leaves them absent. Unlike [`uninstall`] nothing is folded or reset:
/// [`restore`] puts back exactly what was taken.
pub(crate) fn stash() -> Option<Stashed> {
    if FAST.with(|f| f.state.get()) == S_ABSENT {
        return None;
    }
    let ctx = CTX.with(|slot| slot.borrow_mut().take())?;
    let fast = FAST.with(|f| FastCopy {
        state: f.state.replace(S_ABSENT),
        memo: f.memo.replace(MEMO_OFF),
        seg_gen: f.seg_gen.get(),
        acc: f.acc.replace(0.0),
        max_ready: f.max_ready.replace(0.0),
        costs: std::array::from_fn(|i| f.costs[i].get()),
        counts: std::array::from_fn(|i| f.counts[i].replace(0)),
        site_hits: f.site_hits.replace(0),
        site_misses: f.site_misses.replace(0),
    });
    Some(Stashed { ctx, fast })
}

/// Puts a [`stash`]ed context back into this thread's (absent) slots.
/// Unlike [`install`] nothing is re-derived: the warm-set check and the
/// slot initialization already ran when the process first installed.
pub(crate) fn restore(stashed: Stashed) {
    let Stashed { ctx, fast } = stashed;
    FAST.with(|f| {
        debug_assert_eq!(f.state.get(), S_ABSENT, "estimation context restored twice");
        f.state.set(fast.state);
        f.memo.set(fast.memo);
        f.seg_gen.set(fast.seg_gen);
        f.acc.set(fast.acc);
        f.max_ready.set(fast.max_ready);
        for i in 0..OP_COUNT {
            f.costs[i].set(fast.costs[i]);
            f.counts[i].set(fast.counts[i]);
        }
        f.site_hits.set(fast.site_hits);
        f.site_misses.set(fast.site_misses);
    });
    CTX.with(|slot| *slot.borrow_mut() = Some(ctx));
}

/// Runs `f` with the installed context, if any. Returns `None` when the
/// calling thread is not an analyzed process (plain kernel processes,
/// unit tests, environment code outside `PerfModel::spawn`).
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    CTX.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Charges one operation with up to two data dependences through the flat
/// fast path, returning the `(ready_time, dfg_node)` of the produced
/// value.
///
/// * Sequential resources accumulate the raw fractional cost (§3: "total
///   time is obtained by adding the partial times").
/// * Parallel resources add the pre-ceiled latency (§3: "a multiple of
///   the clock period") and track both the dataflow critical path
///   (`T_min`) and the single-ALU sum (`T_max`).
/// * Absent, environment and replaying contexts cost one flag test.
#[inline]
pub(crate) fn charge(op: Op, a_ready: f64, a_node: u32, b_ready: f64, b_node: u32) -> (f64, u32) {
    FAST.with(|f| {
        let state = f.state.get();
        if state <= S_PASSIVE {
            return (0.0, NO_NODE);
        }
        if state == S_SEQ {
            let i = op.index();
            f.acc.set(f.acc.get() + f.costs[i].get());
            f.counts[i].set(f.counts[i].get() + 1);
            return (0.0, NO_NODE);
        }
        if state == S_PAR {
            return (charge_par(f, op, a_ready, b_ready), NO_NODE);
        }
        charge_slow(f, op, a_ready, a_node, b_ready, b_node)
    })
}

/// Parallel-resource arithmetic shared by the [`S_PAR`] and [`S_PAR_DFG`]
/// states. `costs` holds pre-ceiled latencies.
#[inline]
fn charge_par(f: &FastSlots, op: Op, a_ready: f64, b_ready: f64) -> f64 {
    let i = op.index();
    let lat = f.costs[i].get();
    let start = a_ready.max(b_ready);
    let ready = start + lat;
    f.acc.set(f.acc.get() + lat);
    if ready > f.max_ready.get() {
        f.max_ready.set(ready);
    }
    f.counts[i].set(f.counts[i].get() + 1);
    ready
}

/// Outlined uncommon state: DFG recording ([`S_PAR_DFG`]), which needs
/// the `RefCell` context for the node push.
#[cold]
#[inline(never)]
fn charge_slow(
    f: &FastSlots,
    op: Op,
    a_ready: f64,
    a_node: u32,
    b_ready: f64,
    b_node: u32,
) -> (f64, u32) {
    debug_assert_eq!(f.state.get(), S_PAR_DFG);
    let ready = charge_par(f, op, a_ready, b_ready);
    let lat = f.costs[op.index()].get() as u64;
    let node = with(|c| match c.dfg.as_mut() {
        Some(dfg) => dfg.push(op, lat, a_node, b_node),
        None => NO_NODE,
    })
    .unwrap_or(NO_NODE);
    (ready, node)
}

impl ThreadCtx {
    /// Replay mode: pops the next recorded segment cost, or `None` when
    /// the context estimates live.
    ///
    /// # Panics
    ///
    /// Panics when the recorded trace is exhausted — the replayed process
    /// executed more segments than the recording, i.e. the cached trace
    /// belongs to a different workload configuration (stale cache key).
    pub(crate) fn pop_replay(&mut self) -> Option<(f64, Option<crate::recorder::SegDetail>)> {
        let cursor = self.replay.as_mut()?;
        let v = cursor.trace.get(cursor.next).copied().unwrap_or_else(|| {
            panic!(
                "segment replay trace exhausted after {} segments: \
                 the recorded trace does not match this process \
                 (stale or mismatched segment-cost cache entry)",
                cursor.next
            )
        });
        let detail = cursor
            .detail
            .as_ref()
            .and_then(|d| d.get(cursor.next).copied());
        cursor.next += 1;
        Some((v, detail))
    }

    /// Drains the finished segment out of the fast slots, resets them for
    /// the next segment, seals the recorded DFG (caching its
    /// critical-path/sequential times) and hands the next segment a
    /// recycled node buffer from the arena.
    pub(crate) fn take_segment(&mut self) -> SegmentTake {
        let (acc, max_ready, counts, site_hits, site_misses) = FAST.with(|f| {
            let mut counts = OpCounts::new();
            for (i, c) in f.counts.iter().enumerate() {
                counts.add_index(i, c.replace(0));
            }
            f.seg_gen.set(f.seg_gen.get().wrapping_add(1));
            (
                f.acc.replace(0.0),
                f.max_ready.replace(0.0),
                counts,
                f.site_hits.replace(0),
                f.site_misses.replace(0),
            )
        });
        let mut arena_reuse = 0;
        let dfg = match self.dfg.as_mut() {
            Some(d) => {
                let spare = std::mem::take(&mut self.dfg_spare);
                if spare.capacity() > 0 {
                    arena_reuse = 1;
                }
                let mut taken = std::mem::replace(d, Dfg::from_buffer(spare));
                taken.seal(&mut self.cp_scratch);
                Some(taken)
            }
            None => None,
        };
        SegmentTake {
            acc,
            max_ready,
            counts,
            dfg,
            site_hits,
            site_misses,
            arena_reuse,
        }
    }
}

/// Returns a no-longer-needed DFG's node buffer to the installed
/// context's arena, to be reused by an upcoming segment. No-op on
/// un-instrumented threads or for zero-capacity buffers.
pub(crate) fn recycle_dfg(dfg: Dfg) {
    let buf = dfg.into_buffer();
    if buf.capacity() == 0 {
        return;
    }
    let _ = with(|c| {
        if c.dfg_spare.capacity() < buf.capacity() {
            c.dfg_spare = buf;
        }
    });
}

/// Charges a standalone operation with no tracked operands (used by the
/// control-flow macros). Public because the `g_if!`/`g_while!`/`g_call!`
/// macros expand to calls to it; not intended for direct use.
#[doc(hidden)]
#[inline]
pub fn charge_op(op: Op) {
    let _ = charge(op, 0.0, NO_NODE, 0.0, NO_NODE);
}

/// Charges a conditional-branch evaluation (`if` / loop condition).
#[inline]
pub fn charge_branch() {
    charge_op(Op::Branch);
}

/// Charges a function-call overhead.
#[inline]
pub fn charge_call() {
    charge_op(Op::Call);
}

/// Builds a snapshot of the table as a dense array.
pub(crate) fn dense_costs(table: &CostTable) -> [f64; OP_COUNT] {
    *table.as_dense()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers letting unit tests exercise charging without a simulator.
    use super::*;
    use crate::resource::Platform;
    use scperf_kernel::Time;

    /// What a test run left behind: the drained segment (derefs to its
    /// `acc`/`counts`/`max_ready`/`dfg`) and the context's program store.
    pub(crate) struct TestRun {
        pub(crate) take: SegmentTake,
        pub(crate) progs: ProgStore,
    }

    impl std::ops::Deref for TestRun {
        type Target = SegmentTake;

        fn deref(&self) -> &SegmentTake {
            &self.take
        }
    }

    /// A context bound to a throwaway estimator, not yet installed.
    pub(crate) fn test_ctx(
        kind: ResourceKind,
        table: &CostTable,
        record_dfg: bool,
        memo: MemoMode,
    ) -> ThreadCtx {
        let mut platform = Platform::new();
        let resource = match kind {
            ResourceKind::Sequential => {
                platform.sequential("cpu", Time::ns(10), table.clone(), 0.0)
            }
            ResourceKind::Parallel => platform.parallel("hw", Time::ns(10), table.clone(), 0.0),
            ResourceKind::Environment => platform.environment("env"),
        };
        ThreadCtx {
            est: EstimatorShared::new(platform, crate::Mode::EstimateOnly),
            pid: 0,
            resource,
            kind,
            costs: dense_costs(table),
            k: 0.0,
            rtos_cycles: 0.0,
            dfg: record_dfg.then(Dfg::default),
            current_node: 0,
            replay: None,
            memo,
            progs: ProgStore::new(),
            rec_events: Vec::new(),
            rec_depth: 0,
            dfg_spare: Vec::new(),
            cp_scratch: Vec::new(),
        }
    }

    /// Installs a [`test_ctx`] and runs `f`, returning the segment it
    /// charged.
    pub(crate) fn with_test_ctx(
        kind: ResourceKind,
        table: CostTable,
        record_dfg: bool,
        f: impl FnOnce(),
    ) -> TestRun {
        with_test_ctx_full(kind, table, record_dfg, MemoMode::Off, f)
    }

    /// [`with_test_ctx`] with an explicit memo mode.
    pub(crate) fn with_test_ctx_full(
        kind: ResourceKind,
        table: CostTable,
        record_dfg: bool,
        memo: MemoMode,
        f: impl FnOnce(),
    ) -> TestRun {
        install(test_ctx(kind, &table, record_dfg, memo));
        f();
        let take = with(|c| c.take_segment()).expect("context present");
        let ctx = uninstall().expect("context present");
        TestRun {
            take,
            progs: ctx.progs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{test_ctx, with_test_ctx};
    use super::*;

    #[test]
    fn sequential_charging_accumulates_raw_costs() {
        let table = CostTable::from_pairs([(Op::Add, 1.5), (Op::Mul, 3.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charge_op(Op::Add);
            charge_op(Op::Add);
            charge_op(Op::Mul);
        });
        assert_eq!(ctx.acc, 6.0);
        assert_eq!(ctx.counts.get(Op::Add), 2);
        assert_eq!(ctx.max_ready, 0.0);
    }

    #[test]
    fn parallel_charging_rounds_to_cycles() {
        let table = CostTable::from_pairs([(Op::Branch, 2.4)]);
        let ctx = with_test_ctx(ResourceKind::Parallel, table, false, || {
            charge_branch();
        });
        assert_eq!(ctx.acc, 3.0); // ceil(2.4)
        assert_eq!(ctx.max_ready, 3.0);
    }

    #[test]
    fn environment_charges_nothing() {
        let table = CostTable::risc_sw();
        let ctx = with_test_ctx(ResourceKind::Environment, table, false, || {
            charge_op(Op::Div);
        });
        assert_eq!(ctx.acc, 0.0);
        assert_eq!(ctx.counts.total(), 0);
    }

    #[test]
    fn charging_without_context_is_a_noop() {
        // Must not panic on an un-instrumented thread.
        charge_op(Op::Add);
        charge_branch();
        charge_call();
    }

    #[test]
    fn sequential_path_matches_the_paper_sum_bit_for_bit() {
        let table = CostTable::figure3(); // fractional Branch: 2.4
        let ops = [Op::Branch, Op::Assign, Op::Index];
        let fast = with_test_ctx(ResourceKind::Sequential, table.clone(), false, || {
            for _ in 0..1000 {
                charge_branch();
                charge_op(Op::Assign);
                charge_op(Op::Index);
            }
        });
        // §3: the segment's time is the sum of the partial times, in
        // charge order.
        let mut acc = 0.0;
        let mut counts = OpCounts::new();
        for _ in 0..1000 {
            for op in ops {
                acc += table[op];
                counts.bump(op);
            }
        }
        assert_eq!(fast.acc.to_bits(), acc.to_bits());
        assert_eq!(fast.counts, counts);
    }

    #[test]
    fn parallel_path_matches_the_paper_critical_path_bit_for_bit() {
        let table = CostTable::asic_hw();
        let fast = with_test_ctx(ResourceKind::Parallel, table.clone(), false, || {
            let mut ready = 0.0;
            let mut node = NO_NODE;
            for _ in 0..100 {
                let (r, n) = charge(Op::FMul, ready, node, 0.5, NO_NODE);
                ready = r;
                node = n;
                charge_op(Op::Add);
            }
        });
        // §3: each operation takes a whole number of cycles and starts
        // when its latest operand is ready; T_min is the latest finish,
        // T_max the single-ALU sum.
        let lat = |op: Op| table[op].ceil().max(0.0);
        let (mut ready, mut max_ready, mut acc): (f64, f64, f64) = (0.0, 0.0, 0.0);
        let mut counts = OpCounts::new();
        for _ in 0..100 {
            ready = ready.max(0.5) + lat(Op::FMul);
            acc += lat(Op::FMul);
            max_ready = max_ready.max(ready);
            // The standalone Add's operands are ready at 0.
            acc += lat(Op::Add);
            max_ready = max_ready.max(lat(Op::Add));
            counts.bump(Op::FMul);
            counts.bump(Op::Add);
        }
        assert_eq!(fast.acc.to_bits(), acc.to_bits());
        assert_eq!(fast.max_ready.to_bits(), max_ready.to_bits());
        assert_eq!(fast.counts, counts);
    }

    #[test]
    fn replaying_context_ignores_charges_and_pops_trace() {
        let table = CostTable::from_pairs([(Op::Add, 2.0)]);
        let mut ctx = test_ctx(ResourceKind::Sequential, &table, false, MemoMode::Off);
        ctx.replay = Some(ReplayCursor {
            trace: Arc::new(vec![7.5, 3.25]),
            detail: None,
            next: 0,
        });
        install(ctx);
        let (ready, node) = charge(Op::Add, 0.0, NO_NODE, 0.0, NO_NODE);
        assert_eq!((ready, node), (0.0, NO_NODE));
        let take = with(|c| c.take_segment()).expect("installed");
        assert_eq!(take.acc, 0.0, "replay must not accumulate");
        assert_eq!(take.counts.total(), 0);
        let mut ctx = uninstall().expect("installed");
        assert_eq!(ctx.pop_replay(), Some((7.5, None)));
        assert_eq!(ctx.pop_replay(), Some((3.25, None)));
    }

    #[test]
    fn live_context_does_not_pop() {
        let table = CostTable::from_pairs([(Op::Add, 2.0)]);
        let mut ctx = test_ctx(ResourceKind::Sequential, &table, false, MemoMode::Off);
        assert_eq!(ctx.pop_replay(), None);
    }

    #[test]
    fn take_segment_resets_state() {
        let table = CostTable::from_pairs([(Op::Add, 1.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charge_op(Op::Add);
            charge_op(Op::Add);
            let take = with(|c| c.take_segment()).expect("installed");
            assert_eq!(take.acc, 2.0);
            assert_eq!(take.counts.get(Op::Add), 2);
            // Slots were reset: a new segment starts from zero.
            charge_op(Op::Add);
        });
        assert_eq!(ctx.acc, 1.0);
        assert_eq!(ctx.counts.total(), 1);
    }

    #[test]
    fn stash_and_restore_move_both_tiers_verbatim() {
        let table = CostTable::from_pairs([(Op::Add, 1.5)]);
        let _ = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charge_op(Op::Add);
            let stashed = stash().expect("installed");
            // Absent while stashed: charging is a no-op.
            charge_op(Op::Add);
            assert!(stash().is_none());
            assert!(with(|_| ()).is_none());
            restore(stashed);
            charge_op(Op::Add);
            let take = with(|c| c.take_segment()).expect("restored");
            assert_eq!(take.acc, 3.0);
            assert_eq!(take.counts.get(Op::Add), 2);
        });
    }
}
