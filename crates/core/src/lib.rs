//! # scperf-core — system-level performance analysis for SystemC-like models
//!
//! Reproduction of the estimation library of *Posadas, Herrera, Sánchez,
//! Villar, Blasco: "System-Level Performance Analysis in SystemC" (DATE
//! 2004)*, on top of the [`scperf_kernel`] discrete-event kernel.
//!
//! The library provides dynamic timing estimation of a system-level model
//! **while it simulates**, with no change to the model's structure:
//!
//! 1. **Process segmentation** (§2): processes interact only through
//!    channels and timed waits; the code between two such *nodes* is a
//!    *segment*, executed atomically. The channel wrappers ([`PFifo`],
//!    [`PSignal`], [`PRendezvous`]) and [`timed_wait`] mark the nodes
//!    automatically.
//! 2. **Operator-overloading estimation** (§3): writing the algorithm
//!    against the annotated [`G`] types ([`g_i32`], [`g_f64`], …),
//!    [`GArr`] arrays and the [`g_if!`]/[`g_while!`]/[`g_for!`]/[`g_call!`]
//!    macros makes every elementary operation charge its per-resource
//!    [`CostTable`] cost as it executes. On parallel (HW) resources the
//!    library tracks both extremes — critical path `T_min` and single-ALU
//!    `T_max` — and annotates `T_min + (T_max − T_min)·k`.
//! 3. **Strict-timed back-annotation** (§4): in [`Mode::StrictTimed`] each
//!    process sleeps for its segment's estimated time; processes mapped to
//!    the same sequential resource serialize through the arbitration
//!    protocol, and RTOS overhead is charged at every node.
//! 4. **Reporting** (§4): automatic totals per process and per resource
//!    ([`PerfModel::report`]), optional instantaneous per-segment samples,
//!    process graphs ([`ProcessGraph`]), and user-inserted
//!    [`CapturePoint`]s with CSV/Matlab export.
//! 5. **Verification** (§6): [`determinism::check`] diffs untimed vs
//!    strict-timed behaviour to flag non-deterministic specifications.
//!
//! # Example
//!
//! ```
//! use scperf_core::{g_i64, CostTable, Mode, PerfModel, Platform};
//! use scperf_kernel::{Simulator, Time};
//!
//! // Platform: one 100 MHz CPU with a vendor cost table.
//! let mut platform = Platform::new();
//! let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 120.0);
//!
//! let mut sim = Simulator::new();
//! let model = PerfModel::new(platform, Mode::StrictTimed);
//! let out = model.fifo::<i64>(&mut sim, "out", 8);
//!
//! let tx = out.clone();
//! model.spawn(&mut sim, "dot", cpu, move |mut ctx| async move {
//!     let a = [1_i64, 2, 3, 4];
//!     let b = [4_i64, 3, 2, 1];
//!     let mut acc = g_i64(0);
//!     for i in 0..4 {
//!         let x = scperf_core::G::raw(a[i]);
//!         let y = scperf_core::G::raw(b[i]);
//!         acc = acc + x * y;
//!     }
//!     tx.write(&mut ctx, acc.get()).await;
//! });
//! sim.spawn("sink", move |mut ctx| async move {
//!     assert_eq!(out.read(&mut ctx).await, 20);
//! });
//! sim.run()?;
//!
//! let report = model.report();
//! let dot = report.process("dot").unwrap();
//! assert!(dot.total_cycles > 0.0);
//! assert!(!dot.total_time.is_zero());
//! # Ok::<(), scperf_kernel::SimError>(())
//! ```

#![deny(missing_docs)]

mod capture;
mod cost;
pub mod determinism;
mod estimator;
mod garray;
mod gval;
pub mod hw;
mod macros;
mod model;
mod pool;
mod prog;
pub mod rate;
mod recorder;
mod report;
mod resource;
mod session;
mod site;
mod tls;

pub use capture::{CaptureEvent, CaptureList, CapturePoint};
pub use cost::{CostTable, Op, OpCounts, ALL_OPS, OP_COUNT};
pub use estimator::{EstHotStats, InstSample, Mode, SegStats, NODE_ENTRY, NODE_EXIT, NODE_WAIT};
pub use garray::GArr;
pub use gval::{
    g_f32, g_f64, g_i16, g_i32, g_i64, g_u16, g_u32, g_u64, g_u8, g_usize, IndexValue, G,
};
pub use hw::{weighted_hw_cycles, Dfg, DfgNode, NO_NODE};
pub use model::{timed_wait, timed_wait_labeled, PFifo, PRendezvous, PSignal, PerfModel};
pub use pool::{
    InstanceLimits, LimitExceeded, PoolExhausted, PoolStats, PooledSession, SessionPool, Snapshot,
};
pub use prog::{table_fingerprint, CostProgram, Instr, ProgDecodeError, ProgramSet};
pub use recorder::{Recorder, Replay};
pub use report::{
    ChannelUtilization, ProcessContention, ProcessGraph, ProcessReport, Report, ResourceReport,
    ResourceUtilization, SegmentReport, UtilizationReport,
};
pub use resource::{Platform, Resource, ResourceId, ResourceKind};
pub use session::{Session, SimConfig};
pub use site::{site_enter, site_enter_loop, site_try_native, MemoMode, SegmentSite, SiteGuard};
pub use tls::{charge_branch, charge_call, charge_op};
