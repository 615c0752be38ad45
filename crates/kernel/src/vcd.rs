//! VCD (Value Change Dump) export of simulation traces — the analogue of
//! SystemC's `sc_trace`/`sc_create_vcd_trace_file`.
//!
//! The kernel's [`TraceRecord`]s already carry every signal update with
//! its timestamp; [`trace_to_vcd`] renders the signal-valued subset as a
//! standard VCD document viewable in GTKWave & co. Values are parsed from
//! the record details (`name=value`); integer values become vectored
//! variables, anything else a real.
//!
//! # Examples
//!
//! ```
//! use scperf_kernel::{vcd, Simulator, Time};
//!
//! let mut sim = Simulator::new();
//! sim.enable_tracing();
//! let s = sim.signal("req", 0_i32);
//! let sw = s.clone();
//! sim.spawn("driver", move |mut ctx| async move {
//!     for i in 1..=3 {
//!         ctx.wait(Time::ns(10)).await;
//!         sw.write(&mut ctx, i);
//!     }
//! });
//! sim.run()?;
//! let doc = vcd::trace_to_vcd(&sim.take_trace(), "1ns");
//! assert!(doc.contains("$var"));
//! assert!(doc.contains("#10"));
//! # Ok::<(), scperf_kernel::SimError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::time::Time;
use crate::trace::TraceRecord;

/// Errors from VCD export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcdError {
    /// The timescale string did not parse as `<multiplier><unit>`.
    Malformed {
        /// The offending input.
        input: String,
    },
    /// The multiplier parsed but is not one of 1, 10 or 100 (the only
    /// values IEEE 1364 allows in a `$timescale` declaration).
    BadMultiplier {
        /// The offending input.
        input: String,
        /// The parsed multiplier.
        multiplier: u64,
    },
    /// The unit is not one of `ps`, `ns`, `us`, `ms` (or `s`).
    BadUnit {
        /// The offending input.
        input: String,
        /// The parsed unit suffix.
        unit: String,
    },
}

impl fmt::Display for VcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcdError::Malformed { input } => write!(
                f,
                "unsupported timescale '{input}': expected <multiplier><unit>, e.g. '1ns' or '10ps'"
            ),
            VcdError::BadMultiplier { input, multiplier } => write!(
                f,
                "unsupported timescale '{input}': multiplier {multiplier} is not 1, 10 or 100"
            ),
            VcdError::BadUnit { input, unit } => write!(
                f,
                "unsupported timescale '{input}': unknown unit '{unit}' (use ps/ns/us/ms/s)"
            ),
        }
    }
}

impl std::error::Error for VcdError {}

/// Parses a VCD `$timescale` declaration body (e.g. `"1ns"`, `"10ps"`,
/// `"100 us"`) into the number of picoseconds per VCD time unit.
///
/// IEEE 1364 allows multipliers 1, 10 and 100 with units down to `fs`;
/// this kernel's [`Time`] has picosecond resolution, so the supported
/// units are `ps`, `ns`, `us`, `ms` and `s`.
///
/// # Errors
///
/// Returns a [`VcdError`] describing which part of the declaration was
/// rejected.
pub fn parse_timescale(timescale: &str) -> Result<u64, VcdError> {
    let body = timescale.trim();
    let split = body
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| VcdError::Malformed {
            input: timescale.to_owned(),
        })?;
    let (digits, unit) = body.split_at(split);
    let multiplier: u64 = digits.parse().map_err(|_| VcdError::Malformed {
        input: timescale.to_owned(),
    })?;
    if !matches!(multiplier, 1 | 10 | 100) {
        return Err(VcdError::BadMultiplier {
            input: timescale.to_owned(),
            multiplier,
        });
    }
    let ps_per_unit: u64 = match unit.trim() {
        "ps" => 1,
        "ns" => 1_000,
        "us" => 1_000_000,
        "ms" => 1_000_000_000,
        "s" => 1_000_000_000_000,
        other => {
            return Err(VcdError::BadUnit {
                input: timescale.to_owned(),
                unit: other.to_owned(),
            })
        }
    };
    Ok(multiplier * ps_per_unit)
}

/// A parsed signal value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// Integer (rendered as a 32-bit vector).
    Int(i64),
    /// Anything else (rendered as a real via its hash — placeholder for
    /// non-numeric payloads).
    Other(String),
}

fn parse_detail(detail: &str) -> Option<(&str, Value)> {
    let (name, value) = detail.split_once('=')?;
    if let Ok(i) = value.parse::<i64>() {
        Some((name, Value::Int(i)))
    } else if let Ok(b) = value.parse::<bool>() {
        Some((name, Value::Int(b as i64)))
    } else {
        Some((name, Value::Other(value.to_owned())))
    }
}

/// VCD identifier codes: `!`, `"`, `#`, … (printable ASCII 33..=126).
fn id_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((33 + (index % 94)) as u8 as char);
        index /= 94;
        if index == 0 {
            break;
        }
    }
    code
}

/// Converts the signal-update records of a trace into a VCD document.
///
/// `timescale` is the VCD timescale declaration (e.g. `"1ns"`, `"10ps"`);
/// record timestamps are converted to that unit. Records whose `label` is
/// not `"signal.update"` are ignored.
///
/// # Panics
///
/// Panics on an invalid timescale declaration; use
/// [`trace_to_vcd_checked`] to handle the error instead.
pub fn trace_to_vcd(trace: &[TraceRecord], timescale: &str) -> String {
    match trace_to_vcd_checked(trace, timescale) {
        Ok(doc) => doc,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`trace_to_vcd`], but returns a [`VcdError`] instead of
/// panicking when the timescale declaration is invalid.
pub fn trace_to_vcd_checked(trace: &[TraceRecord], timescale: &str) -> Result<String, VcdError> {
    let ps_per_unit = parse_timescale(timescale)?;
    // Collect signals in order of first appearance.
    let mut ids: BTreeMap<String, String> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for r in trace {
        if r.label != "signal.update" {
            continue;
        }
        if let Some((name, _)) = parse_detail(&r.detail) {
            if !ids.contains_key(name) {
                ids.insert(name.to_owned(), id_code(order.len()));
                order.push(name.to_owned());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "$date scperf $end");
    let _ = writeln!(out, "$version scperf-kernel VCD export $end");
    let _ = writeln!(out, "$timescale {timescale} $end");
    let _ = writeln!(out, "$scope module top $end");
    for name in &order {
        let _ = writeln!(out, "$var wire 32 {} {} $end", ids[name], name);
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    let _ = writeln!(out, "$dumpvars");
    for name in &order {
        let _ = writeln!(out, "b0 {}", ids[name]);
    }
    let _ = writeln!(out, "$end");
    let mut last_time: Option<Time> = None;
    for r in trace {
        if r.label != "signal.update" {
            continue;
        }
        let Some((name, value)) = parse_detail(&r.detail) else {
            continue;
        };
        if last_time != Some(r.time) {
            let _ = writeln!(out, "#{}", r.time.as_ps() / ps_per_unit);
            last_time = Some(r.time);
        }
        let id = &ids[name];
        match value {
            Value::Int(i) => {
                let _ = writeln!(out, "b{:b} {}", i as u32, id);
            }
            Value::Other(s) => {
                // Encode non-numeric payloads by length (placeholder).
                let _ = writeln!(out, "b{:b} {}", s.len() as u32, id);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn rec(time_ns: u64, detail: &str) -> TraceRecord {
        TraceRecord {
            time: Time::ns(time_ns),
            delta: 0,
            process: String::new(),
            label: "signal.update".into(),
            detail: detail.into(),
        }
    }

    #[test]
    fn header_declares_all_signals() {
        let t = vec![rec(0, "a=1"), rec(5, "b=2"), rec(9, "a=3")];
        let doc = trace_to_vcd(&t, "1ns");
        assert!(doc.contains("$timescale 1ns $end"));
        assert!(doc.contains("$var wire 32 ! a $end"));
        assert!(doc.contains("$var wire 32 \" b $end"));
        assert!(doc.contains("$enddefinitions $end"));
    }

    #[test]
    fn timestamps_convert_to_the_timescale() {
        let t = vec![rec(10, "a=1"), rec(25, "a=2")];
        let doc = trace_to_vcd(&t, "1ns");
        assert!(doc.contains("\n#10\n"));
        assert!(doc.contains("\n#25\n"));
        let doc_ps = trace_to_vcd(&t, "1ps");
        assert!(doc_ps.contains("\n#10000\n"));
    }

    #[test]
    fn values_are_binary_vectors() {
        let t = vec![rec(1, "a=5"), rec(2, "a=-1")];
        let doc = trace_to_vcd(&t, "1ns");
        assert!(doc.contains("b101 !"));
        assert!(doc.contains(&format!("b{:b} !", u32::MAX)));
    }

    #[test]
    fn same_instant_updates_share_one_timestamp() {
        let t = vec![rec(7, "a=1"), rec(7, "b=2")];
        let doc = trace_to_vcd(&t, "1ns");
        assert_eq!(doc.matches("#7").count(), 1);
    }

    #[test]
    fn non_signal_records_are_ignored() {
        let t = vec![TraceRecord {
            time: Time::ns(1),
            delta: 0,
            process: "p".into(),
            label: "fifo.write".into(),
            detail: "f=1".into(),
        }];
        let doc = trace_to_vcd(&t, "1ns");
        assert!(!doc.contains("#1\n"));
        assert!(!doc.contains("$var wire 32 ! f"));
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = id_code(i);
            assert!(c.bytes().all(|b| (33..=126).contains(&b)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn end_to_end_simulation_export() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        let s = sim.signal("clk_ish", 0_u32);
        let sw = s.clone();
        sim.spawn("drv", move |mut ctx| async move {
            for i in 1..=4_u32 {
                ctx.wait(Time::ns(5)).await;
                sw.write(&mut ctx, i);
            }
        });
        sim.run().unwrap();
        let doc = trace_to_vcd(&sim.take_trace(), "1ns");
        assert!(doc.contains("clk_ish"));
        assert!(doc.contains("#20"));
        assert!(doc.contains("b100 !"));
    }

    #[test]
    #[should_panic(expected = "unsupported timescale")]
    fn bad_timescale_is_rejected() {
        let _ = trace_to_vcd(&[], "3fs");
    }

    #[test]
    fn timescale_parser_accepts_multiplier_unit_pairs() {
        assert_eq!(parse_timescale("1ps"), Ok(1));
        assert_eq!(parse_timescale("10ps"), Ok(10));
        assert_eq!(parse_timescale("100ns"), Ok(100_000));
        assert_eq!(parse_timescale("1us"), Ok(1_000_000));
        assert_eq!(parse_timescale("10ms"), Ok(10_000_000_000));
        assert_eq!(parse_timescale("1s"), Ok(1_000_000_000_000));
        // Whitespace between multiplier and unit, as VCD files often have.
        assert_eq!(parse_timescale(" 10 ns "), Ok(10_000));
    }

    #[test]
    fn timescale_parser_rejects_bad_input_with_typed_errors() {
        match parse_timescale("3fs") {
            Err(VcdError::BadMultiplier { multiplier: 3, .. }) => {}
            other => panic!("expected BadMultiplier, got {other:?}"),
        }
        match parse_timescale("1fs") {
            Err(VcdError::BadUnit { ref unit, .. }) if unit == "fs" => {}
            other => panic!("expected BadUnit, got {other:?}"),
        }
        match parse_timescale("ns") {
            Err(VcdError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(matches!(
            parse_timescale("1000ns"),
            Err(VcdError::BadMultiplier {
                multiplier: 1000,
                ..
            })
        ));
        assert!(matches!(
            parse_timescale(""),
            Err(VcdError::Malformed { .. })
        ));
        assert!(matches!(
            parse_timescale("10"),
            Err(VcdError::Malformed { .. })
        ));
    }

    #[test]
    fn checked_export_reports_errors_instead_of_panicking() {
        let err = trace_to_vcd_checked(&[], "2ns").unwrap_err();
        assert!(err.to_string().contains("unsupported timescale"));
        assert!(trace_to_vcd_checked(&[], "10ns").is_ok());
    }

    #[test]
    fn multiplier_scales_timestamps() {
        let t = vec![rec(100, "a=1")];
        let doc = trace_to_vcd(&t, "10ns");
        // 100ns = 10 units of 10ns.
        assert!(doc.contains("\n#10\n"));
    }

    #[test]
    fn headers_stay_unique_past_94_signals() {
        // More signals than single-character id codes: every $var line
        // must still get a distinct identifier.
        let trace: Vec<TraceRecord> = (0..200).map(|i| rec(i, &format!("sig{i}=1"))).collect();
        let doc = trace_to_vcd(&trace, "1ns");
        let mut ids = std::collections::HashSet::new();
        let mut vars = 0;
        for line in doc.lines() {
            if let Some(rest) = line.strip_prefix("$var wire 32 ") {
                let id = rest.split_whitespace().next().unwrap();
                assert!(ids.insert(id.to_owned()), "duplicate id code {id}");
                vars += 1;
            }
        }
        assert_eq!(vars, 200);
        assert!(ids.iter().any(|id| id.len() > 1), "multi-char codes in use");
    }
}
