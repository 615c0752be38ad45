//! Estimation accuracy against the references (simulated, deterministic,
//! untimed): Table 1 and Table 3 against the ISS, Table 2 and Table 4
//! against the chained-schedule synthesis reference. The same code path
//! as the `table1`–`table4` binaries, so the maxima match what they
//! print.

use scperf_bench::calibration::Calibration;
use scperf_bench::tables::{self, Table1Row};

use crate::tables::VOCODER_FRAMES;
use crate::Run;

/// Runs every reference once, puts `sw_err_max_pct` / `hw_err_max_pct`
/// on `run`, and returns the Table 1 rows. The reference runs assert
/// that the annotated, plain and ISS forms agree; a disagreement is
/// reported as a wrong output.
pub fn measure(cal: &Calibration, run: &mut Run) -> Option<Vec<Table1Row>> {
    let refs = std::panic::catch_unwind(|| {
        let t1 = tables::table1(cal, 1);
        let t3 = tables::table3(cal, VOCODER_FRAMES);
        let mut hw = tables::table2();
        hw.extend(tables::table4(VOCODER_FRAMES));
        (t1, t3, hw)
    });
    let Ok((t1, t3, hw)) = refs else {
        run.wrong
            .push("a reference run disagreed with the annotated form".into());
        return None;
    };
    let sw = t1
        .iter()
        .map(|r| (r.name, r.err_pct))
        .chain(t3.rows.iter().map(|r| (r.name, r.err_pct)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("tables have rows");
    let hw = hw
        .iter()
        .flat_map(|r| {
            [
                (format!("{} WC", r.name), r.wc_err_pct),
                (format!("{} BC", r.name), r.bc_err_pct),
            ]
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("tables have rows");
    run.put(
        "sw_err_max_pct",
        sw.1,
        "%",
        format!(
            "max over Table 1 + Table 3 ({} frames) rows vs ISS: {}",
            VOCODER_FRAMES, sw.0
        ),
    );
    run.put(
        "hw_err_max_pct",
        hw.1,
        "%",
        format!(
            "max over Table 2 + Table 4 WC/BC rows vs chained schedule: {}",
            hw.0
        ),
    );
    Some(t1)
}
