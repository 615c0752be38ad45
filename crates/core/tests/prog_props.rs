//! Property tests for the cost-program layer: live estimation, locally
//! compiled replay, and replay from a serialized-then-deserialized
//! [`ProgramSet`] are bit-identical over random integral cost tables,
//! nested named regions and data-dependent branches; a fingerprint
//! mismatch rejects the warm set and falls back to live recording
//! without changing a single bit of the result.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_core::{
    g_if, g_loop, g_site, table_fingerprint, timed_wait, CostTable, EstHotStats, MemoMode,
    Platform, ProgramSet, Report, SimConfig, ALL_OPS, G, OP_COUNT,
};
use scperf_kernel::Time;

/// Builds an integral cost table from one drawn cost per op.
fn table_from(costs: &[u32]) -> CostTable {
    CostTable::from_pairs(
        ALL_OPS
            .iter()
            .enumerate()
            .map(|(i, &op)| (op, costs[i] as f64)),
    )
}

/// Runs one session of the reference workload — an outer branch-keyed
/// `g_site!` per value enclosing a named `g_loop!` (nested structure:
/// the outer program records the loop as a `Call`), plus a charged
/// branch on the value's sign — and returns the report, the hot-path
/// counters and the harvested program set.
fn run_workload(
    table: CostTable,
    memo: MemoMode,
    warm: Option<Arc<ProgramSet>>,
    values: &[i32],
    trips: usize,
) -> (Report, EstHotStats, ProgramSet) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), table, 25.0);
    let mut config = SimConfig::new().platform(platform).site_memo(memo);
    if let Some(set) = warm {
        config = config.program_set(set);
    }
    let mut session = config.build();
    let values = values.to_vec();
    session.spawn("w", cpu, move |mut ctx| async move {
        let mut acc = G::raw(0_i64);
        for &v in &values {
            g_site!(((v >= 0) as u64) {
                g_loop!(i in 0..trips => {
                    acc.assign(acc + G::raw(i as i64) * G::raw(3));
                });
                let x = G::raw(v as i64);
                g_if!((x >= 0) {
                    acc.assign(acc + x * G::raw(2));
                } else {
                    acc.assign(acc - x);
                });
            });
            timed_wait(&mut ctx, Time::ns(50)).await;
        }
        std::hint::black_box(acc.get());
    });
    session.run().expect("session runs");
    (
        session.report(),
        session.model().hot_stats(),
        session.programs(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live, locally compiled, warm-replayed and warm-verified runs all
    /// produce bit-identical reports, and the program set survives a
    /// serialize/deserialize round trip byte-for-byte.
    #[test]
    fn live_compiled_and_serialized_replay_are_bit_identical(
        costs in vec(0_u32..=15, OP_COUNT..=OP_COUNT),
        values in vec(-100_i32..=100, 1..24),
        trips in 1_usize..12,
    ) {
        let table = table_from(&costs);
        let (live, live_hot, _) =
            run_workload(table.clone(), MemoMode::Off, None, &values, trips);
        prop_assert_eq!(live_hot.site_hits, 0);

        // Local record + replay: bit-identical, and the named regions
        // harvest into a serializable program set.
        let (memoized, memo_hot, set) =
            run_workload(table.clone(), MemoMode::Replay, None, &values, trips);
        prop_assert_eq!(&memoized, &live, "local replay diverged from live");
        prop_assert!(memo_hot.site_misses > 0);
        prop_assert!(!set.is_empty(), "named sites must harvest programs");
        prop_assert_eq!(set.table_fp(), table_fingerprint(&table));

        // The wire encoding is deterministic and round-trips exactly.
        let bytes = set.to_bytes();
        let decoded = ProgramSet::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(decoded.len(), set.len());
        prop_assert_eq!(decoded.to_bytes(), bytes, "encoding not canonical");

        // A fresh process warm-started from the decoded set replays
        // without ever recording, still bit-identical.
        let warm = Arc::new(decoded);
        let (replayed, warm_hot, _) = run_workload(
            table.clone(), MemoMode::Replay, Some(warm.clone()), &values, trips,
        );
        prop_assert_eq!(&replayed, &live, "warm replay diverged from live");
        prop_assert!(warm_hot.prog_warm_hits > 0, "warm set never consulted");
        prop_assert_eq!(warm_hot.site_misses, 0, "warm set should cover every site");
        prop_assert_eq!(warm_hot.prog_rejects, 0);

        // Verify mode re-executes each covered region live and asserts
        // the warm program charges the same bits (panics on mismatch).
        let (verified, _, _) =
            run_workload(table, MemoMode::Verify, Some(warm), &values, trips);
        prop_assert_eq!(&verified, &live, "warm verify diverged from live");
    }

    /// A warm set fingerprinted for a different cost table is rejected
    /// at process start: the run records live instead and the result is
    /// bit-identical to a cold run.
    #[test]
    fn fingerprint_mismatch_rejects_warm_set_and_falls_back_live(
        costs in vec(0_u32..=15, OP_COUNT..=OP_COUNT),
        delta in 1_u32..=7,
        op_idx in 0_usize..OP_COUNT,
        values in vec(-100_i32..=100, 1..16),
        trips in 1_usize..8,
    ) {
        let table = table_from(&costs);
        let mut other_costs = costs.clone();
        other_costs[op_idx] += delta; // differs in at least one op
        let other = table_from(&other_costs);
        prop_assert!(table_fingerprint(&other) != table_fingerprint(&table));

        // Harvest programs under the *other* table...
        let (_, _, stale) =
            run_workload(other, MemoMode::Replay, None, &values, trips);
        prop_assert!(!stale.is_empty());

        // ...and warm-start a run under `table` with them: the set is
        // dropped (counted), recording proceeds live, results match a
        // cold run exactly.
        let (cold, _, _) =
            run_workload(table.clone(), MemoMode::Replay, None, &values, trips);
        let (warmed, hot, _) = run_workload(
            table, MemoMode::Replay, Some(Arc::new(stale)), &values, trips,
        );
        prop_assert_eq!(&warmed, &cold, "stale warm set changed the result");
        prop_assert!(hot.prog_rejects > 0, "mismatch must be counted");
        prop_assert_eq!(hot.prog_warm_hits, 0);
        prop_assert!(hot.site_misses > 0, "must have recorded live");
    }
}
