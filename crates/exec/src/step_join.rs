//! Hyper-join between an intermediate result and a stored table — the
//! §4.3 multi-way optimization.
//!
//! For `(lineitem ⋈ orders) ⋈ customer`, if customer's partitioning tree
//! is keyed on `custkey`, AdaptDB "only needs to shuffle tempLO based on
//! custkey, and can then use hyper-join instead of an expensive shuffle
//! join, in which both tempLO and customer need to be shuffled". This
//! module implements exactly that: the intermediate pays one shuffle
//! (spill + re-read), the stored side is read once per group through its
//! hyper-join schedule, and nothing else moves. Stored build blocks are
//! read late-materialising, like every filtered block read: the
//! predicate columns select, and the selected rows' key cells go into
//! the hash table. The intermediate stays ids ([`Joined`]): only its
//! join-key column is read, its rows are routed to groups by index, and
//! each output row is the intermediate row's ids plus the stored row's,
//! built into a row when the query returns.

use adaptdb_common::{AttrId, BlockId, PredicateSet, Result, ValueRange};

use crate::context::ExecContext;
use crate::hash_table::Build;
use crate::joined::{Joined, RowId};
use crate::scan::read_select;

/// One group of the stored side's schedule: its blocks plus the union of
/// their join-attribute ranges (used to route intermediate rows).
#[derive(Debug, Clone)]
pub struct StepGroup {
    /// Stored blocks whose hash tables are built together.
    pub blocks: Vec<BlockId>,
    /// Union range of the group's blocks on the join attribute.
    pub range: ValueRange,
}

/// Join `intermediate` (the probe side) against the stored `table` via
/// a hyper-join schedule. Output rows are `intermediate ++ table`
/// columns. The intermediate is charged one shuffle (spill writes +
/// re-reads at `rows_per_block` granularity), mirroring "only needs to
/// shuffle tempLO".
#[allow(clippy::too_many_arguments)]
pub fn hyper_step_join(
    ctx: ExecContext<'_>,
    table: &str,
    groups: Vec<StepGroup>,
    table_attr: AttrId,
    preds: &PredicateSet,
    intermediate: Joined,
    intermediate_attr: AttrId,
    rows_per_block: usize,
) -> Result<Joined> {
    // The intermediate is hash-distributed to the nodes holding each
    // group: spill + re-read once.
    let spill = intermediate.len().div_ceil(rows_per_block.max(1));
    ctx.clock.record_writes(spill);
    for _ in 0..spill {
        ctx.clock.record_read(adaptdb_dfs::ReadKind::Local);
    }
    // Route intermediate rows, by index, to every group whose range
    // holds their key (several when ranges overlap); build rows live in
    // exactly one group, so no duplicate outputs arise.
    let keys = intermediate.column(intermediate_attr)?;
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
    for (i, key) in keys.iter().enumerate() {
        for (g, group) in groups.iter().enumerate() {
            if group.range.contains(key) {
                routed[g].push(i as u32);
            }
        }
    }
    let (mut stored, mut pairs) = (Vec::new(), Vec::new());
    for (group, probes) in groups.iter().zip(routed) {
        if group.blocks.is_empty() || probes.is_empty() {
            // No probe rows route here: the task is skipped entirely (a
            // real scheduler would not even launch it), so no reads are
            // charged.
            continue;
        }
        let node = ctx.store.preferred_node(table, group.blocks[0])?;
        let mut build = Build::blocks();
        for &b in &group.blocks {
            let (lazy, sel) = read_select(ctx, table, b, node, preds)?;
            build.add_block(lazy, table_attr, &sel)?;
        }
        let base = stored.len() as u32;
        for i in probes {
            for id in build.probe(keys[i as usize].key()) {
                pairs.push((i, RowId { src: base + id.src, row: id.row }));
            }
        }
        stored.extend(build.into_sources());
    }
    Ok(intermediate.step(stored, &pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate, Row, Value};
    use adaptdb_dfs::SimClock;
    use adaptdb_storage::BlockStore;

    /// 4 stored blocks of 10 keys each, grouped in pairs.
    fn setup() -> (BlockStore, Vec<StepGroup>) {
        let store = BlockStore::new(4, 1, 1);
        let mut ids = Vec::new();
        for b in 0..4i64 {
            let rows = (b * 10..b * 10 + 10).map(|k| row![k, k * 100]).collect();
            ids.push(store.write_block("c", rows, 2, None));
        }
        let groups = vec![
            StepGroup {
                blocks: vec![ids[0], ids[1]],
                range: ValueRange::new(Value::Int(0), Value::Int(19)),
            },
            StepGroup {
                blocks: vec![ids[2], ids[3]],
                range: ValueRange::new(Value::Int(20), Value::Int(39)),
            },
        ];
        (store, groups)
    }

    #[test]
    fn joins_intermediate_against_stored_groups() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        // Intermediate rows: [payload, key] with key = attr 1.
        let intermediate: Vec<Row> = (0..40i64).map(|k| row![k * 7, k]).collect();
        let out =
            hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate.into(), 1, 10)
                .and_then(Joined::into_rows)
                .unwrap();
        assert_eq!(out.len(), 40);
        for r in &out {
            assert_eq!(r.arity(), 4);
            assert_eq!(r.get(1), r.get(2), "keys must match");
            assert_eq!(
                r.get(3).as_int().unwrap(),
                r.get(1).as_int().unwrap() * 100,
                "stored payload joined"
            );
        }
    }

    #[test]
    fn io_reads_each_block_once_plus_intermediate_spill() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let intermediate: Vec<Row> = (0..40i64).map(|k| row![k, k]).collect();
        hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate.into(), 1, 10)
            .and_then(Joined::into_rows)
            .unwrap();
        let io = clock.snapshot();
        // 4 spill re-reads + 4 block reads; 4 spill writes.
        assert_eq!(io.writes, 4);
        assert_eq!(io.reads(), 8);
    }

    #[test]
    fn groups_without_probes_are_skipped() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        // Keys only in the first group's range.
        let intermediate: Vec<Row> = (0..10i64).map(|k| row![k, k]).collect();
        let out =
            hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate.into(), 1, 10)
                .and_then(Joined::into_rows)
                .unwrap();
        assert_eq!(out.len(), 10);
        // Only the first group's 2 blocks read (+1 spill re-read).
        assert_eq!(clock.snapshot().reads(), 2 + 1);
    }

    #[test]
    fn predicates_filter_the_stored_side() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 5i64));
        let intermediate: Vec<Row> = (0..40i64).map(|k| row![k, k]).collect();
        let out = hyper_step_join(ctx, "c", groups, 0, &preds, intermediate.into(), 1, 10)
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn empty_intermediate_is_free_of_block_reads() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let out =
            hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), Joined::default(), 1, 10)
                .and_then(Joined::into_rows)
                .unwrap();
        assert!(out.is_empty());
        assert_eq!(clock.snapshot().reads(), 0);
    }
}
