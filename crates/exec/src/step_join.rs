//! Hyper-join between an in-memory intermediate result and a stored
//! table — the §4.3 multi-way optimization.
//!
//! For `(lineitem ⋈ orders) ⋈ customer`, if customer's partitioning tree
//! is keyed on `custkey`, AdaptDB "only needs to shuffle tempLO based on
//! custkey, and can then use hyper-join instead of an expensive shuffle
//! join, in which both tempLO and customer need to be shuffled". This
//! module implements exactly that: the intermediate pays one shuffle
//! (spill + re-read), the stored side is read once per group through its
//! hyper-join schedule, and nothing else moves. Stored build blocks are
//! read late-materialising, like every filtered block read: the
//! predicate columns select, and only surviving rows are gathered. An
//! intermediate row is moved, not copied, into the last group whose
//! range holds its key and into its last output row.

use adaptdb_common::{AttrId, BlockId, PredicateSet, Result, Row, ValueRange};

use crate::context::ExecContext;
use crate::hash_table::{join_into, JoinHashTable};
use crate::scan::read_selected;

/// One group of the stored side's schedule: its blocks plus the union of
/// their join-attribute ranges (used to route intermediate rows).
#[derive(Debug, Clone)]
pub struct StepGroup {
    /// Stored blocks whose hash tables are built together.
    pub blocks: Vec<BlockId>,
    /// Union range of the group's blocks on the join attribute.
    pub range: ValueRange,
}

/// Join `intermediate` (probe side, already materialized) against the
/// stored `table` via a hyper-join schedule. Output rows are
/// `intermediate ++ table` columns. The intermediate is charged one
/// shuffle (spill writes + re-reads at `rows_per_block` granularity),
/// mirroring "only needs to shuffle tempLO".
#[allow(clippy::too_many_arguments)]
pub fn hyper_step_join(
    ctx: ExecContext<'_>,
    table: &str,
    groups: Vec<StepGroup>,
    table_attr: AttrId,
    preds: &PredicateSet,
    intermediate: Vec<Row>,
    intermediate_attr: AttrId,
    rows_per_block: usize,
) -> Result<Vec<Row>> {
    // The intermediate is hash-distributed to the nodes holding each
    // group: spill + re-read once.
    let spill = intermediate.len().div_ceil(rows_per_block.max(1));
    ctx.clock.record_writes(spill);
    for _ in 0..spill {
        ctx.clock.record_read(adaptdb_dfs::ReadKind::Local);
    }
    // Route intermediate rows to groups by range. A probe row may fall
    // into several groups when ranges overlap (it is copied into all
    // but the last of them and moved into that one); build rows live
    // in exactly one group, so no duplicate outputs arise.
    let mut routed: Vec<Vec<Row>> = vec![Vec::new(); groups.len()];
    for row in intermediate {
        let key = row.get(intermediate_attr);
        let Some(last) = groups.iter().rposition(|g| g.range.contains(key)) else { continue };
        for (g, group) in groups[..last].iter().enumerate() {
            if group.range.contains(key) {
                routed[g].push(row.clone());
            }
        }
        routed[last].push(row);
    }
    let mut out = Vec::new();
    for (group, probes) in groups.iter().zip(routed) {
        out.extend(run_group(
            ctx,
            table,
            &group.blocks,
            table_attr,
            preds,
            probes,
            intermediate_attr,
        )?);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_group(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    table_attr: AttrId,
    preds: &PredicateSet,
    probes: Vec<Row>,
    intermediate_attr: AttrId,
) -> Result<Vec<Row>> {
    if blocks.is_empty() || probes.is_empty() {
        // No probe rows route here: the task is skipped entirely (a real
        // scheduler would not even launch it), so no reads are charged.
        return Ok(Vec::new());
    }
    let node = ctx.store.preferred_node(table, blocks[0])?;
    let mut ht = JoinHashTable::new();
    for &b in blocks {
        for row in read_selected(ctx, table, b, node, preds)? {
            ht.insert(table_attr, row);
        }
    }
    let mut out = Vec::new();
    for probe in probes {
        let matches = ht.probe(probe.get(intermediate_attr));
        join_into(&mut out, probe, matches, true);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate, Value};
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
        let out = hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate, 1, 10)
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
        hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate, 1, 10).unwrap();
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
        let out = hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), intermediate, 1, 10)
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
        let out = hyper_step_join(ctx, "c", groups, 0, &preds, intermediate, 1, 10).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn empty_intermediate_is_free_of_block_reads() {
        let (store, groups) = setup();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let out =
            hyper_step_join(ctx, "c", groups, 0, &PredicateSet::none(), Vec::new(), 1, 10).unwrap();
        assert!(out.is_empty());
        assert_eq!(clock.snapshot().reads(), 0);
    }
}
