//! Type-2 block processing: scan + repartition (§6 "Optimizer").
//!
//! The optimizer hands the executor a set of blocks to migrate into a new
//! (or restructured) partitioning tree. The repartitioning iterator reads
//! each block, looks every record up in the target tree to find its new
//! bucket, and appends it through a buffered writer.
//!
//! **Columnar, end to end.** No row is built. Each source block
//! decodes just the columns the target tree splits on and routes them
//! whole: every split partitions the row indices reaching it by one
//! typed `≤ cut` comparison per row ([`PartitionTree::route_columns`]).
//! Source and absorbed-tail blocks keep their other columns encoded
//! ([`adaptdb_storage::codec::RawColumn`]), and the gather writer the
//! shuffle map side shares (`exec::gather`) copies each output block's
//! cells straight from those payloads into the `ADB2` encoder, which
//! builds the block's zone maps in the same pass
//! ([`BlockStore::write_gathered`]).
//!
//! **Append semantics.** On HDFS the repartitioners append to the target
//! bucket's existing file ("several repartitioners across the cluster may
//! write to the same file", §6), so migrating a handful of blocks into a
//! many-bucket tree does not fragment storage into tiny blocks. Our
//! blocks are immutable, so append is modelled as merge-on-write: if the
//! target bucket's tail block is under the block budget, it is read
//! (accounted), retired, and its rows are combined with the incoming ones
//! before writing packed blocks.
//!
//! **Failure atomicity.** Every fallible step — scheduling, reading and
//! decoding the sources and the absorbed tails — finishes before the
//! first block is removed or written, so a migration that fails (say,
//! every replica of a tail is on a failed node) leaves the table as it
//! was.

use std::collections::{BTreeMap, BTreeSet};

use adaptdb_common::{AttrId, BlockId, ColumnVec, Result};
use adaptdb_dfs::{NodeId, SimClock, TaskScheduler};
use adaptdb_storage::codec::RawColumn;
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::{BlockMeta, BlockStore, LazyBlock};
use adaptdb_tree::PartitionTree;

use crate::gather::{with_ranges, GatherWriter};

/// When the source (and absorbed tail) blocks are physically deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireMode {
    /// Delete migrated blocks immediately — the serial engine's
    /// behavior, where no concurrent reader can hold a stale manifest.
    Eager,
    /// Leave migrated blocks in the store and report them in
    /// [`RepartitionOutcome::retired`]; a concurrent runtime deletes
    /// them once every reader holding the pre-migration snapshot has
    /// drained (snapshot-isolation garbage collection).
    Deferred,
}

/// What a repartitioning pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepartitionOutcome {
    /// Newly written blocks per target bucket.
    pub added: BTreeMap<BucketId, Vec<BlockId>>,
    /// Pre-existing tail blocks that were absorbed (merged away) — the
    /// caller must drop them from its bucket maps.
    pub absorbed: Vec<BlockId>,
    /// Blocks whose rows were rewritten but that are still physically
    /// present ([`RetireMode::Deferred`] only) — the caller must
    /// [`BlockStore::remove_block`] them after its readers quiesce.
    pub retired: Vec<BlockId>,
}

/// Migrate `blocks` of `table` into `target_tree`, removing the source
/// blocks afterwards. `existing` is the target tree's current bucket →
/// blocks map, used for append/merge semantics (pass an empty map when
/// the target is fresh).
///
/// Writes go through the store's internal synchronization, so this can
/// run on a background maintenance thread while readers keep scanning —
/// pair it with [`RetireMode::Deferred`] (see
/// [`repartition_blocks_with`]) so readers holding the old manifest
/// never see their blocks vanish. This eager-retire form is the serial
/// engine's behavior, where repartitioning piggybacks on a query like
/// the paper's ZooKeeper-guarded appends.
pub fn repartition_blocks(
    store: &BlockStore,
    clock: &SimClock,
    table: &str,
    blocks: &[BlockId],
    target_tree: &PartitionTree,
    rows_per_block: usize,
    existing: &BTreeMap<BucketId, Vec<BlockId>>,
) -> Result<RepartitionOutcome> {
    repartition_blocks_with(
        store,
        clock,
        table,
        blocks,
        target_tree,
        rows_per_block,
        existing,
        RetireMode::Eager,
    )
}

/// [`repartition_blocks`] with an explicit [`RetireMode`].
#[allow(clippy::too_many_arguments)]
pub fn repartition_blocks_with(
    store: &BlockStore,
    clock: &SimClock,
    table: &str,
    blocks: &[BlockId],
    target_tree: &PartitionTree,
    rows_per_block: usize,
    existing: &BTreeMap<BucketId, Vec<BlockId>>,
    retire: RetireMode,
) -> Result<RepartitionOutcome> {
    if blocks.is_empty() {
        return Ok(RepartitionOutcome::default());
    }
    // Schedule one repartitioner (map task) per node over the source
    // blocks — the locality-aware scheduler never lands a task on a
    // failed node (a block that lost every replica surfaces the DFS
    // error here, at scheduling time).
    let per_node = {
        let dfs = store.dfs();
        TaskScheduler::new(&dfs).map_tasks_by_node(table, blocks)?
    };
    // Read every source block (accounted, in task order), remembering
    // which node's repartitioner read it — output blocks are written
    // from that node, like HDFS appenders writing locally.
    let mut reads: Vec<(NodeId, LazyBlock)> = Vec::with_capacity(blocks.len());
    for (&node, blks) in &per_node {
        for &b in blks {
            let (lazy, _) = store.read_lazy_classified(table, b, node, clock)?;
            clock.record_rows(lazy.row_count(), 0);
            reads.push((node, lazy));
        }
    }
    // Frame and route each source block.
    let split_attrs: Vec<AttrId> = target_tree.attr_histogram().into_keys().collect();
    let routed: Vec<(NodeId, Vec<RawColumn>, Routes)> = reads
        .into_iter()
        .map(|(node, lazy)| {
            let routes = Routes::of(&lazy, target_tree, &split_attrs)?;
            Ok((node, lazy.raw_columns()?, routes))
        })
        .collect::<Result<_>>()?;
    // Append semantics: each touched bucket's underfull tail block is
    // read now and absorbed, its rows going first into the bucket.
    let touched: BTreeSet<BucketId> = routed.iter().flat_map(|(_, _, r)| r.buckets()).collect();
    let mut tails: BTreeMap<BucketId, (BlockId, Vec<RawColumn>, Vec<u32>)> = BTreeMap::new();
    for bucket in touched {
        let Some(tail) = existing.get(&bucket).and_then(|v| v.last()).copied() else {
            continue;
        };
        let underfull = |m: &BlockMeta| (m.row_count < rows_per_block).then(|| m.ranges.clone());
        let Some(ranges) = store.with_block_meta(table, tail, underfull)? else {
            continue;
        };
        let node = store.preferred_node(table, tail)?;
        let (lazy, _) = store.read_lazy_classified(table, tail, node, clock)?;
        clock.record_rows(lazy.row_count(), 0);
        let all = (0..lazy.row_count() as u32).collect();
        tails.insert(bucket, (tail, with_ranges(lazy.raw_columns()?, ranges), all));
    }
    // Every read succeeded: only now retire the sources and the tails.
    let absorbed: Vec<BlockId> = tails.values().map(|(id, _, _)| *id).collect();
    let mut retired = Vec::new();
    for &b in blocks.iter().chain(&absorbed) {
        match retire {
            RetireMode::Eager => store.remove_block(table, b)?,
            RetireMode::Deferred => retired.push(b),
        }
    }
    // Replay the buffered partition writer's flushes: buffers persist
    // across repartitioners, each node pushes its buckets in ascending
    // order, a bucket's buffer is written as soon as it holds
    // `rows_per_block` rows (from the node pushing at that moment), and
    // the leftovers are written last, in bucket order, from the last
    // node — so block ids, boundaries and placements match one global
    // writer.
    let mut writer = GatherWriter::new(store, table, target_tree.arity(), rows_per_block, None);
    let mut unmerged: BTreeSet<BucketId> = tails.keys().copied().collect();
    for mine in routed.chunk_by(|a, b| a.0 == b.0) {
        writer.node = Some(mine[0].0);
        let buckets: BTreeSet<BucketId> = mine.iter().flat_map(|(_, _, r)| r.buckets()).collect();
        for bucket in buckets {
            if unmerged.remove(&bucket) {
                let (_, source, all) = &tails[&bucket];
                writer.push(bucket, source, all, 0..all.len());
            }
            for (_, source, routes) in mine {
                if let Some(picked) = routes.get(bucket) {
                    writer.push(bucket, source, picked, 0..picked.len());
                }
            }
        }
    }
    let added = writer.finish();
    let written: usize = added.values().map(Vec::len).sum();
    clock.record_writes(written);
    Ok(RepartitionOutcome { added, absorbed, retired })
}

/// A source block's rows grouped by target bucket: `order` lists row
/// indices bucket by bucket (ascending buckets, rows in block order),
/// and `runs` says where each touched bucket's stretch lies.
struct Routes {
    order: Vec<u32>,
    runs: Vec<(BucketId, usize, usize)>,
}

impl Routes {
    /// Route `lazy`: the columns the tree splits on are decoded and
    /// each row is looked up in the tree on them.
    fn of(lazy: &LazyBlock, tree: &PartitionTree, split_attrs: &[AttrId]) -> Result<Routes> {
        let rows = lazy.row_count();
        let mut cols: Vec<Option<ColumnVec>> = Vec::new();
        if rows > 0 {
            let width = split_attrs.iter().map(|&a| a as usize + 1).max().unwrap_or(0);
            cols.resize(width, None);
            for &a in split_attrs {
                cols[a as usize] = Some(lazy.column(a as usize)?);
            }
        }
        let bucket = tree.route_columns(&cols, rows);
        let mut order: Vec<u32> = (0..rows as u32).collect();
        // Rows in block order within each bucket, without a merge
        // sort's scratch buffer.
        order.sort_unstable_by_key(|&i| (bucket[i as usize], i));
        let mut runs: Vec<(BucketId, usize, usize)> = Vec::new();
        for (at, &i) in order.iter().enumerate() {
            match runs.last_mut() {
                Some((b, _, end)) if *b == bucket[i as usize] => *end = at + 1,
                _ => runs.push((bucket[i as usize], at, at + 1)),
            }
        }
        Ok(Routes { order, runs })
    }

    /// The touched buckets, ascending.
    fn buckets(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.runs.iter().map(|r| r.0)
    }

    /// The rows routed to `bucket`, in block order.
    fn get(&self, bucket: BucketId) -> Option<&[u32]> {
        let k = self.runs.binary_search_by_key(&bucket, |r| r.0).ok()?;
        let (_, start, end) = self.runs[k];
        Some(&self.order[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate, PredicateSet, Row, Value};
    use adaptdb_tree::Node;
    use std::collections::BTreeSet;

    fn store_with_rows(n: i64) -> (BlockStore, Vec<BlockId>) {
        let store = BlockStore::new(4, 1, 1);
        let mut ids = Vec::new();
        for chunk in (0..n).collect::<Vec<_>>().chunks(10) {
            let rows = chunk.iter().map(|&i| row![i, i % 7]).collect();
            ids.push(store.write_block("t", rows, 2, None));
        }
        (store, ids)
    }

    fn tree_on_attr1() -> PartitionTree {
        // Split on attr 1 at 3: buckets 0 (≤3) and 1 (>3).
        let root = Node::internal(1, Value::Int(3), Node::leaf(0), Node::leaf(1));
        PartitionTree::from_root(root, 2, None, 0)
    }

    fn none_existing() -> BTreeMap<BucketId, Vec<BlockId>> {
        BTreeMap::new()
    }

    #[test]
    fn rows_are_conserved_and_rerouted() {
        let (store, ids) = store_with_rows(50);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        let out =
            repartition_blocks(&store, &clock, "t", &ids, &tree, 10, &none_existing()).unwrap();
        assert_eq!(store.row_count("t"), 50);
        for id in ids {
            assert!(store.block_meta("t", id).is_err());
        }
        let preds = PredicateSet::none().and(Predicate::new(1, CmpOp::Le, 3i64));
        for &b in &out.added[&0] {
            let block = store.read_block_unaccounted("t", b).unwrap();
            assert!(block.rows.iter().all(|r| preds.matches(r)));
        }
        for &b in &out.added[&1] {
            let block = store.read_block_unaccounted("t", b).unwrap();
            assert!(block.rows.iter().all(|r| !preds.matches(r)));
        }
        assert!(out.absorbed.is_empty());
    }

    #[test]
    fn io_accounting_reads_and_writes() {
        let (store, ids) = store_with_rows(50);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        let out =
            repartition_blocks(&store, &clock, "t", &ids, &tree, 10, &none_existing()).unwrap();
        let io = clock.snapshot();
        assert_eq!(io.reads(), 5);
        let written: usize = out.added.values().map(Vec::len).sum();
        assert_eq!(io.writes, written);
        assert!(written >= 5, "50 rows at 10/block need ≥5 blocks");
    }

    #[test]
    fn merge_absorbs_underfull_tail_blocks() {
        let (store, ids) = store_with_rows(50);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        // First migration: 2 source blocks → small per-bucket blocks.
        let first = repartition_blocks(&store, &clock, "t", &ids[..2], &tree, 10, &none_existing())
            .unwrap();
        let existing = first.added.clone();
        // Second migration must merge into the underfull tails rather
        // than piling up fragments.
        let second =
            repartition_blocks(&store, &clock, "t", &ids[2..4], &tree, 10, &existing).unwrap();
        assert!(!second.absorbed.is_empty(), "tail blocks should be absorbed");
        assert_eq!(store.row_count("t"), 50);
        // Steady state: bucket 0 holds ~4/7 of 40 migrated rows → ≤3
        // blocks of budget 10 after merging (no fragment pile-up).
        let live_blocks = store.block_count("t");
        assert!(live_blocks <= 7, "fragmentation: {live_blocks} blocks for 50 rows");
        // Absorbed blocks are really gone.
        for b in &second.absorbed {
            assert!(store.block_meta("t", *b).is_err());
        }
    }

    #[test]
    fn repeated_migration_keeps_block_count_bounded() {
        let (store, ids) = store_with_rows(200);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        let mut bucket_map = none_existing();
        // Migrate two source blocks at a time, as smooth repartitioning
        // would, maintaining the bucket map like the catalog does.
        for pair in ids.chunks(2) {
            let out =
                repartition_blocks(&store, &clock, "t", pair, &tree, 10, &bucket_map).unwrap();
            for (bucket, blocks) in out.added {
                let entry = bucket_map.entry(bucket).or_default();
                entry.retain(|b| !out.absorbed.contains(b));
                entry.extend(blocks);
            }
            for v in bucket_map.values_mut() {
                v.retain(|b| !out.absorbed.contains(b));
            }
        }
        assert_eq!(store.row_count("t"), 200);
        // 200 rows at 10/block = 20 full blocks; allow one tail per bucket.
        assert!(store.block_count("t") <= 22, "got {}", store.block_count("t"));
    }

    #[test]
    fn full_tail_blocks_are_not_touched() {
        let store = BlockStore::new(4, 1, 1);
        // A full block already under bucket 0 (attr1 ≤ 3).
        let full = store.write_block("t", (0..10).map(|i| row![i, 0i64]).collect(), 2, None);
        // A source block to migrate (all rows also bucket 0).
        let src = store.write_block("t", (0..5).map(|i| row![i, 1i64]).collect(), 2, None);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        let existing = BTreeMap::from([(0u32, vec![full])]);
        let out = repartition_blocks(&store, &clock, "t", &[src], &tree, 10, &existing).unwrap();
        assert!(out.absorbed.is_empty(), "full tail must not be rewritten");
        assert!(store.block_meta("t", full).is_ok());
    }

    #[test]
    fn deferred_retire_keeps_sources_readable() {
        let (store, ids) = store_with_rows(50);
        let clock = SimClock::maintenance();
        let tree = tree_on_attr1();
        let out = repartition_blocks_with(
            &store,
            &clock,
            "t",
            &ids,
            &tree,
            10,
            &none_existing(),
            RetireMode::Deferred,
        )
        .unwrap();
        // Sources are reported retired but still physically present, so
        // a reader holding the pre-migration manifest keeps working.
        assert_eq!(out.retired, ids);
        for &b in &ids {
            assert!(store.block_meta("t", b).is_ok());
        }
        // Rows exist twice until the caller garbage-collects.
        assert_eq!(store.row_count("t"), 100);
        for &b in &out.retired {
            store.remove_block("t", b).unwrap();
        }
        assert_eq!(store.row_count("t"), 50);
    }

    #[test]
    fn deferred_retire_defers_absorbed_tails_too() {
        let (store, ids) = store_with_rows(50);
        let clock = SimClock::maintenance();
        let tree = tree_on_attr1();
        let first = repartition_blocks(&store, &clock, "t", &ids[..2], &tree, 10, &none_existing())
            .unwrap();
        let existing = first.added.clone();
        let second = repartition_blocks_with(
            &store,
            &clock,
            "t",
            &ids[2..4],
            &tree,
            10,
            &existing,
            RetireMode::Deferred,
        )
        .unwrap();
        assert!(!second.absorbed.is_empty(), "tail blocks should be absorbed");
        // Every absorbed tail is also in the deferred-retire list and
        // still readable until collected.
        for b in &second.absorbed {
            assert!(second.retired.contains(b));
            assert!(store.block_meta("t", *b).is_ok());
        }
    }

    /// Regression: a migration whose absorbed tail is unreadable must
    /// fail before it removes anything, so the sources survive until
    /// the tail's node recovers.
    #[test]
    fn failed_tail_read_keeps_the_sources() {
        let store = BlockStore::new(4, 1, 1);
        let tail = store.write_block("t", (0..3).map(|i| row![i, 0i64]).collect(), 2, Some(1));
        let src = store.write_block("t", (0..3).map(|i| row![i, 1i64]).collect(), 2, Some(0));
        let existing = BTreeMap::from([(0u32, vec![tail])]);
        let clock = SimClock::new();
        store.dfs_mut().fail_node(1);
        let out = repartition_blocks(&store, &clock, "t", &[src], &tree_on_attr1(), 10, &existing);
        assert!(out.is_err(), "the tail's only replica is down");
        store.dfs_mut().recover_node(1);
        assert!(store.block_meta("t", src).is_ok(), "source removed by a failed migration");
        assert!(store.block_meta("t", tail).is_ok());
        assert_eq!(store.row_count("t"), 6);
    }

    #[test]
    fn empty_block_list_is_noop() {
        let (store, _) = store_with_rows(10);
        let clock = SimClock::new();
        let tree = tree_on_attr1();
        let out =
            repartition_blocks(&store, &clock, "t", &[], &tree, 10, &none_existing()).unwrap();
        assert!(out.added.is_empty());
        assert!(out.absorbed.is_empty());
        assert_eq!(clock.snapshot().reads(), 0);
        assert_eq!(store.row_count("t"), 10);
    }

    /// The repartitioner before the columnar rewrite, kept as the
    /// reference: decode every block to rows, route row by row, and
    /// push each row through [`PartitionedWriter`].
    #[allow(clippy::too_many_arguments)]
    fn reference_repartition(
        store: &BlockStore,
        clock: &SimClock,
        table: &str,
        blocks: &[BlockId],
        target_tree: &PartitionTree,
        rows_per_block: usize,
        existing: &BTreeMap<BucketId, Vec<BlockId>>,
        retire: RetireMode,
    ) -> Result<RepartitionOutcome> {
        if blocks.is_empty() {
            return Ok(RepartitionOutcome::default());
        }
        let per_node = {
            let dfs = store.dfs();
            TaskScheduler::new(&dfs).map_tasks_by_node(table, blocks)?
        };
        let mut routed: Vec<(NodeId, BTreeMap<BucketId, Vec<Row>>)> = Vec::new();
        for (&node, blks) in &per_node {
            let mut node_routed: BTreeMap<BucketId, Vec<Row>> = BTreeMap::new();
            for &b in blks {
                let block = store.read_block(table, b, node, clock)?;
                clock.record_rows(block.rows.len(), 0);
                for row in block.rows {
                    node_routed.entry(target_tree.route(&row)).or_default().push(row);
                }
            }
            routed.push((node, node_routed));
        }
        let mut retired = Vec::new();
        for &b in blocks {
            match retire {
                RetireMode::Eager => store.remove_block(table, b)?,
                RetireMode::Deferred => retired.push(b),
            }
        }
        let mut absorbed = Vec::new();
        let touched: BTreeSet<BucketId> =
            routed.iter().flat_map(|(_, m)| m.keys().copied()).collect();
        for bucket in touched {
            let Some(tail) = existing.get(&bucket).and_then(|v| v.last()).copied() else {
                continue;
            };
            if store.with_block_meta(table, tail, |m| m.row_count)? >= rows_per_block {
                continue;
            }
            let node = store.preferred_node(table, tail)?;
            let tail_block = store.read_block(table, tail, node, clock)?;
            clock.record_rows(tail_block.rows.len(), 0);
            let rows = routed
                .iter_mut()
                .find_map(|(_, m)| m.get_mut(&bucket))
                .expect("touched bucket has routed rows");
            let mut combined = tail_block.rows;
            combined.append(rows);
            *rows = combined;
            match retire {
                RetireMode::Eager => store.remove_block(table, tail)?,
                RetireMode::Deferred => retired.push(tail),
            }
            absorbed.push(tail);
        }
        let arity = target_tree.arity();
        let mut writer = PartitionedWriter::new(store, table, arity, rows_per_block, None);
        for (node, node_routed) in routed {
            writer.set_writer_node(Some(node));
            for (bucket, rows) in node_routed {
                for row in rows {
                    writer.push(bucket, row);
                }
            }
        }
        let added = writer.finish();
        let written: usize = added.values().map(Vec::len).sum();
        clock.record_writes(written);
        Ok(RepartitionOutcome { added, absorbed, retired })
    }

    /// A random cell of type `t` (0..5: Int, Double, Str, Date, Bool).
    fn random_cell(rng: &mut impl RngExt, t: u32) -> Value {
        match t {
            0 => Value::Int(rng.random_range(-4..5i64)),
            1 => Value::Double([-0.0, 0.0, f64::NAN, 1.5, -2.5][rng.random_range(0..5usize)]),
            2 => Value::Str(
                ["", "a", "b", "h\u{e9}", "\u{1f600}"][rng.random_range(0..5usize)].into(),
            ),
            3 => Value::Date(rng.random_range(-3..4i32)),
            _ => Value::Bool(rng.random_range(0..2u32) == 1),
        }
    }

    /// A random tree over `cols` columns whose cuts may be of any type
    /// (a cut of another type than its column compares by type rank).
    fn random_node(rng: &mut impl RngExt, cols: usize, depth: usize, next: &mut u32) -> Node {
        if depth == 0 || rng.random_range(0..4u32) == 0 {
            *next += 1;
            return Node::leaf(*next - 1);
        }
        let attr = rng.random_range(0..cols) as u16;
        let t = rng.random_range(0..5u32);
        let cut = random_cell(rng, t);
        let left = random_node(rng, cols, depth - 1, next);
        let right = random_node(rng, cols, depth - 1, next);
        Node::internal(attr, cut, left, right)
    }

    /// Everything a migration leaves behind that a reader could see.
    fn snapshot(store: &BlockStore) -> Vec<(BlockId, Vec<u8>, BlockMeta, Vec<NodeId>)> {
        let dfs = store.dfs();
        store
            .block_ids("t")
            .into_iter()
            .map(|id| {
                let bytes = store.encoded_block_unaccounted("t", id).unwrap().to_vec();
                let meta = store.block_meta("t", id).unwrap();
                let gid = adaptdb_common::GlobalBlockId::new("t", id);
                (id, bytes, meta, dfs.locate(&gid).unwrap().replicas.clone())
            })
            .collect()
    }

    #[test]
    fn columnar_path_matches_the_row_reference() {
        let mut rng = adaptdb_common::rng::seeded(21);
        for case in 0..300u64 {
            let cols = rng.random_range(1..5usize);
            let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..5u32)).collect();
            let rows_per_block = rng.random_range(2..7usize);
            let mut next = 0;
            let tree =
                PartitionTree::from_root(random_node(&mut rng, cols, 3, &mut next), cols, None, 0);
            let random_rows = |rng: &mut _, n: usize| -> Vec<Row> {
                (0..n)
                    .map(|_| Row::new(types.iter().map(|&t| random_cell(rng, t)).collect()))
                    .collect()
            };
            // One write script, replayed on two identical stores.
            let mut script: Vec<(Vec<Row>, Option<NodeId>)> = Vec::new();
            for _ in 0..rng.random_range(1..6usize) {
                let n = rng.random_range(0..10usize);
                script.push((
                    random_rows(&mut rng, n),
                    (rng.random_range(0..3u32) > 0).then(|| rng.random_range(0..4u16)),
                ));
            }
            let mut tails = Vec::new();
            for bucket in 0..next {
                if rng.random_range(0..3u32) > 0 {
                    // Underfull or full tails.
                    let n = rng.random_range(1..rows_per_block + 2);
                    tails.push((bucket, random_rows(&mut rng, n)));
                }
            }
            let retire = if case % 2 == 0 { RetireMode::Eager } else { RetireMode::Deferred };
            let build = || {
                let store = BlockStore::new(4, 1 + (case % 3) as usize, case);
                let blocks: Vec<BlockId> = script
                    .iter()
                    .map(|(rows, node)| store.write_block("t", rows.clone(), cols, *node))
                    .collect();
                let existing: BTreeMap<BucketId, Vec<BlockId>> = tails
                    .iter()
                    .map(|(b, rows)| (*b, vec![store.write_block("t", rows.clone(), cols, None)]))
                    .collect();
                (store, blocks, existing)
            };
            let (old_store, blocks, existing) = build();
            let old_clock = SimClock::maintenance();
            let want = reference_repartition(
                &old_store,
                &old_clock,
                "t",
                &blocks,
                &tree,
                rows_per_block,
                &existing,
                retire,
            )
            .unwrap();
            let (new_store, _, _) = build();
            let new_clock = SimClock::maintenance();
            let got = repartition_blocks_with(
                &new_store,
                &new_clock,
                "t",
                &blocks,
                &tree,
                rows_per_block,
                &existing,
                retire,
            )
            .unwrap();
            assert_eq!(got, want, "case {case}: outcome");
            assert_eq!(new_clock.snapshot(), old_clock.snapshot(), "case {case}: io");
            let (new, old) = (snapshot(&new_store), snapshot(&old_store));
            assert_eq!(new.len(), old.len(), "case {case}: block count");
            for (n, o) in new.iter().zip(&old) {
                assert_eq!(n.0, o.0, "case {case}: block ids");
                assert_eq!(n.1, o.1, "case {case}: bytes of block {}", n.0);
                assert_eq!(format!("{:?}", n.2), format!("{:?}", o.2), "case {case}: meta");
                assert_eq!(n.3, o.3, "case {case}: placement of block {}", n.0);
            }
        }
    }

    use adaptdb_storage::{BlockMeta, PartitionedWriter};
    use rand::RngExt;
}
