//! The multi-node shuffle service.
//!
//! The paper's `C_SJ = 3` shuffle-join baseline (§4.2, Eq. 1) is read +
//! shuffle-write + read-back. Earlier revisions materialized the
//! shuffle in-process and charged every read-back as a *local* read,
//! which made the baseline both too cheap and entirely single-node.
//! This service runs the real data flow over [`adaptdb_dfs::SimDfs`]:
//!
//! 1. **Map.** Input blocks are placed on nodes by the locality-aware
//!    [`TaskScheduler`] (one map task per node). Each map task reads
//!    its blocks in order (charged local/remote like every other
//!    read), then maps them in order without building a row:
//!    the predicate columns select, each selected row's join-key cell
//!    is hashed where it is encoded
//!    ([`adaptdb_storage::codec::RawColumn::stable_hash`], equal to
//!    [`adaptdb_common::Value::stable_hash`]), and the other columns
//!    stay framed but encoded. The task then **spills** one run per
//!    reducer as genuine DFS blocks through the gather writer the
//!    repartitioner also uses, which copies cells payload to payload —
//!    primary replica on the mapper's node, replication from
//!    [`crate::context::ShuffleOptions`] (1 by default, the
//!    Spark/MapReduce shuffle-file convention). Writes happen in the
//!    order a row-at-a-time writer would issue them (a partition's
//!    block the moment its buffer fills, in row arrival order;
//!    leftovers at task end in partition order), so run ids, bytes and
//!    replica draws match that writer's.
//!    Runs are written in the store's one block format, `ADB2`. Row
//!    inputs ([`ShuffleService::spill_rows_observed`]) go through the
//!    row writer instead.
//! 2. **Reduce.** Reducers are placed round-robin over the live nodes
//!    by the scheduler. Each reducer *fetches* its runs through the
//!    same [`ReadKind`] cost model as everything else: local when a
//!    run's replica lives on the reducer's node, remote otherwise.
//!
//! Spill and fetch are additionally tallied on the clock's
//! [`adaptdb_common::ShuffleStats`] breakdown (runs, blocks, bytes,
//! local vs remote fetches) so experiments can report shuffle locality
//! without disturbing the block-I/O currency.
//!
//! Runs live in a per-shuffle scratch namespace (`__shuffle/…`) that is
//! dropped wholesale when the join finishes, so concurrent queries on a
//! shared store never collide.
//!
//! **Streaming.** Reducers fetch their runs through [`FetchStream`]s
//! at every window: map-side runs become visible to reducers as each
//! map task finishes ([`ShuffleService::spill_blocks_observed`] and
//! [`ShuffleService::spill_rows_observed`] announce every task's new
//! runs, [`ShuffleService::push_new_runs`] queues them), and each
//! reducer drains its stream with
//! [`ShuffleService::drain_partition`]. `fetch_window` sets the
//! stream's depth: at 1 a stream reads nothing ahead, so each run is
//! fetched when its reducer drains, one at a time; at `w > 1` up to
//! `w` fetches are in flight, remote transfers overlapping local reads,
//! charged max-of-window on the clock's
//! [`adaptdb_common::OverlapStats`] breakdown. Block counts and row
//! results are the same at every window; only simulated fetch latency
//! shrinks.
//!
//! **Late materialisation.** A drained run stays encoded: the reducer
//! ([`mod@crate::shuffle_join`]) gathers only its build side into rows and
//! streams the probe side's runs through the shared probe kernel, which
//! decodes a run's key column and gathers just the rows that match.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use adaptdb_common::{AttrId, BlockId, GlobalBlockId, PredicateSet, Result, Row};
use adaptdb_dfs::{NodeId, ReadKind, TaskScheduler};
use adaptdb_storage::codec::RawColumn;
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::{FetchStream, LazyBlock, PartitionedWriter};

use crate::context::ExecContext;
use crate::gather::GatherWriter;
use crate::scan::select_block;

/// Tag bit marking a fetch-stream request as a *right*-side run (the
/// low bits carry the run's [`BlockId`]); see
/// [`ShuffleService::push_new_runs`].
pub(crate) const RIGHT_SIDE_TAG: u64 = 1 << 63;

/// Distinguishes scratch namespaces across concurrent shuffles on one
/// shared store (the server runs many queries at once).
static SHUFFLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-reducer run lists produced by one map phase (one side of a
/// join): `runs[p]` holds the scratch-table blocks reducer `p` fetches.
#[derive(Debug, Clone, Default)]
pub struct ShuffledSide {
    /// Run blocks per reducer partition.
    pub runs: Vec<Vec<BlockId>>,
    /// Map-side key histogram: rows routed to each partition. Collected
    /// for free while mappers partition (no extra I/O) and fed to
    /// [`ShuffleService::split_plan`] so the reduce phase can detect
    /// heavy partitions before fetching them.
    pub rows: Vec<usize>,
}

impl ShuffledSide {
    fn empty(partitions: usize) -> Self {
        ShuffledSide { runs: vec![Vec::new(); partitions], rows: vec![0; partitions] }
    }
}

/// One shuffle: a scratch namespace, a reducer placement, and the
/// spill/fetch machinery. Both sides of a join go through the *same*
/// service so their runs for partition `p` meet on the same reducer.
pub struct ShuffleService<'a> {
    ctx: ExecContext<'a>,
    partitions: usize,
    rows_per_block: usize,
    reducers: Vec<NodeId>,
    scratch: String,
}

impl<'a> ShuffleService<'a> {
    /// Open a shuffle with `partitions` reducers placed on live nodes.
    /// `label` names the scratch namespace (diagnostics only).
    pub fn new(
        ctx: ExecContext<'a>,
        partitions: usize,
        rows_per_block: usize,
        label: &str,
    ) -> Result<Self> {
        let partitions = partitions.max(1);
        let reducers = {
            let dfs = ctx.store.dfs();
            TaskScheduler::new(&dfs).place_reducers(partitions)?
        };
        let seq = SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed);
        Ok(ShuffleService {
            ctx,
            partitions,
            rows_per_block: rows_per_block.max(1),
            reducers,
            scratch: format!("__shuffle/{label}/{seq}"),
        })
    }

    /// Reducer fan-out.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Which node each reducer runs on.
    pub fn reducer_nodes(&self) -> &[NodeId] {
        &self.reducers
    }

    /// The scratch table runs are spilled into (tests inspect
    /// placement through it).
    pub fn scratch_table(&self) -> &str {
        &self.scratch
    }

    /// Map phase over stored blocks: schedule one map task per node,
    /// read + filter + partition, and spill per-reducer runs to the
    /// DFS on the mapper's node. Charges input reads, spill writes
    /// (`ceil(rows/rows_per_block)` per non-empty run — empty runs
    /// write nothing), and row counts.
    pub fn spill_blocks(
        &self,
        table: &str,
        blocks: &[BlockId],
        attr: AttrId,
        preds: &PredicateSet,
    ) -> Result<ShuffledSide> {
        self.spill_blocks_observed(table, blocks, attr, preds, &mut |_| {})
    }

    /// [`ShuffleService::spill_blocks`] with streamed run visibility.
    /// `on_task` is invoked after **each
    /// map task** finishes, with the side accumulated so far — runs
    /// spilled by completed tasks are already real DFS blocks at that
    /// point, so a reducer stream can begin prefetching them while
    /// later map tasks still execute. Runs lists only ever grow, so
    /// observers track a per-partition high-water mark to find the new
    /// entries.
    pub fn spill_blocks_observed(
        &self,
        table: &str,
        blocks: &[BlockId],
        attr: AttrId,
        preds: &PredicateSet,
        on_task: &mut dyn FnMut(&ShuffledSide),
    ) -> Result<ShuffledSide> {
        // One map task per node, processing its blocks in input order.
        let per_node = {
            let dfs = self.ctx.store.dfs();
            TaskScheduler::new(&dfs).map_tasks_by_node(table, blocks)?
        };
        let mut side = ShuffledSide::empty(self.partitions);
        for (node, blks) in per_node {
            let mut reads = Vec::with_capacity(blks.len());
            for b in blks {
                reads.push(self.ctx.store.read_lazy_classified(table, b, node, self.ctx.clock)?.0);
            }
            let mapped: Vec<MappedBlock> = reads
                .into_iter()
                .map(|lazy| MappedBlock::map(self, lazy, attr, preds))
                .collect::<Result<_>>()?;
            // Writes replay the row-at-a-time task's order: stretches of
            // each block in arrival order, flushing a partition's block
            // the moment its buffer fills.
            let mut rows = vec![0usize; self.partitions];
            let mut writer: Option<GatherWriter<'_>> = None;
            let mut next = Vec::new();
            for m in &mapped {
                m.starts(self.partitions, &mut next);
                for stretch in m.parts.chunk_by(|a, b| a == b) {
                    let p = stretch[0];
                    let start = next[p as usize];
                    let end = start + stretch.len();
                    next[p as usize] = end;
                    rows[p as usize] += stretch.len();
                    let arity = m.columns.len();
                    writer
                        .get_or_insert_with(|| {
                            GatherWriter::new(
                                self.ctx.store,
                                &self.scratch,
                                arity,
                                self.rows_per_block,
                                Some(node),
                            )
                            .with_replication(Some(self.ctx.shuffle.replication))
                        })
                        .push(p, &m.columns, &m.order, start..end);
                }
            }
            let runs = writer.map(GatherWriter::finish);
            self.account_task(&mut side, rows, runs)?;
            on_task(&side);
        }
        Ok(side)
    }

    /// Map phase over an already-materialized row set (intermediate
    /// results in multi-way plans, §4.3). The rows are treated as
    /// distributed across the live nodes — contiguous slices per node,
    /// as the previous phase's reducers would have left them — then
    /// spilled exactly like [`ShuffleService::spill_blocks`], with
    /// `on_task` fired after each node's map task spills (see
    /// [`ShuffleService::spill_blocks_observed`]).
    pub fn spill_rows_observed(
        &self,
        rows: Vec<Row>,
        attr: AttrId,
        on_task: &mut dyn FnMut(&ShuffledSide),
    ) -> Result<ShuffledSide> {
        let homes = {
            let dfs = self.ctx.store.dfs();
            dfs.alive_nodes()
        };
        let mut side = ShuffledSide::empty(self.partitions);
        if rows.is_empty() {
            return Ok(side);
        }
        let chunk = rows.len().div_ceil(homes.len());
        let mut iter = rows.into_iter();
        for node in homes {
            let mut mapper = MapTask::new(self, node);
            let mut took = false;
            for row in iter.by_ref().take(chunk) {
                took = true;
                mapper.push(row.get(attr).stable_hash(), row);
            }
            mapper.spill(&mut side)?;
            on_task(&side);
            if !took {
                break;
            }
        }
        Ok(side)
    }

    /// The node partition `partition`'s reduce task actually runs on:
    /// its placed reducer while that node is alive, otherwise a
    /// deterministic fail-over onto a live node. Reducer placement is a
    /// one-shot snapshot taken at [`ShuffleService::new`]; a node that
    /// dies *after* placement but *before* the fetch leg must not sink
    /// the join (the map side already fails over this way) — the
    /// rerouted reducer's fetches classify against its fail-over node,
    /// so reads that lose their co-located replica charge Remote.
    pub fn reducer_node(&self, partition: usize) -> NodeId {
        let placed = self.reducers[partition];
        let dfs = self.ctx.store.dfs();
        if !dfs.is_dead(placed) {
            return placed;
        }
        let alive = dfs.alive_nodes();
        if alive.is_empty() {
            return placed; // Every read will fail loudly downstream.
        }
        alive[partition % alive.len()]
    }

    /// The node sub-task `j` of a split partition runs on: distinct
    /// live nodes cycling from the partition's own reducer, so a split
    /// spreads one hot partition's work across the cluster instead of
    /// queueing it on a single node.
    fn split_node(&self, partition: usize, j: usize) -> NodeId {
        let alive = {
            let dfs = self.ctx.store.dfs();
            dfs.alive_nodes()
        };
        if alive.is_empty() {
            return self.reducer_node(partition);
        }
        let base = self.reducer_node(partition);
        let start = alive.iter().position(|n| *n == base).unwrap_or(partition % alive.len());
        alive[(start + j) % alive.len()]
    }

    /// Reduce-side fetch of partition `partition`'s runs from both
    /// sides through one stream (left runs, then right): every run is
    /// read from the reducer's node, classified local/remote by the
    /// DFS, and tagged on the shuffle breakdown. Returns the `(left,
    /// right)` runs still encoded, for callers that reduce partitions
    /// one at a time.
    pub(crate) fn fetch_partition(
        &self,
        partition: usize,
        left: &ShuffledSide,
        right: &ShuffledSide,
    ) -> Result<(Vec<LazyBlock>, Vec<LazyBlock>)> {
        let mut stream = self.partition_stream();
        self.push_runs(&mut stream, partition, &left.runs[partition], false);
        self.push_runs(&mut stream, partition, &right.runs[partition], true);
        self.drain_partition(&mut stream)
    }

    /// One [`FetchStream`] per reducer, each reading from its reducer's
    /// node with the context's `fetch_window` in-flight depth. Fill
    /// them with [`ShuffleService::push_new_runs`] as map tasks announce
    /// runs, then drain with [`ShuffleService::drain_partition`].
    pub fn partition_streams(&self) -> Vec<FetchStream<'a>> {
        (0..self.partitions).map(|_| self.partition_stream()).collect()
    }

    fn partition_stream(&self) -> FetchStream<'a> {
        self.ctx.store.fetch_stream(&self.scratch, self.ctx.clock, self.ctx.fetch_window)
    }

    /// Push every run `side` has announced beyond `seen`'s per-partition
    /// high-water mark into that partition's stream (at `fetch_window >
    /// 1` reads issue eagerly as windows fill — the reducer-side
    /// prefetch). `right` tags the requests so
    /// [`ShuffleService::drain_partition`] can split the two sides of a
    /// join back apart.
    pub fn push_new_runs(
        &self,
        streams: &mut [FetchStream<'a>],
        side: &ShuffledSide,
        seen: &mut [usize],
        right: bool,
    ) {
        for (p, runs) in side.runs.iter().enumerate() {
            self.push_runs(&mut streams[p], p, &runs[seen[p]..], right);
            seen[p] = runs.len();
        }
    }

    /// Queue `runs` on partition `partition`'s stream, read from its
    /// reducer's node and tagged with their side.
    fn push_runs(
        &self,
        stream: &mut FetchStream<'a>,
        partition: usize,
        runs: &[BlockId],
        right: bool,
    ) {
        let node = self.reducer_node(partition);
        for &id in runs {
            let tag = if right { RIGHT_SIDE_TAG | id as u64 } else { id as u64 };
            stream.push(id, Some(node), tag);
        }
    }

    /// Drain one reducer's stream to completion, tagging every fetch on
    /// the shuffle breakdown, and return the `(left, right)` runs split
    /// by the side tag, still encoded: nothing is decoded here. Runs
    /// arrive in completion order — push order at window 1, locals
    /// before remotes within each in-flight window above it — which is
    /// exactly the "join what has arrived while the rest transfers"
    /// order a real pipelined reducer sees.
    pub fn drain_partition(
        &self,
        stream: &mut FetchStream<'a>,
    ) -> Result<(Vec<LazyBlock>, Vec<LazyBlock>)> {
        let mut left = Vec::new();
        let mut right = Vec::new();
        while let Some(completion) = stream.next_completion() {
            let c = completion?;
            self.ctx.clock.record_shuffle_fetch(c.kind);
            if c.tag & RIGHT_SIDE_TAG != 0 {
                right.push(c.payload);
            } else {
                left.push(c.payload);
            }
        }
        Ok((left, right))
    }

    /// How the DFS would classify fetching `run` from reducer
    /// `partition` — verification hook for tests, charges nothing.
    pub fn classify_fetch(&self, partition: usize, run: BlockId) -> Result<ReadKind> {
        let gid = GlobalBlockId::new(&self.scratch, run);
        self.ctx.store.dfs().read_from(&gid, self.reducer_node(partition))
    }

    /// Per-partition split factors for the reduce phase, from both
    /// sides' map-side row histograms: `1` = run on the placed reducer,
    /// `k > 1` = fan the partition over `k` sub-tasks (see
    /// [`adaptdb_common::cost::plan_partition_splits`]). Splitting is
    /// off (`None` threshold) unless the context enables it; the
    /// absolute floor of two blocks' worth of rows keeps tiny shuffles
    /// from ever splitting.
    pub fn split_plan(&self, left: &ShuffledSide, right: &ShuffledSide) -> Vec<usize> {
        let Some(threshold) = self.ctx.shuffle.split_threshold else {
            return vec![1; self.partitions];
        };
        let max_factor = self.ctx.store.dfs().live_nodes();
        adaptdb_common::cost::plan_partition_splits(
            &left.rows,
            &right.rows,
            threshold,
            max_factor,
            2 * self.rows_per_block,
        )
    }

    /// Charge the broadcast leg of a `k`-way split: sub-tasks `1..k`
    /// each re-read the small side's `runs` from their own node. The
    /// reads are real I/O (charged local/remote by placement like any
    /// read) but land on the shuffle breakdown's `broadcast_fetches`
    /// counter — never on the per-run fetch counters, which stay
    /// exactly one fetch per spilled block.
    pub(crate) fn charge_broadcasts(
        &self,
        partition: usize,
        k: usize,
        runs: &[BlockId],
    ) -> Result<()> {
        for j in 1..k {
            let node = self.split_node(partition, j);
            for &id in runs {
                let (_, kind) = self.ctx.store.read_block_classified(
                    &self.scratch,
                    id,
                    node,
                    self.ctx.clock,
                )?;
                self.ctx.clock.record_broadcast_fetch(kind);
            }
        }
        Ok(())
    }

    /// Grace-style overflow spill for a budgeted build: write `rows` as
    /// scratch blocks on the partition's reduce node (unreplicated,
    /// like shuffle runs), charge them as build spill, then read them
    /// straight back (charged as ordinary reads — local here, since
    /// the reducer re-reads its own spill). Returns the re-read rows.
    pub(crate) fn spill_and_reload_build(
        &self,
        partition: usize,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>> {
        if rows.is_empty() {
            return Ok(rows);
        }
        let node = self.reducer_node(partition);
        let arity = rows[0].arity();
        let mut blocks = Vec::new();
        for chunk in rows.chunks(self.rows_per_block) {
            blocks.push(self.ctx.store.write_block_with(
                &self.scratch,
                chunk.to_vec(),
                arity,
                Some(node),
                Some(1),
            ));
        }
        self.ctx.clock.record_build_spill(blocks.len());
        let mut back = Vec::with_capacity(rows.len());
        for id in blocks {
            let (block, _) =
                self.ctx.store.read_block_classified(&self.scratch, id, node, self.ctx.clock)?;
            back.extend(block.rows);
        }
        Ok(back)
    }

    /// Close one map task: add its row histogram to `side`, then charge
    /// each partition's runs as spilled (in partition order) and append
    /// them to the side's run lists. `runs` is `None` when the task
    /// routed no row: no phantom runs.
    fn account_task(
        &self,
        side: &mut ShuffledSide,
        rows: Vec<usize>,
        runs: Option<BTreeMap<BucketId, Vec<BlockId>>>,
    ) -> Result<()> {
        for (p, n) in rows.iter().enumerate() {
            side.rows[p] += n;
        }
        for (p, blks) in runs.into_iter().flatten() {
            let mut bytes = 0usize;
            for &b in &blks {
                bytes += self.ctx.store.with_block_meta(&self.scratch, b, |m| m.byte_size)?;
            }
            self.ctx.clock.record_shuffle_spill(blks.len(), bytes);
            side.runs[p as usize].extend(blks);
        }
        Ok(())
    }

    /// The execution context this shuffle runs under.
    pub(crate) fn ctx(&self) -> ExecContext<'a> {
        self.ctx
    }

    /// Rows per spilled block (the block-size unit budgets are in).
    pub(crate) fn rows_per_block(&self) -> usize {
        self.rows_per_block
    }

    /// Drop the scratch namespace (every spilled run). Deletes are
    /// metadata operations, charged nothing — consistent with block
    /// retirement elsewhere.
    pub fn cleanup(&self) {
        self.ctx.store.drop_table(&self.scratch);
    }
}

/// One node's map task: routes rows into per-reducer buffers through
/// the storage writer path and accounts the spill when the task ends.
struct MapTask<'s, 'a> {
    svc: &'s ShuffleService<'a>,
    writer: Option<PartitionedWriter<'a>>,
    node: NodeId,
    /// Rows routed to each partition — the map-side key histogram the
    /// split planner reads. Counting here costs no extra I/O.
    rows: Vec<usize>,
}

impl<'s, 'a> MapTask<'s, 'a> {
    fn new(svc: &'s ShuffleService<'a>, node: NodeId) -> Self {
        MapTask { svc, writer: None, node, rows: vec![0; svc.partitions] }
    }

    fn push(&mut self, hash: u64, row: Row) {
        let svc = self.svc;
        let node = self.node;
        let arity = row.arity();
        let writer = self.writer.get_or_insert_with(|| {
            PartitionedWriter::new(
                svc.ctx.store,
                svc.scratch.as_str(),
                arity,
                svc.rows_per_block,
                Some(node),
            )
            .with_replication(Some(svc.ctx.shuffle.replication))
        });
        let p = (hash % svc.partitions as u64) as BucketId;
        self.rows[p as usize] += 1;
        writer.push(p, row);
    }

    /// Flush the task's runs and account them (see
    /// [`ShuffleService::account_task`]).
    fn spill(self, side: &mut ShuffledSide) -> Result<()> {
        self.svc.account_task(side, self.rows, self.writer.map(PartitionedWriter::finish))
    }
}

/// One stored block on the map side, mapped: the partition of each
/// selected row, and the rows grouped by partition, over the block's
/// still-encoded columns.
struct MappedBlock {
    columns: Vec<RawColumn>,
    /// Each selected row's partition, in arrival order. A run of equal
    /// partitions is a stretch the writer pushes at once.
    parts: Vec<BucketId>,
    /// Selected row indices grouped by partition: ascending partitions,
    /// block order within each. One partition's stretches follow each
    /// other here, so the gather writer joins them into one chunk.
    order: Vec<u32>,
}

impl MappedBlock {
    /// Select `lazy`, hash each selected row's join-key cell where it is
    /// encoded, and frame the block's columns for the gather writer.
    fn map(
        svc: &ShuffleService<'_>,
        lazy: LazyBlock,
        attr: AttrId,
        preds: &PredicateSet,
    ) -> Result<MappedBlock> {
        let sel = select_block(svc.ctx, &lazy, preds)?;
        let columns = lazy.raw_columns()?;
        let mut parts = Vec::with_capacity(sel.count_ones());
        parts.extend(
            sel.iter_ones().map(|i| {
                (columns[attr as usize].stable_hash(i) % svc.partitions as u64) as BucketId
            }),
        );
        let mut m = MappedBlock { columns, order: vec![0; parts.len()], parts };
        let mut next = Vec::new();
        m.starts(svc.partitions, &mut next);
        for (i, &p) in sel.iter_ones().zip(&m.parts) {
            m.order[next[p as usize]] = i as u32;
            next[p as usize] += 1;
        }
        Ok(m)
    }

    /// Where each of the `partitions` partitions' rows start in
    /// `order`, into `next`: after every smaller partition's.
    fn starts(&self, partitions: usize, next: &mut Vec<usize>) {
        next.clear();
        next.resize(partitions, 0);
        for &p in &self.parts {
            next[p as usize] += 1;
        }
        let mut at = 0;
        for n in next.iter_mut() {
            (at, *n) = (at + *n, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate};
    use adaptdb_dfs::SimClock;
    use adaptdb_storage::BlockStore;

    /// Fetch one side of partition `p` through the reducer's stream,
    /// decoded.
    fn fetch(svc: &ShuffleService<'_>, p: usize, side: &ShuffledSide) -> Vec<Row> {
        let (runs, _) =
            svc.fetch_partition(p, side, &ShuffledSide::empty(svc.partitions())).unwrap();
        runs.into_iter().flat_map(|run| run.into_block().unwrap().rows).collect()
    }

    /// `n` blocks of `per_block` rows, written round-robin across nodes.
    fn setup(nodes: usize, n: i64, per_block: i64) -> (BlockStore, Vec<BlockId>) {
        let store = BlockStore::new(nodes, 1, 1);
        let mut ids = Vec::new();
        let mut k = 0i64;
        while k < n {
            let hi = (k + per_block).min(n);
            ids.push(store.write_block("t", (k..hi).map(|i| row![i, i * 2]).collect(), 2, None));
            k = hi;
        }
        (store, ids)
    }

    #[test]
    fn runs_land_on_mapper_nodes_and_fetches_classify() {
        let (store, ids) = setup(4, 400, 100);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 4, 100, "t").unwrap();
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        // Every spilled run's primary replica is its mapper's node, so a
        // fetch is local exactly when reducer == mapper.
        let dfs = store.dfs();
        let mut local = 0usize;
        let mut remote = 0usize;
        for (p, runs) in side.runs.iter().enumerate() {
            for &r in runs {
                let gid = GlobalBlockId::new(svc.scratch_table(), r);
                let placement = dfs.locate(&gid).unwrap().clone();
                assert_eq!(placement.replicas.len(), 1, "spill must be unreplicated");
                let expect = if placement.replicas[0] == svc.reducer_nodes()[p] {
                    local += 1;
                    ReadKind::Local
                } else {
                    remote += 1;
                    ReadKind::Remote
                };
                assert_eq!(svc.classify_fetch(p, r).unwrap(), expect);
            }
        }
        drop(dfs);
        assert!(local > 0, "some reducer shares a node with a mapper");
        assert!(remote > 0, "cross-node runs must fetch remotely");
        // Now actually fetch and compare the clock's classification.
        let mut total = 0usize;
        for p in 0..svc.partitions() {
            total += fetch(&svc, p, &side).len();
        }
        assert_eq!(total, 400, "shuffle conserves rows");
        let sh = clock.shuffle_snapshot();
        assert_eq!(sh.local_fetches, local);
        assert_eq!(sh.remote_fetches, remote);
        assert_eq!(sh.blocks_spilled, sh.fetches(), "each spilled block fetched once");
        assert!(sh.bytes_spilled > 0);
        svc.cleanup();
        assert_eq!(store.block_count(svc.scratch_table()), 0);
    }

    #[test]
    fn empty_runs_spill_zero_io() {
        let (store, ids) = setup(4, 100, 10);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 4, 10, "t").unwrap();
        // Predicate matches nothing: map tasks read inputs but must not
        // write a single phantom run block.
        let none = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, -1i64));
        let side = svc.spill_blocks("t", &ids, 0, &none).unwrap();
        assert!(side.runs.iter().all(Vec::is_empty));
        let io = clock.snapshot();
        assert_eq!(io.reads(), 10, "inputs are still scanned");
        assert_eq!(io.writes, 0, "no phantom block for empty runs");
        let sh = clock.shuffle_snapshot();
        assert_eq!(sh.runs_written, 0);
        assert_eq!(sh.blocks_spilled, 0);
        // Fetch of an empty side charges nothing either.
        for p in 0..svc.partitions() {
            assert!(fetch(&svc, p, &side).is_empty());
        }
        assert_eq!(clock.shuffle_snapshot().fetches(), 0);
        svc.cleanup();
    }

    #[test]
    fn tiny_partitions_charge_ceil_per_run() {
        // 3 rows into 8 partitions on one node: at most 3 non-empty
        // runs, one partial block each — never 8 "rounded up" blocks.
        let store = BlockStore::new(1, 1, 1);
        let ids = vec![store.write_block("t", vec![row![1i64], row![2i64], row![3i64]], 1, None)];
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 8, 10, "t").unwrap();
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        let nonempty = side.runs.iter().filter(|r| !r.is_empty()).count();
        assert!(nonempty <= 3);
        let sh = clock.shuffle_snapshot();
        assert_eq!(sh.runs_written, nonempty);
        assert_eq!(sh.blocks_spilled, nonempty, "ceil(rows/B) = 1 per tiny run");
        svc.cleanup();
    }

    #[test]
    fn spill_rows_distributes_intermediates() {
        let store = BlockStore::new(4, 1, 1);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 4, 10, "mid").unwrap();
        let rows: Vec<Row> = (0..100i64).map(|i| row![i]).collect();
        let side = svc.spill_rows_observed(rows, 0, &mut |_| {}).unwrap();
        let mut got = 0usize;
        for p in 0..svc.partitions() {
            got += fetch(&svc, p, &side).len();
        }
        assert_eq!(got, 100);
        let sh = clock.shuffle_snapshot();
        // 4 mapper nodes × up to 4 partitions each.
        assert!(sh.runs_written > 4, "intermediates spread over nodes: {}", sh.runs_written);
        assert!(sh.remote_fetches > 0, "cross-node intermediates fetch remotely");
        // Empty input is free.
        let empty = svc.spill_rows_observed(Vec::new(), 0, &mut |_| {}).unwrap();
        assert!(empty.runs.iter().all(Vec::is_empty));
        svc.cleanup();
    }

    #[test]
    fn single_node_cluster_is_fully_local() {
        let (store, ids) = setup(1, 50, 10);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 4, 10, "t").unwrap();
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        for p in 0..svc.partitions() {
            fetch(&svc, p, &side);
        }
        let sh = clock.shuffle_snapshot();
        assert_eq!(sh.remote_fetches, 0);
        assert_eq!(sh.locality_fraction(), 1.0);
        svc.cleanup();
    }

    #[test]
    fn replicated_spill_raises_fetch_locality() {
        let (store, ids) = setup(4, 400, 100);
        let c1 = SimClock::new();
        let base = ExecContext::new(&store, &c1);
        let svc = ShuffleService::new(base, 4, 100, "t").unwrap();
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        for p in 0..4 {
            fetch(&svc, p, &side);
        }
        let lone = c1.shuffle_snapshot().locality_fraction();
        svc.cleanup();

        let c2 = SimClock::new();
        let full = ExecContext::new(&store, &c2).with_shuffle(crate::context::ShuffleOptions {
            partitions: None,
            replication: 4,
            split_threshold: None,
        });
        let svc = ShuffleService::new(full, 4, 100, "t").unwrap();
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        for p in 0..4 {
            fetch(&svc, p, &side);
        }
        let everywhere = c2.shuffle_snapshot().locality_fraction();
        svc.cleanup();
        assert!(lone < 1.0);
        assert_eq!(everywhere, 1.0, "fully replicated runs fetch locally everywhere");
        assert!(everywhere > lone);
    }

    #[test]
    fn map_tasks_fail_over_around_dead_nodes() {
        let store = BlockStore::new(4, 2, 1);
        let mut ids = Vec::new();
        for k in 0..8i64 {
            ids.push(store.write_block(
                "t",
                (k * 10..(k + 1) * 10).map(|i| row![i]).collect(),
                1,
                None,
            ));
        }
        store.dfs_mut().fail_node(0);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let svc = ShuffleService::new(ctx, 3, 10, "t").unwrap();
        assert!(svc.reducer_nodes().iter().all(|n| *n != 0), "reducer on dead node");
        let side = svc.spill_blocks("t", &ids, 0, &PredicateSet::none()).unwrap();
        let mut rows = 0usize;
        for p in 0..svc.partitions() {
            rows += fetch(&svc, p, &side).len();
        }
        assert_eq!(rows, 80);
        // Runs were written on live nodes only.
        let dfs = store.dfs();
        for runs in &side.runs {
            for &r in runs {
                let gid = GlobalBlockId::new(svc.scratch_table(), r);
                assert!(dfs.locate(&gid).unwrap().replicas.iter().all(|n| *n != 0));
            }
        }
        drop(dfs);
        svc.cleanup();
    }

    /// The stored-block map side before the column rewrite, kept as the
    /// reference: per map task, read, select and gather each block's
    /// rows, hash each row's key value, and push the row through
    /// [`PartitionedWriter`] (via [`MapTask`]).
    fn reference_spill(
        svc: &ShuffleService<'_>,
        table: &str,
        blocks: &[BlockId],
        attr: AttrId,
        preds: &PredicateSet,
        on_task: &mut dyn FnMut(&ShuffledSide),
    ) -> Result<ShuffledSide> {
        let per_node = {
            let dfs = svc.ctx.store.dfs();
            TaskScheduler::new(&dfs).map_tasks_by_node(table, blocks)?
        };
        let mut side = ShuffledSide::empty(svc.partitions);
        for (node, blks) in per_node {
            let mut mapper = MapTask::new(svc, node);
            for b in blks {
                let (lazy, sel) = crate::scan::read_select(svc.ctx, table, b, node, preds)?;
                for row in lazy.gather_range(0, lazy.row_count(), &sel)? {
                    mapper.push(row.get(attr).stable_hash(), row);
                }
            }
            mapper.spill(&mut side)?;
            on_task(&side);
        }
        Ok(side)
    }

    /// A random cell of type `t` (0..5: Int, Double, Str, Date, Bool).
    fn random_cell(rng: &mut impl RngExt, t: u32) -> Value {
        match t {
            0 => Value::Int(rng.random_range(-6..7i64)),
            1 => Value::Double([-0.0, 0.0, f64::NAN, 1.5, -2.5][rng.random_range(0..5usize)]),
            2 => Value::Str(
                ["", "a", "b", "h\u{e9}", "\u{1f600}", "zz"][rng.random_range(0..6usize)].into(),
            ),
            3 => Value::Date(rng.random_range(-3..4i32)),
            _ => Value::Bool(rng.random_range(0..2u32) == 1),
        }
    }

    /// Every block of `table`: id, bytes, metadata and replica set.
    fn scratch_snapshot(
        store: &BlockStore,
        table: &str,
    ) -> Vec<(BlockId, Vec<u8>, String, Vec<NodeId>)> {
        let dfs = store.dfs();
        store
            .block_ids(table)
            .into_iter()
            .map(|id| {
                let bytes = store.encoded_block_unaccounted(table, id).unwrap().to_vec();
                let meta = format!("{:?}", store.block_meta(table, id).unwrap());
                let gid = GlobalBlockId::new(table, id);
                (id, bytes, meta, dfs.locate(&gid).unwrap().replicas.clone())
            })
            .collect()
    }

    /// The column map side writes exactly what the row-at-a-time
    /// reference writes — run bytes, run lists, histograms, placements,
    /// block ids (so write order), per-task announcements, I/O and
    /// shuffle tallies — at spill replication 1 and 3.
    #[test]
    fn column_map_side_matches_the_row_reference() {
        let mut rng = adaptdb_common::rng::seeded(23);
        let mut replicated_cases = 0;
        for case in 0..240u64 {
            let cols = rng.random_range(1..5usize);
            let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..5u32)).collect();
            let attr = rng.random_range(0..cols) as AttrId;
            let rows_per_block = rng.random_range(1..7usize);
            let partitions = rng.random_range(1..6usize);
            let replication = if case % 2 == 0 { 1 } else { 3 };
            let mut script: Vec<(Vec<Row>, Option<NodeId>)> = Vec::new();
            for _ in 0..rng.random_range(1..8usize) {
                let n = rng.random_range(0..14usize);
                let rows: Vec<Row> = (0..n)
                    .map(|_| Row::new(types.iter().map(|&t| random_cell(&mut rng, t)).collect()))
                    .collect();
                let node = (rng.random_range(0..3u32) > 0).then(|| rng.random_range(0..4u16));
                script.push((rows, node));
            }
            let mut preds = PredicateSet::none();
            for _ in 0..rng.random_range(0..3usize) {
                let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt]
                    [rng.random_range(0..5usize)];
                let a = rng.random_range(0..cols) as AttrId;
                let t = types[a as usize];
                preds = preds.and(Predicate::new(a, op, random_cell(&mut rng, t)));
            }
            replicated_cases += usize::from(replication > 1);
            let run = |column: bool| {
                let store = BlockStore::new(4, 1 + (case % 3) as usize, case);
                let blocks: Vec<BlockId> = script
                    .iter()
                    .map(|(rows, node)| store.write_block("t", rows.clone(), cols, *node))
                    .collect();
                let clock = SimClock::new();
                let ctx =
                    ExecContext::new(&store, &clock).with_shuffle(crate::context::ShuffleOptions {
                        partitions: None,
                        replication,
                        split_threshold: None,
                    });
                let svc = ShuffleService::new(ctx, partitions, rows_per_block, "t").unwrap();
                let mut tasks = Vec::new();
                let mut on_task = |s: &ShuffledSide| tasks.push((s.runs.clone(), s.rows.clone()));
                let side = if column {
                    svc.spill_blocks_observed("t", &blocks, attr, &preds, &mut on_task)
                } else {
                    reference_spill(&svc, "t", &blocks, attr, &preds, &mut on_task)
                }
                .unwrap();
                let written = scratch_snapshot(&store, svc.scratch_table());
                (side.runs, side.rows, tasks, written, clock.snapshot(), clock.shuffle_snapshot())
            };
            let want = run(false);
            let got = run(true);
            assert_eq!(got.0, want.0, "case {case}: runs");
            assert_eq!(got.1, want.1, "case {case}: histogram");
            assert_eq!(got.2, want.2, "case {case}: per-task announcements");
            assert_eq!(got.3.len(), want.3.len(), "case {case}: run block count");
            for (g, w) in got.3.iter().zip(&want.3) {
                assert_eq!(g, w, "case {case}: run block {}", w.0);
            }
            assert_eq!(got.4, want.4, "case {case}: io");
            assert_eq!(got.5, want.5, "case {case}: shuffle tallies");
        }
        assert!(replicated_cases > 20);
    }

    use adaptdb_common::Value;
    use rand::RngExt;
}
