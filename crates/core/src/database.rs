//! The `Database` facade: catalog, optimizer, planner, executor glue.
//!
//! `Database` is the serial engine: one caller, adaptation piggybacked
//! on the query path exactly as the paper runs its experiments. The
//! concurrent server (`adaptdb-server`) reuses every piece of it — the
//! read path via [`SnapshotSource`], the adaptation decisions via
//! [`Database::record_observation`] / [`Database::adapt_now`] — while
//! moving the rewrite work off the hot path.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use adaptdb_common::rng;
use adaptdb_common::{AttrId, BlockId, Error, IngestStats, Query, QueryStats, Result, Row, Schema};
use adaptdb_dfs::{SimClock, TraceCtx};
use adaptdb_exec::RetireMode;
use adaptdb_storage::{BlockStore, PartitionedWriter, Reservoir};
use adaptdb_tree::{
    AdaptConfig, Adapter, PartitionTree, QueryWindow, TwoPhaseBuilder, UpfrontPartitioner,
    WindowEntry,
};
use rand::rngs::StdRng;

use crate::config::{DbConfig, Mode};
use crate::optimizer;
use crate::readpath::{self, SnapshotSource};
use crate::table::{TableSnapshot, TableState, TreeInfo};

/// Rows plus execution statistics for one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows (join output: left columns then right columns).
    pub rows: Vec<Row>,
    /// Everything measured while answering.
    pub stats: QueryStats,
    /// Span tree for the query when [`DbConfig::trace`] is on, `None`
    /// otherwise. Timestamps are simulated microseconds: adaptation
    /// work occupies `[0, repart_end]`, execution the remainder.
    pub trace: Option<Arc<adaptdb_common::Trace>>,
}

impl QueryResult {
    /// Simulated running time under the database's cost model — the
    /// y-axis of the paper's workload figures.
    pub fn simulated_secs(&self, config: &DbConfig) -> f64 {
        self.stats.simulated_secs(&config.cost)
    }
}

/// The AdaptDB storage manager.
#[derive(Debug)]
pub struct Database {
    config: DbConfig,
    store: Arc<BlockStore>,
    tables: BTreeMap<String, TableState>,
    rng: StdRng,
    /// Monotone query counter, for adaptation cooldowns.
    queries_run: usize,
    /// Per-table query index of the last selection adaptation. One
    /// adaptation per window of queries amortizes rewrite cost and
    /// prevents oscillation when predicate constants vary between
    /// instances of the same template.
    last_selection_adapt: BTreeMap<String, usize>,
    /// How repartitioning disposes of migrated source blocks. The
    /// serial engine retires eagerly; a concurrent runtime switches to
    /// deferred so readers pinned to older snapshots keep working.
    retire_mode: RetireMode,
    /// Blocks awaiting deletion under [`RetireMode::Deferred`].
    pending_retire: Vec<(String, BlockId)>,
    /// Cumulative ingest counters (appends, delta blocks, folds).
    ingest: IngestStats,
}

/// Reject rows that do not fit the table's schema, before a load or
/// append touches the table: a row of another width, or a cell whose
/// type is not its field's. Routing indexes the row by attribute, so a
/// short row would panic mid-load and a long one would be stored with
/// columns no query can name; and every stored column holds cells of
/// its field's one type.
fn check_rows(ts: &TableState, rows: &[Row]) -> Result<()> {
    let fields = ts.schema().fields();
    for r in rows {
        if r.arity() != fields.len() {
            return Err(Error::Plan(format!(
                "write to {}: row arity {} != schema arity {}",
                ts.name,
                r.arity(),
                fields.len()
            )));
        }
        if let Some((f, v)) = fields.iter().zip(r.values()).find(|(f, v)| v.value_type() != f.ty) {
            return Err(Error::Plan(format!(
                "write to {}: field {} is {:?}, got {v:?}",
                ts.name, f.name, f.ty
            )));
        }
    }
    Ok(())
}

impl SnapshotSource for Database {
    fn config(&self) -> &DbConfig {
        &self.config
    }

    fn store(&self) -> &BlockStore {
        &self.store
    }

    fn snapshot(&self, table: &str) -> Result<Arc<TableSnapshot>> {
        self.tables
            .get(table)
            .map(TableState::snapshot_arc)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))
    }
}

impl Database {
    /// Create a database over a fresh simulated cluster.
    pub fn new(config: DbConfig) -> Self {
        let store = Arc::new(BlockStore::new(config.nodes, config.replication, config.seed));
        let rng = rng::derived(config.seed, "database");
        Database {
            config,
            store,
            tables: BTreeMap::new(),
            rng,
            queries_run: 0,
            last_selection_adapt: BTreeMap::new(),
            retire_mode: RetireMode::Eager,
            pending_retire: Vec::new(),
            ingest: IngestStats::default(),
        }
    }

    /// Open a durable database at [`DbConfig::durable_path`]: recover
    /// the manifest journal's committed prefix (blocks, placements,
    /// catalog — see [`adaptdb_storage::durable`]), then attach the
    /// journal so every subsequent block write is logged ahead of the
    /// catalog commit that acknowledges it. A crash at any point leaves
    /// the directory recoverable to its last committed snapshot.
    pub fn open_durable(config: DbConfig) -> Result<Self> {
        let dir = config.durable_path.clone().ok_or_else(|| {
            Error::InvalidConfig("open_durable requires DbConfig::durable_path".into())
        })?;
        let mut db = Database::new(config);
        let (journal, recovered) =
            adaptdb_storage::durable::FileJournal::open_with_recovery(std::path::Path::new(&dir))?;
        if let Some(blob) = recovered.catalog.clone() {
            for snap in crate::catalog::decode_catalog(blob)? {
                // Restore exactly the blocks the committed catalog
                // references — never orphans from a torn run.
                let mut referenced: HashSet<BlockId> = snap.delta.iter().copied().collect();
                for (_, buckets) in &snap.trees {
                    for blocks in buckets.values() {
                        referenced.extend(blocks.iter().copied());
                    }
                }
                for b in referenced {
                    let rb = recovered.blocks.get(&(snap.name.clone(), b)).ok_or_else(|| {
                        Error::Codec(format!(
                            "committed catalog references unjournaled block {}:{b}",
                            snap.name
                        ))
                    })?;
                    db.store.restore_block(
                        &snap.name,
                        b,
                        rb.arity,
                        rb.replicas.clone(),
                        rb.encoded.clone(),
                    )?;
                }
                db.create_table(&snap.name, snap.schema.clone(), snap.candidate_attrs.clone())?;
                let ts = db.tables.get_mut(&snap.name).expect("just created");
                crate::catalog::apply_snapshot(ts, &snap)?;
            }
        }
        for (table, next) in &recovered.next_ids {
            db.store.reserve_ids(table, *next);
        }
        db.store.set_journal(Some(Arc::new(journal)));
        Ok(db)
    }

    /// Append a snapshot-swap record — the full catalog — to the
    /// attached manifest journal and sync it to disk. This is the
    /// durability acknowledgement point: recovery restores exactly the
    /// state of the last commit. No-op without a durable journal.
    pub fn commit_durable(&self) -> Result<()> {
        if let Some(j) = self.store.journal() {
            j.append(&adaptdb_storage::JournalRecord::Commit { catalog: self.export_catalog() })?;
            j.sync()?;
        }
        Ok(())
    }

    /// The active configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Change the hyper-join memory budget (blocks per worker). The
    /// Fig. 14 sweep varies this on a loaded database; partitioning is
    /// unaffected, only planning.
    pub fn set_buffer_blocks(&mut self, blocks: usize) {
        self.config.buffer_blocks = blocks.max(1);
    }

    /// Toggle query-lifecycle tracing ([`DbConfig::trace`]) at runtime.
    /// While on, every [`Database::run`] carries a span tree in
    /// [`QueryResult::trace`]; accounting is unchanged either way.
    pub fn set_trace(&mut self, on: bool) {
        self.config.trace = on;
    }

    /// Switch how migrated source blocks are disposed of. A concurrent
    /// runtime sets [`RetireMode::Deferred`] and periodically drains
    /// [`Database::take_retired`] once its readers quiesce.
    pub fn set_retire_mode(&mut self, mode: RetireMode) {
        self.retire_mode = mode;
    }

    /// Blocks retired under [`RetireMode::Deferred`] since the last
    /// call: `(table, block)` pairs the caller must eventually
    /// [`BlockStore::remove_block`].
    pub fn take_retired(&mut self) -> Vec<(String, BlockId)> {
        std::mem::take(&mut self.pending_retire)
    }

    /// Serialize the catalog (schemas, partitioning trees, bucket maps)
    /// to a self-contained blob — the metadata the paper stores next to
    /// the blocks (§2).
    pub fn export_catalog(&self) -> bytes::Bytes {
        crate::catalog::encode_catalog(self.tables.values())
    }

    /// Read access to the block store (for experiments and tests).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// A shareable handle to the block store — what the concurrent
    /// server hands its reader threads.
    pub fn store_arc(&self) -> Arc<BlockStore> {
        Arc::clone(&self.store)
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Catalog state of every registered table, in name order. Borrows
    /// and copies nothing — what a serving runtime walks to compare
    /// each table's current snapshot with the one it published.
    pub fn tables(&self) -> impl Iterator<Item = &TableState> {
        self.tables.values()
    }

    /// Fault injection: fail a simulated cluster node. With replication
    /// ≥ 2 queries keep working through surviving replicas (reads that
    /// would have been local become remote); unreplicated blocks on the
    /// failed node surface as [`Error::Dfs`] from `run`.
    pub fn inject_node_failure(&mut self, node: adaptdb_dfs::NodeId) {
        self.store.dfs_mut().fail_node(node);
    }

    /// Fault injection: bring a failed node back.
    pub fn recover_node(&mut self, node: adaptdb_dfs::NodeId) {
        self.store.dfs_mut().recover_node(node);
    }

    /// Catalog state of a table.
    pub fn table(&self, name: &str) -> Result<&TableState> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Register a table. `candidate_attrs` are the attributes the
    /// upfront partitioner and selection adapter may split on.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        candidate_attrs: Vec<AttrId>,
    ) -> Result<()> {
        if schema.is_empty() {
            return Err(Error::InvalidConfig(format!("table {name} has no columns")));
        }
        if candidate_attrs.iter().any(|a| *a as usize >= schema.len()) {
            return Err(Error::InvalidConfig(format!(
                "candidate attribute out of range for table {name}"
            )));
        }
        let sample_cap = 2_000;
        let state = TableState::new(
            name,
            schema,
            candidate_attrs,
            Reservoir::new(sample_cap, self.config.seed ^ name.len() as u64),
            QueryWindow::new(self.config.window_size),
        );
        self.tables.insert(name.to_string(), state);
        Ok(())
    }

    /// Bulk-load rows through the Amoeba upfront partitioner (§3.1):
    /// sample, build a workload-oblivious tree over the candidate
    /// attributes, then route every row into blocks.
    pub fn load_rows(&mut self, table: &str, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let buffered: Vec<Row> = rows.into_iter().collect();
        let ts = self.tables.get_mut(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        check_rows(ts, &buffered)?;
        ts.sample.offer_all(&buffered);
        let depth = self.config.depth_for_rows(buffered.len());
        let arity = ts.schema().len();
        let attrs = if ts.candidate_attrs.is_empty() {
            ts.schema().attr_ids().collect()
        } else {
            ts.candidate_attrs.clone()
        };
        let tree =
            UpfrontPartitioner::new(arity, attrs, depth, self.config.seed).build(ts.sample.rows());
        let n =
            Self::write_through_tree(&self.store, ts, tree, buffered, self.config.rows_per_block)?;
        self.commit_durable()?;
        Ok(n)
    }

    /// Load rows under an explicit tree (hand-tuned / "best guess"
    /// baselines, Fig. 18). `rows_per_block` overrides the configured
    /// block budget when given — the PREF baseline uses smaller
    /// effective blocks to model its tuple replication overhead.
    pub fn load_with_tree(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        tree: PartitionTree,
        rows_per_block: Option<usize>,
    ) -> Result<usize> {
        let budget = rows_per_block.unwrap_or(self.config.rows_per_block);
        let ts = self.tables.get_mut(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        check_rows(ts, &rows)?;
        ts.sample.offer_all(&rows);
        let n = Self::write_through_tree(&self.store, ts, tree, rows, budget)?;
        self.commit_durable()?;
        Ok(n)
    }

    /// Load rows under a converged two-phase tree for `join_attr` —
    /// what smooth repartitioning would eventually produce. Experiments
    /// use this to start from the paper's "ran the smooth partitioning
    /// algorithm for several iterations until just one tree existed"
    /// state (§7.2) without replaying the queries.
    pub fn load_two_phase(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        join_attr: AttrId,
        join_levels: Option<usize>,
    ) -> Result<usize> {
        let depth = self.config.depth_for_rows(rows.len());
        let levels = join_levels.unwrap_or_else(|| self.config.join_levels_for(depth));
        if levels > depth {
            return Err(Error::InvalidConfig(format!(
                "join levels {levels} exceed tree depth {depth}"
            )));
        }
        let ts = self.tables.get_mut(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        check_rows(ts, &rows)?;
        ts.sample.offer_all(&rows);
        let selection: Vec<AttrId> =
            ts.candidate_attrs.iter().copied().filter(|a| *a != join_attr).collect();
        let tree = TwoPhaseBuilder::new(
            ts.schema().len(),
            join_attr,
            levels,
            selection,
            depth,
            self.config.seed,
        )
        .build(ts.sample.rows());
        let n = Self::write_through_tree(&self.store, ts, tree, rows, self.config.rows_per_block)?;
        self.commit_durable()?;
        Ok(n)
    }

    fn write_through_tree(
        store: &BlockStore,
        ts: &mut TableState,
        tree: PartitionTree,
        rows: Vec<Row>,
        rows_per_block: usize,
    ) -> Result<usize> {
        let n = rows.len();
        let arity = ts.schema().len();
        let mut writer = PartitionedWriter::new(store, &ts.name, arity, rows_per_block, None);
        for row in rows {
            writer.push(tree.route(&row), row);
        }
        let map = writer.finish();
        let mut info = TreeInfo::empty(tree);
        info.add_blocks(map);
        ts.set_trees(vec![info]);
        Ok(n)
    }

    // ----- append ingest (the durable write path) ----------------------

    /// Cumulative ingest counters since startup.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Append rows to a table as unfolded delta blocks, charging write
    /// I/O to an internal (discarded) maintenance clock. See
    /// [`Database::append_rows_with`].
    pub fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let clock = SimClock::maintenance();
        self.append_rows_with(table, rows, &clock)
    }

    /// Append rows to a table, charging I/O to `clock`.
    ///
    /// Rows land in fresh *delta* blocks outside any partitioning tree:
    /// they are visible to every query planned after this call (the
    /// planner shuffles them; see `classify_candidates`), while queries
    /// pinned to an earlier [`TableSnapshot`] never see them — MVCC by
    /// construction. With [`DbConfig::ingest_merge_tail`] a partial tail
    /// delta block is read back and rewritten so trickle ingest
    /// produces the same block boundaries as one bulk append. Deltas
    /// fold into the tree later ([`Database::fold_deltas`]), paced like
    /// any other adaptation. On a durable database the new blocks are
    /// journaled and the append is acknowledged with a synced commit.
    pub fn append_rows_with(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        clock: &SimClock,
    ) -> Result<usize> {
        let n = rows.len();
        if n == 0 {
            return Ok(0);
        }
        let rows_per_block = self.config.rows_per_block;
        let ts = self.tables.get_mut(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        check_rows(ts, &rows)?;
        ts.sample.offer_all(&rows);
        let arity = ts.schema().len();
        let mut buffered = rows;
        if self.config.ingest_merge_tail {
            // Merge a partial tail block so trickle and bulk ingest
            // converge to identical block boundaries. The old tail is
            // retired like any migrated-away block: eagerly here,
            // deferred under a concurrent runtime so pinned readers
            // keep resolving it.
            if let Some(&tail) = ts.delta().last() {
                let partial =
                    self.store.with_block_meta(table, tail, |m| m.row_count)? < rows_per_block;
                if partial {
                    let node = self.store.preferred_node(table, tail)?;
                    let old = self.store.read_block(table, tail, node, clock)?;
                    let mut merged = old.rows;
                    merged.extend(buffered);
                    buffered = merged;
                    ts.remove_delta(&HashSet::from([tail]));
                    match self.retire_mode {
                        RetireMode::Eager => self.store.remove_block(table, tail)?,
                        RetireMode::Deferred => self.pending_retire.push((table.to_string(), tail)),
                    }
                    self.ingest.tail_rewrites += 1;
                }
            }
        }
        let mut new_ids = Vec::with_capacity(buffered.len() / rows_per_block + 1);
        let mut rest = buffered.into_iter();
        loop {
            let chunk: Vec<Row> = rest.by_ref().take(rows_per_block).collect();
            if chunk.is_empty() {
                break;
            }
            new_ids.push(self.store.write_block(table, chunk, arity, None));
            clock.record_writes(1);
        }
        self.ingest.delta_blocks_written += new_ids.len();
        ts.append_delta(new_ids);
        self.ingest.appends += 1;
        self.ingest.rows_appended += n;
        self.commit_durable()?;
        Ok(n)
    }

    /// Fold a table's accumulated delta blocks into its partition tree —
    /// just another adaptation decision, costed on `clock` like any
    /// rewrite. Deltas merge into the largest existing tree (or
    /// bootstrap an upfront tree from the sample when the table has
    /// none). Returns how many delta blocks were folded.
    pub fn fold_deltas(&mut self, table: &str, clock: &SimClock) -> Result<usize> {
        let ts = self.tables.get(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        let delta: Vec<BlockId> = ts.delta().to_vec();
        if delta.is_empty() {
            return Ok(0);
        }
        let target = (0..ts.trees().len()).max_by_key(|&i| ts.trees()[i].block_count());
        let (target_tree, existing) = match target {
            Some(i) => (ts.trees()[i].tree.clone(), ts.trees()[i].buckets.clone()),
            None => {
                let rows = Self::blocks_rows(&self.store, table, &delta);
                let attrs = if ts.candidate_attrs.is_empty() {
                    ts.schema().attr_ids().collect()
                } else {
                    ts.candidate_attrs.clone()
                };
                let tree = UpfrontPartitioner::new(
                    ts.schema().len(),
                    attrs,
                    self.config.depth_for_rows(rows),
                    self.config.seed,
                )
                .build(ts.sample.rows());
                (tree, BTreeMap::new())
            }
        };
        let outcome = self.repartition(table, &delta, &target_tree, &existing, clock)?;
        let ts = self.tables.get_mut(table).expect("table exists");
        let mut dead: HashSet<BlockId> = delta.iter().copied().collect();
        dead.extend(outcome.absorbed.iter().copied());
        ts.remove_delta(&dead);
        let trees = ts.trees_mut();
        for info in trees.iter_mut() {
            info.remove_blocks(&dead);
        }
        match target {
            Some(i) => trees[i].add_blocks(outcome.added),
            None => {
                let mut info = TreeInfo::empty(target_tree);
                info.add_blocks(outcome.added);
                trees.push(info);
            }
        }
        ts.prune_empty_trees();
        self.ingest.folds += 1;
        self.ingest.blocks_folded += delta.len();
        self.commit_durable()?;
        Ok(delta.len())
    }

    /// Fold any table whose delta backlog reached
    /// [`DbConfig::ingest_fold_blocks`] — the load-paced trigger
    /// [`Database::adapt_now`] applies in every mode.
    fn fold_if_due(&mut self, tables: &[String], clock: &SimClock) -> Result<()> {
        let threshold = self.config.ingest_fold_blocks;
        for t in tables {
            if self.tables.get(t.as_str()).is_some_and(|ts| ts.delta().len() >= threshold) {
                self.fold_deltas(t, clock)?;
            }
        }
        Ok(())
    }

    /// Run one query: update windows, adapt partitioning (mode-dependent),
    /// plan, execute, and account.
    pub fn run(&mut self, query: &Query) -> Result<QueryResult> {
        let started = Instant::now();
        let unaccounted_before = self.store.unaccounted_reads();
        readpath::check_attrs(self, query)?;
        self.record_observation(query)?;

        let tracer = self.config.trace.then(adaptdb_common::Tracer::new);
        let root = tracer.as_ref().map(|t| t.start("query", None, 0));

        let repart_clock = SimClock::new();
        self.adapt_now(query, &repart_clock)?;
        // Any piggybacked rewrite changed the block set: acknowledge it
        // durably before serving (no-op without a journal).
        if repart_clock.snapshot().writes > 0 {
            self.commit_durable()?;
        }

        // Adaptation occupies [0, repart_end] on the trace timeline;
        // execution spans start where the piggybacked rewrite finished.
        let params = self.config.cost.clone();
        let repart_end_us = adaptdb_dfs::secs_to_us(repart_clock.simulated_secs(&params));
        if let (Some(t), Some(root)) = (tracer.as_ref(), root) {
            let io = repart_clock.snapshot();
            let id = t.start("adapt", Some(root), 0);
            t.attr_i(id, "reads", io.reads() as i64);
            t.attr_i(id, "writes", io.writes as i64);
            t.end(id, repart_end_us);
        }

        let query_clock = SimClock::new();
        let trace_ctx = tracer.as_ref().zip(root).map(|(t, root)| TraceCtx {
            tracer: t,
            params: &params,
            parent: root,
            base_us: repart_end_us,
        });
        let (rows, strategy, c_hyj) =
            readpath::execute_query_traced(self, query, &query_clock, trace_ctx)?;
        debug_assert_eq!(
            self.store.unaccounted_reads(),
            unaccounted_before,
            "a read path skipped clock accounting"
        );

        let mut stats = QueryStats::empty(strategy);
        stats.query_io = query_clock.snapshot();
        stats.repartition_io = repart_clock.snapshot();
        stats.shuffle = query_clock.shuffle_snapshot();
        stats.overlap = query_clock.overlap_snapshot();
        stats.estimated_c_hyj = c_hyj;
        stats.wall_secs = started.elapsed().as_secs_f64();

        let trace = if let (Some(t), Some(root)) = (tracer, root) {
            t.attr_s(root, "strategy", &format!("{strategy:?}"));
            t.attr_i(root, "rows", rows.len() as i64);
            t.attr_i(root, "blocks_read", stats.total_io().reads() as i64);
            let total_us =
                repart_end_us + adaptdb_dfs::secs_to_us(stats.query_io.simulated_secs(&params));
            t.end(root, total_us);
            Some(Arc::new(t.finish()))
        } else {
            None
        };
        Ok(QueryResult { rows, stats, trace })
    }

    // ----- window bookkeeping ------------------------------------------

    /// Count the query and push its window entries — the first half of
    /// what [`Database::run`] does before executing. The concurrent
    /// server calls this from its maintenance loop as it drains
    /// executed queries.
    pub fn record_observation(&mut self, query: &Query) -> Result<()> {
        self.queries_run += 1;
        for name in query.tables() {
            let ts =
                self.tables.get_mut(name).ok_or_else(|| Error::UnknownTable(name.to_string()))?;
            ts.window.push(WindowEntry {
                join_attr: query.join_attr_for(name),
                predicates: query.predicates_for(name),
            });
        }
        Ok(())
    }

    // ----- adaptation (the optimizer of §6) ----------------------------

    /// Decide and perform adaptation for `query`'s tables under the
    /// current mode, charging rewrite I/O to `clock` — the second half
    /// of what [`Database::run`] does. Public so a maintenance loop can
    /// run the exact serial decision procedure off the hot path (with a
    /// maintenance-kind clock and deferred retirement).
    pub fn adapt_now(&mut self, query: &Query, clock: &SimClock) -> Result<()> {
        let mut tables: Vec<&str> = query.tables();
        tables.dedup();
        let tables: Vec<String> = tables.into_iter().map(String::from).collect();
        // Delta folding applies in every mode: the ingest path is
        // orthogonal to which join-adaptation policy is active.
        self.fold_if_due(&tables, clock)?;
        match self.config.mode {
            Mode::Adaptive => {
                for t in &tables {
                    if let Some(attr) = query.join_attr_for(t) {
                        self.smooth_migrate(t, attr, clock)?;
                    }
                    if self.config.adapt_selections {
                        self.adapt_selections(t, clock)?;
                    }
                }
            }
            Mode::Amoeba => {
                for t in &tables {
                    self.adapt_selections(t, clock)?;
                }
            }
            Mode::FullRepartition => {
                for t in &tables {
                    if let Some(attr) = query.join_attr_for(t) {
                        self.maybe_full_repartition(t, attr, clock)?;
                    }
                }
            }
            Mode::FullScan | Mode::Fixed => {}
        }
        Ok(())
    }

    fn repartition(
        &mut self,
        table: &str,
        blocks: &[BlockId],
        target_tree: &PartitionTree,
        existing: &BTreeMap<adaptdb_storage::writer::BucketId, Vec<BlockId>>,
        clock: &SimClock,
    ) -> Result<adaptdb_exec::RepartitionOutcome> {
        let outcome = adaptdb_exec::repartition_blocks_with(
            &self.store,
            clock,
            table,
            blocks,
            target_tree,
            self.config.rows_per_block,
            existing,
            self.retire_mode,
        )?;
        self.pending_retire.extend(outcome.retired.iter().map(|b| (table.to_string(), *b)));
        Ok(outcome)
    }

    /// Rows in the table according to its manifests. Equal to the
    /// store-side count when retirement is eager; under deferred
    /// retirement the store temporarily also holds migrated-away blocks,
    /// which must not skew adaptation sizing.
    fn manifest_rows(&self, ts: &TableState, table: &str) -> usize {
        Self::blocks_rows(&self.store, table, &ts.all_blocks())
    }

    /// Rows held by a specific block list, per catalog metadata. The
    /// single source of truth for adaptation's `|T|` sizing — whole
    /// table and per-tree counts must stay consistent with each other.
    fn blocks_rows(store: &BlockStore, table: &str, blocks: &[BlockId]) -> usize {
        blocks.iter().filter_map(|b| store.with_block_meta(table, *b, |m| m.row_count).ok()).sum()
    }

    /// Smooth repartitioning toward `attr` for one table (Fig. 11).
    fn smooth_migrate(&mut self, table: &str, attr: AttrId, clock: &SimClock) -> Result<()> {
        let config = &self.config;
        let ts = self.tables.get(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        let total_rows = self.manifest_rows(ts, table);
        let ts = self.tables.get_mut(table).expect("table exists");
        let total = ts.total_blocks();
        if total == 0 {
            return Ok(());
        }
        let n = ts.window.count_join_attr(attr);
        let target_idx = match ts.tree_for_join_attr(attr) {
            Some(i) => i,
            None => {
                if !optimizer::should_create_tree(n, config.min_join_frequency) {
                    return Ok(());
                }
                let depth = config.depth_for_rows(total_rows);
                let levels = config.join_levels_for(depth);
                let selection: Vec<AttrId> =
                    ts.candidate_attrs.iter().copied().filter(|a| *a != attr).collect();
                let tree = TwoPhaseBuilder::new(
                    ts.schema().len(),
                    attr,
                    levels,
                    selection,
                    depth,
                    config.seed ^ (attr as u64) << 32,
                )
                .build(ts.sample.rows());
                ts.trees_mut().push(TreeInfo::empty(tree));
                ts.trees().len() - 1
            }
        };
        // |W| is the configured window length (§5.2 "where |W| is the
        // length of the query window"), not the current occupancy — a
        // cold window must not trigger a full migration. Sizes `|T|` are
        // measured in rows, not block counts: migrated rows land in
        // partially-filled blocks, so block counts would overstate the
        // target tree's share.
        let target_rows =
            Self::blocks_rows(&self.store, table, &ts.trees()[target_idx].all_blocks());
        let quota =
            optimizer::smooth_migration_size(n, ts.window.capacity(), target_rows, total_rows);
        if quota == 0 {
            ts.prune_empty_trees();
            return Ok(());
        }
        // Random victim blocks from the other trees (§5.2: "randomly
        // choosing 1/|W| of the blocks in the old tree"), taken until
        // their rows cover the quota.
        let pool: Vec<BlockId> = ts
            .trees()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != target_idx)
            .flat_map(|(_, t)| t.all_blocks())
            .collect();
        let order = rng::sample_indices(&mut self.rng, pool.len(), pool.len());
        let mut victims: Vec<BlockId> = Vec::new();
        let mut rows_taken = 0usize;
        for i in order {
            if rows_taken >= quota {
                break;
            }
            let b = pool[i];
            rows_taken += self.store.with_block_meta(table, b, |m| m.row_count).unwrap_or(0);
            victims.push(b);
        }
        if victims.is_empty() {
            ts.prune_empty_trees();
            return Ok(());
        }
        let target_tree = ts.trees()[target_idx].tree.clone();
        let existing = ts.trees()[target_idx].buckets.clone();
        let outcome = self.repartition(table, &victims, &target_tree, &existing, clock)?;
        let ts = self.tables.get_mut(table).expect("table exists");
        let mut dead: HashSet<BlockId> = victims.into_iter().collect();
        dead.extend(outcome.absorbed.iter().copied());
        let trees = ts.trees_mut();
        for info in trees.iter_mut() {
            info.remove_blocks(&dead);
        }
        trees[target_idx].add_blocks(outcome.added);
        ts.prune_empty_trees();
        Ok(())
    }

    /// The Repartitioning baseline: rebuild the whole table at once when
    /// half the window joins on a new attribute.
    fn maybe_full_repartition(
        &mut self,
        table: &str,
        attr: AttrId,
        clock: &SimClock,
    ) -> Result<()> {
        let config = &self.config;
        let ts = self.tables.get(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        let total_rows = self.manifest_rows(ts, table);
        let ts = self.tables.get_mut(table).expect("table exists");
        if ts.tree_for_join_attr(attr).is_some() || ts.total_blocks() == 0 {
            return Ok(());
        }
        let n = ts.window.count_join_attr(attr);
        if !optimizer::full_repartition_trigger(n, ts.window.capacity()) {
            return Ok(());
        }
        let depth = config.depth_for_rows(total_rows);
        let levels = config.join_levels_for(depth);
        let selection: Vec<AttrId> =
            ts.candidate_attrs.iter().copied().filter(|a| *a != attr).collect();
        let tree = TwoPhaseBuilder::new(
            ts.schema().len(),
            attr,
            levels,
            selection,
            depth,
            config.seed ^ (attr as u64) << 32,
        )
        .build(ts.sample.rows());
        let all = ts.all_blocks();
        let outcome =
            self.repartition(table, &all, &tree, &std::collections::BTreeMap::new(), clock)?;
        let ts = self.tables.get_mut(table).expect("table exists");
        let mut info = TreeInfo::empty(tree);
        info.add_blocks(outcome.added);
        ts.set_trees(vec![info]);
        // `all` included any unfolded deltas (now rewritten under the
        // new tree) and `set_trees` preserves the delta list — clear it
        // so the retired source ids don't dangle.
        ts.clear_delta();
        Ok(())
    }

    /// Amoeba-style selection adaptation on the table's largest tree.
    /// Only an *applied* plan starts a cool-down of one window of
    /// queries; a proposal that comes back empty is retried after the
    /// next query, which is why its candidate subtrees are memoised per
    /// table ([`TableState::propose_selection`]).
    fn adapt_selections(&mut self, table: &str, clock: &SimClock) -> Result<()> {
        if let Some(&last) = self.last_selection_adapt.get(table) {
            if self.queries_run.saturating_sub(last) < self.config.window_size {
                return Ok(());
            }
        }
        let ts = self.tables.get_mut(table).ok_or_else(|| Error::UnknownTable(table.into()))?;
        let Some(idx) = (0..ts.trees().len()).max_by_key(|&i| ts.trees()[i].block_count()) else {
            return Ok(());
        };
        if ts.trees()[idx].block_count() == 0 {
            return Ok(());
        }
        let adapter =
            Adapter::new(AdaptConfig { seed: self.config.seed, ..AdaptConfig::default() });
        let Some(plan) = ts.propose_selection(idx, &adapter) else {
            return Ok(());
        };
        let affected: Vec<BlockId> = plan
            .old_buckets
            .iter()
            .filter_map(|b| ts.trees()[idx].buckets.get(b))
            .flatten()
            .copied()
            .collect();
        if affected.is_empty() {
            // Structure-only change (buckets held no blocks): just swap.
            let trees = ts.trees_mut();
            for b in &plan.old_buckets {
                trees[idx].buckets.remove(b);
            }
            trees[idx].tree = plan.new_tree;
            self.last_selection_adapt.insert(table.to_string(), self.queries_run);
            return Ok(());
        }
        let existing = ts.trees()[idx].buckets.clone();
        let outcome = self.repartition(table, &affected, &plan.new_tree, &existing, clock)?;
        let ts = self.tables.get_mut(table).expect("table exists");
        let trees = ts.trees_mut();
        for b in &plan.old_buckets {
            trees[idx].buckets.remove(b);
        }
        let dead: HashSet<BlockId> = outcome.absorbed.iter().copied().collect();
        trees[idx].remove_blocks(&dead);
        trees[idx].tree = plan.new_tree;
        trees[idx].add_blocks(outcome.added);
        self.last_selection_adapt.insert(table.to_string(), self.queries_run);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::stats::JoinStrategy;
    use adaptdb_common::{row, CmpOp, JoinQuery, Predicate, PredicateSet, ScanQuery, ValueType};

    fn schema2() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
    }

    fn db(mode: Mode) -> Database {
        let config = DbConfig {
            rows_per_block: 10,
            window_size: 5,
            buffer_blocks: 2,
            ingest_fold_blocks: 4,
            mode,
            ..DbConfig::small()
        };
        let mut db = Database::new(config);
        db.create_table("l", schema2(), vec![0, 1]).unwrap();
        db.create_table("r", schema2(), vec![0, 1]).unwrap();
        db.load_rows("l", (0..200i64).map(|i| row![i % 100, i])).unwrap();
        db.load_rows("r", (0..100i64).map(|i| row![i, i * 2])).unwrap();
        db
    }

    fn join_query() -> Query {
        Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
    }

    #[test]
    fn scan_returns_matching_rows() {
        let mut d = db(Mode::Adaptive);
        let q = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 10i64)),
        ));
        let res = d.run(&q).unwrap();
        assert_eq!(res.rows.len(), 10);
        assert_eq!(res.stats.strategy, JoinStrategy::ScanOnly);
        assert!(res.stats.query_io.reads() > 0);
    }

    /// Every load checks row width like an append does: a row narrower
    /// or wider than the schema is an error, and the table is untouched.
    #[test]
    fn loads_reject_rows_of_the_wrong_arity() {
        let mut d = db(Mode::Adaptive);
        let tree = d.table("l").unwrap().trees()[0].tree.clone();
        let blocks = d.table("l").unwrap().total_blocks();
        for bad in [row![1i64], row![1i64, 2i64, 3i64]] {
            let rows = vec![row![5i64, 5i64], bad];
            let loads = [
                d.load_rows("l", rows.clone()),
                d.load_with_tree("l", rows.clone(), tree.clone(), None),
                d.load_two_phase("l", rows.clone(), 0, None),
                d.append_rows("l", rows),
            ];
            for (i, res) in loads.into_iter().enumerate() {
                assert!(matches!(res, Err(Error::Plan(_))), "load {i}: {res:?}");
            }
        }
        assert_eq!(d.table("l").unwrap().total_blocks(), blocks, "nothing was written");
        assert_eq!(d.run(&Query::Scan(ScanQuery::full("l"))).unwrap().rows.len(), 200);
    }

    /// Loading and appending offer each table's rows to its sample in
    /// batches; the sample must be the one offering every row in turn
    /// builds — past the reservoir's capacity, so rows are replaced.
    #[test]
    fn load_then_append_samples_like_row_by_row_offers() {
        let mut d = Database::new(DbConfig { rows_per_block: 100, ..DbConfig::small() });
        d.create_table("t", schema2(), vec![0, 1]).unwrap();
        let loaded: Vec<Row> = (0..2_600i64).map(|i| row![i % 97, i]).collect();
        let appended: Vec<Row> = (0..900i64).map(|i| row![i % 13, -i]).collect();
        d.load_rows("t", loaded.clone()).unwrap();
        d.append_rows("t", appended.clone()).unwrap();
        let sample = &d.table("t").unwrap().sample;
        let mut want = Reservoir::new(sample.capacity(), d.config.seed ^ "t".len() as u64);
        for r in loaded.iter().chain(&appended) {
            want.offer(r.clone());
        }
        assert!(want.seen() > want.capacity(), "the test must overflow the reservoir");
        assert_eq!(sample.seen(), want.seen());
        assert_eq!(sample.rows(), want.rows());
    }

    /// A table needs a column: rows of no columns have nothing to
    /// partition on and no column to carry their count.
    #[test]
    fn create_table_rejects_an_empty_schema() {
        let mut d = Database::new(DbConfig::small());
        let res = d.create_table("z", Schema::from_pairs(&[]), vec![]);
        assert!(matches!(res, Err(Error::InvalidConfig(_))), "{res:?}");
        assert!(d.table("z").is_err(), "nothing was registered");
    }

    #[test]
    fn join_is_correct_in_every_mode() {
        for mode in
            [Mode::Adaptive, Mode::FullScan, Mode::FullRepartition, Mode::Amoeba, Mode::Fixed]
        {
            let mut d = db(mode);
            let res = d.run(&join_query()).unwrap();
            // Each l-row (k in 0..100, twice) matches exactly one r-row.
            assert_eq!(res.rows.len(), 200, "mode {mode:?}");
            for r in &res.rows {
                assert_eq!(
                    r.get(2).as_int().unwrap(),
                    r.get(0).as_int().unwrap(),
                    "join keys must match in mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn adaptive_converges_to_hyper_join() {
        let mut d = db(Mode::Adaptive);
        let mut last = None;
        for _ in 0..8 {
            last = Some(d.run(&join_query()).unwrap());
        }
        let res = last.unwrap();
        assert_eq!(res.stats.strategy, JoinStrategy::HyperJoin, "should converge");
        // Converged: no more repartitioning I/O.
        assert_eq!(res.stats.repartition_io.writes, 0);
        // Both tables now hold exactly one tree, on attr 0.
        for t in ["l", "r"] {
            let ts = d.table(t).unwrap();
            assert_eq!(ts.trees().len(), 1, "{t} trees");
            assert_eq!(ts.trees()[0].join_attr(), Some(0));
        }
    }

    #[test]
    fn full_scan_mode_never_uses_hyper_join_or_pruning() {
        let mut d = db(Mode::FullScan);
        for _ in 0..4 {
            let res = d.run(&join_query()).unwrap();
            assert_eq!(res.stats.strategy, JoinStrategy::ShuffleJoin);
            assert_eq!(res.stats.repartition_io.writes, 0, "no adaptation");
        }
        // Predicated scan still reads every block.
        let q = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 5i64)),
        ));
        let res = d.run(&q).unwrap();
        assert_eq!(res.rows.len(), 5);
        assert_eq!(res.stats.query_io.reads(), d.table("r").unwrap().total_blocks());
    }

    #[test]
    fn full_repartition_spikes_then_settles() {
        let mut d = db(Mode::FullRepartition);
        let mut spike_at = None;
        for i in 0..6 {
            let res = d.run(&join_query()).unwrap();
            if res.stats.repartition_io.writes > 0 && spike_at.is_none() {
                spike_at = Some(i);
                // The spike rewrites entire tables at once.
                let total =
                    d.table("l").unwrap().total_blocks() + d.table("r").unwrap().total_blocks();
                assert!(res.stats.repartition_io.writes >= total / 2);
            }
        }
        let spike = spike_at.expect("full repartition must trigger");
        // After the spike, joins are hyper and no further writes happen.
        let res = d.run(&join_query()).unwrap();
        assert_eq!(res.stats.repartition_io.writes, 0);
        assert_eq!(res.stats.strategy, JoinStrategy::HyperJoin);
        assert!(spike >= 2, "needs half the window first (got {spike})");
    }

    #[test]
    fn amoeba_mode_keeps_shuffling_but_adapts_selections() {
        // Partition only on attr 0 upfront so predicates on attr 1 leave
        // clear adaptation headroom.
        let config = DbConfig {
            rows_per_block: 10,
            window_size: 5,
            buffer_blocks: 2,
            mode: Mode::Amoeba,
            ..DbConfig::small()
        };
        let mut d = Database::new(config);
        d.create_table("l", schema2(), vec![0]).unwrap();
        d.create_table("r", schema2(), vec![0]).unwrap();
        d.load_rows("l", (0..200i64).map(|i| row![i % 100, i])).unwrap();
        d.load_rows("r", (0..100i64).map(|i| row![i, i * 2])).unwrap();
        let q = Query::Join(JoinQuery::new(
            ScanQuery::new("l", PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 40i64))),
            ScanQuery::full("r"),
            0,
            0,
        ));
        let mut adapted = false;
        let mut reads_first = 0usize;
        let mut reads_last = 0usize;
        // The adapter needs a window's worth of evidence before a rewrite
        // clears the benefit/cost hysteresis, so run a few windows.
        for i in 0..15 {
            let res = d.run(&q).unwrap();
            assert_eq!(res.stats.strategy, JoinStrategy::ShuffleJoin);
            if res.stats.repartition_io.writes > 0 {
                adapted = true;
            }
            if i == 0 {
                reads_first = res.stats.query_io.reads();
            }
            reads_last = res.stats.query_io.reads();
        }
        assert!(adapted, "selection adaptation should have fired");
        assert!(reads_last <= reads_first, "{reads_last} vs {reads_first}");
    }

    /// Amoeba's candidate memo is state of one `Database`: a second
    /// database over the same data and query builds its own candidates
    /// instead of reusing the first one's.
    #[test]
    fn selection_candidates_are_memoised_per_database() {
        let q = Query::Scan(ScanQuery::new(
            "l",
            PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 40i64)),
        ));
        let builds = |d: &Database| d.tables["l"].candidate_builds();
        let mut a = db(Mode::Amoeba);
        a.run(&q).unwrap();
        assert_eq!(builds(&a), 1);
        let mut b = db(Mode::Amoeba);
        assert_eq!(builds(&b), 0);
        b.run(&q).unwrap();
        assert_eq!(builds(&b), 1, "a fresh database must build its own candidates");
        assert_eq!(builds(&a), 1);
    }

    #[test]
    fn mid_migration_uses_mixed_strategy() {
        // Large window so migration is slow, guaranteeing a mid state.
        let config = DbConfig {
            rows_per_block: 10,
            window_size: 20,
            buffer_blocks: 2,
            adapt_selections: false,
            ..DbConfig::small()
        };
        let mut d = Database::new(config);
        d.create_table("l", schema2(), vec![0, 1]).unwrap();
        d.create_table("r", schema2(), vec![0, 1]).unwrap();
        d.load_rows("l", (0..400i64).map(|i| row![i % 200, i])).unwrap();
        d.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
        let mut saw_mixed_or_shuffle = false;
        for _ in 0..3 {
            let res = d.run(&join_query()).unwrap();
            assert_eq!(res.rows.len(), 400);
            if matches!(res.stats.strategy, JoinStrategy::Mixed | JoinStrategy::ShuffleJoin) {
                saw_mixed_or_shuffle = true;
            }
        }
        assert!(saw_mixed_or_shuffle, "early queries run before trees converge");
        // Trees exist for attr 0 on both tables, partially filled.
        let ts = d.table("l").unwrap();
        assert!(ts.tree_for_join_attr(0).is_some());
    }

    #[test]
    fn multi_join_chains_through_steps() {
        let mut d = db(Mode::Adaptive);
        // Third table keyed on l.x % 10.
        d.create_table("c", schema2(), vec![0]).unwrap();
        d.load_rows("c", (0..10i64).map(|i| row![i, i * 100])).unwrap();
        let q = Query::MultiJoin {
            first: JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0),
            steps: vec![adaptdb_common::JoinStep {
                // l⋈r output: [l.k, l.x, r.k, r.x]; join c on r.k % ... use l.k.
                intermediate_attr: 0,
                table: ScanQuery::new(
                    "c",
                    PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 100i64)),
                ),
                table_attr: 0,
            }],
        };
        let res = d.run(&q).unwrap();
        // l.k in 0..100; only k in 0..10 match c.
        assert_eq!(res.rows.len(), 20);
        for r in &res.rows {
            assert_eq!(r.arity(), 6);
            assert_eq!(r.get(0), r.get(4));
        }
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db(Mode::Adaptive);
        let q = Query::Scan(ScanQuery::full("nope"));
        assert!(matches!(d.run(&q), Err(Error::UnknownTable(_))));
    }

    #[test]
    fn load_two_phase_enables_immediate_hyper_join() {
        let config = DbConfig { rows_per_block: 10, buffer_blocks: 2, ..DbConfig::small() };
        let mut d = Database::new(config.with_mode(Mode::Fixed));
        d.create_table("l", schema2(), vec![1]).unwrap();
        d.create_table("r", schema2(), vec![1]).unwrap();
        d.load_two_phase("l", (0..200i64).map(|i| row![i % 100, i]).collect(), 0, None).unwrap();
        d.load_two_phase("r", (0..100i64).map(|i| row![i, i * 2]).collect(), 0, None).unwrap();
        let res = d.run(&join_query()).unwrap();
        assert_eq!(res.stats.strategy, JoinStrategy::HyperJoin);
        assert_eq!(res.rows.len(), 200);
        let c_hyj = res.stats.estimated_c_hyj.unwrap();
        assert!(c_hyj < 2.5, "two-phase partitioning should give low C_HyJ, got {c_hyj}");
    }

    #[test]
    fn simulated_seconds_are_positive_and_mode_ordered() {
        // Converged AdaptDB should beat FullScan on the same query.
        let mut fast = db(Mode::Adaptive);
        for _ in 0..6 {
            fast.run(&join_query()).unwrap();
        }
        let fast_res = fast.run(&join_query()).unwrap();
        let mut slow = db(Mode::FullScan);
        let slow_res = slow.run(&join_query()).unwrap();
        let f = fast_res.simulated_secs(fast.config());
        let s = slow_res.simulated_secs(slow.config());
        assert!(f > 0.0 && s > 0.0);
        assert!(f < s, "converged hyper-join ({f}) must beat full scan ({s})");
    }

    #[test]
    fn appended_rows_are_immediately_queryable_with_tail_merge() {
        let mut d = db(Mode::Adaptive);
        // 5 rows: one partial delta block.
        d.append_rows("r", (100..105i64).map(|i| row![i, i * 2]).collect()).unwrap();
        assert_eq!(d.table("r").unwrap().delta().len(), 1);
        // 5 more: the partial tail is read back and rewritten full.
        d.append_rows("r", (105..110i64).map(|i| row![i, i * 2]).collect()).unwrap();
        let ts = d.table("r").unwrap();
        assert_eq!(ts.delta().len(), 1, "tail merge keeps bulk-identical boundaries");
        let stats = d.ingest_stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.rows_appended, 10);
        assert_eq!(stats.tail_rewrites, 1);
        // A full scan sees the appended rows right away.
        let q = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 100i64)),
        ));
        let res = d.run(&q).unwrap();
        assert_eq!(res.rows.len(), 10);
        // Arity mismatches are rejected before any state changes.
        assert!(d.append_rows("r", vec![row![1i64]]).is_err());
    }

    #[test]
    fn delta_folds_into_tree_once_threshold_reached() {
        let mut d = db(Mode::Adaptive);
        // Converge first so "r" holds a single attr-0 tree.
        for _ in 0..8 {
            d.run(&join_query()).unwrap();
        }
        // 4 full delta blocks = the configured fold threshold.
        d.append_rows("r", (100..140i64).map(|i| row![i, i * 2]).collect()).unwrap();
        assert_eq!(d.table("r").unwrap().delta().len(), 4);
        let res = d.run(&join_query()).unwrap();
        assert_eq!(res.rows.len(), 200);
        let ts = d.table("r").unwrap();
        assert!(ts.delta().is_empty(), "fold consumed the delta backlog");
        assert_eq!(ts.trees().len(), 1, "deltas merged into the existing tree");
        let stats = d.ingest_stats();
        assert_eq!(stats.folds, 1);
        assert_eq!(stats.blocks_folded, 4);
        // Rows survived the fold: appended keys still join... they have
        // no l-side match (l keys < 100), but a scan finds them all.
        let q = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 100i64)),
        ));
        assert_eq!(d.run(&q).unwrap().rows.len(), 40);
    }

    #[test]
    fn fold_bootstraps_a_tree_on_an_append_only_table() {
        let mut d = db(Mode::Adaptive);
        d.create_table("a", schema2(), vec![0]).unwrap();
        d.append_rows("a", (0..40i64).map(|i| row![i, i]).collect()).unwrap();
        assert_eq!(d.table("a").unwrap().trees().len(), 0);
        let clock = SimClock::maintenance();
        let folded = d.fold_deltas("a", &clock).unwrap();
        assert_eq!(folded, 4);
        let ts = d.table("a").unwrap();
        assert!(ts.delta().is_empty());
        assert_eq!(ts.trees().len(), 1, "fold built an upfront tree");
        assert!(clock.snapshot().writes > 0, "fold I/O lands on the given clock");
        let q = Query::Scan(ScanQuery::full("a"));
        assert_eq!(d.run(&q).unwrap().rows.len(), 40);
    }

    #[test]
    fn snapshot_pinned_before_append_never_sees_it() {
        let mut d = db(Mode::Adaptive);
        d.set_retire_mode(RetireMode::Deferred);
        let pinned = d.table("r").unwrap().snapshot_arc();
        let before = pinned.total_blocks();
        d.append_rows("r", (100..120i64).map(|i| row![i, i * 2]).collect()).unwrap();
        assert_eq!(pinned.total_blocks(), before, "admission-time snapshot is immutable");
        assert!(d.table("r").unwrap().snapshot_arc().total_blocks() > before);
    }

    #[test]
    fn durable_database_recovers_across_reopen() {
        let dir = std::env::temp_dir().join(format!("adaptdb-db-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DbConfig {
            rows_per_block: 10,
            window_size: 5,
            buffer_blocks: 2,
            ingest_fold_blocks: 4,
            durable_path: Some(dir.to_string_lossy().into_owned()),
            ..DbConfig::small()
        };
        let mut d = Database::open_durable(config.clone()).unwrap();
        d.create_table("l", schema2(), vec![0, 1]).unwrap();
        d.create_table("r", schema2(), vec![0, 1]).unwrap();
        d.load_rows("l", (0..200i64).map(|i| row![i % 100, i])).unwrap();
        d.load_rows("r", (0..100i64).map(|i| row![i, i * 2])).unwrap();
        d.append_rows("r", (100..105i64).map(|i| row![i, i * 2]).collect()).unwrap();
        let mut expect = d.run(&join_query()).unwrap().rows;
        expect.sort_by_key(|r| format!("{r:?}"));
        let delta_before = d.table("r").unwrap().delta().to_vec();
        drop(d);

        let mut d2 = Database::open_durable(config).unwrap();
        assert_eq!(d2.table_names(), vec!["l".to_string(), "r".to_string()]);
        assert_eq!(d2.table("r").unwrap().delta(), &delta_before[..]);
        let mut got = d2.run(&join_query()).unwrap().rows;
        got.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, expect, "recovered database answers bit-identically");
        // Appends keep working after recovery (ids never collide).
        d2.append_rows("r", (105..110i64).map(|i| row![i, i * 2]).collect()).unwrap();
        let q = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 100i64)),
        ));
        assert_eq!(d2.run(&q).unwrap().rows.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_retire_accumulates_and_drains() {
        let mut d = db(Mode::Adaptive);
        d.set_retire_mode(RetireMode::Deferred);
        let before = d.store().block_count("l") + d.store().block_count("r");
        for _ in 0..6 {
            d.run(&join_query()).unwrap();
        }
        let retired = d.take_retired();
        assert!(!retired.is_empty(), "adaptation must have deferred some blocks");
        assert!(d.take_retired().is_empty(), "take drains");
        // All retired blocks are still present until collected.
        for (t, b) in &retired {
            assert!(d.store().block_meta(t, *b).is_ok());
        }
        let inflated = d.store().block_count("l") + d.store().block_count("r");
        assert!(inflated > before - retired.len(), "retired blocks linger");
        for (t, b) in &retired {
            d.store().remove_block(t, *b).unwrap();
        }
        // Queries still answer correctly after collection.
        let res = d.run(&join_query()).unwrap();
        assert_eq!(res.rows.len(), 200);
    }

    #[test]
    fn deferred_and_eager_retire_produce_identical_results() {
        let mut eager = db(Mode::Adaptive);
        let mut deferred = db(Mode::Adaptive);
        deferred.set_retire_mode(RetireMode::Deferred);
        for _ in 0..8 {
            let a = eager.run(&join_query()).unwrap();
            let b = deferred.run(&join_query()).unwrap();
            assert_eq!(a.rows.len(), b.rows.len());
            assert_eq!(a.stats.strategy, b.stats.strategy);
        }
    }
}
