//! The table-qualified block store over the simulated DFS.
//!
//! Rows live encoded (see [`crate::codec`]) in the columnar `ADB2`
//! format. Metadata ([`BlockMeta`]) stays in memory like a catalog would keep
//! it. Every read is classified local/remote by the DFS and recorded
//! on a [`SimClock`].
//!
//! The store is internally synchronized: reads take `&self` and brief
//! shared locks, writes take `&self` and brief exclusive locks, so a
//! query-serving runtime can share one store across reader threads
//! while a background maintenance task writes new blocks. No lock is
//! held across an I/O-sized unit of work — each method locks, touches
//! one map entry, and releases — so readers never wait behind a whole
//! repartitioning pass, only behind individual map operations.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use adaptdb_common::{BlockId, Error, GlobalBlockId, Result, Row};
use adaptdb_dfs::{NodeId, ReadKind, SimClock, SimDfs};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::block::{Block, BlockMeta};
use crate::codec;
use crate::durable::{FileJournal, JournalRecord};

/// Block storage for all tables of one database instance.
#[derive(Debug)]
pub struct BlockStore {
    dfs: RwLock<SimDfs>,
    data: RwLock<HashMap<GlobalBlockId, Bytes>>,
    meta: RwLock<HashMap<String, BTreeMap<BlockId, BlockMeta>>>,
    next_id: Mutex<HashMap<String, BlockId>>,
    /// Reads that bypassed clock accounting (see
    /// [`BlockStore::read_block_unaccounted`]). Production read paths
    /// must keep this at zero; [`BlockStore::unaccounted_reads`] lets
    /// callers assert that in debug builds.
    unaccounted: AtomicUsize,
    /// Durable manifest journal, when the database runs with a real-file
    /// backend. While attached, every non-scratch block write, remove,
    /// and table drop is logged write-ahead of the catalog commit that
    /// references it; scratch namespaces (`__`-prefixed tables, e.g.
    /// shuffle spill) are transient by contract and never logged.
    journal: RwLock<Option<Arc<FileJournal>>>,
    /// Memoized `ADB2` column directories per live block
    /// ([`codec::ColDirectory`]): multi-column access paths re-reading
    /// a block skip header/directory re-validation. Entries are purged
    /// with their block; blocks are immutable and ids never reused, so
    /// a memo can never go stale while present.
    dirs: RwLock<HashMap<GlobalBlockId, Arc<codec::ColDirectory>>>,
}

impl BlockStore {
    /// Create a store over a fresh simulated cluster.
    pub fn new(nodes: usize, replication: usize, seed: u64) -> Self {
        BlockStore {
            dfs: RwLock::new(SimDfs::new(nodes, replication, seed)),
            data: RwLock::new(HashMap::new()),
            meta: RwLock::new(HashMap::new()),
            next_id: Mutex::new(HashMap::new()),
            unaccounted: AtomicUsize::new(0),
            journal: RwLock::new(None),
            dirs: RwLock::new(HashMap::new()),
        }
    }

    /// Attach (or detach) a durable manifest journal. See the `journal`
    /// field docs for what gets logged; recovery (`restore_block`)
    /// bypasses the journal so replay never re-logs history.
    pub fn set_journal(&self, journal: Option<Arc<FileJournal>>) {
        *self.journal.write() = journal;
    }

    /// The attached manifest journal, if any.
    pub fn journal(&self) -> Option<Arc<FileJournal>> {
        self.journal.read().clone()
    }

    /// Append a manifest record for a non-scratch table. A journal that
    /// cannot append can no longer uphold its durability contract, so
    /// failures are fatal rather than silently dropped.
    fn journal_record(&self, table: &str, make: impl FnOnce() -> JournalRecord) {
        if table.starts_with("__") {
            return;
        }
        if let Some(j) = self.journal.read().as_ref() {
            j.append(&make()).expect("manifest journal append failed");
        }
    }

    /// Shared access to the underlying simulated DFS (a read guard —
    /// hold it briefly).
    pub fn dfs(&self) -> RwLockReadGuard<'_, SimDfs> {
        self.dfs.read()
    }

    /// Exclusive DFS access — fault injection (node failure/recovery)
    /// for resilience testing.
    pub fn dfs_mut(&self) -> RwLockWriteGuard<'_, SimDfs> {
        self.dfs.write()
    }

    /// Allocate the next block id for a table.
    pub fn allocate_id(&self, table: &str) -> BlockId {
        let mut next_id = self.next_id.lock();
        // The name is copied into the map on the table's first id only.
        if !next_id.contains_key(table) {
            next_id.insert(table.to_string(), 0);
        }
        let next = next_id.get_mut(table).expect("inserted above");
        let id = *next;
        *next += 1;
        id
    }

    /// Write a new block of rows for `table`; `arity` is the schema width
    /// (for range metadata) and `writer` the node doing the write (None =
    /// bulk load, placed round-robin). Returns the id.
    pub fn write_block(
        &self,
        table: &str,
        rows: Vec<Row>,
        arity: usize,
        writer: Option<NodeId>,
    ) -> BlockId {
        self.write_block_with(table, rows, arity, writer, None)
    }

    /// [`BlockStore::write_block`] with an optional per-block replication
    /// override (`None` keeps the cluster default). The shuffle service
    /// spills per-reducer runs through this so transient runs can stay
    /// unreplicated while table data keeps the HDFS-style factor.
    pub fn write_block_with(
        &self,
        table: &str,
        rows: Vec<Row>,
        arity: usize,
        writer: Option<NodeId>,
        replication: Option<usize>,
    ) -> BlockId {
        self.write_encoded(table, arity, writer, replication, |id| {
            codec::encode_block_with_meta(&Block::new(id, rows), arity)
        })
        .0
    }

    /// Write one block made of the rows `chunks` pick out of other
    /// blocks' still-encoded columns ([`codec::encode_gathered`]) — the
    /// repartitioner's write, which never materializes a row. Stores exactly what
    /// [`BlockStore::write_block_with`] would for those rows. The cells
    /// come from columns parse found sound, so the block's directory is
    /// memoized as it is written and its first read skips the `Str`
    /// cell walk.
    pub fn write_gathered(
        &self,
        table: &str,
        chunks: &[(&[codec::RawColumn], &[u32])],
        arity: usize,
        writer: Option<NodeId>,
        replication: Option<usize>,
    ) -> BlockId {
        let (id, encoded) = self.write_encoded(table, arity, writer, replication, |id| {
            codec::encode_gathered(id, chunks, arity)
        });
        let dir = codec::encoded_directory(encoded);
        self.dirs.write().insert(GlobalBlockId::new(table, id), dir);
        id
    }

    /// Allocate an id, let `encode` produce the block's bytes and
    /// metadata for it, then place, store and journal the block.
    /// Returns the id and the stored bytes.
    fn write_encoded(
        &self,
        table: &str,
        arity: usize,
        writer: Option<NodeId>,
        replication: Option<usize>,
        encode: impl FnOnce(BlockId) -> (Bytes, BlockMeta),
    ) -> (BlockId, Bytes) {
        let id = self.allocate_id(table);
        let (encoded, meta) = encode(id);
        // The DFS is sized with the canonical row-semantic byte size
        // (Σ `Row::byte_size`, same figure as `meta.byte_size`), not
        // the encoded length. The DFS placements and the block bytes
        // are two maps, each keyed by its own copy of the id: the only
        // copies of the table name a write makes after the table's
        // first block.
        let gid = GlobalBlockId::new(table, id);
        let placement = {
            let mut dfs = self.dfs.write();
            match replication {
                Some(r) => dfs.write_block_with_replication(gid.clone(), meta.byte_size, writer, r),
                None => dfs.write_block(gid.clone(), meta.byte_size, writer),
            }
        };
        self.data.write().insert(gid, encoded.clone());
        self.insert_meta(table, meta);
        self.journal_record(table, || JournalRecord::WriteBlock {
            table: table.to_string(),
            id,
            arity,
            replicas: placement.replicas,
            encoded: encoded.clone(),
        });
        (id, encoded)
    }

    /// Record a block's metadata in its table's catalog map, copying
    /// the table name only for the table's first block.
    fn insert_meta(&self, table: &str, meta: BlockMeta) {
        let mut tables = self.meta.write();
        match tables.get_mut(table) {
            Some(blocks) => {
                blocks.insert(meta.id, meta);
            }
            None => {
                tables.insert(table.to_string(), BTreeMap::from([(meta.id, meta)]));
            }
        }
    }

    /// Re-insert one block from a durable journal's committed prefix:
    /// its encoded bytes, metadata re-derived by decoding them, and the
    /// exact replica placement it had. Reserves the id and never
    /// journals (recovery must not re-log history).
    pub fn restore_block(
        &self,
        table: &str,
        id: BlockId,
        arity: usize,
        replicas: Vec<NodeId>,
        encoded: Bytes,
    ) -> Result<()> {
        let block = codec::decode_block(encoded.clone()).map_err(|e| {
            // Name the block and the magic found: a journal an older
            // build wrote (say, `ADB1` blocks) is then told apart from
            // a corrupt one.
            let magic = encoded.get(..4).unwrap_or(&encoded[..]).escape_ascii();
            let cause = match e {
                Error::Codec(msg) => msg,
                other => other.to_string(),
            };
            Error::Codec(format!("journaled block {table}:{id} (magic b\"{magic}\"): {cause}"))
        })?;
        if block.id != id {
            return Err(Error::Codec(format!(
                "journaled block {table}:{id} decodes with id {}",
                block.id
            )));
        }
        let meta = block.compute_meta(arity);
        let gid = GlobalBlockId::new(table, id);
        self.dfs.write().restore_block(gid.clone(), meta.byte_size, replicas);
        self.data.write().insert(gid, encoded);
        self.insert_meta(table, meta);
        self.reserve_ids(table, id + 1);
        Ok(())
    }

    /// Raise a table's id allocator to at least `next`. Recovery
    /// reserves every id the journal's committed prefix ever allocated —
    /// including since-removed blocks — so fresh writes can never
    /// collide with replayed history.
    pub fn reserve_ids(&self, table: &str, next: BlockId) {
        let mut ids = self.next_id.lock();
        let slot = ids.entry(table.to_string()).or_insert(0);
        *slot = (*slot).max(next);
    }

    /// Read and decode a block, recording the access on `clock`.
    pub fn read_block(
        &self,
        table: &str,
        id: BlockId,
        reader: NodeId,
        clock: &SimClock,
    ) -> Result<Block> {
        self.read_block_classified(table, id, reader, clock).map(|(block, _)| block)
    }

    /// [`BlockStore::read_block`], also returning how the DFS classified
    /// the access — the shuffle service tags reducer fetches local vs
    /// remote with this without re-asking (and re-charging) the DFS.
    pub fn read_block_classified(
        &self,
        table: &str,
        id: BlockId,
        reader: NodeId,
        clock: &SimClock,
    ) -> Result<(Block, ReadKind)> {
        let gid = GlobalBlockId::new(table, id);
        let (bytes, kind) = self.fetch_bytes(&gid, reader, clock)?;
        self.parse_memoized(&gid, bytes)?.into_block().map(|block| (block, kind))
    }

    /// Classify one block access, charge it on `clock`, and return the
    /// encoded bytes plus how the DFS classified the read.
    fn fetch_bytes(
        &self,
        gid: &GlobalBlockId,
        reader: NodeId,
        clock: &SimClock,
    ) -> Result<(Bytes, ReadKind)> {
        let kind = self.dfs.read().read_from(gid, reader)?;
        clock.record_read(kind);
        let bytes = self.data.read().get(gid).cloned().ok_or(Error::UnknownBlock(gid.block))?;
        Ok((bytes, kind))
    }

    /// Parse encoded block bytes, reusing (and maintaining) the
    /// memoized column directory for `gid` so re-reads of a columnar
    /// block skip header/directory re-validation.
    pub(crate) fn parse_memoized(
        &self,
        gid: &GlobalBlockId,
        bytes: Bytes,
    ) -> Result<codec::LazyBlock> {
        let memo = self.dirs.read().get(gid).cloned();
        let (lazy, fresh) = codec::LazyBlock::parse_with_directory(bytes, memo.as_ref())?;
        if let Some(dir) = fresh {
            self.dirs.write().insert(gid.clone(), dir);
        }
        Ok(lazy)
    }

    /// [`BlockStore::read_block_classified`] without eager row
    /// materialization: the payload comes back as a validated
    /// [`codec::LazyBlock`] whose columns decode on demand. Accounting
    /// is identical to the eager read — one charged, classified block
    /// read.
    pub fn read_lazy_classified(
        &self,
        table: &str,
        id: BlockId,
        reader: NodeId,
        clock: &SimClock,
    ) -> Result<(codec::LazyBlock, ReadKind)> {
        let gid = GlobalBlockId::new(table, id);
        let (bytes, kind) = self.fetch_bytes(&gid, reader, clock)?;
        self.parse_memoized(&gid, bytes).map(|lazy| (lazy, kind))
    }

    /// Open a pipelined [`crate::FetchStream`] over one `table` of this
    /// store: push block requests, pull out-of-order completions, with
    /// up to `window` fetches in flight charged max-of-window latency
    /// on `clock` (`window = 1` is serial fetching). See
    /// [`crate::fetch`].
    pub fn fetch_stream<'a>(
        &'a self,
        table: &str,
        clock: &'a SimClock,
        window: usize,
    ) -> crate::fetch::FetchStream<'a> {
        crate::fetch::FetchStream::new(self, table, clock, window)
    }

    /// Raw encoded bytes of one block, if present (fetch-stream
    /// internal; classification and accounting happen in the caller).
    pub(crate) fn block_bytes(&self, gid: &GlobalBlockId) -> Option<Bytes> {
        self.data.read().get(gid).cloned()
    }

    /// Read without accounting — for tests only. Every production read
    /// path must charge a [`SimClock`] (query- or maintenance-kind);
    /// calls here are tallied so [`BlockStore::unaccounted_reads`] can
    /// expose accounting leaks in debug assertions.
    pub fn read_block_unaccounted(&self, table: &str, id: BlockId) -> Result<Block> {
        codec::decode_block(self.encoded_block_unaccounted(table, id)?)
    }

    /// A block's encoded bytes, without accounting — for tests that
    /// compare what two write paths stored. Tallied like
    /// [`BlockStore::read_block_unaccounted`].
    pub fn encoded_block_unaccounted(&self, table: &str, id: BlockId) -> Result<Bytes> {
        self.unaccounted.fetch_add(1, Ordering::Relaxed);
        let gid = GlobalBlockId::new(table, id);
        self.data.read().get(&gid).cloned().ok_or(Error::UnknownBlock(id))
    }

    /// How many reads bypassed clock accounting over the store's
    /// lifetime. Production paths assert this stays constant across a
    /// query or maintenance cycle (debug builds).
    pub fn unaccounted_reads(&self) -> usize {
        self.unaccounted.load(Ordering::Relaxed)
    }

    /// Metadata of one block (a copy — the catalog maps stay private so
    /// concurrent writers cannot invalidate borrows).
    pub fn block_meta(&self, table: &str, id: BlockId) -> Result<BlockMeta> {
        self.with_block_meta(table, id, |m| m.clone())
    }

    /// Apply `f` to one block's metadata under the catalog lock — one
    /// lock round-trip, no allocation. Hot per-block paths (the scan
    /// skip-check, the join planner's range fetch) use this instead of
    /// cloning the whole [`BlockMeta`].
    pub fn with_block_meta<R>(
        &self,
        table: &str,
        id: BlockId,
        f: impl FnOnce(&BlockMeta) -> R,
    ) -> Result<R> {
        self.meta.read().get(table).and_then(|m| m.get(&id)).map(f).ok_or(Error::UnknownBlock(id))
    }

    /// All block metadata for a table, ascending by id.
    pub fn table_metas(&self, table: &str) -> Vec<BlockMeta> {
        self.meta.read().get(table).map(|m| m.values().cloned().collect()).unwrap_or_default()
    }

    /// Ids of all live blocks of a table, ascending.
    pub fn block_ids(&self, table: &str) -> Vec<BlockId> {
        self.meta.read().get(table).map(|m| m.keys().copied().collect()).unwrap_or_default()
    }

    /// Number of live blocks in a table.
    pub fn block_count(&self, table: &str) -> usize {
        self.meta.read().get(table).map(|m| m.len()).unwrap_or(0)
    }

    /// Total rows across a table's live blocks (catalog-side count).
    pub fn row_count(&self, table: &str) -> usize {
        self.meta.read().get(table).map(|m| m.values().map(|b| b.row_count).sum()).unwrap_or(0)
    }

    /// Delete a block (repartitioning retires source blocks after their
    /// rows have been rewritten under the new tree).
    pub fn remove_block(&self, table: &str, id: BlockId) -> Result<()> {
        let gid = GlobalBlockId::new(table, id);
        self.dfs.write().remove_block(&gid)?;
        self.data.write().remove(&gid);
        if let Some(m) = self.meta.write().get_mut(table) {
            m.remove(&id);
        }
        self.dirs.write().remove(&gid);
        // Journaled only on success: a failed (already-gone) remove
        // leaves no record, so replay never double-frees.
        self.journal_record(table, || JournalRecord::RemoveBlock { table: table.to_string(), id });
        Ok(())
    }

    /// Drop a whole table: every block, its metadata, and its id
    /// allocator. Meant for transient namespaces (the shuffle service's
    /// per-query scratch tables) — dropping a served table out from
    /// under readers is not supported. Returns how many blocks were
    /// removed.
    pub fn drop_table(&self, table: &str) -> usize {
        let ids: Vec<BlockId> =
            self.meta.write().remove(table).map(|m| m.into_keys().collect()).unwrap_or_default();
        {
            let mut dfs = self.dfs.write();
            let mut data = self.data.write();
            for &id in &ids {
                let gid = GlobalBlockId::new(table, id);
                let _ = dfs.remove_block(&gid);
                data.remove(&gid);
            }
        }
        self.dirs.write().retain(|g, _| g.table != table);
        self.next_id.lock().remove(table);
        if !ids.is_empty() {
            // Only a drop that actually removed blocks is journaled —
            // dropping an absent table is a no-op here and on replay,
            // which keeps scratch-namespace cleanup idempotent across
            // crash-recovery cycles.
            self.journal_record(table, || JournalRecord::DropTable { table: table.to_string() });
        }
        ids.len()
    }

    /// The node a locality-aware scheduler would run this block's task on.
    pub fn preferred_node(&self, table: &str, id: BlockId) -> Result<NodeId> {
        self.dfs.read().preferred_node(&GlobalBlockId::new(table, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    fn store() -> BlockStore {
        BlockStore::new(4, 1, 3)
    }

    #[test]
    fn write_read_round_trip_with_accounting() {
        let s = store();
        let id = s.write_block("t", vec![row![1i64], row![2i64]], 1, None);
        let clock = SimClock::new();
        let reader = s.preferred_node("t", id).unwrap();
        let b = s.read_block("t", id, reader, &clock).unwrap();
        assert_eq!(b.len(), 2);
        let io = clock.snapshot();
        assert_eq!(io.local_reads, 1);
        assert_eq!(io.remote_reads, 0);
    }

    #[test]
    fn remote_read_is_classified() {
        let s = store();
        let id = s.write_block("t", vec![row![1i64]], 1, Some(0));
        let clock = SimClock::new();
        s.read_block("t", id, 2, &clock).unwrap();
        assert_eq!(clock.snapshot().remote_reads, 1);
    }

    #[test]
    fn classified_read_returns_kind_and_charges_once() {
        let s = BlockStore::new(4, 2, 3);
        let id = s.write_block_with("t", vec![row![1i64]], 1, Some(0), Some(1));
        let clock = SimClock::new();
        let (block, kind) = s.read_block_classified("t", id, 0, &clock).unwrap();
        assert_eq!(block.len(), 1);
        assert_eq!(kind, ReadKind::Local);
        let (_, kind) = s.read_block_classified("t", id, 3, &clock).unwrap();
        assert_eq!(kind, ReadKind::Remote);
        let io = clock.snapshot();
        assert_eq!((io.local_reads, io.remote_reads), (1, 1));
        // The replication override really produced a single replica.
        let dfs = s.dfs();
        let p = dfs.locate(&GlobalBlockId::new("t", id)).unwrap();
        assert_eq!(p.replicas, vec![0]);
    }

    #[test]
    fn ids_are_dense_per_table() {
        let s = store();
        assert_eq!(s.write_block("a", vec![], 1, None), 0);
        assert_eq!(s.write_block("a", vec![], 1, None), 1);
        assert_eq!(s.write_block("b", vec![], 1, None), 0);
        assert_eq!(s.block_ids("a"), vec![0, 1]);
        assert_eq!(s.block_count("b"), 1);
    }

    #[test]
    fn meta_tracks_ranges_and_counts() {
        let s = store();
        let id = s.write_block("t", vec![row![5i64], row![9i64]], 1, None);
        let m = s.block_meta("t", id).unwrap();
        assert_eq!(m.row_count, 2);
        assert_eq!(m.range(0).min(), Some(&adaptdb_common::Value::Int(5)));
        assert_eq!(s.row_count("t"), 2);
    }

    #[test]
    fn remove_block_clears_everywhere() {
        let s = store();
        let id = s.write_block("t", vec![row![1i64]], 1, None);
        s.remove_block("t", id).unwrap();
        assert_eq!(s.block_count("t"), 0);
        assert!(s.read_block_unaccounted("t", id).is_err());
        assert!(s.block_meta("t", id).is_err());
        // Id space is not reused.
        assert_eq!(s.write_block("t", vec![], 1, None), 1);
    }

    #[test]
    fn unknown_lookups_error() {
        let s = store();
        assert!(s.block_meta("nope", 0).is_err());
        assert!(s.read_block_unaccounted("nope", 0).is_err());
        assert!(s.table_metas("nope").is_empty());
    }

    #[test]
    fn unaccounted_reads_are_tallied() {
        let s = store();
        let id = s.write_block("t", vec![row![1i64]], 1, None);
        assert_eq!(s.unaccounted_reads(), 0);
        s.read_block_unaccounted("t", id).unwrap();
        s.read_block_unaccounted("t", id).unwrap();
        assert_eq!(s.unaccounted_reads(), 2);
        // Accounted reads leave the tally alone.
        let clock = SimClock::new();
        s.read_block("t", id, 0, &clock).unwrap();
        assert_eq!(s.unaccounted_reads(), 2);
    }

    /// A gathered block's directory is memoized as it is written, and
    /// equals the one a full parse of its bytes finds.
    #[test]
    fn gathered_writes_memoize_the_parsed_directory() {
        let s = store();
        let rows = vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5], row![3i64, "cc", 3.5]];
        let src = s.write_block("t", rows.clone(), 3, Some(0));
        let clock = SimClock::new();
        let (lazy, _) = s.read_lazy_classified("t", src, 0, &clock).unwrap();
        let cols = lazy.raw_columns().unwrap();
        let id = s.write_gathered("g", &[(&cols[..], &[2, 0][..])], 3, Some(0), None);
        let gid = GlobalBlockId::new("g", id);
        let memo = s.dirs.read().get(&gid).cloned().expect("written directory memoized");
        let (fresh, dir) =
            codec::LazyBlock::parse_with_directory(s.block_bytes(&gid).unwrap(), None).unwrap();
        assert_eq!(format!("{memo:?}"), format!("{:?}", dir.unwrap()));
        let (read, _) = s.read_lazy_classified("g", id, 0, &clock).unwrap();
        let want = vec![rows[2].clone(), rows[0].clone()];
        assert_eq!(read.into_block().unwrap().rows, want);
        assert_eq!(fresh.into_block().unwrap().rows, want);
    }

    /// Writes encode `ADB2`, and the same bytes restored through the
    /// journal path decode to the same rows, metadata and DFS sizing.
    #[test]
    fn restored_blocks_read_like_written_ones() {
        let rows = vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5]];
        let s_new = store();
        let s_old = store();
        let id = s_new.write_block("t", rows.clone(), 3, Some(0));
        let raw = s_new.block_bytes(&GlobalBlockId::new("t", id)).unwrap();
        assert_eq!(&raw[0..4], codec::BLOCK_MAGIC_V2);
        s_old.restore_block("t", id, 3, vec![0], raw).unwrap();
        // Decoded rows, metadata, and DFS sizing are identical.
        let clock = SimClock::new();
        let b_new = s_new.read_block("t", id, 0, &clock).unwrap();
        let b_old = s_old.read_block("t", id, 0, &clock).unwrap();
        assert_eq!(b_new, b_old);
        assert_eq!(s_new.block_meta("t", id).unwrap(), s_old.block_meta("t", id).unwrap());
        assert_eq!(s_new.dfs().logical_bytes(), s_old.dfs().logical_bytes());
        // Both read lazily with the same accounting.
        let (lazy_new, kind_new) = s_new.read_lazy_classified("t", id, 0, &clock).unwrap();
        let (lazy_old, kind_old) = s_old.read_lazy_classified("t", id, 0, &clock).unwrap();
        assert_eq!((kind_new, kind_old), (ReadKind::Local, ReadKind::Local));
        assert_eq!(lazy_new.column(1).unwrap(), lazy_old.column(1).unwrap());
        assert_eq!(clock.snapshot().local_reads, 4);
    }

    #[test]
    fn lazy_read_charges_and_classifies_like_eager() {
        let s = store();
        let id = s.write_block("t", vec![row![1i64, "x"], row![2i64, "y"]], 2, Some(0));
        let clock = SimClock::new();
        let (lazy, kind) = s.read_lazy_classified("t", id, 0, &clock).unwrap();
        assert_eq!(kind, ReadKind::Local);
        assert_eq!(lazy.row_count(), 2);
        assert_eq!(clock.snapshot().local_reads, 1);
        assert_eq!(lazy.into_block().unwrap().rows[0], row![1i64, "x"]);
    }

    #[test]
    fn journaled_store_recovers_bit_identically_and_skips_scratch() {
        let dir =
            std::env::temp_dir().join(format!("adaptdb-store-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (j, _) = FileJournal::open_with_recovery(&dir).unwrap();
        let s = store();
        s.set_journal(Some(Arc::new(j)));
        let id = s.write_block("t", vec![row![1i64], row![2i64]], 1, None);
        // Scratch namespaces are transient: never journaled.
        s.write_block("__shuffle/q/0", vec![row![9i64]], 1, None);
        assert_eq!(s.drop_table("__shuffle/q/0"), 1);
        // A block removed pre-commit must not resurface.
        let gone = s.write_block("t", vec![row![3i64]], 1, None);
        s.remove_block("t", gone).unwrap();
        let keep_meta = s.block_meta("t", id).unwrap();
        let keep_bytes = s.block_bytes(&GlobalBlockId::new("t", id)).unwrap();
        let replicas = s.dfs().locate(&GlobalBlockId::new("t", id)).unwrap().replicas.clone();
        let j = s.journal().unwrap();
        j.append(&crate::durable::JournalRecord::Commit { catalog: Bytes::new() }).unwrap();
        j.sync().unwrap();
        drop(j);
        drop(s);

        let (_, rec) = FileJournal::open_with_recovery(&dir).unwrap();
        assert_eq!(rec.blocks.len(), 1, "only the live non-scratch block survives");
        let s2 = store();
        for ((table, bid), rb) in &rec.blocks {
            s2.restore_block(table, *bid, rb.arity, rb.replicas.clone(), rb.encoded.clone())
                .unwrap();
        }
        for (t, n) in &rec.next_ids {
            s2.reserve_ids(t, *n);
        }
        assert_eq!(s2.block_meta("t", id).unwrap(), keep_meta);
        assert_eq!(s2.block_bytes(&GlobalBlockId::new("t", id)).unwrap(), keep_bytes);
        assert_eq!(
            s2.dfs().locate(&GlobalBlockId::new("t", id)).unwrap().replicas,
            replicas,
            "placement survives recovery"
        );
        // Removed block ids stay reserved: no collision with history.
        assert_eq!(s2.write_block("t", vec![], 1, None), gone + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_readers_during_writes_stay_consistent() {
        let s = std::sync::Arc::new(store());
        let seed: Vec<BlockId> =
            (0..8).map(|i| s.write_block("t", vec![row![i as i64]], 1, None)).collect();
        std::thread::scope(|scope| {
            // Writers keep adding blocks while readers hammer the seed set.
            for w in 0..2 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50i64 {
                        s.write_block("t", vec![row![w as i64 * 1000 + i]], 1, None);
                    }
                });
            }
            for _ in 0..4 {
                let s = s.clone();
                let seed = seed.clone();
                scope.spawn(move || {
                    let clock = SimClock::new();
                    for _ in 0..50 {
                        for &b in &seed {
                            let node = s.preferred_node("t", b).unwrap();
                            let block = s.read_block("t", b, node, &clock).unwrap();
                            assert_eq!(block.len(), 1);
                        }
                    }
                });
            }
        });
        assert_eq!(s.block_count("t"), 8 + 100);
    }
}
