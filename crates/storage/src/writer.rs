//! Buffered, partition-routed block writing.
//!
//! Both the upfront partitioner and the repartitioning iterator (§6) route
//! each record to a partition (a leaf *bucket* of a partitioning tree) and
//! flush buffers as blocks once they reach the block-size budget. A bucket
//! can end up with several physical blocks when data is skewed; the tree
//! maps buckets to block lists.
//!
//! Every flush records per-column min/max **zone maps** in the block's
//! [`crate::BlockMeta`] — the paper's per-block `Range_t` metadata,
//! which the scan path uses to skip whole blocks before any decode.
//! [`BlockStore::write_block_with`] builds them in the same walk over
//! each column that encodes it ([`crate::codec::encode_block_with_meta`]).
//! Block boundaries are decided by *row count* against the
//! canonical row-semantic byte size, never by encoded length, so
//! block boundaries, ids, and metadata do not depend on the wire
//! format (`ADB2`, or `ADB1` restored from an older journal).
//!
//! This writer buffers rows. The repartitioner keeps the same flush
//! discipline over column slices instead (`exec::repartition`), so
//! migrating blocks never turns cells back into rows.

use std::collections::BTreeMap;

use adaptdb_common::{BlockId, Row};
use adaptdb_dfs::NodeId;

use crate::store::BlockStore;

/// Identifier of a partitioning-tree leaf bucket.
pub type BucketId = u32;

/// Routes rows into per-bucket buffers and flushes full buffers as blocks.
#[derive(Debug)]
pub struct PartitionedWriter<'a> {
    store: &'a BlockStore,
    table: String,
    arity: usize,
    /// Rows per block before a flush — the block-size budget `B` expressed
    /// in rows (all rows of a table are near-identical size).
    rows_per_block: usize,
    writer_node: Option<NodeId>,
    /// Per-block replication override (`None` = cluster default).
    /// Shuffle spill runs are written unreplicated.
    replication: Option<usize>,
    buffers: BTreeMap<BucketId, Vec<Row>>,
    written: BTreeMap<BucketId, Vec<BlockId>>,
    rows_written: usize,
}

impl<'a> PartitionedWriter<'a> {
    /// Create a writer for `table` flushing every `rows_per_block` rows.
    pub fn new(
        store: &'a BlockStore,
        table: impl Into<String>,
        arity: usize,
        rows_per_block: usize,
        writer_node: Option<NodeId>,
    ) -> Self {
        assert!(rows_per_block > 0, "rows_per_block must be positive");
        PartitionedWriter {
            store,
            table: table.into(),
            arity,
            rows_per_block,
            writer_node,
            replication: None,
            buffers: BTreeMap::new(),
            written: BTreeMap::new(),
            rows_written: 0,
        }
    }

    /// Override the replication factor of every block this writer
    /// flushes (builder style; `None` = cluster default).
    pub fn with_replication(mut self, replication: Option<usize>) -> Self {
        self.replication = replication;
        self
    }

    /// Change which node subsequent flushes are attributed to. The
    /// repartitioning path switches this as it processes each map
    /// task's blocks, so spilled blocks land on the node that produced
    /// them (HDFS appenders write locally) instead of round-robin.
    pub fn set_writer_node(&mut self, node: Option<NodeId>) {
        self.writer_node = node;
    }

    /// Route one row to `bucket`, flushing that bucket's buffer if full.
    pub fn push(&mut self, bucket: BucketId, row: Row) {
        let buf = self.buffers.entry(bucket).or_default();
        buf.push(row);
        if buf.len() >= self.rows_per_block {
            let rows = std::mem::take(buf);
            self.flush_rows(bucket, rows);
        }
    }

    /// Total rows pushed so far (buffered + flushed).
    pub fn rows_seen(&self) -> usize {
        self.rows_written + self.buffers.values().map(Vec::len).sum::<usize>()
    }

    /// Number of blocks flushed so far.
    pub fn blocks_flushed(&self) -> usize {
        self.written.values().map(Vec::len).sum()
    }

    fn flush_rows(&mut self, bucket: BucketId, rows: Vec<Row>) {
        if rows.is_empty() {
            return;
        }
        self.rows_written += rows.len();
        let id = self.store.write_block_with(
            &self.table,
            rows,
            self.arity,
            self.writer_node,
            self.replication,
        );
        self.written.entry(bucket).or_default().push(id);
    }

    /// Flush all remaining buffers and return the bucket → blocks map.
    pub fn finish(mut self) -> BTreeMap<BucketId, Vec<BlockId>> {
        let pending: Vec<(BucketId, Vec<Row>)> =
            std::mem::take(&mut self.buffers).into_iter().collect();
        for (bucket, rows) in pending {
            self.flush_rows(bucket, rows);
        }
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    #[test]
    fn rows_split_into_blocks_of_budget() {
        let store = BlockStore::new(2, 1, 1);
        let mut w = PartitionedWriter::new(&store, "t", 1, 3, None);
        for i in 0..10i64 {
            w.push(0, row![i]);
        }
        let map = w.finish();
        let blocks = &map[&0];
        assert_eq!(blocks.len(), 4); // 3+3+3+1
        let sizes: Vec<usize> =
            blocks.iter().map(|b| store.read_block_unaccounted("t", *b).unwrap().len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn buckets_are_kept_separate() {
        let store = BlockStore::new(2, 1, 1);
        let mut w = PartitionedWriter::new(&store, "t", 1, 100, None);
        w.push(1, row![10i64]);
        w.push(2, row![20i64]);
        w.push(1, row![11i64]);
        let map = w.finish();
        assert_eq!(map.len(), 2);
        let b1 = store.read_block_unaccounted("t", map[&1][0]).unwrap();
        assert_eq!(b1.len(), 2);
        let b2 = store.read_block_unaccounted("t", map[&2][0]).unwrap();
        assert_eq!(b2.len(), 1);
    }

    #[test]
    fn counts_track_progress() {
        let store = BlockStore::new(2, 1, 1);
        let mut w = PartitionedWriter::new(&store, "t", 1, 2, None);
        w.push(0, row![1i64]);
        assert_eq!(w.rows_seen(), 1);
        assert_eq!(w.blocks_flushed(), 0);
        w.push(0, row![2i64]);
        assert_eq!(w.blocks_flushed(), 1);
        assert_eq!(w.rows_seen(), 2);
    }

    #[test]
    fn empty_finish_writes_nothing() {
        let store = BlockStore::new(2, 1, 1);
        let w = PartitionedWriter::new(&store, "t", 1, 2, None);
        assert!(w.finish().is_empty());
        assert_eq!(store.block_count("t"), 0);
    }

    #[test]
    fn writer_node_and_replication_flow_to_placement() {
        let store = BlockStore::new(4, 3, 1);
        let mut w = PartitionedWriter::new(&store, "t", 1, 2, Some(1)).with_replication(Some(1));
        w.push(0, row![1i64]);
        w.push(0, row![2i64]);
        w.set_writer_node(Some(3));
        w.push(0, row![3i64]);
        let map = w.finish();
        let blocks = &map[&0];
        assert_eq!(blocks.len(), 2);
        let dfs = store.dfs();
        let p0 = dfs.locate(&adaptdb_common::GlobalBlockId::new("t", blocks[0])).unwrap();
        let p1 = dfs.locate(&adaptdb_common::GlobalBlockId::new("t", blocks[1])).unwrap();
        // Unreplicated, primary on the writer node active at flush time.
        assert_eq!(p0.replicas, vec![1]);
        assert_eq!(p1.replicas, vec![3]);
    }

    #[test]
    #[should_panic(expected = "rows_per_block must be positive")]
    fn zero_budget_panics() {
        let store = BlockStore::new(2, 1, 1);
        let _ = PartitionedWriter::new(&store, "t", 1, 0, None);
    }
}
