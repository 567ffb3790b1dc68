//! The buffered partition writer over still-encoded blocks, shared by
//! the repartitioner and the shuffle map side.
//!
//! Both route the rows of blocks they have read into per-bucket
//! buffers (a partitioning-tree bucket, or a reducer partition) and
//! write a bucket's buffer as one block as soon as it holds
//! `rows_per_block` rows, leftovers last in bucket order — the flush
//! discipline of [`adaptdb_storage::PartitionedWriter`]. Here a buffer
//! holds slices of source row indices rather than rows, and a flush
//! copies the picked cells straight from the sources' encoded payloads
//! into the new block ([`BlockStore::write_gathered`]), so no row is
//! built.

use std::collections::BTreeMap;

use adaptdb_common::{BlockId, ValueRange};
use adaptdb_dfs::NodeId;
use adaptdb_storage::codec::RawColumn;
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::BlockStore;

/// Attach a stored block's zone maps (its `BlockMeta::ranges`) to its
/// framed columns, so a flush that takes all of its rows first copies
/// each column's payload whole ([`RawColumn::with_range`]) — the
/// repartitioner's absorbed tails.
pub(crate) fn with_ranges(cols: Vec<RawColumn>, ranges: Vec<ValueRange>) -> Vec<RawColumn> {
    let mut ranges = ranges.into_iter();
    cols.into_iter()
        .map(|c| match ranges.next() {
            Some(r) => c.with_range(r),
            None => c,
        })
        .collect()
}

/// Rows `.1` of a block's framed columns `.0`.
type Chunk<'s> = (&'s [RawColumn], &'s [u32]);

/// The buffered partition writer over framed blocks: a bucket's
/// buffer holds slices of source row indices rather than rows, and a
/// flush gathers them into one block.
pub(crate) struct GatherWriter<'s> {
    store: &'s BlockStore,
    table: &'s str,
    arity: usize,
    rows_per_block: usize,
    /// The node subsequent flushes are written from.
    pub(crate) node: Option<NodeId>,
    /// Per-block replication override (`None` = cluster default).
    replication: Option<usize>,
    /// Per bucket: rows held, and the source slices holding them.
    buffers: BTreeMap<BucketId, (usize, Vec<Chunk<'s>>)>,
    written: BTreeMap<BucketId, Vec<BlockId>>,
}

impl<'s> GatherWriter<'s> {
    /// A writer for `table` flushing every `rows_per_block` rows, from
    /// `node` until that is changed.
    pub(crate) fn new(
        store: &'s BlockStore,
        table: &'s str,
        arity: usize,
        rows_per_block: usize,
        node: Option<NodeId>,
    ) -> Self {
        assert!(rows_per_block > 0, "rows_per_block must be positive");
        GatherWriter {
            store,
            table,
            arity,
            rows_per_block,
            node,
            replication: None,
            buffers: BTreeMap::new(),
            written: BTreeMap::new(),
        }
    }

    /// Override the replication factor of every block this writer
    /// flushes (builder style; `None` = cluster default).
    pub(crate) fn with_replication(mut self, replication: Option<usize>) -> Self {
        self.replication = replication;
        self
    }

    /// Append `picked` rows of the framed block `source` to `bucket`,
    /// writing a block each time the bucket's buffer reaches the budget.
    pub(crate) fn push(
        &mut self,
        bucket: BucketId,
        source: &'s [RawColumn],
        mut picked: &'s [u32],
    ) {
        while !picked.is_empty() {
            let (held, chunks) = self.buffers.entry(bucket).or_default();
            let take = picked.len().min(self.rows_per_block - *held);
            chunks.push((source, &picked[..take]));
            *held += take;
            picked = &picked[take..];
            if *held == self.rows_per_block {
                let chunks = std::mem::take(chunks);
                *held = 0;
                self.flush(bucket, &chunks);
            }
        }
    }

    fn flush(&mut self, bucket: BucketId, chunks: &[Chunk<'_>]) {
        let id =
            self.store.write_gathered(self.table, chunks, self.arity, self.node, self.replication);
        self.written.entry(bucket).or_default().push(id);
    }

    /// Write every partial buffer, in bucket order, and return the
    /// bucket → blocks map.
    pub(crate) fn finish(mut self) -> BTreeMap<BucketId, Vec<BlockId>> {
        for (bucket, (_, chunks)) in std::mem::take(&mut self.buffers) {
            if !chunks.is_empty() {
                self.flush(bucket, &chunks);
            }
        }
        self.written
    }
}
