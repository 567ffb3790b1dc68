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
//! built. A row-format (`ADB1`) source has no columns to copy; a block
//! it feeds is written from rows.

use std::collections::BTreeMap;

use adaptdb_common::{BlockId, Result, Row, ValueRange};
use adaptdb_dfs::NodeId;
use adaptdb_storage::codec::RawColumn;
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::{BlockStore, LazyBlock};

/// A block framed for gathering.
pub(crate) enum Source {
    /// Its columns, still encoded — every `ADB2` block.
    Columns(Vec<RawColumn>),
    /// Its decoded rows — a row-format (`ADB1`) block restored from an
    /// older journal.
    Rows(Vec<Row>),
}

impl Source {
    pub(crate) fn frame(lazy: LazyBlock) -> Result<Source> {
        match lazy.raw_columns()? {
            Some(cols) => Ok(Source::Columns(cols)),
            None => Ok(Source::Rows(lazy.into_block()?.rows)),
        }
    }

    /// Frame a stored block together with its zone maps (its
    /// `BlockMeta::ranges`), so a flush that takes all of its rows
    /// first copies each column's payload whole
    /// ([`RawColumn::with_range`]) — the repartitioner's absorbed tails.
    pub(crate) fn frame_stored(lazy: LazyBlock, ranges: Vec<ValueRange>) -> Result<Source> {
        Ok(match Source::frame(lazy)? {
            Source::Columns(cols) => {
                let mut ranges = ranges.into_iter();
                Source::Columns(
                    cols.into_iter()
                        .map(|c| match ranges.next() {
                            Some(r) => c.with_range(r),
                            None => c,
                        })
                        .collect(),
                )
            }
            rows => rows,
        })
    }

    /// Row `i` materialized.
    fn row(&self, i: u32) -> Row {
        let i = i as usize;
        match self {
            Source::Columns(cols) => Row::new(cols.iter().map(|c| c.value(i)).collect()),
            Source::Rows(rows) => rows[i].clone(),
        }
    }

    /// Number of columns of row `i`.
    pub(crate) fn arity(&self, i: u32) -> usize {
        match self {
            Source::Columns(cols) => cols.len(),
            Source::Rows(rows) => rows[i as usize].arity(),
        }
    }

    /// [`adaptdb_common::Value::stable_hash`] of column `attr` of row
    /// `i`, hashed from the encoded cell when there is one.
    pub(crate) fn stable_hash(&self, attr: usize, i: u32) -> u64 {
        match self {
            Source::Columns(cols) => cols[attr].stable_hash(i as usize),
            Source::Rows(rows) => rows[i as usize].values()[attr].stable_hash(),
        }
    }
}

/// Rows `.1` of source `.0`.
type Chunk<'s> = (&'s Source, &'s [u32]);

/// The buffered partition writer over framed sources: a bucket's
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

    /// Append `picked` rows of `source` to `bucket`, writing a block
    /// each time the bucket's buffer reaches the budget.
    pub(crate) fn push(&mut self, bucket: BucketId, source: &'s Source, mut picked: &'s [u32]) {
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
        let columns: Option<Vec<(&[RawColumn], &[u32])>> = chunks
            .iter()
            .map(|(source, picked)| match source {
                Source::Columns(cols) => Some((&cols[..], *picked)),
                Source::Rows(_) => None,
            })
            .collect();
        let (store, table, arity, node) = (self.store, self.table, self.arity, self.node);
        let id = match columns {
            Some(cols) if cols.iter().all(|(c, _)| c.len() == cols[0].0.len()) => {
                store.write_gathered(table, &cols, arity, node, self.replication)
            }
            _ => {
                let rows = chunks.iter().flat_map(|(s, p)| p.iter().map(|&i| s.row(i))).collect();
                store.write_block_with(table, rows, arity, node, self.replication)
            }
        };
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
