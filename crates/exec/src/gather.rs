//! The buffered partition writer over still-encoded blocks, shared by
//! the repartitioner and the shuffle map side.
//!
//! Both route the rows of blocks they have read into per-bucket
//! buffers (a partitioning-tree bucket, or a reducer partition) and
//! write a bucket's buffer as one block as soon as it holds
//! `rows_per_block` rows, leftovers last in bucket order — the flush
//! discipline of [`adaptdb_storage::PartitionedWriter`]. Here a buffer
//! holds chunks of source row indices rather than rows — consecutive
//! pushes that continue one source's index run share a chunk — and a
//! flush copies the picked cells straight from the sources' encoded
//! payloads into the new block ([`BlockStore::write_gathered`]), so no
//! row is built.

use std::collections::BTreeMap;
use std::ops::Range;

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

/// One bucket's buffer: the rows it holds, as chunks in push order.
#[derive(Default)]
struct Buffer<'s> {
    held: usize,
    chunks: Vec<Chunk<'s>>,
    /// The index run the last chunk was cut from, and where in it that
    /// chunk starts.
    tail: Option<(&'s [u32], usize)>,
}

/// The buffered partition writer over framed blocks: a bucket's
/// buffer holds chunks of source row indices rather than rows, and a
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
    /// Per bucket: rows held, and the chunks holding them.
    buffers: BTreeMap<BucketId, Buffer<'s>>,
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

    /// Append rows `order[range]` of the framed block `source` to
    /// `bucket`, writing a block each time the bucket's buffer reaches
    /// the budget. Rows that continue the bucket's last chunk — the same
    /// source and `order`, starting where it ends — extend that chunk,
    /// so a flush gathers such a stretch in one piece.
    pub(crate) fn push(
        &mut self,
        bucket: BucketId,
        source: &'s [RawColumn],
        order: &'s [u32],
        mut range: Range<usize>,
    ) {
        while !range.is_empty() {
            let buf = self.buffers.entry(bucket).or_default();
            let end = range.start + range.len().min(self.rows_per_block - buf.held);
            match (buf.chunks.last_mut(), buf.tail) {
                (Some((src, picked)), Some((run, start)))
                    if std::ptr::eq(*src, source)
                        && std::ptr::eq(run, order)
                        && start + picked.len() == range.start =>
                {
                    *picked = &order[start..end];
                }
                _ => {
                    buf.chunks.push((source, &order[range.start..end]));
                    buf.tail = Some((order, range.start));
                }
            }
            buf.held += end - range.start;
            range.start = end;
            if buf.held == self.rows_per_block {
                let full = std::mem::take(buf);
                self.flush(bucket, &full.chunks);
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
        for (bucket, buf) in std::mem::take(&mut self.buffers) {
            if !buf.chunks.is_empty() {
                self.flush(bucket, &buf.chunks);
            }
        }
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, Row};
    use adaptdb_storage::codec::LazyBlock;

    /// Rows pushed to two buckets one at a time, alternating, as the
    /// shuffle map side pushes them: each bucket's stretches of one
    /// source join into one chunk, and the blocks hold the picked rows
    /// in push order.
    #[test]
    fn interleaved_pushes_join_into_one_chunk_per_source() {
        let store = BlockStore::new(1, 1, 1);
        let rows: Vec<Row> = (0..10i64).map(|i| row![i, format!("s{i}")]).collect();
        let id = store.write_block("src", rows.clone(), 2, None);
        let encoded = store.encoded_block_unaccounted("src", id).unwrap();
        let cols = LazyBlock::parse(encoded).unwrap().raw_columns().unwrap();
        // Even rows go to bucket 0 and odd rows to bucket 1, grouped
        // by bucket.
        let order: Vec<u32> = vec![0, 2, 4, 6, 8, 1, 3, 5, 7, 9];
        let mut writer = GatherWriter::new(&store, "dst", 2, 4, None);
        for i in 0..5 {
            writer.push(0, &cols, &order, i..i + 1);
            writer.push(1, &cols, &order, 5 + i..6 + i);
            if i == 2 {
                for (bucket, run) in [(0, &order[0..3]), (1, &order[5..8])] {
                    let chunks = &writer.buffers[&bucket].chunks;
                    assert_eq!(chunks.len(), 1, "bucket {bucket}");
                    assert_eq!(chunks[0].1, run, "bucket {bucket}");
                }
            }
        }
        let written = writer.finish();
        let read = |b: BlockId| store.read_block_unaccounted("dst", b).unwrap().rows;
        let bucket = |k: usize| -> Vec<Vec<Row>> {
            written[&(k as BucketId)].iter().map(|&b| read(b)).collect()
        };
        let pick = |ix: &[usize]| ix.iter().map(|&i| rows[i].clone()).collect::<Vec<_>>();
        assert_eq!(bucket(0), vec![pick(&[0, 2, 4, 6]), pick(&[8])]);
        assert_eq!(bucket(1), vec![pick(&[1, 3, 5, 7]), pick(&[9])]);
    }
}
