//! Type-1 block processing: scan + filter.
//!
//! Every scan reads through `fetch_ordered`: the whole manifest streams
//! through one [`adaptdb_storage::FetchStream`] of the context's
//! `fetch_window`, each block is selected and gathered as it completes,
//! and the outputs are reassembled back into manifest order. A window of `w`
//! keeps up to `w` reads in flight, charged max-of-window; a window of
//! 1 is a one-deep stream that reads one block at a time, exactly as a
//! serial reader does. The window changes simulated latency, never row
//! order, counts, or results.
//!
//! Every filtered block read — scans here, the hyper-join build and
//! probe legs, the step-join build, and the shuffle map side — is
//! **late-materialising**: predicates evaluate on the block's still
//! encoded predicate columns into a selection [`BitSet`]
//! (`select_block`; fixed-width cells read in place, `Str` cells
//! compared as bytes, no value built), then only the selected rows are
//! gathered — or, on a join's build side, only the selected rows a
//! probe row matches, and on the shuffle map side, the cells are
//! copied into the spilled runs without ever becoming rows. A block's
//! rows are gathered in one call. Pruning composes in a fixed order:
//! partition tree (upstream `lookup`) → zone maps
//! (block min/max metadata, counted on `IoStats::zone_skipped`, no I/O
//! charged) → selection bitset within each surviving block.

use adaptdb_common::{BitSet, BlockId, PredicateSet, Result, Row};
use adaptdb_dfs::NodeId;
use adaptdb_storage::LazyBlock;

use crate::context::ExecContext;

/// Read the given blocks of `table`, filter rows by `preds`, and return
/// the survivors. Block-level skipping has already happened upstream via
/// `lookup(T, q)` — this operator additionally skips blocks whose range
/// metadata contradicts the predicates (belt and braces; the paper's
/// trees can be stale mid-migration).
pub fn scan_blocks(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    preds: &PredicateSet,
) -> Result<Vec<Row>> {
    let (ctx, span) = ctx.traced("scan");
    let before = span.as_ref().map(|_| ctx.clock.snapshot());
    let out = scan_inner(ctx, table, blocks, preds)?;
    if let (Some(span), Some(before)) = (span, before) {
        let after = ctx.clock.snapshot();
        span.attr_s("table", table);
        span.attr_i("blocks_listed", blocks.len() as i64);
        span.attr_i("blocks_read", (after.reads() - before.reads()) as i64);
        span.attr_i("local_reads", (after.local_reads - before.local_reads) as i64);
        span.attr_i("remote_reads", (after.remote_reads - before.remote_reads) as i64);
        span.attr_i("rows_scanned", (after.rows_scanned - before.rows_scanned) as i64);
        span.attr_i("rows_out", (after.rows_out - before.rows_out) as i64);
        span.attr_i("zone_skipped", (after.zone_skipped - before.zone_skipped) as i64);
    }
    Ok(out)
}

/// Scan body shared by the traced wrapper above: zone skip, then one
/// fetch stream over the surviving blocks, each selected and gathered
/// as it arrives.
fn scan_inner(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    preds: &PredicateSet,
) -> Result<Vec<Row>> {
    // Zone-map skip first: per-column min/max metadata excludes whole
    // blocks before any read is issued (no I/O charged, only the
    // `zone_skipped` tally).
    let mut to_read = Vec::with_capacity(blocks.len());
    for &b in blocks {
        if ctx.store.with_block_meta(table, b, |m| preds.may_match(&m.ranges))? {
            to_read.push(b);
        }
    }
    let skipped = blocks.len() - to_read.len();
    if skipped > 0 {
        ctx.clock.record_zone_skips(skipped);
    }
    // Reads issue at each block's preferred node.
    let gathered = fetch_ordered(ctx, table, &to_read, None, |lazy| {
        let sel = select_block(ctx, &lazy, preds)?;
        lazy.gather_range(0, lazy.row_count(), &sel)
    })?;
    let mut out = Vec::with_capacity(gathered.iter().map(Vec::len).sum());
    for rows in gathered {
        out.extend(rows);
    }
    Ok(out)
}

/// The ordered-fetch helper every pipelined read leg shares: push
/// `blocks` of `table` into one [`adaptdb_storage::FetchStream`] of
/// the context's window, read from `reader` (`None` = each block's
/// preferred node), apply `f` to each payload as it completes, and
/// return the results in `blocks` order — completions may arrive out
/// of order (locals first within a window), outputs never do.
pub(crate) fn fetch_ordered<T>(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    reader: Option<NodeId>,
    mut f: impl FnMut(LazyBlock) -> Result<T>,
) -> Result<Vec<T>> {
    let mut stream = ctx.store.fetch_stream(table, ctx.clock, ctx.fetch_window);
    stream.set_trace(ctx.trace);
    for (i, &b) in blocks.iter().enumerate() {
        stream.push(b, reader, i as u64);
    }
    let mut slots: Vec<Option<T>> = blocks.iter().map(|_| None).collect();
    while let Some(completion) = stream.next_completion() {
        let c = completion?;
        slots[c.tag as usize] = Some(f(c.payload)?);
    }
    Ok(slots.into_iter().map(|s| s.expect("every pushed fetch completes")).collect())
}

/// Stage A of late materialisation: narrow one selection bitset by
/// each of `preds` in turn, on the predicate columns' encoded cells
/// ([`LazyBlock::filter_into`]; nothing decodes), stopping once no row
/// survives, and charge the block's scanned and selected rows. Rows
/// never materialize here.
pub(crate) fn select_block(
    ctx: ExecContext<'_>,
    lazy: &LazyBlock,
    preds: &PredicateSet,
) -> Result<BitSet> {
    let n = lazy.row_count();
    let mut sel = BitSet::all_set(n);
    for p in preds.predicates() {
        if sel.count_ones() == 0 {
            break;
        }
        lazy.filter_into(p.attr as usize, p.op, &p.value, &mut sel)?;
    }
    ctx.clock.record_rows(n, sel.count_ones());
    Ok(sel)
}

/// The filtered read of one block outside a fetch stream: read block
/// `id` of `table` from `reader` (charged and classified like every
/// read) and select it, leaving it encoded. The hyper-join and
/// step-join builds read through this and gather only the selected
/// rows a probe row matches.
pub(crate) fn read_select(
    ctx: ExecContext<'_>,
    table: &str,
    id: BlockId,
    reader: NodeId,
    preds: &PredicateSet,
) -> Result<(LazyBlock, BitSet)> {
    let (lazy, _) = ctx.store.read_lazy_classified(table, id, reader, ctx.clock)?;
    let sel = select_block(ctx, &lazy, preds)?;
    Ok((lazy, sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate};
    use adaptdb_dfs::SimClock;
    use adaptdb_storage::BlockStore;

    /// Three blocks of ten one-column rows: 0..10, 100..110, 200..210.
    fn corpus() -> Vec<Vec<Row>> {
        [0i64, 100, 200].iter().map(|&base| (base..base + 10).map(|i| row![i]).collect()).collect()
    }

    fn setup() -> (BlockStore, Vec<BlockId>) {
        let store = BlockStore::new(4, 1, 1);
        let ids = corpus().into_iter().map(|rows| store.write_block("t", rows, 1, None)).collect();
        (store, ids)
    }

    /// The naive reference: every loaded row that passes `preds`, in
    /// load order — no blocks, no zone maps, no streams.
    fn reference(preds: &PredicateSet) -> Vec<Row> {
        corpus().concat().into_iter().filter(|r| preds.matches(r)).collect()
    }

    #[test]
    fn full_scan_returns_everything() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let rows = scan_blocks(ExecContext::new(&store, &clock), "t", &ids, &PredicateSet::none())
            .unwrap();
        assert_eq!(rows.len(), 30);
        assert_eq!(clock.snapshot().reads(), 3);
    }

    #[test]
    fn metadata_skipping_avoids_io() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
        let rows = scan_blocks(ExecContext::new(&store, &clock), "t", &ids, &preds).unwrap();
        assert_eq!(rows.len(), 10);
        // Only the third block matches [200, 210): exactly 1 read.
        assert_eq!(clock.snapshot().reads(), 1);
    }

    #[test]
    fn row_filtering_within_blocks() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, 5i64))
            .and(Predicate::new(0, CmpOp::Lt, 103i64));
        let rows = scan_blocks(ExecContext::new(&store, &clock), "t", &ids, &preds).unwrap();
        assert_eq!(rows.len(), 5 + 3);
        let io = clock.snapshot();
        assert_eq!(io.reads(), 2);
        assert_eq!(io.rows_scanned, 20);
        assert_eq!(io.rows_out, 8);
    }

    /// Parallelism comes from queries running side by side: scans on
    /// their own threads over one store, released together, each on its
    /// own clock, return the sequential scan's rows in order and its
    /// counts.
    #[test]
    fn parallel_scan_matches_sequential() {
        let (store, ids) = setup();
        let scan = || {
            let clock = SimClock::new();
            let ctx = ExecContext::new(&store, &clock).with_fetch_window(4);
            let rows = scan_blocks(ctx, "t", &ids, &PredicateSet::none()).unwrap();
            (rows, clock.snapshot())
        };
        let want = scan();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let side_by_side: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        scan()
                    })
                })
                .collect();
            for h in side_by_side {
                assert_eq!(h.join().unwrap(), want);
            }
        });
    }

    #[test]
    fn pipelined_scan_is_row_and_count_identical_to_serial() {
        let (store, ids) = setup();
        let c_serial = SimClock::new();
        let serial =
            scan_blocks(ExecContext::new(&store, &c_serial), "t", &ids, &PredicateSet::none())
                .unwrap();
        let c_piped = SimClock::new();
        let piped = scan_blocks(
            ExecContext::new(&store, &c_piped).with_fetch_window(4),
            "t",
            &ids,
            &PredicateSet::none(),
        )
        .unwrap();
        // Same rows in the same (manifest) order, same I/O counts —
        // pipelining only overlaps latency.
        assert_eq!(serial, piped);
        assert_eq!(c_serial.snapshot(), c_piped.snapshot());
        assert_eq!(c_serial.overlap_snapshot().hidden(), 0);
        let ov = c_piped.overlap_snapshot();
        assert_eq!(ov.fetches, 3);
        assert_eq!(ov.hidden_local, 2, "3 local reads in one window: 2 hidden");
        // And the saved latency shows up as strictly lower pipelined time.
        let params = adaptdb_common::CostParams::default();
        assert!(ov.saved_secs(&params) > 0.0);
    }

    #[test]
    fn pipelined_scan_respects_metadata_skipping() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
        let rows =
            scan_blocks(ExecContext::new(&store, &clock).with_fetch_window(8), "t", &ids, &preds)
                .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(clock.snapshot().reads(), 1, "skipped blocks are never prefetched");
    }

    /// Config sweep: the scan must return the reference's rows in
    /// order, with the same counts at every fetch window.
    #[test]
    fn scan_matches_reference_filter_across_configs() {
        let (store, ids) = setup();
        let preds = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, 3i64))
            .and(Predicate::new(0, CmpOp::Lt, 206i64));
        let expect = reference(&preds);
        assert_eq!(expect.len(), 7 + 10 + 6);
        for window in [1, 4] {
            let clock = SimClock::new();
            let ctx = ExecContext::new(&store, &clock).with_fetch_window(window);
            let got = scan_blocks(ctx, "t", &ids, &preds).unwrap();
            assert_eq!(got, expect, "w={window}");
            let io = clock.take();
            assert_eq!(io.reads(), 3, "w={window}");
            assert_eq!(io.zone_skipped, 0, "w={window}");
            assert_eq!(io.rows_scanned, 30, "w={window}");
            assert_eq!(io.rows_out, expect.len(), "w={window}");
        }
    }

    /// Zone-map skips are tallied without charging any I/O or
    /// simulated time for the skipped blocks.
    #[test]
    fn zone_map_skips_are_counted_not_charged() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
        let rows = scan_blocks(ExecContext::new(&store, &clock), "t", &ids, &preds).unwrap();
        assert_eq!(rows, reference(&preds));
        let io = clock.take();
        assert_eq!(io.zone_skipped, 2);
        assert_eq!(io.reads(), 1);
    }

    #[test]
    fn missing_block_is_an_error() {
        let (store, _) = setup();
        let clock = SimClock::new();
        assert!(scan_blocks(ExecContext::new(&store, &clock), "t", &[99], &PredicateSet::none())
            .is_err());
    }
}
