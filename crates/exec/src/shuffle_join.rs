//! Shuffle join — the baseline AdaptDB avoids (§4.2 Eq. 1).
//!
//! Two phases over the [`crate::shuffle_service::ShuffleService`]: map
//! tasks read every relevant block on their node and hash-partition
//! each record into per-reducer runs *spilled to the DFS* (primary
//! replica on the mapper's node); reducers then fetch their runs —
//! local when a replica lives on the reducer's node, remote otherwise —
//! and hash-join them. Every input block is therefore paid roughly
//! `C_SJ = 3` block-I/Os (read + shuffle write + fetch-back), with the
//! fetch leg split local/remote by real placement instead of being
//! charged flat-local as the old in-process shuffle did.
//!
//! Every shuffle — block or row input — runs through one streaming
//! exchange: each map task's runs are pushed into per-reducer fetch
//! streams as the task finishes, and reducers drain their streams
//! before joining. The stream's window is the only knob: at 1 nothing
//! is read ahead and every fetch happens in the reduce phase, one run
//! at a time; a wider window prefetches while later map tasks still run
//! and overlaps fetch latency. Rows, block counts, and the shuffle
//! breakdown are the same at every window.
//!
//! A reducer materialises late. Its drained runs stay encoded. The
//! build side — the smaller by row count, the left on a tie — builds
//! its hash table from its runs' key cells; the memory budget and the
//! reducer-memory gauge count the build side's rows, which is what a
//! reducer may have to hold. The probe side streams run by run through
//! the probe kernel the hyper-join shares
//! (`hash_table::Build::probe_block`): each key cell is looked up where
//! it lies, and each match is kept as a (probe id, build id) pair. A
//! join returns those ids with the runs and rows they point into
//! ([`Joined`]); the runs' bytes are refcounted, so they outlive the
//! scratch namespace's cleanup, and the rows are built once, when the
//! query returns. The probe side streams on every path: a split
//! partition's round-robin shares and a budgeted join's Grace groups
//! are selections over the runs (groups hash each row's key cell
//! without gathering the row), and the block-nested-loop leaf streams
//! the runs past each build chunk. Only a Grace group's build side,
//! which goes through scratch, and a block-nested-loop build chunk are
//! gathered whole.

use adaptdb_common::{AttrId, BitSet, BlockId, PredicateSet, Result, Row};
use adaptdb_dfs::{secs_to_us, SimClock, SpanGuard};
use adaptdb_storage::LazyBlock;

use crate::context::ExecContext;
use crate::hash_table::Build;
use crate::joined::{pair, Joined, RowId, Source};
use crate::shuffle_service::{ShuffleService, ShuffledSide};

/// Parameters for a storage-backed shuffle join.
#[derive(Debug, Clone)]
pub struct ShuffleJoinSpec<'a> {
    /// Left table name and its candidate blocks.
    pub left_table: &'a str,
    /// Left blocks (already `lookup`-filtered).
    pub left_blocks: &'a [BlockId],
    /// Right table name.
    pub right_table: &'a str,
    /// Right blocks.
    pub right_blocks: &'a [BlockId],
    /// Join attribute on the left.
    pub left_attr: AttrId,
    /// Join attribute on the right.
    pub right_attr: AttrId,
    /// Left-side predicates.
    pub left_preds: &'a PredicateSet,
    /// Right-side predicates.
    pub right_preds: &'a PredicateSet,
    /// Rows per spilled block, for write accounting. The reducer
    /// fan-out comes from [`crate::context::ShuffleOptions`] on the
    /// [`ExecContext`] (single source of truth), coalesced to the data.
    pub rows_per_block: usize,
}

/// AQE-style reducer coalescing: cap the fan-out so each map task's
/// per-reducer run still holds about a block's worth of the *smaller*
/// side (`min_side_blocks / mappers` runs per mapper). Spilled runs
/// are whole blocks, so a fan-out sized past the data rounds every
/// (mapper, reducer) pair up to a full block write *and* fetch,
/// inflating `C_SJ` well beyond 3 on small inputs — exactly what real
/// engines avoid by shrinking reducer counts to match partition sizes.
/// Runs larger than a block pack without waste, so the big side of an
/// asymmetric join never needs more reducers than the small side
/// tolerates.
fn coalesced_partitions(requested: usize, min_side_blocks: usize, mappers: usize) -> usize {
    requested.max(1).min((min_side_blocks / mappers.max(1)).max(1))
}

/// Attach map-phase attributes (runs / blocks / bytes spilled) to an
/// open `map-spill` span from the shuffle-tally delta across the phase.
fn annotate_map(
    span: &Option<SpanGuard<'_>>,
    clock: &SimClock,
    before: Option<adaptdb_common::ShuffleStats>,
) {
    if let (Some(span), Some(b)) = (span, before) {
        let a = clock.shuffle_snapshot();
        span.attr_i("runs", (a.runs_written - b.runs_written) as i64);
        span.attr_i("blocks_spilled", (a.blocks_spilled - b.blocks_spilled) as i64);
        span.attr_i("bytes_spilled", (a.bytes_spilled - b.bytes_spilled) as i64);
    }
}

/// Run the reduce phase under a `reduce` span, then synthesize its
/// `fetch` and `probe` child spans from the phase's shuffle-tally
/// delta: the fetch leg's duration is its serial cost share (`local + penalized remote` fetches), the probe
/// leg is the remainder — including broadcast re-reads and build-spill
/// round-trips, which a `skew-mitigation` span itemizes when the
/// budgeted join had to intervene.
fn traced_reduce<T>(ctx: ExecContext<'_>, body: impl FnOnce() -> Result<T>) -> Result<T> {
    let (ctx, span) = ctx.traced("reduce");
    let Some(span) = span else { return body() };
    let t = ctx.trace.expect("traced() yielded a span, so the handle is set");
    let start_us = t.now_us(ctx.clock);
    let before = ctx.clock.shuffle_snapshot();
    let out = body()?;
    let after = ctx.clock.shuffle_snapshot();
    let end_us = t.now_us(ctx.clock);
    let ld = after.local_fetches - before.local_fetches;
    let rd = after.remote_fetches - before.remote_fetches;
    let fetch_end = (start_us + secs_to_us(t.params.secs_for(ld, rd, 0))).min(end_us);
    let tracer = t.tracer;
    let fetch = tracer.start("fetch", Some(span.id()), start_us);
    tracer.attr_i(fetch, "local_fetches", ld as i64);
    tracer.attr_i(fetch, "remote_fetches", rd as i64);
    tracer.end(fetch, fetch_end);
    let probe = tracer.start("probe", Some(span.id()), fetch_end);
    tracer.attr_i(probe, "peak_reducer_mem_blocks", after.peak_reducer_mem_blocks as i64);
    tracer.end(probe, end_us);
    let splits = after.split_partitions - before.split_partitions;
    let spilled = after.build_blocks_spilled - before.build_blocks_spilled;
    if splits > 0 || spilled > 0 || after.max_recursion_depth > before.max_recursion_depth {
        let m = tracer.start("skew-mitigation", Some(probe), end_us);
        tracer.attr_i(m, "split_partitions", splits as i64);
        tracer.attr_i(
            m,
            "broadcast_fetches",
            (after.broadcast_fetches - before.broadcast_fetches) as i64,
        );
        tracer.attr_i(m, "build_blocks_spilled", spilled as i64);
        tracer.attr_i(m, "max_recursion_depth", after.max_recursion_depth as i64);
        tracer.end(m, end_us);
    }
    drop(span);
    Ok(out)
}

/// Execute a shuffle join over stored blocks through the shuffle
/// service (map spill to DFS, reducer fetch with locality accounting).
pub fn shuffle_join(ctx: ExecContext<'_>, spec: ShuffleJoinSpec<'_>) -> Result<Joined> {
    let (ctx, span) = ctx.traced("shuffle-join");
    let mappers = ctx.store.dfs().live_nodes();
    let requested = ctx.shuffle.partitions.unwrap_or(mappers);
    let data_blocks = spec.left_blocks.len().min(spec.right_blocks.len());
    let svc = ShuffleService::new(
        ctx,
        coalesced_partitions(requested, data_blocks, mappers),
        spec.rows_per_block,
        &format!("{}+{}", spec.left_table, spec.right_table),
    )?;
    if let Some(s) = &span {
        s.attr_s("left", spec.left_table);
        s.attr_s("right", spec.right_table);
        s.attr_i("partitions", svc.partitions() as i64);
        s.attr_i("input_blocks", (spec.left_blocks.len() + spec.right_blocks.len()) as i64);
    }
    let result = exchange(&svc, spec.left_attr, spec.right_attr, |right, on_task| {
        let (table, blocks, attr, preds) = if right {
            (spec.right_table, spec.right_blocks, spec.right_attr, spec.right_preds)
        } else {
            (spec.left_table, spec.left_blocks, spec.left_attr, spec.left_preds)
        };
        svc.spill_blocks_observed(table, blocks, attr, preds, on_task)
    });
    svc.cleanup();
    drop(span);
    result
}

/// The one exchange behind every shuffle. Per-reducer
/// [`adaptdb_storage::FetchStream`]s open before the map phase;
/// `spill(right, on_task)` runs one side's map phase (left, then right)
/// and calls `on_task` as each map task finishes, which pushes that
/// task's runs into the reducers' streams. Reducers then drain their
/// streams in partition order and join.
fn exchange<'a>(
    svc: &ShuffleService<'a>,
    left_attr: AttrId,
    right_attr: AttrId,
    mut spill: impl FnMut(bool, &mut dyn FnMut(&ShuffledSide)) -> Result<ShuffledSide>,
) -> Result<Joined> {
    let ctx = svc.ctx();
    let mut streams = svc.partition_streams();
    // Prefetch windows issued by the streams may fire during either
    // phase, so their spans parent under the exchange itself rather
    // than under map or reduce.
    for s in &mut streams {
        s.set_trace(ctx.trace);
    }
    let (left, right) = {
        let (_mctx, mspan) = ctx.traced("map-spill");
        let before = mspan.as_ref().map(|_| ctx.clock.shuffle_snapshot());
        let mut seen = vec![0usize; svc.partitions()];
        let left =
            spill(false, &mut |side| svc.push_new_runs(&mut streams, side, &mut seen, false))?;
        seen.fill(0);
        let right =
            spill(true, &mut |side| svc.push_new_runs(&mut streams, side, &mut seen, true))?;
        annotate_map(&mspan, ctx.clock, before);
        (left, right)
    };
    // Both histograms are complete once the spills return, so the split
    // plan is known before any stream is drained.
    let plan = svc.split_plan(&left, &right);
    traced_reduce(ctx, || {
        let mut out = Joined::default();
        for (p, mut stream) in streams.into_iter().enumerate() {
            let (l, r) = svc.drain_partition(&mut stream)?;
            let (l, r) = (Side::runs(&l), Side::runs(&r));
            out.extend(join_partition(
                svc, p, plan[p], l, r, left_attr, right_attr, &left, &right,
            )?);
        }
        Ok(out)
    })
}

/// One reduce task: stream both sides' runs of partition `p` and join
/// them under the memory budget, fanning out over `split_k` sub-tasks
/// when the split plan marked the partition heavy. Public so benchmarks
/// can run reduce tasks one at a time and read per-task clock deltas.
pub fn reduce_partition(
    svc: &ShuffleService<'_>,
    p: usize,
    split_k: usize,
    left: &ShuffledSide,
    right: &ShuffledSide,
    left_attr: AttrId,
    right_attr: AttrId,
) -> Result<Joined> {
    let (l, r) = svc.fetch_partition(p, left, right)?;
    let (l_side, r_side) = (Side::runs(&l), Side::runs(&r));
    join_partition(svc, p, split_k, l_side, r_side, left_attr, right_attr, left, right)
}

/// One join side of a reduce (sub-)task.
#[derive(Clone)]
enum Side<'r> {
    /// Rows already gathered: a build group read back from its spill.
    Rows(Vec<Row>),
    /// Fetched runs, still encoded, in arrival order.
    Runs(Vec<Run<'r>>),
}

/// The rows `sel` picks of one fetched run (`rows` of them).
#[derive(Clone)]
struct Run<'r> {
    block: &'r LazyBlock,
    sel: BitSet,
    rows: usize,
}

/// How [`Side::deal`] assigns a side's `i`-th row to one of `k` parts.
#[derive(Clone, Copy)]
enum Deal {
    /// Part `i % k`: a split partition's shares.
    RoundRobin,
    /// The row's join key, hashed and salted for recursion level
    /// `depth`: a budgeted join's Grace groups.
    Salted { attr: AttrId, depth: usize },
}

impl Deal {
    /// The part of row `i`, whose key cell in column `a` hashes to
    /// `key_hash(a)` (called only when the deal reads keys).
    fn part(self, i: usize, k: usize, key_hash: impl FnOnce(AttrId) -> u64) -> usize {
        match self {
            Deal::RoundRobin => i % k,
            Deal::Salted { attr, depth } => (salted(key_hash(attr), depth) % k as u64) as usize,
        }
    }
}

impl<'r> Side<'r> {
    /// Every row of `runs`, in order.
    fn runs(runs: &'r [LazyBlock]) -> Side<'r> {
        Side::Runs(
            runs.iter()
                .map(|block| {
                    let rows = block.row_count();
                    Run { block, sel: BitSet::all_set(rows), rows }
                })
                .collect(),
        )
    }

    fn len(&self) -> usize {
        match self {
            Side::Rows(rows) => rows.len(),
            Side::Runs(runs) => runs.iter().map(|r| r.rows).sum(),
        }
    }

    /// The side's rows, in order — done only to a build side that goes
    /// through scratch or is chunked.
    fn gather(self) -> Result<Vec<Row>> {
        let n = self.len();
        match self {
            Side::Rows(rows) => Ok(rows),
            Side::Runs(runs) => {
                let mut out = Vec::with_capacity(n);
                for r in runs {
                    out.extend(r.block.gather_range(0, r.block.row_count(), &r.sel)?);
                }
                Ok(out)
            }
        }
    }

    /// Split the side into `k` parts by `by`, each keeping the side's
    /// row order. Runs stay encoded: a part takes a run with the
    /// selection of the rows dealt to it, hashing each row's key cell
    /// without gathering the row.
    fn deal(self, k: usize, by: Deal) -> Result<Vec<Side<'r>>> {
        match self {
            Side::Rows(rows) => {
                let mut parts: Vec<Vec<Row>> = (0..k).map(|_| Vec::new()).collect();
                for (i, row) in rows.into_iter().enumerate() {
                    parts[by.part(i, k, |a| row.get(a).stable_hash())].push(row);
                }
                Ok(parts.into_iter().map(Side::Rows).collect())
            }
            Side::Runs(runs) => {
                let mut parts: Vec<Vec<Run<'r>>> = (0..k).map(|_| Vec::new()).collect();
                let mut i = 0;
                for run in runs {
                    let n = run.block.row_count();
                    let mut sels: Vec<BitSet> = (0..k).map(|_| BitSet::new(n)).collect();
                    match by {
                        Deal::Salted { attr, .. } => {
                            run.block.for_each_key(attr as usize, &run.sel, |r, key| {
                                sels[by.part(i, k, |_| key.stable_hash())].set(r);
                                i += 1;
                            })?
                        }
                        Deal::RoundRobin => {
                            for r in run.sel.iter_ones() {
                                sels[by.part(i, k, |_| unreachable!("no key is dealt"))].set(r);
                                i += 1;
                            }
                        }
                    }
                    for (part, sel) in parts.iter_mut().zip(sels) {
                        let rows = sel.count_ones();
                        if rows > 0 {
                            part.push(Run { block: run.block, sel, rows });
                        }
                    }
                }
                Ok(parts.into_iter().map(Side::Runs).collect())
            }
        }
    }

    /// A build over this side keyed on `attr`: a build over rows, or
    /// over the runs' selected key cells, left encoded.
    fn into_build(self, attr: AttrId) -> Result<Build> {
        match self {
            Side::Rows(rows) => Ok(Build::rows(rows, attr)),
            Side::Runs(runs) => {
                let mut build = Build::blocks();
                for r in runs {
                    build.add_block(r.block.clone(), attr, &r.sel)?;
                }
                Ok(build)
            }
        }
    }

    /// Probe `build` with every row of this side on key `attr`, in
    /// order, calling `f(probe, build)` for each match; a probe id
    /// points into [`Side::into_sources`]. Runs go through the probe
    /// kernel, gathering nothing.
    fn probe(&self, build: &Build, attr: AttrId, mut f: impl FnMut(RowId, RowId)) -> Result<()> {
        match self {
            Side::Rows(rows) => {
                for (row, r) in (0..).zip(rows) {
                    build.probe(r.get(attr).key()).for_each(|b| f(RowId { src: 0, row }, b));
                }
                Ok(())
            }
            Side::Runs(runs) => {
                for (src, r) in (0..).zip(runs) {
                    build.probe_block(r.block, attr, &r.sel, |row, b| f(RowId { src, row }, b))?;
                }
                Ok(())
            }
        }
    }

    /// The sources this side's probe ids point into: its rows, or one
    /// per run.
    fn into_sources(self) -> Vec<Source> {
        match self {
            Side::Rows(rows) => vec![Source::Rows(rows)],
            Side::Runs(runs) => runs.into_iter().map(|r| Source::Block(r.block.clone())).collect(),
        }
    }
}

/// Join one partition's fetched sides, shared by the exchange and
/// [`reduce_partition`] so their accounting is identical.
///
/// Unsplit (`split_k <= 1`): one budgeted join. Split: the bigger side
/// is divided round-robin over `split_k` sub-tasks, each of which
/// joins its share against the *whole* smaller side — the smaller
/// side's run blocks are re-read once per extra sub-task (the
/// broadcast leg, charged on `broadcast_fetches`), which is the
/// communication price Bala-Join pays to rebalance computation. The
/// union of the sub-task outputs is exactly the unsplit join: every
/// big-side row meets the full small side exactly once.
#[allow(clippy::too_many_arguments)]
fn join_partition(
    svc: &ShuffleService<'_>,
    p: usize,
    split_k: usize,
    left: Side<'_>,
    right: Side<'_>,
    left_attr: AttrId,
    right_attr: AttrId,
    left_side: &ShuffledSide,
    right_side: &ShuffledSide,
) -> Result<Joined> {
    if split_k <= 1 {
        return budgeted_join(svc, p, 0, left, right, left_attr, right_attr);
    }
    svc.ctx().clock.record_partition_split();
    let left_small = left.len() <= right.len();
    let small_runs = if left_small { &left_side.runs[p] } else { &right_side.runs[p] };
    svc.charge_broadcasts(p, split_k, small_runs)?;
    // Deal the bigger side's rows round-robin over the sub-tasks, and
    // hand every sub-task the whole smaller side: a copy for all but
    // the last, which takes the original.
    let (mut small, big) = if left_small { (left, right) } else { (right, left) };
    let mut out = Joined::default();
    for (j, share) in big.deal(split_k, Deal::RoundRobin)?.into_iter().enumerate() {
        let whole = if j + 1 == split_k {
            std::mem::replace(&mut small, Side::Rows(Vec::new()))
        } else {
            small.clone()
        };
        let (l, r) = if left_small { (whole, share) } else { (share, whole) };
        out.extend(budgeted_join(svc, p, 0, l, r, left_attr, right_attr)?);
    }
    Ok(out)
}

/// Recursion cap for the budgeted build's Grace-style repartitioning.
/// A partition that still overflows after this many salted re-splits
/// (e.g. one key holding more rows than the whole budget) falls back
/// to block-nested-loop, which honors the budget at any skew.
const MAX_RECURSION_DEPTH: usize = 3;

/// Re-mix a key hash for recursion level `depth`, so each level's
/// sub-partitioning is independent of the reducer-routing hash (all
/// keys in a partition already agree modulo the fan-out) and of the
/// levels above it. splitmix64-style finalizer.
fn salted(hash: u64, depth: usize) -> u64 {
    let mut x = hash ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The memory-budgeted hash join of one (sub-)task, after "Design
/// Trade-offs for a Robust Dynamic Hybrid Hash Join":
///
/// * no budget, or the build side fits → plain in-memory join
///   ([`hash_join`]);
/// * over budget below the cap → partition *both* sides by a salted
///   key hash, spill each build-side group to scratch and read it back
///   (Grace-style, charged as build-spill writes + ordinary reads),
///   recurse per group;
/// * over budget at the cap → block-nested-loop: build-side chunks of
///   at most the budget, each probed by the full probe side.
///
/// Only the build side (the smaller by row count, the left on a tie)
/// is ever gathered into rows, so the budget and the reducer-memory
/// gauge, which every path records the peak build size on, measure
/// what a reducer holds. The probe side streams: its runs stay encoded
/// through the Grace split (each group selects its rows of a run) and
/// are probed run by run.
fn budgeted_join(
    svc: &ShuffleService<'_>,
    p: usize,
    depth: usize,
    left: Side<'_>,
    right: Side<'_>,
    left_attr: AttrId,
    right_attr: AttrId,
) -> Result<Joined> {
    let rpb = svc.rows_per_block();
    let build_len = left.len().min(right.len());
    let budget = svc.ctx().join_mem_budget_blocks.map(|blocks| blocks.max(1) * rpb);
    let Some(budget_rows) = budget.filter(|&rows| build_len > rows) else {
        svc.ctx().clock.record_reducer_peak(build_len.div_ceil(rpb));
        return hash_join(left, right, left_attr, right_attr);
    };
    if depth >= MAX_RECURSION_DEPTH {
        return block_nested_loop(svc, left, right, left_attr, right_attr, budget_rows);
    }
    svc.ctx().clock.record_recursion_depth(depth + 1);
    let fanout = build_len.div_ceil(budget_rows).clamp(2, 8);
    let left_build = left.len() <= right.len();
    let lgroups = left.deal(fanout, Deal::Salted { attr: left_attr, depth })?;
    let rgroups = right.deal(fanout, Deal::Salted { attr: right_attr, depth })?;
    let mut out = Joined::default();
    for (lg, rg) in lgroups.into_iter().zip(rgroups) {
        if lg.len() == 0 || rg.len() == 0 {
            continue; // No possible matches: the group never touches disk.
        }
        // Grace-style: the build side's group goes through scratch.
        let (lg, rg) = if left_build {
            (Side::Rows(svc.spill_and_reload_build(p, lg.gather()?)?), rg)
        } else {
            (lg, Side::Rows(svc.spill_and_reload_build(p, rg.gather()?)?))
        };
        out.extend(budgeted_join(svc, p, depth + 1, lg, rg, left_attr, right_attr)?);
    }
    Ok(out)
}

/// The budget-honoring leaf fallback: hash-build at most `budget_rows`
/// of the smaller side at a time and stream the entire other side past
/// each chunk. Quadratic in passes but bounded in memory at any skew (a
/// single key bigger than the budget lands here by construction).
fn block_nested_loop(
    svc: &ShuffleService<'_>,
    left: Side<'_>,
    right: Side<'_>,
    left_attr: AttrId,
    right_attr: AttrId,
    budget_rows: usize,
) -> Result<Joined> {
    let rpb = svc.rows_per_block();
    let chunk_rows = budget_rows.max(1);
    let left_build = left.len() <= right.len();
    let (build, probe, build_attr, probe_attr) = if left_build {
        (left, right, left_attr, right_attr)
    } else {
        (right, left, right_attr, left_attr)
    };
    // Each chunk is one source of the build input.
    let (mut chunks, mut ids) = (Vec::new(), Vec::new());
    let mut build = build.gather()?.into_iter();
    loop {
        let chunk: Vec<Row> = build.by_ref().take(chunk_rows).collect();
        if chunk.is_empty() {
            break;
        }
        svc.ctx().clock.record_reducer_peak(chunk.len().div_ceil(rpb));
        let src = chunks.len() as u32;
        let table = Build::rows(chunk, build_attr);
        probe.probe(&table, probe_attr, |p, b| {
            ids.extend(pair(p, RowId { src, ..b }, !left_build))
        })?;
        chunks.extend(table.into_sources());
    }
    Ok(Joined::binary(probe.into_sources(), chunks, ids, !left_build))
}

/// In-memory hash join of two sides: build on the smaller (the left on
/// a tie), probe with the other in its order; output rows are `left ++
/// right`, kept as ids into both sides.
fn hash_join(
    left: Side<'_>,
    right: Side<'_>,
    left_attr: AttrId,
    right_attr: AttrId,
) -> Result<Joined> {
    let left_build = left.len() <= right.len();
    let (build, probe, build_attr, probe_attr) = if left_build {
        (left, right, left_attr, right_attr)
    } else {
        (right, left, right_attr, left_attr)
    };
    let build = build.into_build(build_attr)?;
    let mut ids = Vec::new();
    probe.probe(&build, probe_attr, |p, b| ids.extend(pair(p, b, !left_build)))?;
    Ok(Joined::binary(probe.into_sources(), build.into_sources(), ids, !left_build))
}

/// Plain in-memory hash join over rows: the reducers' join with both
/// sides already gathered. Builds on the smaller side (the left on a tie)
/// and probes with the other in its order; output rows are `left ++
/// right`.
pub fn hash_join_rows(
    left: Vec<Row>,
    right: Vec<Row>,
    left_attr: AttrId,
    right_attr: AttrId,
) -> Vec<Row> {
    hash_join(Side::Rows(left), Side::Rows(right), left_attr, right_attr)
        .and_then(Joined::into_rows)
        .expect("joining gathered rows decodes nothing")
}

/// Shuffle join over two already-materialized row sets (intermediate
/// results in multi-way plans, §4.3): both inputs are treated as
/// distributed over the live nodes, spilled through the service, and
/// fetched by reducers — charging shuffle writes plus local/remote
/// fetch reads for both sides — then joined.
pub fn shuffle_join_rows(
    ctx: ExecContext<'_>,
    left: Vec<Row>,
    right: Vec<Row>,
    left_attr: AttrId,
    right_attr: AttrId,
    rows_per_block: usize,
) -> Result<Joined> {
    let (ctx, span) = ctx.traced("shuffle-join");
    if let Some(s) = &span {
        s.attr_s("left", "rows");
        s.attr_s("right", "rows");
        s.attr_i("input_rows", (left.len() + right.len()) as i64);
    }
    let mappers = ctx.store.dfs().live_nodes();
    let requested = ctx.shuffle.partitions.unwrap_or(mappers);
    let data_blocks = left.len().min(right.len()).div_ceil(rows_per_block.max(1));
    let svc = ShuffleService::new(
        ctx,
        coalesced_partitions(requested, data_blocks, mappers),
        rows_per_block,
        "mid",
    )?;
    let mut inputs = [left, right];
    let result = exchange(&svc, left_attr, right_attr, |right, on_task| {
        let attr = if right { right_attr } else { left_attr };
        svc.spill_rows_observed(std::mem::take(&mut inputs[usize::from(right)]), attr, on_task)
    });
    svc.cleanup();
    drop(span);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate, Value};
    use adaptdb_dfs::SimClock;
    use adaptdb_storage::BlockStore;
    use rand::RngExt;

    fn setup(n: i64, per_block: i64) -> (BlockStore, Vec<BlockId>, Vec<BlockId>) {
        let store = BlockStore::new(4, 1, 1);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        let mut k = 0i64;
        while k < n {
            let hi = (k + per_block).min(n);
            lids.push(store.write_block("l", (k..hi).map(|i| row![i, i * 2]).collect(), 2, None));
            rids.push(store.write_block("r", (k..hi).map(|i| row![i, i * 3]).collect(), 2, None));
            k = hi;
        }
        (store, lids, rids)
    }

    fn spec<'a>(
        lids: &'a [BlockId],
        rids: &'a [BlockId],
        preds: &'a PredicateSet,
        rows_per_block: usize,
    ) -> ShuffleJoinSpec<'a> {
        ShuffleJoinSpec {
            left_table: "l",
            left_blocks: lids,
            right_table: "r",
            right_blocks: rids,
            left_attr: 0,
            right_attr: 0,
            left_preds: preds,
            right_preds: preds,
            rows_per_block,
        }
    }

    /// Context with an explicit reducer fan-out request.
    fn ctx_with<'a>(
        store: &'a BlockStore,
        clock: &'a SimClock,
        partitions: usize,
    ) -> ExecContext<'a> {
        ExecContext::new(store, clock).with_shuffle(crate::context::ShuffleOptions {
            partitions: Some(partitions),
            replication: 1,
            split_threshold: None,
        })
    }

    #[test]
    fn coalescing_tracks_data_per_mapper() {
        // Plenty of data on the smaller side: requested fan-out stands.
        assert_eq!(coalesced_partitions(10, 400, 10), 10);
        // 56 small-side blocks over 10 mappers: ~5 each → 5 reducers.
        assert_eq!(coalesced_partitions(10, 56, 10), 5);
        // Tiny inputs collapse to one reducer rather than spraying
        // sub-block runs.
        assert_eq!(coalesced_partitions(10, 3, 10), 1);
        assert_eq!(coalesced_partitions(0, 0, 0), 1);
    }

    #[test]
    fn join_is_complete_and_correct() {
        let (store, lids, rids) = setup(50, 10);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let mut rows = shuffle_join(ctx_with(&store, &clock, 4), spec(&lids, &rids, &none, 10))
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(rows.len(), 50);
        rows.sort_by_key(|r| r.get(0).as_int().unwrap());
        for (i, r) in rows.iter().enumerate() {
            let i = i as i64;
            assert_eq!(r.values()[1].as_int().unwrap(), i * 2);
            assert_eq!(r.values()[3].as_int().unwrap(), i * 3);
        }
    }

    #[test]
    fn io_pattern_is_read_write_fetch() {
        // Block-aligned sizes so spill rounding stays small: 16 input
        // blocks of 100 rows per side over 4 nodes.
        let (store, lids, rids) = setup(1600, 100);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        shuffle_join(ctx_with(&store, &clock, 4), spec(&lids, &rids, &none, 100))
            .and_then(Joined::into_rows)
            .unwrap();
        let io = clock.snapshot();
        let sh = clock.shuffle_snapshot();
        // Reads = 32 input reads + one fetch per spilled block.
        assert_eq!(io.reads() - io.writes, 32, "input reads + fetches - spill writes");
        assert_eq!(sh.blocks_spilled, io.writes);
        assert_eq!(sh.fetches(), sh.blocks_spilled, "every run block fetched exactly once");
        // Rows are conserved through the shuffle, so spill ≈ input; hash
        // skew can leave runs partially filled.
        assert!(io.writes >= 32 && io.writes <= 44, "spill writes: {}", io.writes);
        // Total I/O ≈ C_SJ × input blocks.
        let per_block = (io.reads() + io.writes) as f64 / 32.0;
        assert!((2.9..=3.8).contains(&per_block), "C_SJ≈3 pattern violated: {per_block}");
    }

    #[test]
    fn single_reducer_hits_csj_exactly() {
        // One reducer means one run per mapper: rows pack into full
        // blocks and the C_SJ = 3 pattern is exact.
        let (store, lids, rids) = setup(1600, 100);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        shuffle_join(ctx_with(&store, &clock, 1), spec(&lids, &rids, &none, 100))
            .and_then(Joined::into_rows)
            .unwrap();
        let io = clock.snapshot();
        assert_eq!(io.writes, 32, "spill equals input when runs pack");
        assert_eq!(io.reads() + io.writes, 3 * 32, "C_SJ = 3 exactly");
    }

    #[test]
    fn remote_fetches_are_recorded_when_reducer_is_off_node() {
        // Regression: the in-process shuffle charged every spilled-run
        // re-read as ReadKind::Local no matter where the reducer ran.
        // With unreplicated runs on 4 nodes, ~3/4 of fetches cross the
        // network and must show up as remote reads.
        let (store, lids, rids) = setup(400, 25);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        shuffle_join(ctx_with(&store, &clock, 4), spec(&lids, &rids, &none, 25))
            .and_then(Joined::into_rows)
            .unwrap();
        let io = clock.snapshot();
        let sh = clock.shuffle_snapshot();
        assert!(sh.remote_fetches > 0, "reducer ≠ mapper node must fetch remotely");
        assert!(sh.local_fetches > 0, "co-located reducers fetch locally");
        // Input reads are all replica-local here, so the clock's remote
        // reads are exactly the remote fetches.
        assert_eq!(io.remote_reads, sh.remote_fetches);
        assert!(
            sh.locality_fraction() < 0.6,
            "unreplicated runs on 4 nodes are mostly remote: {}",
            sh.locality_fraction()
        );
    }

    #[test]
    fn predicates_reduce_output_and_spill() {
        let (store, lids, rids) = setup(100, 10);
        let none = PredicateSet::none();
        let c_full = SimClock::new();
        shuffle_join(ctx_with(&store, &c_full, 4), spec(&lids, &rids, &none, 10))
            .and_then(Joined::into_rows)
            .unwrap();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 30i64));
        let c_filtered = SimClock::new();
        let rows = shuffle_join(ctx_with(&store, &c_filtered, 4), spec(&lids, &rids, &preds, 10))
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(rows.len(), 30);
        assert!(
            c_filtered.snapshot().writes < c_full.snapshot().writes,
            "filtered shuffle should spill less: {} vs {}",
            c_filtered.snapshot().writes,
            c_full.snapshot().writes
        );
    }

    /// Parallelism comes from queries running side by side: shuffle
    /// joins on their own threads over one store, released together,
    /// each on its own clock, return the sequential run's rows in order
    /// and its counts.
    #[test]
    fn parallel_matches_sequential() {
        let (store, lids, rids) = setup(80, 8);
        let none = PredicateSet::none();
        let join = || {
            let clock = SimClock::new();
            let rows = shuffle_join(ctx_with(&store, &clock, 4), spec(&lids, &rids, &none, 10))
                .and_then(Joined::into_rows)
                .unwrap();
            (rows, clock.snapshot(), clock.shuffle_snapshot())
        };
        let want = join();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let side_by_side: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        join()
                    })
                })
                .collect();
            for h in side_by_side {
                assert_eq!(h.join().unwrap(), want);
            }
        });
    }

    #[test]
    fn pipelined_join_matches_serial_with_identical_counts() {
        let (store, lids, rids) = setup(400, 25);
        let none = PredicateSet::none();
        let c_serial = SimClock::new();
        let mut serial =
            shuffle_join(ctx_with(&store, &c_serial, 4), spec(&lids, &rids, &none, 25))
                .and_then(Joined::into_rows)
                .unwrap();
        let c_piped = SimClock::new();
        let mut piped = shuffle_join(
            ctx_with(&store, &c_piped, 4).with_fetch_window(4),
            spec(&lids, &rids, &none, 25),
        )
        .and_then(Joined::into_rows)
        .unwrap();
        serial.sort_by_key(|r| r.get(0).as_int().unwrap());
        piped.sort_by_key(|r| r.get(0).as_int().unwrap());
        assert_eq!(serial, piped, "pipelining must not change the join");
        // Block counts and the shuffle breakdown are bit-identical…
        assert_eq!(c_serial.snapshot(), c_piped.snapshot());
        assert_eq!(c_serial.shuffle_snapshot(), c_piped.shuffle_snapshot());
        // …but the pipelined run overlapped fetch latency.
        assert_eq!(c_serial.overlap_snapshot().hidden(), 0);
        let ov = c_piped.overlap_snapshot();
        assert!(ov.hidden() > 0, "window 4 must hide fetch latency");
        assert!(ov.max_in_flight > 1 && ov.max_in_flight <= 4);
        let params = adaptdb_common::CostParams::default();
        let serial_secs = c_serial.snapshot().simulated_secs(&params);
        assert!(serial_secs - ov.saved_secs(&params) < serial_secs);
    }

    #[test]
    fn pipelined_rows_join_matches_serial() {
        let store = BlockStore::new(4, 1, 1);
        let left: Vec<Row> = (0..80i64).map(|i| row![i % 13, i]).collect();
        let right: Vec<Row> = (0..40i64).map(|i| row![i, i * 7]).collect();
        let c1 = SimClock::new();
        let mut a =
            shuffle_join_rows(ExecContext::new(&store, &c1), left.clone(), right.clone(), 0, 0, 10)
                .and_then(Joined::into_rows)
                .unwrap();
        let c2 = SimClock::new();
        let mut b = shuffle_join_rows(
            ExecContext::new(&store, &c2).with_fetch_window(4),
            left,
            right,
            0,
            0,
            10,
        )
        .and_then(Joined::into_rows)
        .unwrap();
        a.sort_by(|x, y| x.values().cmp(y.values()));
        b.sort_by(|x, y| x.values().cmp(y.values()));
        assert_eq!(a, b);
        assert_eq!(c1.snapshot(), c2.snapshot());
        assert!(c2.overlap_snapshot().hidden() > 0);
    }

    #[test]
    fn scratch_namespace_is_cleaned_up() {
        let (store, lids, rids) = setup(50, 10);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let before = store.dfs().block_count();
        shuffle_join(ctx_with(&store, &clock, 4), spec(&lids, &rids, &none, 10))
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(store.dfs().block_count(), before, "spilled runs must be dropped");
    }

    #[test]
    fn hash_join_rows_handles_duplicates_and_misses() {
        let left = vec![row![1i64, 10i64], row![1i64, 11i64], row![2i64, 12i64]];
        let right = vec![row![1i64, 100i64], row![3i64, 101i64]];
        let mut out = hash_join_rows(left, right, 0, 0);
        out.sort_by_key(|r| r.get(1).as_int().unwrap());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].values()[1], Value::Int(10));
        assert_eq!(out[1].values()[1], Value::Int(11));
    }

    #[test]
    fn shuffle_join_rows_charges_io() {
        let store = BlockStore::new(2, 1, 1);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock);
        let left: Vec<Row> = (0..25i64).map(|i| row![i]).collect();
        let right: Vec<Row> = (0..25i64).map(|i| row![i]).collect();
        let out =
            shuffle_join_rows(ctx, left, right, 0, 0, 10).and_then(Joined::into_rows).unwrap();
        assert_eq!(out.len(), 25);
        let io = clock.snapshot();
        let sh = clock.shuffle_snapshot();
        assert!(io.writes > 0, "both sides spill");
        assert_eq!(sh.blocks_spilled, io.writes);
        assert_eq!(sh.fetches(), io.writes, "every spilled block is fetched once");
        assert_eq!(io.reads(), sh.fetches(), "row inputs charge no block reads");
    }

    /// Skewed inputs: every left row carries the single hot key `0`, so
    /// one reducer partition swallows the whole left side.
    fn skewed_setup(n: i64, per_block: i64) -> (BlockStore, Vec<BlockId>, Vec<BlockId>) {
        let store = BlockStore::new(4, 1, 1);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        let mut k = 0i64;
        while k < n {
            let hi = (k + per_block).min(n);
            lids.push(store.write_block("l", (k..hi).map(|i| row![0i64, i]).collect(), 2, None));
            rids.push(store.write_block("r", (k..hi).map(|i| row![i, i * 3]).collect(), 2, None));
            k = hi;
        }
        (store, lids, rids)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|x, y| x.values().cmp(y.values()));
        rows
    }

    #[test]
    fn budgeted_join_matches_unbudgeted_rows_exactly() {
        let (store, lids, rids) = setup(400, 25);
        let none = PredicateSet::none();
        let c_free = SimClock::new();
        let free = shuffle_join(ctx_with(&store, &c_free, 4), spec(&lids, &rids, &none, 25))
            .and_then(Joined::into_rows)
            .unwrap();
        for budget in [1usize, 2, 8] {
            let c = SimClock::new();
            let tight = shuffle_join(
                ctx_with(&store, &c, 4).with_join_mem_budget(Some(budget)),
                spec(&lids, &rids, &none, 25),
            )
            .and_then(Joined::into_rows)
            .unwrap();
            assert_eq!(sorted(free.clone()), sorted(tight), "budget {budget} changed the join");
            let sh = c.shuffle_snapshot();
            assert!(
                sh.peak_reducer_mem_blocks <= budget,
                "budget {budget} exceeded: peak {}",
                sh.peak_reducer_mem_blocks
            );
        }
        // Unbudgeted runs spill no build blocks and record a real peak.
        let sh = c_free.shuffle_snapshot();
        assert_eq!(sh.build_blocks_spilled, 0);
        assert!(sh.peak_reducer_mem_blocks >= 1);
    }

    #[test]
    fn single_hot_key_falls_back_to_nested_loop_within_budget() {
        // Every left row shares one key: salted repartitioning can never
        // shrink the build side, so the recursion cap must trigger the
        // block-nested-loop leaf — and the budget must still hold.
        let store = BlockStore::new(2, 1, 1);
        let lids =
            vec![store.write_block("l", (0..200i64).map(|i| row![7i64, i]).collect(), 2, None)];
        let rids = vec![store.write_block("r", vec![row![7i64, -1i64]], 2, None)];
        let none = PredicateSet::none();
        let c = SimClock::new();
        let rows = shuffle_join(
            ctx_with(&store, &c, 1).with_join_mem_budget(Some(1)),
            spec(&lids, &rids, &none, 10),
        )
        .and_then(Joined::into_rows)
        .unwrap();
        assert_eq!(rows.len(), 200, "every hot-key pair must appear");
        let sh = c.shuffle_snapshot();
        assert!(sh.peak_reducer_mem_blocks <= 1, "BNL leaf broke the budget");
    }

    #[test]
    fn hot_partition_split_preserves_rows_and_charges_broadcasts() {
        let (store, lids, rids) = skewed_setup(800, 50);
        let none = PredicateSet::none();
        let c_plain = SimClock::new();
        let plain = shuffle_join(ctx_with(&store, &c_plain, 4), spec(&lids, &rids, &none, 50))
            .and_then(Joined::into_rows)
            .unwrap();
        let c_split = SimClock::new();
        let mut ctx = ctx_with(&store, &c_split, 4);
        ctx.shuffle.split_threshold = Some(1.5);
        let split =
            shuffle_join(ctx, spec(&lids, &rids, &none, 50)).and_then(Joined::into_rows).unwrap();
        assert_eq!(sorted(plain), sorted(split), "splitting changed the join");
        let sh = c_split.shuffle_snapshot();
        assert!(sh.split_partitions > 0, "one hot key on 4 reducers must trip the threshold");
        assert!(sh.broadcast_fetches > 0, "extra sub-tasks re-read the small side");
        // The per-run fetch invariant survives: broadcasts are tallied
        // separately, never on local/remote_fetches.
        assert_eq!(sh.fetches(), sh.blocks_spilled);
        assert_eq!(c_plain.shuffle_snapshot().split_partitions, 0);
    }

    /// The nested-loop join in [`hash_join_rows`]'s output order, on
    /// column 0 of both sides.
    fn nested_loop(left: &[Row], right: &[Row]) -> Vec<Row> {
        let mut out = Vec::new();
        if left.len() <= right.len() {
            for r in right {
                for l in left.iter().filter(|l| l.get(0) == r.get(0)) {
                    out.push(l.concat(r));
                }
            }
        } else {
            for l in left {
                for r in right.iter().filter(|r| l.get(0) == r.get(0)) {
                    out.push(l.concat(r));
                }
            }
        }
        out
    }

    /// The budgeted join over borrowed inputs, copying every row it
    /// passes on: Grace groups by the salted hash, the block-nested
    /// loop at the cap, and nested loops at the leaves.
    fn reference_budgeted(
        left: &[Row],
        right: &[Row],
        budget_rows: Option<usize>,
        depth: usize,
    ) -> Vec<Row> {
        let build_len = left.len().min(right.len());
        let Some(budget) = budget_rows.filter(|&b| build_len > b) else {
            return nested_loop(left, right);
        };
        let mut out = Vec::new();
        if depth >= MAX_RECURSION_DEPTH {
            if left.len() <= right.len() {
                for chunk in left.chunks(budget) {
                    out.extend(nested_loop(chunk, right));
                }
            } else {
                for chunk in right.chunks(budget) {
                    for l in left {
                        for r in chunk.iter().filter(|r| l.get(0) == r.get(0)) {
                            out.push(l.concat(r));
                        }
                    }
                }
            }
            return out;
        }
        let fanout = build_len.div_ceil(budget).clamp(2, 8);
        let group = |rows: &[Row], g: usize| -> Vec<Row> {
            let of = |r: &Row| (salted(r.get(0).stable_hash(), depth) % fanout as u64) as usize;
            rows.iter().filter(|r| of(r) == g).cloned().collect()
        };
        for g in 0..fanout {
            let (lg, rg) = (group(left, g), group(right, g));
            if !lg.is_empty() && !rg.is_empty() {
                out.extend(reference_budgeted(&lg, &rg, budget_rows, depth + 1));
            }
        }
        out
    }

    /// One reduce task over borrowed inputs: `split_k` round-robin
    /// shares of the bigger side, each against a copy of the smaller.
    fn reference_partition(
        left: &[Row],
        right: &[Row],
        split_k: usize,
        budget_rows: Option<usize>,
    ) -> Vec<Row> {
        if split_k <= 1 {
            return reference_budgeted(left, right, budget_rows, 0);
        }
        let share = |rows: &[Row], j| -> Vec<Row> {
            rows.iter().skip(j).step_by(split_k).cloned().collect()
        };
        let mut out = Vec::new();
        for j in 0..split_k {
            if left.len() <= right.len() {
                out.extend(reference_budgeted(left, &share(right, j), budget_rows, 0));
            } else {
                out.extend(reference_budgeted(&share(left, j), right, budget_rows, 0));
            }
        }
        out
    }

    /// The reduce side keeps its exact output order on every path —
    /// plain, split across sub-tasks, Grace-repartitioned under a
    /// memory budget, and block-nested-loop at the recursion cap — with
    /// 0, 1, 2 and 5 matches per key plus a hot key on both sides.
    #[test]
    fn split_and_budgeted_reduce_matches_nested_loop_in_order() {
        let store = BlockStore::new(2, 1, 3);
        let mut left: Vec<Row> = Vec::new();
        for copy in 0..5 {
            for k in 0..40i64 {
                if copy < [0, 1, 2, 5][(k % 4) as usize] {
                    left.push(row![k, format!("l{k}.{copy}")]);
                }
            }
        }
        left.extend((0..30i64).map(|i| row![7i64, format!("hot{i}")]));
        let mut right: Vec<Row> = (0..60i64).map(|i| row![(i * 7) % 44, -i]).collect();
        right.extend((0..15i64).map(|i| row![7i64, 1000 + i]));
        let rpb = 10;
        let write = |t: &str, rows: &[Row]| -> Vec<BlockId> {
            rows.chunks(rpb).map(|c| store.write_block(t, c.to_vec(), 2, None)).collect()
        };
        let (lids, rids) = (write("l", &left), write("r", &right));
        let none = PredicateSet::none();
        let partitions = coalesced_partitions(4, lids.len().min(rids.len()), 2);
        assert_eq!(partitions, 4);
        let (mut splits, mut spilled, mut capped) = (false, false, false);
        for split_threshold in [None, Some(1.5)] {
            for budget in [None, Some(1), Some(2), Some(4)] {
                let clock = SimClock::new();
                let mut ctx = ctx_with(&store, &clock, 4).with_join_mem_budget(budget);
                ctx.shuffle.split_threshold = split_threshold;
                let got = shuffle_join(ctx, spec(&lids, &rids, &none, rpb))
                    .and_then(Joined::into_rows)
                    .unwrap();
                let sh = clock.shuffle_snapshot();
                splits |= sh.split_partitions > 0;
                spilled |= sh.build_blocks_spilled > 0;
                capped |= sh.max_recursion_depth == MAX_RECURSION_DEPTH;

                let ref_clock = SimClock::new();
                let mut ref_ctx = ctx_with(&store, &ref_clock, 4);
                ref_ctx.shuffle.split_threshold = split_threshold;
                let svc = ShuffleService::new(ref_ctx, partitions, rpb, "ref").unwrap();
                let l = svc.spill_blocks("l", &lids, 0, &none).unwrap();
                let r = svc.spill_blocks("r", &rids, 0, &none).unwrap();
                let plan = svc.split_plan(&l, &r);
                let mut want = Vec::new();
                for (p, &k) in plan.iter().enumerate() {
                    let (lp, rp) = svc.fetch_partition(p, &l, &r).unwrap();
                    let (lp, rp) = (row_reducer::decode(lp), row_reducer::decode(rp));
                    want.extend(reference_partition(&lp, &rp, k, budget.map(|b| b * rpb)));
                }
                svc.cleanup();
                assert!(want.len() > 450, "{} outputs", want.len());
                assert_eq!(got, want, "split {split_threshold:?} budget {budget:?}");
            }
        }
        assert!(splits && spilled && capped, "split {splits} spill {spilled} cap {capped}");
    }

    /// The row reducer this module replaced, kept verbatim as the
    /// reference: every fetched run is decoded into rows, and the
    /// budgeted join, split and block-nested-loop work on row vectors.
    mod row_reducer {
        use super::super::*;
        use crate::hash_table::JoinHashTable;
        use crate::shuffle_service::RIGHT_SIDE_TAG;
        use adaptdb_storage::FetchStream;

        /// Every row of `runs`, in order.
        pub(super) fn decode(runs: Vec<LazyBlock>) -> Vec<Row> {
            runs.into_iter().flat_map(|run| run.into_block().unwrap().rows).collect()
        }

        pub(super) fn drain_partition<'a>(
            svc: &ShuffleService<'a>,
            stream: &mut FetchStream<'a>,
        ) -> Result<(Vec<Row>, Vec<Row>)> {
            let mut left = Vec::new();
            let mut right = Vec::new();
            while let Some(completion) = stream.next_completion() {
                let c = completion?;
                svc.ctx().clock.record_shuffle_fetch(c.kind);
                let side = c.tag & RIGHT_SIDE_TAG;
                let rows = c.into_block()?.rows;
                if side != 0 {
                    right.extend(rows);
                } else {
                    left.extend(rows);
                }
            }
            Ok((left, right))
        }

        pub(super) fn exchange<'a>(
            svc: &ShuffleService<'a>,
            left_attr: AttrId,
            right_attr: AttrId,
            mut spill: impl FnMut(bool, &mut dyn FnMut(&ShuffledSide)) -> Result<ShuffledSide>,
        ) -> Result<Vec<Row>> {
            let ctx = svc.ctx();
            let mut streams = svc.partition_streams();
            for s in &mut streams {
                s.set_trace(ctx.trace);
            }
            let (left, right) = {
                let (_mctx, mspan) = ctx.traced("map-spill");
                let before = mspan.as_ref().map(|_| ctx.clock.shuffle_snapshot());
                let mut seen = vec![0usize; svc.partitions()];
                let left = spill(false, &mut |side| {
                    svc.push_new_runs(&mut streams, side, &mut seen, false)
                })?;
                seen.fill(0);
                let right = spill(true, &mut |side| {
                    svc.push_new_runs(&mut streams, side, &mut seen, true)
                })?;
                annotate_map(&mspan, ctx.clock, before);
                (left, right)
            };
            let plan = svc.split_plan(&left, &right);
            traced_reduce(ctx, || {
                let mut out = Vec::new();
                for (p, mut stream) in streams.into_iter().enumerate() {
                    let (l, r) = drain_partition(svc, &mut stream)?;
                    out.extend(join_partition(
                        svc, p, plan[p], l, r, left_attr, right_attr, &left, &right,
                    )?);
                }
                Ok(out)
            })
        }

        #[allow(clippy::too_many_arguments)]
        fn join_partition(
            svc: &ShuffleService<'_>,
            p: usize,
            split_k: usize,
            left_rows: Vec<Row>,
            right_rows: Vec<Row>,
            left_attr: AttrId,
            right_attr: AttrId,
            left_side: &ShuffledSide,
            right_side: &ShuffledSide,
        ) -> Result<Vec<Row>> {
            if split_k <= 1 {
                return budgeted_join(svc, p, 0, left_rows, right_rows, left_attr, right_attr);
            }
            svc.ctx().clock.record_partition_split();
            let left_small = left_rows.len() <= right_rows.len();
            let small_runs = if left_small { &left_side.runs[p] } else { &right_side.runs[p] };
            svc.charge_broadcasts(p, split_k, small_runs)?;
            let (mut small, big) =
                if left_small { (left_rows, right_rows) } else { (right_rows, left_rows) };
            let mut shares: Vec<Vec<Row>> = (0..split_k).map(|_| Vec::new()).collect();
            for (i, row) in big.into_iter().enumerate() {
                shares[i % split_k].push(row);
            }
            let mut out = Vec::new();
            for (j, share) in shares.into_iter().enumerate() {
                let whole =
                    if j + 1 == split_k { std::mem::take(&mut small) } else { small.clone() };
                let (l, r) = if left_small { (whole, share) } else { (share, whole) };
                out.extend(budgeted_join(svc, p, 0, l, r, left_attr, right_attr)?);
            }
            Ok(out)
        }

        fn budgeted_join(
            svc: &ShuffleService<'_>,
            p: usize,
            depth: usize,
            left: Vec<Row>,
            right: Vec<Row>,
            left_attr: AttrId,
            right_attr: AttrId,
        ) -> Result<Vec<Row>> {
            let rpb = svc.rows_per_block();
            let build_len = left.len().min(right.len());
            let budget_rows = match svc.ctx().join_mem_budget_blocks {
                None => {
                    svc.ctx().clock.record_reducer_peak(build_len.div_ceil(rpb));
                    return Ok(hash_join_rows(left, right, left_attr, right_attr));
                }
                Some(blocks) => blocks.max(1) * rpb,
            };
            if build_len <= budget_rows {
                svc.ctx().clock.record_reducer_peak(build_len.div_ceil(rpb));
                return Ok(hash_join_rows(left, right, left_attr, right_attr));
            }
            if depth >= MAX_RECURSION_DEPTH {
                return Ok(block_nested_loop(svc, left, right, left_attr, right_attr, budget_rows));
            }
            svc.ctx().clock.record_recursion_depth(depth + 1);
            let fanout = build_len.div_ceil(budget_rows).clamp(2, 8);
            let left_build = left.len() <= right.len();
            let split = |rows: Vec<Row>, attr: AttrId| -> Vec<Vec<Row>> {
                let mut groups = vec![Vec::new(); fanout];
                for row in rows {
                    let g = (salted(row.get(attr).stable_hash(), depth) % fanout as u64) as usize;
                    groups[g].push(row);
                }
                groups
            };
            let lgroups = split(left, left_attr);
            let rgroups = split(right, right_attr);
            let mut out = Vec::new();
            for (lg, rg) in lgroups.into_iter().zip(rgroups) {
                if lg.is_empty() || rg.is_empty() {
                    continue;
                }
                let (lg, rg) = if left_build {
                    (svc.spill_and_reload_build(p, lg)?, rg)
                } else {
                    (lg, svc.spill_and_reload_build(p, rg)?)
                };
                out.extend(budgeted_join(svc, p, depth + 1, lg, rg, left_attr, right_attr)?);
            }
            Ok(out)
        }

        fn block_nested_loop(
            svc: &ShuffleService<'_>,
            left: Vec<Row>,
            right: Vec<Row>,
            left_attr: AttrId,
            right_attr: AttrId,
            budget_rows: usize,
        ) -> Vec<Row> {
            let rpb = svc.rows_per_block();
            let chunk_rows = budget_rows.max(1);
            let left_build = left.len() <= right.len();
            let (build, probe, build_attr, probe_attr) = if left_build {
                (left, right, left_attr, right_attr)
            } else {
                (right, left, right_attr, left_attr)
            };
            let mut out = Vec::new();
            let mut build = build.into_iter();
            loop {
                let chunk: Vec<Row> = build.by_ref().take(chunk_rows).collect();
                if chunk.is_empty() {
                    break;
                }
                svc.ctx().clock.record_reducer_peak(chunk.len().div_ceil(rpb));
                let table = JoinHashTable::build(&chunk, build_attr);
                for row in &probe {
                    for id in table.probe(row.get(probe_attr).key()) {
                        let m = &chunk[id.row as usize];
                        out.push(if left_build { m.concat(row) } else { row.concat(m) });
                    }
                }
            }
            out
        }

        fn hash_join_rows(
            left: Vec<Row>,
            right: Vec<Row>,
            left_attr: AttrId,
            right_attr: AttrId,
        ) -> Vec<Row> {
            let left_build = left.len() <= right.len();
            let (build, probe, build_attr, probe_attr) = if left_build {
                (left, right, left_attr, right_attr)
            } else {
                (right, left, right_attr, left_attr)
            };
            let table = JoinHashTable::build(&build, build_attr);
            let mut out = Vec::new();
            for row in probe {
                for id in table.probe(row.get(probe_attr).key()) {
                    let m = &build[id.row as usize];
                    out.push(if left_build { m.concat(&row) } else { row.concat(m) });
                }
            }
            out
        }
    }

    /// One seeded reduce-side case: a key of class `k % 4` has 0, 1, 2
    /// or 5 right-side partners, left keys repeat 1–3 times, a hot key
    /// sits on both sides, and keys are `Int` or `Str` cells.
    fn reducer_case(seed: u64) -> (Vec<Row>, Vec<Row>) {
        let mut rng = adaptdb_common::rng::seeded(seed);
        let str_keys = seed % 2 == 1;
        let key = |k: i64| -> Value {
            if str_keys {
                // Past the inline limit every eighth key.
                let pad = if k % 8 == 0 { "-padded-beyond-the-inline-cell" } else { "" };
                Value::Str(format!("k{k}{pad}").as_str().into())
            } else {
                Value::Int(k)
            }
        };
        let keys = rng.random_range(20..40i64);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for k in 0..keys {
            for c in 0..rng.random_range(1..4) {
                left.push(Row::new(vec![key(k), Value::Int(k * 10 + c), format!("l{k}").into()]));
            }
            for c in 0..[0, 1, 2, 5][(k % 4) as usize] {
                right.push(Row::new(vec![key(k), Value::Str(format!("r{k}.{c}").as_str().into())]));
            }
        }
        let hot = key(1);
        for i in 0..rng.random_range(20..40i64) {
            left.push(Row::new(vec![hot.clone(), Value::Int(-i), "hot".into()]));
        }
        for i in 0..rng.random_range(10..20i64) {
            right.push(Row::new(vec![hot.clone(), Value::Str(format!("h{i}").as_str().into())]));
        }
        // Shuffle arrival order so runs interleave keys.
        for rows in [&mut left, &mut right] {
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.random_range(0..=i));
            }
        }
        (left, right)
    }

    /// The reducer over encoded runs returns the row reducer's rows in
    /// the same order, with identical block I/O and every shuffle
    /// tally (splits, broadcasts, build spills, recursion depth, peak
    /// reducer memory), at budgets ∞, 4 and 1, with splitting off and
    /// on.
    #[test]
    fn run_reducer_matches_the_row_reducer() {
        let rpb = 6;
        let (mut splits, mut spilled, mut capped) = (false, false, false);
        for seed in 0..6u64 {
            let (left, right) = reducer_case(seed);
            let store = BlockStore::new(3, 1, seed);
            let write = |t: &str, rows: &[Row], arity| -> Vec<BlockId> {
                rows.chunks(rpb).map(|c| store.write_block(t, c.to_vec(), arity, None)).collect()
            };
            let (lids, rids) = (write("l", &left, 3), write("r", &right, 2));
            let none = PredicateSet::none();
            let partitions = 4;
            let tables = [("l", &lids), ("r", &rids)];
            for budget in [None, Some(4), Some(1)] {
                for split_threshold in [None, Some(1.5)] {
                    let run = |reference: bool| {
                        let clock = SimClock::new();
                        let ctx = ExecContext::new(&store, &clock)
                            .with_shuffle(crate::context::ShuffleOptions {
                                partitions: None,
                                replication: 1,
                                split_threshold,
                            })
                            .with_join_mem_budget(budget);
                        let svc = ShuffleService::new(ctx, partitions, rpb, "eq").unwrap();
                        let spill = |right: bool, on_task: &mut dyn FnMut(&ShuffledSide)| {
                            let (t, ids) = tables[usize::from(right)];
                            svc.spill_blocks_observed(t, ids, 0, &none, on_task)
                        };
                        let rows = if reference {
                            row_reducer::exchange(&svc, 0, 0, spill)
                        } else {
                            exchange(&svc, 0, 0, spill).and_then(Joined::into_rows)
                        }
                        .unwrap();
                        svc.cleanup();
                        (rows, clock.snapshot(), clock.shuffle_snapshot())
                    };
                    let want = run(true);
                    let got = run(false);
                    let case = format!("seed {seed} budget {budget:?} split {split_threshold:?}");
                    assert!(!want.0.is_empty(), "{case}: empty join");
                    assert_eq!(got.0, want.0, "{case}: rows");
                    assert_eq!(got.1, want.1, "{case}: io");
                    assert_eq!(got.2, want.2, "{case}: shuffle tallies");
                    splits |= want.2.split_partitions > 0;
                    spilled |= want.2.build_blocks_spilled > 0;
                    capped |= want.2.max_recursion_depth == MAX_RECURSION_DEPTH;
                }
            }
        }
        assert!(splits && spilled && capped, "split {splits} spill {spilled} cap {capped}");
    }

    #[test]
    fn empty_sides_produce_empty_output() {
        let (store, lids, _) = setup(10, 10);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let s = ShuffleJoinSpec {
            left_table: "l",
            left_blocks: &lids,
            right_table: "r",
            right_blocks: &[],
            left_attr: 0,
            right_attr: 0,
            left_preds: &none,
            right_preds: &none,
            rows_per_block: 10,
        };
        let rows =
            shuffle_join(ExecContext::new(&store, &clock), s).and_then(Joined::into_rows).unwrap();
        assert!(rows.is_empty());
    }
}
