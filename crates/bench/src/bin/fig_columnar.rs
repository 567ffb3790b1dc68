//! Columnar execution: wall-clock speedup of late materialization on
//! TPC-H scans and join probes, at bit-identical simulated accounting.
//!
//! The simulated currency (block I/Os) is format-blind by design — the
//! engine's win is *real* CPU time: decode only the predicate and key
//! columns, evaluate into selection bitsets, and materialize only
//! surviving rows. Late materialization is the
//! engine's only data plane, so each timed sweep compares it with a
//! row-at-a-time reference built into this figure: `read_block` (a
//! full decode) plus `PredicateSet::matches` per row, and, for the
//! probe, a row-at-a-time `JoinHashTable::probe`. This figure measures
//! the win and pins the invariants the engine promises:
//!
//! * **scan sweep** — a selective predicate on an *unclustered*
//!   attribute (zone maps cannot skip, every block is decoded): the
//!   engine scan must be ≥ 4× faster wall-clock than the reference at
//!   identical reads / rows / output;
//! * **clustered cell** — the same scan shape on the clustering
//!   attribute: zone maps must skip ≥ half the candidate blocks before
//!   any read, identically in the engine and the reference;
//! * **probe sweep** — a hyper-join whose probe leg has a low hit
//!   rate: batch probing over the key column must be ≥ 4× faster than
//!   row-at-a-time probing at identical output;
//! * **parity** — the full TPC-H template corpus through the engine:
//!   rows, `IoStats` (including `zone_skipped`), and `ShuffleStats` —
//!   the committed baseline gates every counter exactly.
//!
//! Wall-clock cells report the *minimum* over several iterations (the
//! noise-robust estimator). The reference and engine runs of a cell
//! pair alternate, so a burst of host load lands on both sides rather
//! than on one; counters are deterministic at any speed.
//! The binary asserts the contracts above before it writes
//! `BENCH_columnar.json`; CI then diffs every value of the file except
//! the declared wall-clock fields against the committed baseline
//! (`scripts/check_bench.py`).
//!
//! Usage: `fig_columnar [--scale X] [--seed N] [--quick]`

use adaptdb_bench::{parse_args, BenchOpts, Fields, Report, Stopwatch};
use adaptdb_common::{
    row, CmpOp, CostParams, IoStats, Predicate, PredicateSet, Query, Row, ShuffleStats, Value,
    ValueRange,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{
    hyper_join, scan_blocks, ExecContext, HyperJoinSpec, JoinHashTable, Joined, RowId,
};
use adaptdb_join::{planner, HyperJoinPlan, JoinDecision, JoinSide};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

const ROWS_PER_BLOCK: usize = 200;
const NODES: usize = 4;
/// Wall-clock acceptance floor for both timed sweeps.
const SPEEDUP_FLOOR: f64 = 4.0;
/// Minimum fraction of candidate blocks the clustered cell must
/// zone-skip.
const SKIP_RATE_FLOOR: f64 = 0.5;

/// One timed cell: a scan or probe leg, run by the engine
/// (`columnar`) or by the row-at-a-time reference.
struct Cell {
    name: &'static str,
    columnar: bool,
    blocks: usize,
    reads: usize,
    zone_skipped: usize,
    rows_scanned: usize,
    rows_out: usize,
    wall_ms: f64,
}

/// Write `rows` as blocks of `table`, returning ids and per-block
/// min/max ranges of `attr` (the zone map the join planner consumes).
fn write_blocks(
    store: &BlockStore,
    table: &str,
    rows: &[Row],
    attr: u16,
) -> (Vec<u32>, Vec<(u32, ValueRange)>) {
    let arity = rows.first().map(|r| r.values().len()).unwrap_or(0);
    let mut ids = Vec::new();
    let mut ranges = Vec::new();
    for chunk in rows.chunks(ROWS_PER_BLOCK) {
        let mut range = ValueRange::empty();
        for r in chunk {
            range.insert(r.get(attr));
        }
        let id = store.write_block(table, chunk.to_vec(), arity, None);
        ids.push(id);
        ranges.push((id, range));
    }
    (ids, ranges)
}

/// Time one cell pair over `blocks` blocks: run `leg(columnar, clock)`
/// for the reference (`false`) and the engine (`true`) in alternation,
/// `iters` times each. Each side keeps its minimum wall milliseconds
/// and its last run's counters; reference cell first.
fn timed_pair(
    name: &'static str,
    blocks: usize,
    iters: usize,
    mut leg: impl FnMut(bool, &SimClock) -> Vec<Row>,
) -> [Cell; 2] {
    let clocks = [SimClock::new(), SimClock::new()];
    let (mut wall_ms, mut rows_out) = ([f64::INFINITY; 2], [0; 2]);
    for _ in 0..iters.max(1) {
        for (side, clock) in clocks.iter().enumerate() {
            clock.take();
            let sw = Stopwatch::start();
            let out = leg(side == 1, clock);
            wall_ms[side] = wall_ms[side].min(sw.ms());
            rows_out[side] = out.len();
        }
    }
    [0, 1].map(|side| {
        let io = clocks[side].take();
        Cell {
            name,
            columnar: side == 1,
            blocks,
            reads: io.reads(),
            zone_skipped: io.zone_skipped,
            rows_scanned: io.rows_scanned,
            rows_out: rows_out[side],
            wall_ms: wall_ms[side],
        }
    })
}

/// The row-at-a-time reference scan: the engine's zone-map check,
/// then per surviving block a full `read_block` decode and
/// `PredicateSet::matches` on every row, charged like the engine.
fn reference_scan(
    store: &BlockStore,
    clock: &SimClock,
    table: &str,
    ids: &[u32],
    preds: &PredicateSet,
) -> Vec<Row> {
    let mut out = Vec::new();
    for &b in ids {
        if !store.with_block_meta(table, b, |m| preds.may_match(&m.ranges)).expect("meta") {
            clock.record_zone_skips(1);
            continue;
        }
        let node = store.preferred_node(table, b).expect("placement");
        let block = store.read_block(table, b, node, clock).expect("read");
        let scanned = block.rows.len();
        let before = out.len();
        out.extend(block.rows.into_iter().filter(|r| preds.matches(r)));
        clock.record_rows(scanned, out.len() - before);
    }
    out
}

/// Measure one scan by the reference and by the engine.
fn scan_pair(
    name: &'static str,
    rows: &[Row],
    preds: &PredicateSet,
    iters: usize,
    seed: u64,
) -> [Cell; 2] {
    let store = BlockStore::new(NODES, 1, seed);
    let (ids, _) = write_blocks(&store, "li", rows, li::ORDERKEY);
    timed_pair(name, ids.len(), iters, |columnar, clock| {
        if columnar {
            scan_blocks(ExecContext::new(&store, clock), "li", &ids, preds).expect("scan")
        } else {
            reference_scan(&store, clock, "li", &ids, preds)
        }
    })
}

/// The row-at-a-time reference hyper-join over the same plan as the
/// engine: per group, a full decode of each build block into rows
/// indexed by a [`JoinHashTable`], then a full decode of each probe
/// block and one `probe` call per row, all read from the group's node. Predicates are
/// empty in this figure, so every row is kept.
fn reference_hyper_join(
    store: &BlockStore,
    clock: &SimClock,
    left: &str,
    right: &str,
    attrs: (u16, u16),
    plan: &HyperJoinPlan,
) -> Vec<Row> {
    let (build, probe, build_attr, probe_attr) = match plan.build_side {
        JoinSide::Left => (left, right, attrs.0, attrs.1),
        JoinSide::Right => (right, left, attrs.1, attrs.0),
    };
    let mut out = Vec::new();
    for (group, probes) in plan.groups.iter().zip(&plan.probes) {
        let Some(&first) = group.first() else { continue };
        let node = store.preferred_node(build, first).expect("placement");
        let (mut table, mut rows) = (JoinHashTable::new(), Vec::new());
        for &b in group {
            let block = store.read_block(build, b, node, clock).expect("read");
            clock.record_rows(block.rows.len(), block.rows.len());
            for row in block.rows {
                table.insert(row.get(build_attr).key(), RowId { src: 0, row: rows.len() as u32 });
                rows.push(row);
            }
        }
        for &b in probes {
            let block = store.read_block(probe, b, node, clock).expect("read");
            clock.record_rows(block.rows.len(), block.rows.len());
            for row in &block.rows {
                for id in table.probe(row.get(probe_attr).key()) {
                    let hit = &rows[id.row as usize];
                    out.push(match plan.build_side {
                        JoinSide::Left => hit.concat(row),
                        JoinSide::Right => row.concat(hit),
                    });
                }
            }
        }
    }
    out
}

/// Measure one hyper-join probe leg by the reference and by the
/// engine: a small dimension side (every ~50th orderkey) built
/// against the full lineitem probe side — a ~2% hit rate, the shape
/// late materialization likes least to waste on. The engine's join
/// returns row ids; both legs build their output rows inside the
/// timed leg, so the two sides do the same work.
fn probe_pair(name: &'static str, rows: &[Row], iters: usize, seed: u64) -> [Cell; 2] {
    let store = BlockStore::new(NODES, 1, seed);
    let (_lids, lranges) = write_blocks(&store, "li", rows, li::ORDERKEY);
    let max_key = rows.iter().map(|r| r.get(li::ORDERKEY).as_int().unwrap()).max().unwrap_or(0);
    let dim: Vec<Row> = (0..=max_key).step_by(50).map(|k| row![k, k * 3]).collect();
    let (_, dranges) = write_blocks(&store, "dim", &dim, 0);
    let decision = planner::plan(&lranges, &dranges, 64, &CostParams::default());
    let JoinDecision::Hyper(plan) = decision else { panic!("expected a hyper-join plan") };
    let none = PredicateSet::none();
    timed_pair(name, lranges.len() + dranges.len(), iters, |columnar, clock| {
        if !columnar {
            return reference_hyper_join(&store, clock, "li", "dim", (li::ORDERKEY, 0), &plan);
        }
        hyper_join(
            ExecContext::new(&store, clock),
            HyperJoinSpec {
                left_table: "li",
                right_table: "dim",
                left_attr: li::ORDERKEY,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &plan,
            },
        )
        .and_then(Joined::into_rows)
        .expect("hyper join")
    })
}

/// Run the whole TPC-H template corpus through the engine and total
/// the accounting.
fn parity_cell(opts: &BenchOpts) -> Fields {
    use adaptdb::{Database, DbConfig, Mode};
    let gen = TpchGen::new(opts.scale.max(0.02), opts.seed);
    let config = DbConfig {
        nodes: NODES,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        adapt_selections: false,
        fetch_window: 4,
        seed: opts.seed,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_converged(&mut db, li::ORDERKEY).expect("load");
    let mut q_rng = adaptdb_common::rng::derived(opts.seed, "fig-columnar-parity");
    let queries: Vec<Query> = Template::all().iter().map(|t| t.instantiate(&mut q_rng)).collect();
    let (mut rows_out, mut io, mut shuffle) = (0, IoStats::default(), ShuffleStats::default());
    for q in &queries {
        let r = db.run(q).expect("query");
        rows_out += r.rows.len();
        io.merge(&r.stats.query_io);
        shuffle.merge(&r.stats.shuffle);
    }
    Fields::default()
        .lit("columnar", true)
        .lit("queries", queries.len())
        .lit("rows_out", rows_out)
        .lit("reads", io.reads())
        .lit("writes", io.writes)
        .lit("zone_skipped", io.zone_skipped)
        .lit("spill_blocks", shuffle.blocks_spilled)
        .lit("local_fetches", shuffle.local_fetches)
        .lit("remote_fetches", shuffle.remote_fetches)
        .lit("bytes_spilled", shuffle.bytes_spilled)
}

fn row(c: &Cell) -> Fields {
    Fields::default()
        .text("name", c.name)
        .lit("columnar", c.columnar)
        .lit("blocks", c.blocks)
        .lit("reads", c.reads)
        .lit("zone_skipped", c.zone_skipped)
        .lit("rows_scanned", c.rows_scanned)
        .lit("rows_out", c.rows_out)
        .wall("wall_ms", c.wall_ms, 3)
}

/// The reference and engine cells of a sweep must agree on every
/// simulated counter; the wall-clock ratio is the speedup.
fn assert_counts_and_speedup(pair: &[Cell]) -> f64 {
    let (r, c) = (&pair[0], &pair[1]);
    assert!(!r.columnar && c.columnar, "{}: cells out of order", r.name);
    assert_eq!(r.blocks, c.blocks, "{}: block counts diverged", r.name);
    assert_eq!(r.reads, c.reads, "{}: reads diverged", r.name);
    assert_eq!(r.zone_skipped, c.zone_skipped, "{}: zone skips diverged", r.name);
    assert_eq!(r.rows_scanned, c.rows_scanned, "{}: rows scanned diverged", r.name);
    assert_eq!(r.rows_out, c.rows_out, "{}: rows out diverged", r.name);
    r.wall_ms / c.wall_ms.max(1e-9)
}

fn main() {
    let (opts, _) = parse_args(&[]);
    let iters = if opts.quick { 3 } else { 10 };
    // A sizeable lineitem corpus, sorted by orderkey so the clustering
    // attribute is real. Every wall-clock cell scans this.
    let gen = TpchGen::new((opts.scale * 4.0).max(0.2), opts.seed);
    let mut rows = gen.lineitem();
    rows.sort_by(|a, b| a.get(li::ORDERKEY).cmp(b.get(li::ORDERKEY)));

    // Selective predicate on QUANTITY — uncorrelated with block order,
    // so zone maps keep every block and decode cost dominates.
    let unclustered = PredicateSet::none().and(Predicate::new(li::QUANTITY, CmpOp::Eq, 7i64));
    let scan = scan_pair("scan-unclustered", &rows, &unclustered, iters, opts.seed);
    let scan_speedup = assert_counts_and_speedup(&scan);

    // The same scan shape on the clustering attribute: zone maps skip.
    let max_key = rows.last().map(|r| r.get(li::ORDERKEY).as_int().unwrap()).unwrap_or(0);
    let clustered_preds =
        PredicateSet::none().and(Predicate::new(li::ORDERKEY, CmpOp::Lt, Value::Int(max_key / 5)));
    let clustered = scan_pair("scan-clustered", &rows, &clustered_preds, iters, opts.seed);
    assert_counts_and_speedup(&clustered);

    let probe = probe_pair("hyper-probe", &rows, iters, opts.seed);
    let probe_speedup = assert_counts_and_speedup(&probe);

    // Late materialization is the only data plane: one parity cell.
    let parity = vec![parity_cell(&opts)];
    assert_eq!(parity.len(), 1, "one parity cell");

    let rows = |cells: &[Cell]| cells.iter().map(row).collect();
    let report = Report::new(
        Fields::header("columnar", &opts)
            .lit("rows_per_block", ROWS_PER_BLOCK)
            .lit("speedup_floor", SPEEDUP_FLOOR)
            .lit("skip_rate_floor", SKIP_RATE_FLOOR)
            .wall("scan_speedup", scan_speedup, 2)
            .wall("probe_speedup", probe_speedup, 2),
    )
    .table("scan", "Selective scan, unclustered predicate (decode-bound)", rows(&scan))
    .table("clustered", "Selective scan, clustered predicate (zone maps)", rows(&clustered))
    .table("probe", "Hyper-join probe leg, ~2% hit rate", rows(&probe))
    .table("parity", "TPC-H corpus through the engine", parity);
    report.print();
    println!("\nscan speedup: {scan_speedup:.2}x   probe speedup: {probe_speedup:.2}x");

    // The figure's contracts, asserted before the file is written.
    assert!(
        scan_speedup >= SPEEDUP_FLOOR,
        "engine scan speedup {scan_speedup:.2}x below {SPEEDUP_FLOOR}x"
    );
    assert!(
        probe_speedup >= SPEEDUP_FLOOR,
        "engine probe speedup {probe_speedup:.2}x below {SPEEDUP_FLOOR}x"
    );
    let skip_rate = clustered[0].zone_skipped as f64 / clustered[0].blocks as f64;
    assert!(
        skip_rate >= SKIP_RATE_FLOOR,
        "clustered cell skip rate {skip_rate:.2} below {SKIP_RATE_FLOOR}"
    );
    assert_eq!(scan[0].zone_skipped, 0, "unclustered predicate must not zone-skip");

    report.write("BENCH_columnar.json");
}
