//! Ingest under load: query latency and fold backlog vs ingest rate.
//!
//! A TPC-H-loaded adaptive database serves the full template corpus
//! while a writer trickles fresh lineitem rows in between queries, at a
//! sweep of ingest rates (rows per append). The load-paced maintenance
//! trigger (`ingest_fold_blocks`) folds the delta backlog into the
//! partition tree as queries run. The figure reports, per rate:
//!
//! * **query p95** — wall-clock p95 across the round's queries (and
//!   the deterministic p95 of simulated reads, which CI gates);
//! * **fold lag** — the maximum unfolded delta backlog ever observed
//!   (in blocks), which must stay bounded by the fold threshold plus
//!   one append's worth of blocks at every rate;
//! * **conservation** — after a final drain fold every appended row is
//!   visible exactly once: `rows_total == base_rows + rate * rounds`.
//!
//! The binary asserts these contracts before it writes
//! `BENCH_ingest.json`. Wall-clock cells are machine-dependent and
//! never gated against the baseline; every simulated counter (append,
//! fold, tail-rewrite, and read accounting) is deterministic and
//! compared exactly by `scripts/check_bench.py`.
//!
//! Usage: `fig_ingest [--scale X] [--seed N] [--quick]`

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_bench::{parse_args, BenchOpts, Fields, Report, Stopwatch};
use adaptdb_common::rng::derived;
use adaptdb_common::{Query, Row, ScanQuery};
use adaptdb_dfs::SimClock;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

const ROWS_PER_BLOCK: usize = 64;
const FOLD_BLOCKS: usize = 4;
/// Ingest rates swept: rows per append, ascending.
const RATES: [usize; 3] = [32, 128, 512];

/// One ingest-rate cell.
struct Cell {
    rate: usize,
    rounds: usize,
    appends: usize,
    rows_appended: usize,
    delta_blocks_written: usize,
    tail_rewrites: usize,
    folds: usize,
    blocks_folded: usize,
    max_backlog: usize,
    base_rows: usize,
    rows_total: usize,
    query_rows_out: usize,
    reads_p95: usize,
    p95_ms: f64,
}

/// p95 by rank over a sorted copy (the cells are small; exactness
/// matters more than streaming).
fn rank_p95<T: Copy + PartialOrd>(xs: &[T]) -> T {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in latency samples"));
    let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_cell(opts: &BenchOpts, rate: usize, rounds: usize) -> Cell {
    let gen = TpchGen::new(opts.scale.max(0.02), opts.seed);
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: ROWS_PER_BLOCK,
        buffer_blocks: 8,
        adapt_selections: false,
        fetch_window: 4,
        ingest_fold_blocks: FOLD_BLOCKS,
        seed: opts.seed,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_converged(&mut db, li::ORDERKEY).expect("load");
    let full = Query::Scan(ScanQuery::full("lineitem"));
    let base_rows = db.run(&full).expect("base scan").rows.len();

    // The appended stream: lineitem-shaped rows from a different seed,
    // cycled if a high rate outruns the generated corpus.
    let stream = TpchGen::new(opts.scale.max(0.02), opts.seed + 101).lineitem();
    let templates = Template::all();
    let mut q_rng = derived(opts.seed, "fig-ingest");
    let mut cursor = 0usize;
    let mut wall = Vec::with_capacity(rounds);
    let mut reads = Vec::with_capacity(rounds);
    let mut max_backlog = 0usize;
    let mut query_rows_out = 0usize;

    for round in 0..rounds {
        let batch: Vec<Row> =
            (0..rate).map(|i| stream[(cursor + i) % stream.len()].clone()).collect();
        cursor += rate;
        db.append_rows("lineitem", batch).expect("append");
        max_backlog = max_backlog.max(db.table("lineitem").expect("table").delta().len());
        let q = templates[round % templates.len()].instantiate(&mut q_rng);
        let sw = Stopwatch::start();
        let r = db.run(&q).expect("query");
        wall.push(sw.ms());
        reads.push(r.stats.query_io.reads());
        query_rows_out += r.rows.len();
    }

    // Drain: a final maintenance fold empties the delta, after which
    // every appended row is in the tree exactly once.
    let clock = SimClock::maintenance();
    db.fold_deltas("lineitem", &clock).expect("drain fold");
    assert!(db.table("lineitem").expect("table").delta().is_empty(), "drain fold left a delta");
    let rows_total = db.run(&full).expect("final scan").rows.len();

    let ing = db.ingest_stats();
    Cell {
        rate,
        rounds,
        appends: ing.appends,
        rows_appended: ing.rows_appended,
        delta_blocks_written: ing.delta_blocks_written,
        tail_rewrites: ing.tail_rewrites,
        folds: ing.folds,
        blocks_folded: ing.blocks_folded,
        max_backlog,
        base_rows,
        rows_total,
        query_rows_out,
        reads_p95: rank_p95(&reads),
        p95_ms: rank_p95(&wall),
    }
}

fn row(c: &Cell) -> Fields {
    Fields::default()
        .lit("rate", c.rate)
        .lit("rounds", c.rounds)
        .lit("appends", c.appends)
        .lit("rows_appended", c.rows_appended)
        .lit("delta_blocks_written", c.delta_blocks_written)
        .lit("tail_rewrites", c.tail_rewrites)
        .lit("folds", c.folds)
        .lit("blocks_folded", c.blocks_folded)
        .lit("max_backlog", c.max_backlog)
        .lit("rows_total", c.rows_total)
        .lit("query_rows_out", c.query_rows_out)
        .lit("reads_p95", c.reads_p95)
        .wall("p95_ms", c.p95_ms, 3)
}

fn main() {
    let (opts, _) = parse_args(&[]);
    let rounds = if opts.quick { 6 } else { 16 };
    let cells: Vec<Cell> = RATES.iter().map(|&r| run_cell(&opts, r, rounds)).collect();

    let report = Report::new(
        Fields::header("ingest", &opts)
            .lit("rows_per_block", ROWS_PER_BLOCK)
            .lit("fold_blocks", FOLD_BLOCKS)
            .lit("rounds", rounds)
            .lit("base_rows", cells[0].base_rows),
    )
    .table(
        "cells",
        "Ingest under load: fold lag and query p95 vs rate",
        cells.iter().map(row).collect(),
    );
    report.print();

    // The figure's contracts, asserted before the file is written.
    assert!(
        cells.windows(2).all(|w| w[0].rate < w[1].rate),
        "cells must be in strictly ascending rate order"
    );
    for c in &cells {
        assert_eq!(c.appends, c.rounds, "rate {}: every round appends once", c.rate);
        assert_eq!(c.rows_appended, c.rate * c.rounds, "rate {}: appended-row accounting", c.rate);
        assert_eq!(
            c.rows_total,
            c.base_rows + c.rows_appended,
            "rate {}: rows lost or duplicated across folds",
            c.rate
        );
        assert!(c.folds > 0, "rate {}: load-paced maintenance never folded", c.rate);
        let bound = FOLD_BLOCKS + c.rate.div_ceil(ROWS_PER_BLOCK) + 1;
        assert!(
            c.max_backlog <= bound,
            "rate {}: fold backlog {} exceeds bound {bound}",
            c.rate,
            c.max_backlog
        );
    }
    assert!(
        cells.windows(2).all(|w| w[0].delta_blocks_written <= w[1].delta_blocks_written),
        "delta blocks written must grow with the ingest rate"
    );

    report.write("BENCH_ingest.json");
}
