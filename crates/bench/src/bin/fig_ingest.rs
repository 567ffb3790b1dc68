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
//! Wall-clock cells are machine-dependent and never gated against the
//! baseline; every simulated counter (append, fold, tail-rewrite, and
//! read accounting) is deterministic and compared bit-exactly by
//! `scripts/check_bench_ingest.py`.
//!
//! Usage: `fig_ingest [--scale X] [--seed N] [--quick]`

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_bench::{parse_args, print_table, BenchOpts, Stopwatch};
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

fn json_cell(c: &Cell) -> String {
    format!(
        "    {{\"rate\": {}, \"rounds\": {}, \"appends\": {}, \"rows_appended\": {}, \
         \"delta_blocks_written\": {}, \"tail_rewrites\": {}, \"folds\": {}, \
         \"blocks_folded\": {}, \"max_backlog\": {}, \"rows_total\": {}, \
         \"query_rows_out\": {}, \"reads_p95\": {}, \"p95_ms\": {:.3}}}",
        c.rate,
        c.rounds,
        c.appends,
        c.rows_appended,
        c.delta_blocks_written,
        c.tail_rewrites,
        c.folds,
        c.blocks_folded,
        c.max_backlog,
        c.rows_total,
        c.query_rows_out,
        c.reads_p95,
        c.p95_ms,
    )
}

fn write_json(path: &str, cells: &[Cell], rounds: usize, opts: &BenchOpts) {
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"rows_per_block\": {},\n  \"fold_blocks\": {},\n  \"rounds\": {},\n  \
         \"base_rows\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        opts.scale,
        opts.seed,
        ROWS_PER_BLOCK,
        FOLD_BLOCKS,
        rounds,
        cells[0].base_rows,
        cells.iter().map(json_cell).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write(path, json).expect("write BENCH_ingest.json");
    println!("wrote {path}");
}

fn main() {
    let (opts, _) = parse_args();
    let rounds = if opts.quick { 6 } else { 16 };
    let cells: Vec<Cell> = RATES.iter().map(|&r| run_cell(&opts, r, rounds)).collect();

    let headers = [
        "rate", "appends", "dblocks", "rewr", "folds", "folded", "lag", "total", "p95 rd", "p95 ms",
    ];
    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.rate.to_string(),
                c.appends.to_string(),
                c.delta_blocks_written.to_string(),
                c.tail_rewrites.to_string(),
                c.folds.to_string(),
                c.blocks_folded.to_string(),
                c.max_backlog.to_string(),
                c.rows_total.to_string(),
                c.reads_p95.to_string(),
                format!("{:.2}", c.p95_ms),
            ]
        })
        .collect();
    print_table("Ingest under load: fold lag and query p95 vs rate", &headers, &table);

    // In-binary acceptance: the properties CI gates on must hold here
    // before a baseline is ever written.
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

    write_json("BENCH_ingest.json", &cells, rounds, &opts);
}
