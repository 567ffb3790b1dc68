//! Criterion join microbenchmarks.
//!
//! `hyper_join_sf005` and `shuffle_join_sf005` run lineitem ⋈ orders
//! end to end through `Database::run` (the kernel behind Fig. 1).
//!
//! `hyper_join_5_matches_per_key` is one hyper-join whose every probe
//! row meets five build rows, so each probe row is copied into four
//! outputs and moved into the fifth.
//!
//! `hyper_join_low_match` is one hyper-join over 32 build blocks of
//! 200 five-column rows in which one build key in eight appears on the
//! probe side: the shape where gathering only matched build rows pays.
//!
//! `shuffle_map_lineitem_32_blocks` is a shuffle's map phase alone
//! (`ShuffleService::spill_blocks`): 32 lineitem blocks of 200 rows
//! on 10 nodes, hash-partitioned on `l_partkey` into 10 reducer runs
//! per map task; the runs are dropped after each iteration.
//!
//! `hyper_step_chain` is a three-table chain, the shape of TPC-H's
//! multi-way templates: 32 lineitem-like blocks of 200 five-column
//! rows hyper-joined with 8 orders-like blocks (every probe row meets
//! one build row), then a step join on a customer-like table whose
//! predicate keeps one row in five, and the final rows built.
//!
//! `shuffle_reduce_low_match` is one reduce task alone
//! (`reduce_partition`): it fetches 32 probe runs of 200 five-column
//! rows and 4 build runs, and one probe row in eight has a partner —
//! the shape of a selective shuffle join, where most shuffled rows
//! find none.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{
    row, BlockId, CmpOp, JoinQuery, Predicate, PredicateSet, Query, Row, ScanQuery, Value,
    ValueRange,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{
    hyper_join, hyper_step_join, reduce_partition, ExecContext, HyperJoinSpec, Joined,
    ShuffleService, StepGroup,
};
use adaptdb_join::{HyperJoinPlan, JoinSide};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, ord, TpchGen};

const ROWS_PER_BLOCK: usize = 200;

fn join_query() -> Query {
    Query::Join(JoinQuery::new(
        ScanQuery::full("lineitem"),
        ScanQuery::full("orders"),
        li::ORDERKEY,
        ord::ORDERKEY,
    ))
}

fn bench_join_exec(c: &mut Criterion) {
    let gen = TpchGen::new(0.05, 11);
    let config = DbConfig {
        rows_per_block: 100,
        buffer_blocks: 8,
        adapt_selections: false,
        ..DbConfig::default()
    };

    let mut hyper_db = Database::new(config.clone().with_mode(Mode::Fixed));
    gen.load_converged(&mut hyper_db, li::ORDERKEY).unwrap();
    c.bench_function("hyper_join_sf005", |b| {
        b.iter(|| black_box(hyper_db.run(&join_query()).unwrap().rows.len()))
    });

    let mut shuffle_db = Database::new(config.clone().with_mode(Mode::Amoeba));
    gen.load_converged(&mut shuffle_db, li::ORDERKEY).unwrap();
    c.bench_function("shuffle_join_sf005", |b| {
        b.iter(|| black_box(shuffle_db.run(&join_query()).unwrap().rows.len()))
    });
}

fn bench_multi_match_hyper_join(c: &mut Criterion) {
    const KEYS: i64 = 2000;
    const MATCHES: i64 = 5;
    let store = BlockStore::new(4, 1, 1);
    let write = |table: &str, rows: Vec<Row>| -> Vec<BlockId> {
        rows.chunks(ROWS_PER_BLOCK).map(|c| store.write_block(table, c.to_vec(), 3, None)).collect()
    };
    // Build blocks hold 40 keys × 5 rows; probe blocks 200 keys × 1 row,
    // so build group g (five blocks) overlaps exactly probe block g.
    let build: Vec<Row> =
        (0..KEYS * MATCHES).map(|i| row![i / MATCHES, i, format!("build-{i:06}")]).collect();
    let probe: Vec<Row> =
        (0..KEYS).map(|k| row![k, format!("probe-payload-{k:06}"), k as f64 * 0.5]).collect();
    let build_ids = write("b", build);
    let probe_ids = write("p", probe);
    let groups: Vec<Vec<BlockId>> = build_ids.chunks(MATCHES as usize).map(<[_]>::to_vec).collect();
    let probes: Vec<Vec<BlockId>> = probe_ids.iter().map(|&b| vec![b]).collect();
    assert_eq!(groups.len(), probes.len());
    let plan = HyperJoinPlan {
        build_side: JoinSide::Left,
        groups,
        probes,
        est_build_reads: build_ids.len(),
        est_probe_reads: probe_ids.len(),
        c_hyj: 1.0,
    };
    let none = PredicateSet::none();
    let clock = SimClock::new();
    c.bench_function("hyper_join_5_matches_per_key", |b| {
        b.iter(|| {
            let spec = HyperJoinSpec {
                left_table: "b",
                right_table: "p",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &plan,
            };
            let rows = hyper_join(ExecContext::new(&store, &clock), spec)
                .and_then(Joined::into_rows)
                .unwrap();
            assert_eq!(rows.len(), (KEYS * MATCHES) as usize);
            black_box(rows.len())
        })
    });
}

fn bench_low_match_hyper_join(c: &mut Criterion) {
    const BLOCKS: i64 = 32;
    const ROWS: i64 = ROWS_PER_BLOCK as i64;
    let store = BlockStore::new(4, 1, 1);
    let write = |table: &str, rows: Vec<Row>, arity| -> Vec<BlockId> {
        rows.chunks(ROWS_PER_BLOCK)
            .map(|c| store.write_block(table, c.to_vec(), arity, None))
            .collect()
    };
    // Build keys 0..6400 once each; probe keys every eighth of them,
    // eight times each, block b of each side over the same key range.
    let build: Vec<Row> = (0..BLOCKS * ROWS)
        .map(|k| row![k, k % 97, format!("build-comment-{k:08}"), k as f64 * 0.5, "SHIP"])
        .collect();
    let probe: Vec<Row> = (0..BLOCKS * ROWS)
        .map(|i| row![i / ROWS * ROWS + i % 25 * 8, format!("probe-{i:06}"), i])
        .collect();
    let (build_ids, probe_ids) = (write("b", build, 5), write("p", probe, 3));
    let plan = HyperJoinPlan {
        build_side: JoinSide::Left,
        groups: build_ids.chunks(8).map(<[_]>::to_vec).collect(),
        probes: probe_ids.chunks(8).map(<[_]>::to_vec).collect(),
        est_build_reads: build_ids.len(),
        est_probe_reads: probe_ids.len(),
        c_hyj: 1.0,
    };
    let none = PredicateSet::none();
    let clock = SimClock::new();
    c.bench_function("hyper_join_low_match", |b| {
        b.iter(|| {
            let spec = HyperJoinSpec {
                left_table: "b",
                right_table: "p",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &plan,
            };
            let rows = hyper_join(ExecContext::new(&store, &clock), spec)
                .and_then(Joined::into_rows)
                .unwrap();
            assert_eq!(rows.len(), (BLOCKS * ROWS) as usize);
            black_box(rows.len())
        })
    });
}

fn bench_shuffle_map(c: &mut Criterion) {
    const BLOCKS: usize = 32;
    let rows = TpchGen::new(0.3, 5).lineitem();
    let arity = TpchGen::lineitem_schema().len();
    let store = BlockStore::new(10, 3, 1);
    let blocks: Vec<BlockId> = rows[..BLOCKS * ROWS_PER_BLOCK]
        .chunks(ROWS_PER_BLOCK)
        .map(|chunk| store.write_block("lineitem", chunk.to_vec(), arity, None))
        .collect();
    let none = PredicateSet::none();
    let clock = SimClock::new();
    let ctx = ExecContext::new(&store, &clock);
    let svc = ShuffleService::new(ctx, 10, ROWS_PER_BLOCK, "bench").unwrap();
    c.bench_function("shuffle_map_lineitem_32_blocks", |b| {
        b.iter(|| {
            let side = svc.spill_blocks("lineitem", &blocks, li::PARTKEY, &none).unwrap();
            svc.cleanup();
            black_box(side.rows.iter().sum::<usize>())
        })
    });
}

fn bench_shuffle_reduce(c: &mut Criterion) {
    const PROBE_ROWS: i64 = 32 * ROWS_PER_BLOCK as i64;
    let store = BlockStore::new(4, 1, 1);
    let write = |table: &str, rows: Vec<Row>, arity| -> Vec<BlockId> {
        rows.chunks(ROWS_PER_BLOCK)
            .map(|c| store.write_block(table, c.to_vec(), arity, None))
            .collect()
    };
    let probe: Vec<Row> = (0..PROBE_ROWS)
        .map(|i| row![i, i % 97, format!("probe-comment-{i:08}"), i as f64 * 0.5, "SHIP"])
        .collect();
    let build: Vec<Row> = (0..PROBE_ROWS / 8).map(|k| row![k * 8, format!("b{k}")]).collect();
    let (probe_ids, build_ids) = (write("p", probe, 5), write("b", build, 2));
    let none = PredicateSet::none();
    let clock = SimClock::new();
    // One reducer, fed from one map task per node.
    let svc =
        ShuffleService::new(ExecContext::new(&store, &clock), 1, ROWS_PER_BLOCK, "bench").unwrap();
    let build = svc.spill_blocks("b", &build_ids, 0, &none).unwrap();
    let probe = svc.spill_blocks("p", &probe_ids, 0, &none).unwrap();
    c.bench_function("shuffle_reduce_low_match", |b| {
        b.iter(|| {
            let rows = reduce_partition(&svc, 0, 1, &build, &probe, 0, 0)
                .and_then(Joined::into_rows)
                .unwrap();
            assert_eq!(rows.len(), (PROBE_ROWS / 8) as usize);
            black_box(rows.len())
        })
    });
    svc.cleanup();
}

fn bench_hyper_step_chain(c: &mut Criterion) {
    const ROWS: i64 = ROWS_PER_BLOCK as i64;
    let store = BlockStore::new(4, 1, 1);
    let write = |table: &str, rows: Vec<Row>, arity| -> Vec<BlockId> {
        rows.chunks(ROWS_PER_BLOCK)
            .map(|c| store.write_block(table, c.to_vec(), arity, None))
            .collect()
    };
    // Order keys 0..1600, four lineitems each; customer keys 0..800.
    let li: Vec<Row> = (0..32 * ROWS)
        .map(|i| row![i / 4, (i * 7) % 800, format!("li-{i:06}"), i as f64 * 0.5, "SHIP"])
        .collect();
    let ord: Vec<Row> = (0..8 * ROWS).map(|k| row![k, format!("order-{k:05}"), k % 50]).collect();
    let cust: Vec<Row> = (0..4 * ROWS).map(|k| row![k, format!("cust-{k:04}"), k % 25]).collect();
    let (li_ids, ord_ids) = (write("li", li, 5), write("ord", ord, 3));
    let cust_ids = write("cust", cust, 3);
    // Two orders blocks per group, probed by the eight lineitem blocks
    // over their keys.
    let plan = HyperJoinPlan {
        build_side: JoinSide::Right,
        groups: ord_ids.chunks(2).map(<[_]>::to_vec).collect(),
        probes: li_ids.chunks(8).map(<[_]>::to_vec).collect(),
        est_build_reads: ord_ids.len(),
        est_probe_reads: li_ids.len(),
        c_hyj: 1.0,
    };
    let groups: Vec<StepGroup> = cust_ids
        .chunks(2)
        .zip([0i64, 2 * ROWS])
        .map(|(blocks, lo)| StepGroup {
            blocks: blocks.to_vec(),
            range: ValueRange::new(Value::Int(lo), Value::Int(lo + 2 * ROWS - 1)),
        })
        .collect();
    let none = PredicateSet::none();
    let keep = PredicateSet::none().and(Predicate::new(2, CmpOp::Lt, 5i64));
    let clock = SimClock::new();
    c.bench_function("hyper_step_chain", |b| {
        b.iter(|| {
            let ctx = ExecContext::new(&store, &clock);
            let spec = HyperJoinSpec {
                left_table: "li",
                right_table: "ord",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &plan,
            };
            let rows = hyper_join(ctx, spec)
                .and_then(|j| hyper_step_join(ctx, "cust", groups.clone(), 0, &keep, j, 1, 200))
                .and_then(Joined::into_rows)
                .unwrap();
            assert_eq!(rows.len(), 32 * ROWS_PER_BLOCK / 5);
            black_box(rows.len())
        })
    });
}

criterion_group!(
    benches,
    bench_join_exec,
    bench_multi_match_hyper_join,
    bench_low_match_hyper_join,
    bench_shuffle_map,
    bench_shuffle_reduce,
    bench_hyper_step_chain
);
criterion_main!(benches);
