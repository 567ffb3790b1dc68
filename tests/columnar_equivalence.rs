//! The columnar engine against a naive reference executor.
//!
//! Blocks are written in the columnar `ADB2` format and every filtered
//! read materialises late (selection bitsets, zone-map skipping,
//! morsel-driven gathers, batch probes). These tests check the engine
//! against a reference that knows nothing of trees, blocks or the DFS:
//! a filter plus hash join over the rows the generator loaded. On
//! TPC-H and on Zipfian synthetic joins the engine must return the
//! reference's rows; zone-map skipping must never drop a qualifying
//! row under randomized predicates; and legacy `ADB1` blocks — written
//! the way old journals restore them — must read with rows and
//! accounting bit-identical to `ADB2` ones.

use std::collections::BTreeMap;

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{
    row, CmpOp, GlobalBlockId, Predicate, PredicateSet, Query, Row, ScanQuery, Value,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{scan_blocks, shuffle_join, ExecContext, ShuffleJoinSpec, ShuffleOptions};
use adaptdb_storage::codec::encode_block;
use adaptdb_storage::{Block, BlockStore};
use adaptdb_workloads::tpch::{li, Template, TpchGen};
use adaptdb_workloads::zipf;
use proptest::prelude::*;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

const TPCH_TABLES: [&str; 5] = ["lineitem", "orders", "customer", "part", "supplier"];

fn tpch_gen() -> TpchGen {
    TpchGen::new(0.02, 5)
}

fn tpch_db(mode: Mode) -> Database {
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        threads: 1,
        adapt_selections: false,
        fetch_window: 4,
        morsel_rows: 24, // several morsels per block
        seed: 5,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(mode));
    tpch_gen().load_converged(&mut db, li::ORDERKEY).unwrap();
    db
}

/// The rows the generator loaded, by table name.
fn tpch_rows(gen: &TpchGen) -> BTreeMap<&'static str, Vec<Row>> {
    BTreeMap::from([
        ("lineitem", gen.lineitem()),
        ("orders", gen.orders()),
        ("customer", gen.customer()),
        ("part", gen.part()),
        ("supplier", gen.supplier()),
    ])
}

/// Equi-join by building a map over `right` (output `left ++ right`).
fn hash_join(left: Vec<Row>, right: Vec<Row>, la: u16, ra: u16) -> Vec<Row> {
    let mut map: BTreeMap<Value, Vec<Row>> = BTreeMap::new();
    for r in right {
        map.entry(r.get(ra).clone()).or_default().push(r);
    }
    left.iter()
        .flat_map(|l| map.get(l.get(la)).into_iter().flatten().map(move |r| l.concat(r)))
        .collect()
}

/// The naive reference executor: filter each scanned table, then
/// hash-join left to right (multi-way steps append the stored table's
/// columns to the intermediate's).
fn reference(tables: &BTreeMap<&str, Vec<Row>>, q: &Query) -> Vec<Row> {
    let scan = |s: &ScanQuery| -> Vec<Row> {
        tables[s.table.as_str()].iter().filter(|r| s.predicates.matches(r)).cloned().collect()
    };
    match q {
        Query::Scan(s) => scan(s),
        Query::Join(j) => hash_join(scan(&j.left), scan(&j.right), j.left_attr, j.right_attr),
        Query::MultiJoin { first, steps } => {
            let mut rows =
                hash_join(scan(&first.left), scan(&first.right), first.left_attr, first.right_attr);
            for step in steps {
                rows = hash_join(rows, scan(&step.table), step.intermediate_attr, step.table_attr);
            }
            rows
        }
    }
}

/// Rewrite every live block of `tables` as `ADB1` bytes through
/// `restore_block` — the path blocks from older journals take — with
/// the same id, arity and replicas.
fn rewrite_as_adb1(store: &BlockStore, tables: &[&str]) {
    for &t in tables {
        for id in store.block_ids(t) {
            let rows = store.read_block_unaccounted(t, id).unwrap().rows;
            let arity = store.with_block_meta(t, id, |m| m.ranges.len()).unwrap();
            let replicas = store.dfs().locate(&GlobalBlockId::new(t, id)).unwrap().replicas.clone();
            let bytes = encode_block(&Block::new(id, rows));
            store.restore_block(t, id, arity, replicas, bytes).unwrap();
        }
    }
}

/// Every live block's rows, across the whole table.
fn stored_rows(store: &BlockStore, table: &str) -> Vec<Row> {
    let ids = store.block_ids(table);
    ids.into_iter().flat_map(|id| store.read_block_unaccounted(table, id).unwrap().rows).collect()
}

/// The canonical byte-size definition makes block boundaries,
/// per-block row counts, byte sizes, and zone maps independent of the
/// wire format: metadata derived from the `ADB2` rows at write time
/// equals metadata re-derived from the same rows' `ADB1` bytes, and
/// the blocks hold exactly the generator's rows.
#[test]
fn block_boundaries_and_metadata_are_format_invariant() {
    let db = tpch_db(Mode::Adaptive);
    let adb1 = tpch_db(Mode::Adaptive);
    rewrite_as_adb1(adb1.store(), &TPCH_TABLES);
    let loaded = tpch_rows(&tpch_gen());
    for t in TPCH_TABLES {
        let blocks = db.table(t).unwrap().all_blocks();
        assert!(!blocks.is_empty(), "{t}: corpus must load blocks");
        assert_eq!(blocks, adb1.table(t).unwrap().all_blocks(), "{t}: boundaries diverged");
        let meta = |d: &Database, b| {
            d.store()
                .with_block_meta(t, b, |m| (m.row_count, m.byte_size, format!("{:?}", m.ranges)))
                .unwrap()
        };
        for &b in &blocks {
            assert_eq!(meta(&db, b), meta(&adb1, b), "{t}/{b}: metadata diverged across formats");
        }
        assert_eq!(sorted(stored_rows(db.store(), t)), sorted(loaded[t].clone()), "{t}: rows");
    }
    assert_eq!(db.store().dfs().logical_bytes(), adb1.store().dfs().logical_bytes());
}

/// TPC-H end-to-end (scans + every join template, adaptation and
/// migrations included): the engine must return the reference's rows,
/// and after the workload the stored blocks must still hold exactly
/// the loaded rows.
#[test]
fn tpch_templates_match_reference_executor() {
    let loaded = tpch_rows(&tpch_gen());
    for mode in [Mode::Adaptive, Mode::Amoeba] {
        let mut db = tpch_db(mode);
        let mut q_rng = adaptdb_common::rng::derived(5, "columnar-equivalence");
        let queries: Vec<Query> =
            Template::all().iter().map(|t| t.instantiate(&mut q_rng)).collect();
        for (i, q) in queries.iter().enumerate() {
            let got = db.run(q).unwrap();
            assert_eq!(sorted(got.rows), sorted(reference(&loaded, q)), "{mode:?} template {i}");
        }
        for t in TPCH_TABLES {
            assert_eq!(
                sorted(stored_rows(db.store(), t)),
                sorted(loaded[t].clone()),
                "{mode:?} {t}: rows lost or duplicated by adaptation"
            );
        }
    }
}

/// A selective scan on an attribute the tree does not index: zone maps
/// must actually skip blocks — the same tally over `ADB1` blocks — and
/// the scan must return the reference's rows.
#[test]
fn tpch_selective_scan_skips_zones_identically() {
    let mut db = tpch_db(Mode::Fixed);
    let mut adb1 = tpch_db(Mode::Fixed);
    rewrite_as_adb1(adb1.store(), &TPCH_TABLES);
    // lineitem is partitioned on orderkey; shipdate is only visible to
    // the per-block zone maps.
    let q = Query::Scan(ScanQuery::new(
        "lineitem",
        PredicateSet::none().and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(80))),
    ));
    let r = db.run(&q).unwrap();
    let o = adb1.run(&q).unwrap();
    assert_eq!(sorted(r.rows.clone()), sorted(reference(&tpch_rows(&tpch_gen()), &q)));
    assert_eq!(r.rows, o.rows);
    assert_eq!(r.stats.query_io, o.stats.query_io);
    assert!(r.stats.query_io.zone_skipped > 0, "zone maps must exclude whole blocks");
}

/// Zipfian synthetic join on the raw executor surface, skew
/// mitigations included: the engine must return the reference join,
/// with rows and counts identical over `ADB2` and `ADB1` blocks.
#[test]
fn zipfian_shuffle_join_is_format_invariant() {
    let mut rng = adaptdb_common::rng::derived(9, "columnar-zipf");
    let fact = zipf::zipf_rows(2000, 100, 1.1, &mut rng);
    let dim = zipf::key_rows(100);
    let run = |adb1: bool| {
        let store = BlockStore::new(4, 1, 9);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        for chunk in fact.chunks(50) {
            lids.push(store.write_block("l", chunk.to_vec(), 2, None));
        }
        for chunk in dim.chunks(50) {
            rids.push(store.write_block("r", chunk.to_vec(), 2, None));
        }
        if adb1 {
            rewrite_as_adb1(&store, &["l", "r"]);
        }
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock, 2)
            .with_shuffle(ShuffleOptions {
                partitions: Some(4),
                replication: 1,
                split_threshold: Some(2.0),
            })
            .with_fetch_window(4)
            .with_morsel_rows(16);
        let none = PredicateSet::none();
        let rows = shuffle_join(
            ctx,
            ShuffleJoinSpec {
                left_table: "l",
                left_blocks: &lids,
                right_table: "r",
                right_blocks: &rids,
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                rows_per_block: 50,
            },
        )
        .unwrap();
        (sorted(rows), clock.snapshot(), clock.shuffle_snapshot())
    };
    let (rows, io, sh) = run(false);
    let (old_rows, old_io, old_sh) = run(true);
    assert_eq!(rows.len(), 2000, "every fact row matches exactly one dim key");
    assert_eq!(rows, sorted(hash_join(fact.clone(), dim.clone(), 0, 0)));
    assert_eq!(rows, old_rows);
    assert_eq!(io, old_io);
    assert_eq!(sh, old_sh);
}

/// Legacy compatibility: the engine keeps reading `ADB1` blocks. One
/// database has every loaded block rewritten as `ADB1` through
/// `restore_block`; once adaptation migrates blocks it holds both wire
/// formats at once. Results and accounting must match an all-`ADB2`
/// database throughout.
#[test]
fn adb1_blocks_decode_inside_a_columnar_database() {
    let mk = |adb1: bool| {
        let gen = TpchGen::new(0.01, 13);
        let config = DbConfig {
            nodes: 4,
            replication: 1,
            rows_per_block: 64,
            buffer_blocks: 8,
            threads: 1,
            fetch_window: 4,
            seed: 13,
            ..DbConfig::default()
        };
        let mut db = Database::new(config.with_mode(Mode::Adaptive));
        gen.load_converged(&mut db, li::ORDERKEY).unwrap();
        if adb1 {
            rewrite_as_adb1(db.store(), &TPCH_TABLES);
        }
        db
    };
    let mut new_db = mk(false);
    let mut old_db = mk(true);
    let mut q_rng = adaptdb_common::rng::derived(13, "columnar-legacy");
    // Join templates trigger migrations, so the rewritten database ends
    // up with ADB1 originals next to freshly-written ADB2 blocks.
    for (i, t) in Template::all().iter().enumerate() {
        let q = t.instantiate(&mut q_rng);
        let r = new_db.run(&q).unwrap();
        let o = old_db.run(&q).unwrap();
        assert_eq!(sorted(r.rows), sorted(o.rows), "template {i} diverged on mixed formats");
        assert_eq!(r.stats.query_io, o.stats.query_io, "template {i}: I/O diverged");
        assert_eq!(r.stats.shuffle, o.stats.shuffle, "template {i}: shuffle diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zone-map skipping never drops a qualifying row: for random data
    /// and random predicates, the scan (over `ADB2` or `ADB1` blocks,
    /// serial and pipelined) returns exactly the brute-force filter of
    /// the full corpus, in insertion order.
    #[test]
    fn zone_map_skipping_never_drops_rows(
        keys in prop::collection::vec(-50i64..50, 1..120),
        attr in 0u16..3,
        op_pick in 0u8..6,
        bound in -60i64..60,
        adb1_blocks in any::<bool>(),
    ) {
        let op = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
            [op_pick as usize];
        // Three columns: the raw key, a shifted key, and a string
        // rendering (exercises Str zone maps and Str gathers).
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| row![k, k + 7, format!("s{:+04}", k)])
            .collect();
        let value = if attr == 2 {
            Value::from(format!("s{:+04}", bound))
        } else {
            Value::Int(bound)
        };
        let preds = PredicateSet::none().and(Predicate::new(attr, op, value));
        let expect: Vec<Row> = rows.iter().filter(|r| preds.matches(r)).cloned().collect();

        let store = BlockStore::new(2, 1, 1);
        let mut ids = Vec::new();
        for chunk in rows.chunks(16) {
            ids.push(store.write_block("t", chunk.to_vec(), 3, None));
        }
        if adb1_blocks {
            rewrite_as_adb1(&store, &["t"]);
        }
        for window in [1usize, 4] {
            for morsel in [5usize, 1024] {
                let clock = SimClock::new();
                let ctx = ExecContext::single(&store, &clock)
                    .with_fetch_window(window)
                    .with_morsel_rows(morsel);
                let got = scan_blocks(ctx, "t", &ids, &preds).unwrap();
                prop_assert_eq!(
                    &got, &expect,
                    "adb1={} window={} morsel={} dropped or invented rows",
                    adb1_blocks, window, morsel
                );
            }
        }
    }
}
