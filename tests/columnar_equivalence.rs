//! The columnar engine against a naive reference executor.
//!
//! Blocks are written in the columnar `ADB2` format and every filtered
//! read materialises late (selection bitsets, zone-map skipping,
//! one gather per block, batch probes). These tests check the engine
//! against a reference that knows nothing of trees, blocks or the DFS:
//! a filter plus hash join over the rows the generator loaded. On
//! TPC-H and on Zipfian synthetic joins the engine must return the
//! reference's rows; zone-map skipping must never drop a qualifying
//! row under randomized predicates; and blocks restored from their
//! encoded bytes — the way journal recovery restores them, re-deriving
//! metadata by decoding — must read with rows and accounting
//! bit-identical to the blocks as written.

use std::collections::BTreeMap;

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{
    row, CmpOp, GlobalBlockId, Predicate, PredicateSet, Query, Row, ScanQuery, Value,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{
    scan_blocks, shuffle_join, ExecContext, Joined, ShuffleJoinSpec, ShuffleOptions,
};
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
        adapt_selections: false,
        fetch_window: 4,
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

/// Re-insert every live block of `tables` from its own encoded bytes
/// through `restore_block` — the path journal recovery takes, which
/// re-derives the metadata by decoding — with the same id, arity and
/// replicas.
fn restore_from_bytes(store: &BlockStore, tables: &[&str]) {
    for &t in tables {
        for id in store.block_ids(t) {
            let bytes = store.encoded_block_unaccounted(t, id).unwrap();
            let arity = store.with_block_meta(t, id, |m| m.ranges.len()).unwrap();
            let replicas = store.dfs().locate(&GlobalBlockId::new(t, id)).unwrap().replicas.clone();
            store.restore_block(t, id, arity, replicas, bytes).unwrap();
        }
    }
}

/// Every live block's rows, across the whole table.
fn stored_rows(store: &BlockStore, table: &str) -> Vec<Row> {
    let ids = store.block_ids(table);
    ids.into_iter().flat_map(|id| store.read_block_unaccounted(table, id).unwrap().rows).collect()
}

/// The canonical byte-size definition makes per-block row counts, byte
/// sizes, and zone maps independent of the wire encoding: the metadata
/// the encoder builds while it writes a block equals
/// `Block::compute_meta` over the block's rows, the DFS is sized by
/// those byte sizes, and the blocks hold exactly the generator's rows.
#[test]
fn block_boundaries_and_metadata_are_format_invariant() {
    let db = tpch_db(Mode::Adaptive);
    let loaded = tpch_rows(&tpch_gen());
    let mut bytes = 0;
    for t in TPCH_TABLES {
        let blocks = db.table(t).unwrap().all_blocks();
        assert!(!blocks.is_empty(), "{t}: corpus must load blocks");
        let arity = db.table(t).unwrap().schema().len();
        for &b in &blocks {
            let rows = db.store().read_block_unaccounted(t, b).unwrap().rows;
            let want = Block::new(b, rows).compute_meta(arity);
            let got = db.store().block_meta(t, b).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{t}/{b}: metadata diverged");
            bytes += got.byte_size;
        }
        assert_eq!(sorted(stored_rows(db.store(), t)), sorted(loaded[t].clone()), "{t}: rows");
    }
    assert_eq!(db.store().dfs().logical_bytes(), bytes);
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
/// must actually skip blocks — the same tally over blocks whose zone
/// maps were re-derived from their bytes — and the scan must return the
/// reference's rows.
#[test]
fn tpch_selective_scan_skips_zones_identically() {
    let mut db = tpch_db(Mode::Fixed);
    let mut restored = tpch_db(Mode::Fixed);
    restore_from_bytes(restored.store(), &TPCH_TABLES);
    // lineitem is partitioned on orderkey; shipdate is only visible to
    // the per-block zone maps.
    let q = Query::Scan(ScanQuery::new(
        "lineitem",
        PredicateSet::none().and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(80))),
    ));
    let r = db.run(&q).unwrap();
    let o = restored.run(&q).unwrap();
    assert_eq!(sorted(r.rows.clone()), sorted(reference(&tpch_rows(&tpch_gen()), &q)));
    assert_eq!(r.rows, o.rows);
    assert_eq!(r.stats.query_io, o.stats.query_io);
    assert!(r.stats.query_io.zone_skipped > 0, "zone maps must exclude whole blocks");
}

/// Zipfian synthetic join on the raw executor surface, skew
/// mitigations included: the engine must return the reference join,
/// with rows and counts identical over blocks as written and as
/// restored from their bytes.
#[test]
fn zipfian_shuffle_join_is_format_invariant() {
    let mut rng = adaptdb_common::rng::derived(9, "columnar-zipf");
    let fact = zipf::zipf_rows(2000, 100, 1.1, &mut rng);
    let dim = zipf::key_rows(100);
    let run = |restore: bool| {
        let store = BlockStore::new(4, 1, 9);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        for chunk in fact.chunks(50) {
            lids.push(store.write_block("l", chunk.to_vec(), 2, None));
        }
        for chunk in dim.chunks(50) {
            rids.push(store.write_block("r", chunk.to_vec(), 2, None));
        }
        if restore {
            restore_from_bytes(&store, &["l", "r"]);
        }
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock)
            .with_shuffle(ShuffleOptions {
                partitions: Some(4),
                replication: 1,
                split_threshold: Some(2.0),
            })
            .with_fetch_window(4);
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
        .and_then(Joined::into_rows)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zone-map skipping never drops a qualifying row: for random data
    /// and random predicates, the scan (over blocks as written or as
    /// restored from their bytes, serial and pipelined) returns exactly
    /// the brute-force filter of the full corpus, in insertion order.
    #[test]
    fn zone_map_skipping_never_drops_rows(
        keys in prop::collection::vec(-50i64..50, 1..120),
        attr in 0u16..3,
        op_pick in 0u8..6,
        bound in -60i64..60,
        restored in any::<bool>(),
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
        if restored {
            restore_from_bytes(&store, &["t"]);
        }
        for window in [1usize, 4] {
            let clock = SimClock::new();
            let ctx = ExecContext::new(&store, &clock).with_fetch_window(window);
            let got = scan_blocks(ctx, "t", &ids, &preds).unwrap();
            prop_assert_eq!(
                &got, &expect,
                "restored={} window={} dropped or invented rows",
                restored, window
            );
        }
    }
}
