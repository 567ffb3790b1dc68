//! End-to-end integration tests: the full AdaptDB stack (storage → trees
//! → optimizer → planner → executors) against ground truth.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    row, CmpOp, JoinQuery, Predicate, PredicateSet, Query, Row, ScanQuery, Schema, Value, ValueType,
};

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

/// Brute-force reference join.
fn nested_loop_join(l: &[Row], r: &[Row], la: u16, ra: u16) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for a in l {
        for b in r {
            if a.get(la) == b.get(ra) {
                let mut v = a.values().to_vec();
                v.extend_from_slice(b.values());
                out.push(v);
            }
        }
    }
    out.sort();
    out
}

fn make_rows(n: i64, f: impl Fn(i64) -> Row) -> Vec<Row> {
    (0..n).map(f).collect()
}

fn loaded_db(mode: Mode, l: &[Row], r: &[Row]) -> Database {
    let config =
        DbConfig { rows_per_block: 16, window_size: 5, buffer_blocks: 2, ..DbConfig::small() }
            .with_mode(mode);
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.create_table("r", schema2(), vec![0, 1]).unwrap();
    db.load_rows("l", l.to_vec()).unwrap();
    db.load_rows("r", r.to_vec()).unwrap();
    db
}

/// Every mode must produce exactly the nested-loop join result, with
/// predicates, repeatedly as adaptation restructures storage underneath.
#[test]
fn all_modes_match_nested_loop_ground_truth_under_adaptation() {
    let l = make_rows(300, |i| row![i % 90, i]);
    let r = make_rows(90, |i| row![i, i * 3]);
    let preds = PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 200i64));
    let q =
        Query::Join(JoinQuery::new(ScanQuery::new("l", preds.clone()), ScanQuery::full("r"), 0, 0));
    let l_filtered: Vec<Row> = l.iter().filter(|row| preds.matches(row)).cloned().collect();
    let expected = nested_loop_join(&l_filtered, &r, 0, 0);

    for mode in [Mode::Adaptive, Mode::FullScan, Mode::FullRepartition, Mode::Amoeba, Mode::Fixed] {
        let mut db = loaded_db(mode, &l, &r);
        for iteration in 0..6 {
            let res = db.run(&q).unwrap();
            let mut got: Vec<Vec<Value>> = res.rows.iter().map(|r| r.values().to_vec()).collect();
            got.sort();
            assert_eq!(got, expected, "{mode:?} iteration {iteration}");
        }
    }
}

/// Row counts are conserved through arbitrary amounts of adaptation.
#[test]
fn storage_conserves_rows_through_adaptation() {
    let l = make_rows(400, |i| row![i % 120, i]);
    let r = make_rows(120, |i| row![i, i]);
    let mut db = loaded_db(Mode::Adaptive, &l, &r);
    let q1 = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
    // Alternate join attributes to force tree churn in both directions.
    let q2 = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 1, 1));
    for i in 0..10 {
        let q = if i % 3 == 2 { &q2 } else { &q1 };
        db.run(q).unwrap();
        assert_eq!(db.store().row_count("l"), 400, "after query {i}");
        assert_eq!(db.store().row_count("r"), 120, "after query {i}");
    }
}

/// The Adaptive system must end up strictly cheaper than FullScan once a
/// stable workload has been seen — the core promise of the paper.
#[test]
fn adaptive_beats_full_scan_after_convergence() {
    let l = make_rows(600, |i| row![i % 150, i]);
    let r = make_rows(150, |i| row![i, i * 2]);
    let q = Query::Join(JoinQuery::new(
        ScanQuery::new("l", PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 300i64))),
        ScanQuery::full("r"),
        0,
        0,
    ));
    let mut adaptive = loaded_db(Mode::Adaptive, &l, &r);
    for _ in 0..8 {
        adaptive.run(&q).unwrap();
    }
    let a = adaptive.run(&q).unwrap();
    let mut full = loaded_db(Mode::FullScan, &l, &r);
    let f = full.run(&q).unwrap();
    assert_eq!(a.rows.len(), f.rows.len());
    let (ta, tf) = (a.simulated_secs(adaptive.config()), f.simulated_secs(full.config()));
    assert!(ta < tf, "adaptive {ta} should beat full scan {tf}");
    assert_eq!(a.stats.strategy, JoinStrategy::HyperJoin);
}

/// Mid-migration mixed execution returns exactly the right rows (the
/// planner's case 2 is the easiest place to double-count or drop).
#[test]
fn mixed_strategy_correctness_during_migration() {
    // `l`'s keys are scattered over its up-front tree (on `x`), so its
    // unmigrated blocks are not co-partitioned with `r` and must be
    // shuffled.
    let l = make_rows(500, |i| row![(i * 37) % 100, i]);
    let r = make_rows(100, |i| row![i, i]);
    // Window 8 with a small right table: the right side finishes
    // migrating before the left, opening the mixed-execution phase
    // (hyper over the matching blocks + shuffle for the stragglers).
    let config = DbConfig {
        rows_per_block: 16,
        window_size: 8,
        buffer_blocks: 2,
        adapt_selections: false,
        ..DbConfig::small()
    };
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![1]).unwrap();
    db.create_table("r", schema2(), vec![1]).unwrap();
    db.load_rows("l", l.clone()).unwrap();
    db.load_rows("r", r.clone()).unwrap();
    let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
    let expected = nested_loop_join(&l, &r, 0, 0);
    let mut saw_mixed = false;
    for _ in 0..10 {
        let res = db.run(&q).unwrap();
        let mut got: Vec<Vec<Value>> = res.rows.iter().map(|r| r.values().to_vec()).collect();
        got.sort();
        assert_eq!(got.len(), expected.len());
        assert_eq!(got, expected);
        saw_mixed |= res.stats.strategy == JoinStrategy::Mixed;
    }
    assert!(saw_mixed, "expected at least one mixed-strategy query");
}

/// Scans prune blocks without losing rows, across adaptation.
#[test]
fn scan_pruning_is_lossless() {
    let l = make_rows(500, |i| row![i, i % 13]);
    let mut db = loaded_db(Mode::Adaptive, &l, &l[..10]);
    for lo in [0i64, 100, 250, 400] {
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, lo)).and(Predicate::new(
            0,
            CmpOp::Lt,
            lo + 50,
        ));
        let q = Query::Scan(ScanQuery::new("l", preds.clone()));
        let res = db.run(&q).unwrap();
        let expected = l.iter().filter(|r| preds.matches(r)).count();
        assert_eq!(res.rows.len(), expected, "range starting at {lo}");
        // Pruning actually worked: fewer blocks than the whole table.
        assert!(
            res.stats.query_io.reads() < db.table("l").unwrap().total_blocks(),
            "no pruning for range at {lo}"
        );
    }
}

/// Multi-way joins (§4.3) chain correctly and match the reference.
#[test]
fn multi_join_matches_reference() {
    let l = make_rows(200, |i| row![i % 40, i % 7]);
    let r = make_rows(40, |i| row![i, i % 5]);
    let c = make_rows(7, |i| row![i, i * 11]);
    let mut db = loaded_db(Mode::Adaptive, &l, &r);
    db.create_table("c", schema2(), vec![0]).unwrap();
    db.load_rows("c", c.clone()).unwrap();

    let q = Query::MultiJoin {
        first: JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0),
        steps: vec![adaptdb_common::JoinStep {
            intermediate_attr: 1, // l.x = i % 7
            table: ScanQuery::full("c"),
            table_attr: 0,
        }],
    };
    let res = db.run(&q).unwrap();
    // Reference: (l ⋈ r) ⋈ c.
    let lr = nested_loop_join(&l, &r, 0, 0);
    let mut expected = 0usize;
    for rowv in &lr {
        expected += c.iter().filter(|cr| cr.get(0) == &rowv[1]).count();
    }
    assert_eq!(res.rows.len(), expected);
    for row in &res.rows {
        assert_eq!(row.arity(), 6);
        assert_eq!(row.get(1), row.get(4), "chain key must match");
    }
}

/// The durable catalog round-trips the adaptive state: after
/// converging, commit the catalog, reopen the directory, and get
/// identical plans and results.
#[test]
fn catalog_snapshot_restores_adaptive_state() {
    /// Removes the directory when the test ends, failed or not.
    struct RemoveOnDrop(std::path::PathBuf);
    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = std::env::temp_dir().join(format!("adaptdb-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _cleanup = RemoveOnDrop(dir.clone());
    let config = DbConfig {
        rows_per_block: 16,
        window_size: 5,
        buffer_blocks: 2,
        durable_path: Some(dir.to_string_lossy().into_owned()),
        ..DbConfig::small()
    }
    .with_mode(Mode::Adaptive);
    let l = make_rows(300, |i| row![i % 80, i]);
    let r = make_rows(80, |i| row![i, i * 5]);
    let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
    let converged = {
        let mut db = Database::open_durable(config.clone()).unwrap();
        db.create_table("l", schema2(), vec![0, 1]).unwrap();
        db.create_table("r", schema2(), vec![0, 1]).unwrap();
        db.load_rows("l", l).unwrap();
        db.load_rows("r", r).unwrap();
        for _ in 0..8 {
            db.run(&q).unwrap();
        }
        let converged = db.run(&q).unwrap();
        assert_eq!(converged.stats.strategy, JoinStrategy::HyperJoin);
        db.commit_durable().unwrap();
        converged
    };

    let mut db = Database::open_durable(config).unwrap();
    let after = db.run(&q).unwrap();
    assert_eq!(after.stats.strategy, JoinStrategy::HyperJoin);
    assert_eq!(after.rows.len(), converged.rows.len());
    assert_eq!(
        after.stats.query_io.reads(),
        converged.stats.query_io.reads(),
        "restored catalog must plan identically"
    );
}

/// §4.3 step optimization: when the step table's tree matches the join
/// attribute, the step runs as a hyper-step (only the intermediate is
/// shuffled) and the result is still exact.
#[test]
fn multi_join_step_uses_hyper_when_tree_matches() {
    let l = make_rows(240, |i| row![i % 60, i % 9]);
    let r = make_rows(60, |i| row![i, i % 9]);
    let c = make_rows(9, |i| row![i, i * 100]);
    let config = DbConfig { rows_per_block: 10, buffer_blocks: 4, ..DbConfig::small() }
        .with_mode(Mode::Fixed);
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![1]).unwrap();
    db.create_table("r", schema2(), vec![1]).unwrap();
    db.create_table("c", schema2(), vec![1]).unwrap();
    db.load_two_phase("l", l.clone(), 0, None).unwrap();
    db.load_two_phase("r", r.clone(), 0, None).unwrap();
    // The step table's tree is keyed on attr 0 — the step join attr.
    db.load_two_phase("c", c.clone(), 0, None).unwrap();

    let q = Query::MultiJoin {
        first: JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0),
        steps: vec![adaptdb_common::JoinStep {
            intermediate_attr: 1, // l.x = i % 9
            table: ScanQuery::full("c"),
            table_attr: 0,
        }],
    };
    let res = db.run(&q).unwrap();
    // The whole chain stays hyper (no step fell back to shuffle-both).
    assert_eq!(res.stats.strategy, JoinStrategy::HyperJoin);
    // Reference count: every l row joins one r row (same key) and one c row.
    let lr = nested_loop_join(&l, &r, 0, 0);
    let expected: usize =
        lr.iter().map(|rowv| c.iter().filter(|cr| cr.get(0) == &rowv[1]).count()).sum();
    assert_eq!(res.rows.len(), expected);
    for row in &res.rows {
        assert_eq!(row.get(1), row.get(4), "step keys must match");
        assert_eq!(
            row.get(5).as_int().unwrap(),
            row.get(1).as_int().unwrap() * 100,
            "step payload joined"
        );
    }
}

/// Fixed mode with explicit trees never rewrites storage.
#[test]
fn fixed_mode_is_truly_static() {
    let l = make_rows(300, |i| row![i % 60, i]);
    let r = make_rows(60, |i| row![i, i]);
    let mut db = loaded_db(Mode::Fixed, &l, &r);
    let blocks_before: usize = db.store().block_count("l") + db.store().block_count("r");
    let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
    for _ in 0..5 {
        let res = db.run(&q).unwrap();
        assert_eq!(res.stats.repartition_io.writes, 0);
        assert_eq!(res.stats.repartition_io.reads(), 0);
    }
    assert_eq!(db.store().block_count("l") + db.store().block_count("r"), blocks_before);
}

/// Every load and append checks each cell against its field's type:
/// one mistyped cell — `Int` for a `Date` field included — makes the
/// whole call `Error::Plan`, through each of the five entry points
/// (the three bulk loads, `append_rows`, and a server session's
/// `append`). Nothing is written: the table's blocks and rows are
/// unchanged, and a full scan returns only the good rows.
#[test]
fn loads_reject_rows_of_the_wrong_type() {
    use adaptdb_common::Error;
    use adaptdb_server::DbServer;

    let schema =
        Schema::from_pairs(&[("k", ValueType::Int), ("d", ValueType::Date), ("s", ValueType::Str)]);
    let good = |i: i64| Row::new(vec![Value::Int(i), Value::Date(i as i32), Value::from("s")]);
    let mut db = Database::new(DbConfig { rows_per_block: 16, ..DbConfig::small() });
    db.create_table("t", schema, vec![0, 1]).unwrap();
    db.load_rows("t", (0..50).map(good)).unwrap();
    let bad_rows = [
        Row::new(vec![Value::from("k"), Value::Date(1), Value::from("s")]),
        Row::new(vec![Value::Int(1), Value::Int(1), Value::from("s")]),
        Row::new(vec![Value::Int(1), Value::Date(1), Value::Double(1.0)]),
    ];
    let tree = db.table("t").unwrap().trees()[0].tree.clone();
    let blocks = db.table("t").unwrap().all_blocks();
    let stored = db.store().row_count("t");
    for bad in &bad_rows {
        let rows = vec![good(99), bad.clone()];
        let loads = [
            db.load_rows("t", rows.clone()),
            db.load_with_tree("t", rows.clone(), tree.clone(), None),
            db.load_two_phase("t", rows.clone(), 0, None),
            db.append_rows("t", rows),
        ];
        for (i, res) in loads.into_iter().enumerate() {
            assert!(matches!(res, Err(Error::Plan(_))), "load {i} of {bad:?}: {res:?}");
        }
    }
    assert_eq!(db.table("t").unwrap().all_blocks(), blocks, "nothing was written");
    assert_eq!(db.store().row_count("t"), stored);
    let server = DbServer::start(db);
    let mut session = server.session();
    for bad in &bad_rows {
        let res = session.append("t", vec![good(99), bad.clone()]);
        assert!(matches!(res, Err(Error::Plan(_))), "session append of {bad:?}: {res:?}");
    }
    let mut rows = session.run(&Query::Scan(ScanQuery::full("t"))).unwrap().rows;
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    assert_eq!(rows, (0..50).map(good).collect::<Vec<_>>());
}
