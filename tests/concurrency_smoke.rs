//! Concurrency smoke test: N client threads × M queries against a
//! [`DbServer`] must produce row-for-row the same results as the serial
//! [`Database`] — including while background adaptation is migrating
//! blocks under the running queries.

use adaptdb::{Database, DbConfig, Mode, SchedPolicy};
use adaptdb_common::rng;
use adaptdb_common::{row, JoinQuery, Query, Row, ScanQuery, Schema, ValueType};
use adaptdb_server::{DbServer, ServerOptions};
use adaptdb_workloads::tpch::{Template, TpchGen};

const CLIENTS: usize = 4;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

fn synthetic_db() -> Database {
    // A large window keeps smooth migration spread over many queries,
    // so plenty of queries run while trees are mid-flight.
    let config = DbConfig {
        rows_per_block: 10,
        window_size: 20,
        buffer_blocks: 2,
        mode: Mode::Adaptive,
        ..DbConfig::small()
    };
    let mut db = Database::new(config);
    let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
    db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
    db.create_table("r", schema, vec![0, 1]).unwrap();
    db.load_rows("l", (0..600i64).map(|i| row![i % 300, i])).unwrap();
    db.load_rows("r", (0..300i64).map(|i| row![i, i * 2])).unwrap();
    db
}

fn synthetic_queries() -> Vec<Query> {
    use adaptdb_common::{CmpOp, Predicate, PredicateSet};
    (0..16)
        .map(|i| match i % 4 {
            3 => Query::Scan(ScanQuery::new(
                "r",
                PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 20 + i as i64)),
            )),
            _ => Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0)),
        })
        .collect()
}

#[test]
fn clients_match_serial_while_adaptation_is_in_flight() {
    let queries = synthetic_queries();

    // Serial ground truth.
    let mut serial = synthetic_db();
    let expected: Vec<Vec<Row>> =
        queries.iter().map(|q| sorted(serial.run(q).unwrap().rows)).collect();
    // The workload really does adapt mid-run: the serial engine grew a
    // join tree while queries executed.
    assert!(serial.table("l").unwrap().tree_for_join_attr(0).is_some());

    // The same engine state served concurrently, under every policy.
    for policy in [SchedPolicy::Fifo, SchedPolicy::Lanes, SchedPolicy::Fair] {
        let server = DbServer::start_with(
            synthetic_db(),
            ServerOptions {
                workers: Some(CLIENTS),
                queue_capacity: Some(CLIENTS * 2),
                sched: Some(policy),
                ..Default::default()
            },
        );
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                let mut session = server.session();
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    for (i, (q, want)) in queries.iter().zip(expected).enumerate() {
                        let got = sorted(session.run(q).unwrap().rows);
                        assert_eq!(&got, want, "{policy} query {i}: rows diverged from serial");
                    }
                });
            }
        });
        // Adaptation really ran in the background while clients queried.
        server.drain_maintenance();
        let report = server.report();
        assert!(report.maintenance_io.writes > 0, "{policy}: no background migration: {report}");
        assert_eq!(report.errors, 0);
        assert_eq!(report.queries, (CLIENTS * queries.len()) as u64);
    }
}

#[test]
fn tpch_workload_serves_concurrently_and_correctly() {
    let gen = TpchGen::new(0.05, 7);
    let config =
        DbConfig { rows_per_block: 50, window_size: 10, buffer_blocks: 8, ..DbConfig::default() };

    // One deterministic instance per template (identical on both sides).
    let queries: Vec<Query> = Template::all()
        .iter()
        .map(|t| {
            let mut q_rng = rng::derived(7, t.name());
            t.instantiate(&mut q_rng)
        })
        .collect();

    let mut serial = Database::new(config.clone());
    gen.load_upfront(&mut serial).unwrap();
    let expected: Vec<Vec<Row>> =
        queries.iter().map(|q| sorted(serial.run(q).unwrap().rows)).collect();

    let mut concurrent_engine = Database::new(config);
    gen.load_upfront(&mut concurrent_engine).unwrap();
    let server = DbServer::start_with(
        concurrent_engine,
        ServerOptions {
            workers: Some(CLIENTS),
            queue_capacity: Some(CLIENTS * 4),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let mut session = server.session();
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                for (q, want) in queries.iter().zip(expected) {
                    let got = sorted(session.run(q).unwrap().rows);
                    assert_eq!(&got, want, "TPC-H result diverged under concurrency");
                }
            });
        }
    });
    let report = server.report();
    assert_eq!(report.errors, 0);
    assert_eq!(report.queries, (CLIENTS * queries.len()) as u64);
}
