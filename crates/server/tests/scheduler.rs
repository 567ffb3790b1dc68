//! Scheduler-policy integration tests: starvation bounds under a scan
//! storm, deadline promotion, per-lane load shedding, maintenance
//! pacing, and prefetch pacing count-invariance.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use adaptdb::cost::Lane;
use adaptdb::{Database, DbConfig, Mode, SchedPolicy};
use adaptdb_common::{row, CmpOp, JoinQuery, Predicate, PredicateSet, Query, ScanQuery};
use adaptdb_common::{Schema, ValueType};
use adaptdb_server::{DbServer, ServerOptions, SubmitOptions};

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

/// `l`: 400 blocks, `r`: 40 blocks — a full join projects ~440
/// candidate blocks (batch under the threshold below); a point scan
/// projects a handful (interactive).
fn loaded_db(mode: Mode) -> Database {
    let config = DbConfig {
        rows_per_block: 10,
        window_size: 5,
        buffer_blocks: 2,
        batch_cost_blocks: 32,
        fetch_window: 4,
        mode,
        ..DbConfig::small()
    };
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.create_table("r", schema2(), vec![0, 1]).unwrap();
    db.load_rows("l", (0..4000i64).map(|i| row![i % 400, i])).unwrap();
    db.load_rows("r", (0..400i64).map(|i| row![i, i * 2])).unwrap();
    db
}

fn join_query() -> Query {
    Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
}

fn point_query() -> Query {
    Query::Scan(ScanQuery::new("r", PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 20i64))))
}

/// Wait until at least `depth` jobs are queued (the storm is really
/// queued up, not already drained — debug and release timing differ by
/// an order of magnitude).
fn await_queue_depth(server: &DbServer, depth: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.report().queue_depth < depth {
        assert!(std::time::Instant::now() < deadline, "storm drained before it ever queued");
        std::thread::yield_now();
    }
}

fn p95(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[(samples.len() * 95 / 100).min(samples.len() - 1)]
}

/// Run a scan storm (8 sessions flooding full joins) against one
/// interactive session issuing point queries; return the interactive
/// wall-latency samples (ms) and the server report.
fn storm_run(policy: SchedPolicy) -> (Vec<f64>, adaptdb_server::ServerReport) {
    let server = DbServer::start_with(
        loaded_db(Mode::Fixed),
        ServerOptions {
            workers: Some(2),
            queue_capacity: Some(64),
            sched: Some(policy),
            ..Default::default()
        },
    );
    let mut interactive_ms = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let mut session = server.session();
            s.spawn(move || {
                for _ in 0..6 {
                    session.run(&join_query()).unwrap();
                }
            });
        }
        // Give the storm a head start so the queue is deep before the
        // first point query arrives.
        await_queue_depth(&server, 4);
        let mut session = server.session();
        for _ in 0..30 {
            let res = session.run(&point_query()).unwrap();
            assert_eq!(res.rows.len(), 20);
            interactive_ms.push(res.stats.wall_secs * 1e3);
        }
        assert_eq!(session.stats().lane_queries[Lane::Interactive.index()], 30);
        assert_eq!(session.stats().lane_queries[Lane::Batch.index()], 0);
    });
    let report = server.report();
    (interactive_ms, report)
}

#[test]
fn scan_storm_does_not_starve_interactive_under_lane_policies() {
    let (mut fifo_ms, fifo_report) = storm_run(SchedPolicy::Fifo);
    let (mut lanes_ms, lanes_report) = storm_run(SchedPolicy::Lanes);
    let (mut fair_ms, fair_report) = storm_run(SchedPolicy::Fair);
    let fifo_p95 = p95(&mut fifo_ms);
    let lanes_p95 = p95(&mut lanes_ms);
    let fair_p95 = p95(&mut fair_ms);
    assert_eq!(fifo_report.policy, "fifo");
    assert_eq!(lanes_report.policy, "lanes");
    assert_eq!(fair_report.policy, "fair");
    // Under FIFO a point query waits behind the whole join backlog;
    // under lanes it only waits for a worker, and under fair share the
    // storm sessions pay for their weight. The paper-level claim (2×)
    // is gated on the benchmark; here we require clear improvement.
    assert!(
        lanes_p95 < fifo_p95 * 0.9,
        "lanes interactive p95 {lanes_p95:.2} ms !< fifo {fifo_p95:.2} ms"
    );
    assert!(
        fair_p95 < fifo_p95 * 0.9,
        "fair interactive p95 {fair_p95:.2} ms !< fifo {fifo_p95:.2} ms"
    );
    // All policies served the identical offered load.
    for r in [&fifo_report, &lanes_report, &fair_report] {
        assert_eq!(r.queries, 8 * 6 + 30);
        assert_eq!(r.errors, 0);
        assert_eq!(r.session_count, 9);
    }
    // The lane breakdown attributes the storm to the batch lane.
    assert_eq!(lanes_report.lanes[Lane::Batch.index()].queries, 48);
    assert_eq!(lanes_report.lanes[Lane::Interactive.index()].queries, 30);
    // Storm sessions captured most served cost: fairness index well
    // below 1 and above the 1/n floor.
    assert!(lanes_report.fairness_index < 1.0);
    assert!(lanes_report.fairness_index > 1.0 / 9.0);
}

#[test]
fn deadline_promoted_query_runs_before_older_batch_work() {
    let server = DbServer::start_with(
        loaded_db(Mode::Fixed),
        ServerOptions {
            workers: Some(1),
            queue_capacity: Some(64),
            sched: Some(SchedPolicy::Lanes),
            ..Default::default()
        },
    );
    let completions: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..8 {
            let mut session = server.session();
            let completions = &completions;
            s.spawn(move || {
                session.run(&join_query()).unwrap();
                completions.lock().unwrap().push("batch");
            });
        }
        // Wait until the batch jobs are really queued behind the
        // single worker…
        await_queue_depth(&server, 4);
        // …then submit a batch query that must meet a deadline: it is
        // promoted ahead of the older batch backlog.
        let mut session = server.session();
        session
            .run_with(
                &join_query(),
                SubmitOptions { deadline: Some(Duration::ZERO), ..Default::default() },
            )
            .unwrap();
        completions.lock().unwrap().push("deadline");
    });
    let order = completions.into_inner().unwrap();
    let pos = order.iter().position(|&c| c == "deadline").unwrap();
    // At promotion time ≥ 4 batch jobs were still queued; at most the
    // in-flight job plus a couple popped in the submission race may
    // legitimately finish first.
    assert!(
        pos <= 3,
        "deadline query finished {pos}th of {}: older batch work ran first: {order:?}",
        order.len()
    );
    assert!(server.report().promoted >= 1, "promotion must be counted");
}

#[test]
fn shedding_is_per_lane_so_batch_backlog_never_sheds_interactive() {
    let server = DbServer::start_with(
        loaded_db(Mode::Fixed),
        ServerOptions {
            workers: Some(1),
            queue_capacity: Some(64),
            sched: Some(SchedPolicy::Lanes),
            max_queue_wait_ms: Some(1.0),
            ..Default::default()
        },
    );
    // Prime both lanes' service means (an empty history never sheds).
    server.run(&join_query()).unwrap();
    server.run(&point_query()).unwrap();
    let shed_batch = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let mut session = server.session();
            let shed_batch = &shed_batch;
            s.spawn(move || {
                for _ in 0..3 {
                    match session.run(&join_query()) {
                        Ok(_) => {}
                        Err(e) => {
                            assert!(e.to_string().contains("batch-lane"), "unexpected error: {e}");
                            shed_batch.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // One interactive client at a time: its lane is always empty at
        // submission, so the deep batch lane must never shed it.
        let mut session = server.session();
        for _ in 0..25 {
            session.run(&point_query()).unwrap();
        }
        assert_eq!(session.stats().errors, 0, "interactive queries must never be shed");
    });
    let report = server.report();
    assert!(
        shed_batch.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "a 1 ms bound with a deep batch lane must shed batch work: {report}"
    );
    assert!(report.lanes[Lane::Batch.index()].shed > 0);
    assert_eq!(report.lanes[Lane::Interactive.index()].shed, 0);
}

#[test]
fn maintenance_pacing_defers_under_load_and_drains_at_idle() {
    let mut db = loaded_db(Mode::Adaptive);
    // Smaller tables so adaptation has work but queries stay quick.
    db = {
        let config = db.config().clone();
        let mut fresh = Database::new(config);
        fresh.create_table("l", schema2(), vec![0, 1]).unwrap();
        fresh.create_table("r", schema2(), vec![0, 1]).unwrap();
        fresh.load_rows("l", (0..400i64).map(|i| row![i % 200, i])).unwrap();
        fresh.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
        fresh
    };
    let server = DbServer::start_with(
        db,
        ServerOptions { workers: Some(4), queue_capacity: Some(64), ..Default::default() },
    );
    // A storm of a fixed length can finish before a loaded maintenance
    // pass runs (queries run on the clients' own threads when a slot is
    // free), so keep storming until a pass has deferred, under a
    // generous wall bound; the assertion below fails if none ever did.
    let give_up = Instant::now() + Duration::from_secs(10);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let mut session = server.session();
            let server = &server;
            s.spawn(move || {
                for i in 0.. {
                    let res = session.run(&join_query()).unwrap();
                    assert_eq!(res.rows.len(), 400);
                    let done = i + 1 >= 8
                        && (server.report().maintenance_deferrals > 0 || Instant::now() > give_up);
                    if done {
                        break;
                    }
                }
            });
        }
    });
    let loaded = server.report();
    assert!(
        loaded.maintenance_deferrals > 0,
        "a 6-client storm must force paced maintenance passes: {loaded}"
    );
    // At idle the pacer opens the quota and catches up completely.
    server.drain_maintenance();
    let idle = server.report();
    assert_eq!(idle.maintenance_backlog, 0, "idle server must drain the inbox: {idle}");
    assert!(idle.maintenance_io.writes > 0, "adaptation must still happen: {idle}");
    server.with_engine(|db| {
        for t in ["l", "r"] {
            assert!(db.table(t).unwrap().tree_for_join_attr(0).is_some(), "{t} not adapted");
        }
    });
}

#[test]
fn explicit_maintenance_lane_runs_last_and_is_reported() {
    let server = DbServer::start_with(
        loaded_db(Mode::Fixed),
        ServerOptions {
            workers: Some(1),
            queue_capacity: Some(16),
            sched: Some(SchedPolicy::Lanes),
            ..Default::default()
        },
    );
    let mut session = server.session();
    // Cost classification never lands in the maintenance lane; only an
    // explicit tag does.
    session
        .run_with(
            &point_query(),
            SubmitOptions { lane: Some(Lane::Maintenance), ..Default::default() },
        )
        .unwrap();
    assert_eq!(session.stats().lane_queries[Lane::Maintenance.index()], 1);
    let report = server.report();
    assert_eq!(report.lanes[Lane::Maintenance.index()].queries, 1);
    assert_eq!(report.lanes[Lane::Interactive.index()].queries, 0);
}
