//! Serial-vs-pipelined equivalence acceptance tests.
//!
//! The async fetch backend changes *when* block reads are charged —
//! max-of-window instead of one at a time — never what they cost in
//! blocks, what they fetch, or what a query returns. These tests pin
//! that on TPC-H and on the raw shuffle surface: with `fetch_window ≥
//! 4`, results are row-identical to `fetch_window = 1`, `ShuffleStats`
//! byte/block counts are unchanged, simulated time is strictly ≤
//! serial, and a node failing between spill and fetch fails over
//! mid-stream without changing the join.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, CostParams, PredicateSet, Query, Row};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{shuffle_join, ExecContext, Joined, ShuffleJoinSpec, ShuffleOptions};
use adaptdb_storage::{BlockStore, LazyBlock};
use adaptdb_workloads::tpch::{li, Template, TpchGen};

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

fn tpch_db(fetch_window: usize, mode: Mode) -> Database {
    let gen = TpchGen::new(0.02, 5);
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        adapt_selections: false,
        fetch_window,
        seed: 5,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(mode));
    gen.load_converged(&mut db, li::ORDERKEY).unwrap();
    db
}

/// TPC-H, every join a shuffle (Amoeba mode): window 4 must return the
/// same rows as window 1 with identical I/O and shuffle counts, while
/// simulated time only ever shrinks.
#[test]
fn tpch_pipelined_matches_serial_with_identical_counts() {
    let mut serial_db = tpch_db(1, Mode::Amoeba);
    let mut piped_db = tpch_db(4, Mode::Amoeba);
    let mut q_rng = adaptdb_common::rng::derived(5, "pipeline-equivalence");
    let queries: Vec<Query> =
        Template::join_templates().iter().map(|t| t.instantiate(&mut q_rng)).collect();
    let params = CostParams::default();
    let mut saw_overlap = false;
    for (i, q) in queries.iter().enumerate() {
        let s = serial_db.run(q).unwrap();
        let p = piped_db.run(q).unwrap();
        assert_eq!(sorted(s.rows.clone()), sorted(p.rows.clone()), "template {i} diverged");
        // Block-I/O counts and the whole shuffle breakdown (including
        // bytes spilled) are pipelining-invariant.
        assert_eq!(s.stats.query_io, p.stats.query_io, "template {i} I/O counts diverged");
        assert_eq!(s.stats.shuffle, p.stats.shuffle, "template {i} shuffle stats diverged");
        assert_eq!(
            s.stats.shuffle.bytes_spilled, p.stats.shuffle.bytes_spilled,
            "template {i} byte counts diverged"
        );
        // Serial runs hide nothing; pipelined runs only ever save time.
        assert_eq!(s.stats.overlap.hidden(), 0, "template {i}: serial must not overlap");
        let serial_secs = p.stats.simulated_secs(&params);
        let piped_secs = p.stats.pipelined_simulated_secs(&params);
        assert!(piped_secs <= serial_secs, "template {i}: {piped_secs} > {serial_secs}");
        if p.stats.shuffle.fetches() > 1 {
            assert!(
                p.stats.overlap.hidden() > 0,
                "template {i}: multi-fetch shuffle must overlap at window 4"
            );
            assert!(piped_secs < serial_secs, "template {i}: overlap must save time");
            saw_overlap = true;
        }
    }
    assert!(saw_overlap, "the corpus must exercise real overlap");
}

/// The adaptive engine end-to-end (migrations included): pipelining
/// must not perturb adaptation decisions or results.
#[test]
fn tpch_adaptive_is_pipelining_invariant() {
    let gen = TpchGen::new(0.02, 7);
    let mk = |window: usize| {
        let config = DbConfig {
            nodes: 4,
            replication: 1,
            rows_per_block: 64,
            buffer_blocks: 8,
            fetch_window: window,
            seed: 7,
            ..DbConfig::default()
        };
        let mut db = Database::new(config.with_mode(Mode::Adaptive));
        gen.load_upfront(&mut db).unwrap();
        db
    };
    let mut serial_db = mk(1);
    let mut piped_db = mk(8);
    let mut q_rng = adaptdb_common::rng::derived(7, "pipeline-adaptive");
    for t in Template::join_templates() {
        let q = t.instantiate(&mut q_rng);
        let s = serial_db.run(&q).unwrap();
        let p = piped_db.run(&q).unwrap();
        assert_eq!(sorted(s.rows), sorted(p.rows));
        assert_eq!(s.stats.strategy, p.stats.strategy, "plans must not depend on the window");
        assert_eq!(s.stats.query_io, p.stats.query_io);
        assert_eq!(s.stats.repartition_io, p.stats.repartition_io, "migration is unaffected");
    }
}

/// A node dying *between spill and fetch* — the fetch streams fail over
/// to surviving replicas mid-stream: same rows, degraded locality.
#[test]
fn failed_node_fetch_failover_mid_stream() {
    // Replication-2 spill runs so every run survives one node failure.
    let mk_store = || {
        let store = BlockStore::new(4, 2, 11);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        for k in 0..12i64 {
            let range = || k * 50..(k + 1) * 50;
            lids.push(store.write_block("l", range().map(|i| row![i % 97, i]).collect(), 2, None));
            rids.push(store.write_block("r", range().map(|i| row![i, i * 3]).collect(), 2, None));
        }
        (store, lids, rids)
    };
    let run = |fail_mid_stream: bool| {
        let (store, lids, rids) = mk_store();
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock)
            .with_shuffle(ShuffleOptions {
                partitions: Some(4),
                replication: 2,
                split_threshold: None,
            })
            .with_fetch_window(4);
        // Drive the service directly so the failure lands exactly
        // between the map phase (spill) and the reduce phase (fetch).
        let svc = adaptdb_exec::ShuffleService::new(ctx, 4, 50, "t").unwrap();
        let left = svc.spill_blocks("l", &lids, 0, &PredicateSet::none()).unwrap();
        let right = svc.spill_blocks("r", &rids, 0, &PredicateSet::none()).unwrap();
        if fail_mid_stream {
            store.dfs_mut().fail_node(0);
        }
        let mut streams = svc.partition_streams();
        let mut seen = vec![0usize; svc.partitions()];
        svc.push_new_runs(&mut streams, &left, &mut seen, false);
        seen.fill(0);
        svc.push_new_runs(&mut streams, &right, &mut seen, true);
        let mut rows = Vec::new();
        for mut stream in streams {
            let (l, r) = svc.drain_partition(&mut stream).unwrap();
            let decode = |runs: Vec<LazyBlock>| -> Vec<Row> {
                runs.into_iter().flat_map(|run| run.into_block().unwrap().rows).collect()
            };
            rows.extend(adaptdb_exec::hash_join_rows(decode(l), decode(r), 0, 0));
        }
        let sh = clock.shuffle_snapshot();
        svc.cleanup();
        (sorted(rows), sh)
    };
    let (healthy_rows, healthy_sh) = run(false);
    let (degraded_rows, degraded_sh) = run(true);
    assert!(!healthy_rows.is_empty());
    assert_eq!(healthy_rows, degraded_rows, "mid-stream fail-over must not change the join");
    // Every run block still fetched exactly once, at worse locality.
    assert_eq!(healthy_sh.fetches(), degraded_sh.fetches());
    assert_eq!(healthy_sh.bytes_spilled, degraded_sh.bytes_spilled);
    assert!(
        degraded_sh.local_fetches <= healthy_sh.local_fetches,
        "losing a node cannot improve fetch locality: {} vs {}",
        degraded_sh.local_fetches,
        healthy_sh.local_fetches
    );
}

/// Raw shuffle surface at several windows: identical counts, monotone
/// non-increasing pipelined time as the window deepens.
#[test]
fn deeper_windows_save_monotonically_at_equal_counts() {
    let store = BlockStore::new(4, 1, 3);
    let mut lids = Vec::new();
    let mut rids = Vec::new();
    for k in 0..16i64 {
        let range = || k * 100..(k + 1) * 100;
        lids.push(store.write_block("l", range().map(|i| row![i, i]).collect(), 2, None));
        rids.push(store.write_block("r", range().map(|i| row![i, -i]).collect(), 2, None));
    }
    let none = PredicateSet::none();
    let params = CostParams::default();
    let mut prev_secs = f64::INFINITY;
    let mut baseline = None;
    for window in [1usize, 2, 4, 8] {
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock)
            .with_shuffle(ShuffleOptions {
                partitions: Some(4),
                replication: 1,
                split_threshold: None,
            })
            .with_fetch_window(window);
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
                rows_per_block: 100,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        assert_eq!(rows.len(), 1600);
        let io = clock.snapshot();
        let sh = clock.shuffle_snapshot();
        match &baseline {
            None => baseline = Some((io, sh)),
            Some((bio, bsh)) => {
                assert_eq!(bio, &io, "window {window}: I/O counts changed");
                assert_eq!(bsh, &sh, "window {window}: shuffle stats changed");
            }
        }
        let secs = io.simulated_secs(&params) - clock.overlap_snapshot().saved_secs(&params);
        assert!(
            secs <= prev_secs + 1e-9,
            "window {window} slower than shallower window: {secs} vs {prev_secs}"
        );
        prev_secs = secs;
    }
    // At window ≥ 4 the fetch leg must be ≥ 1.5× cheaper than serial
    // (the acceptance bar of the pipelined backend).
    let (_, sh) = baseline.unwrap();
    let clock = SimClock::new();
    let ctx = ExecContext::new(&store, &clock)
        .with_shuffle(ShuffleOptions { partitions: Some(4), replication: 1, split_threshold: None })
        .with_fetch_window(4);
    shuffle_join(
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
            rows_per_block: 100,
        },
    )
    .and_then(Joined::into_rows)
    .unwrap();
    let fetch_serial = (sh.local_fetches as f64 * params.block_read_secs
        + sh.remote_fetches as f64 * params.block_read_secs * params.remote_read_penalty)
        / params.parallelism as f64;
    let fetch_piped = fetch_serial - clock.overlap_snapshot().saved_secs(&params);
    assert!(
        fetch_serial / fetch_piped >= 1.5,
        "window 4 overlap factor below 1.5x: {fetch_serial} vs {fetch_piped}"
    );
}
