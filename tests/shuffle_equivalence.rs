//! Shuffle-service equivalence and cost-accounting acceptance tests.
//!
//! The service changes *where* shuffle runs live and *how* their I/O is
//! charged — never what a join returns. These tests pin that: service
//! joins are row-for-row identical to an in-process reference shuffle
//! (and to the hyper-join path on TPC-H), with or without a failed
//! node, and the block-I/O pattern reproduces the paper's `C_SJ ≈ 3`
//! with a correct local/remote fetch split.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, PredicateSet, Query, Row, Value};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{hash_join_rows, shuffle_join, ExecContext, Joined, ShuffleJoinSpec};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// The pre-service algorithm: materialize both sides in process,
/// hash-partition in memory, join per partition. No spill, no fetch —
/// the row-level ground truth the service must reproduce.
fn in_process_reference(
    store: &BlockStore,
    left: (&str, &[u32]),
    right: (&str, &[u32]),
    preds: &PredicateSet,
    partitions: usize,
) -> Vec<Row> {
    let read_side = |(table, blocks): (&str, &[u32])| -> Vec<Vec<Row>> {
        let mut parts = vec![Vec::new(); partitions];
        for &b in blocks {
            let block = store.read_block_unaccounted(table, b).unwrap();
            for row in block.rows {
                if preds.matches(&row) {
                    let p = (row.get(0).stable_hash() % partitions as u64) as usize;
                    parts[p].push(row);
                }
            }
        }
        parts
    };
    let lp = read_side(left);
    let rp = read_side(right);
    let mut out = Vec::new();
    for (l, r) in lp.into_iter().zip(rp) {
        out.extend(hash_join_rows(l, r, 0, 0));
    }
    out
}

fn synthetic_store(nodes: usize, replication: usize, n: i64) -> (BlockStore, Vec<u32>, Vec<u32>) {
    let store = BlockStore::new(nodes, replication, 11);
    let mut lids = Vec::new();
    let mut rids = Vec::new();
    let mut k = 0i64;
    while k < n {
        let hi = (k + 50).min(n);
        // Skewed keys on the left (mod 97) exercise duplicate joins.
        lids.push(store.write_block("l", (k..hi).map(|i| row![i % 97, i]).collect(), 2, None));
        rids.push(store.write_block("r", (k..hi).map(|i| row![i, i * 3]).collect(), 2, None));
        k = hi;
    }
    (store, lids, rids)
}

fn spec<'a>(lids: &'a [u32], rids: &'a [u32], preds: &'a PredicateSet) -> ShuffleJoinSpec<'a> {
    ShuffleJoinSpec {
        left_table: "l",
        left_blocks: lids,
        right_table: "r",
        right_blocks: rids,
        left_attr: 0,
        right_attr: 0,
        left_preds: preds,
        right_preds: preds,
        rows_per_block: 50,
    }
}

#[test]
fn service_join_matches_in_process_reference() {
    let (store, lids, rids) = synthetic_store(4, 1, 600);
    let none = PredicateSet::none();
    let clock = SimClock::new();
    let got = shuffle_join(ExecContext::new(&store, &clock), spec(&lids, &rids, &none))
        .and_then(Joined::into_rows)
        .unwrap();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), &none, 4);
    assert_eq!(sorted(got), sorted(want), "service shuffle must be row-identical");
    // With predicates too.
    let preds = PredicateSet::none().and(adaptdb_common::Predicate::new(
        0,
        adaptdb_common::CmpOp::Lt,
        40i64,
    ));
    let got = shuffle_join(ExecContext::new(&store, &clock), spec(&lids, &rids, &preds))
        .and_then(Joined::into_rows)
        .unwrap();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), &preds, 4);
    assert!(!want.is_empty());
    assert_eq!(sorted(got), sorted(want));
}

#[test]
fn service_join_is_identical_after_node_failure() {
    let (store, lids, rids) = synthetic_store(4, 2, 600);
    let none = PredicateSet::none();
    let healthy_clock = SimClock::new();
    let healthy = shuffle_join(ExecContext::new(&store, &healthy_clock), spec(&lids, &rids, &none))
        .and_then(Joined::into_rows)
        .unwrap();
    store.dfs_mut().fail_node(0);
    let degraded_clock = SimClock::new();
    let degraded =
        shuffle_join(ExecContext::new(&store, &degraded_clock), spec(&lids, &rids, &none))
            .and_then(Joined::into_rows)
            .unwrap();
    assert_eq!(sorted(healthy), sorted(degraded), "fail-over must not change the join");
    // The degraded run still spills and fetches — on live nodes only.
    let sh = degraded_clock.shuffle_snapshot();
    assert!(sh.blocks_spilled > 0);
    assert_eq!(sh.fetches(), sh.blocks_spilled);
    store.dfs_mut().recover_node(0);
}

/// Acceptance: the service reproduces `C_SJ ≈ 3` block-I/Os per input
/// block on a multi-node cluster, with the fetch leg split local vs
/// remote according to real run placement (verified over `SimClock` /
/// `ReadKind` counters).
#[test]
fn csj_accounting_with_local_remote_split() {
    let nodes = 4usize;
    let store = BlockStore::new(nodes, 1, 7);
    let mut lids = Vec::new();
    let mut rids = Vec::new();
    // Block-aligned: 16 blocks of 100 rows per side, 4 per node.
    for k in 0..16i64 {
        let range = || k * 100..(k + 1) * 100;
        lids.push(store.write_block("l", range().map(|i| row![i, i]).collect(), 2, None));
        rids.push(store.write_block("r", range().map(|i| row![i, -i]).collect(), 2, None));
    }
    let clock = SimClock::new();
    let none = PredicateSet::none();
    let s = ShuffleJoinSpec {
        left_table: "l",
        left_blocks: &lids,
        right_table: "r",
        right_blocks: &rids,
        left_attr: 0,
        right_attr: 0,
        left_preds: &none,
        right_preds: &none,
        rows_per_block: 100,
    };
    let rows =
        shuffle_join(ExecContext::new(&store, &clock), s).and_then(Joined::into_rows).unwrap();
    assert_eq!(rows.len(), 1600);

    let io = clock.snapshot();
    let sh = clock.shuffle_snapshot();
    let input_blocks = lids.len() + rids.len();
    // The three legs: input reads, spill writes, fetch reads.
    assert_eq!(io.reads() - sh.fetches(), input_blocks, "one input read per block");
    assert_eq!(io.writes, sh.blocks_spilled, "all writes are shuffle spill");
    assert_eq!(sh.fetches(), sh.blocks_spilled, "every run block fetched exactly once");
    let per_block = (io.reads() + io.writes) as f64 / input_blocks as f64;
    assert!((2.9..=3.5).contains(&per_block), "C_SJ ≈ 3 violated: {per_block:.3}");
    // Split correctness: inputs are replica-local (the scheduler placed
    // map tasks on replica holders), so every remote read on the clock
    // is a run fetch; with unreplicated runs on 4 nodes ≈ 3/4 of
    // fetches cross the network.
    assert_eq!(io.remote_reads, sh.remote_fetches);
    assert_eq!(io.local_reads, input_blocks + sh.local_fetches);
    assert!(sh.remote_fetches > 0 && sh.local_fetches > 0);
    let ideal = 1.0 / nodes as f64;
    assert!(
        (sh.locality_fraction() - ideal).abs() < 0.15,
        "locality {} should sit near 1/nodes = {ideal}",
        sh.locality_fraction()
    );
}

/// TPC-H: the Amoeba-mode engine (every join a service shuffle) returns
/// the same multisets as the converged Fixed-mode engine (hyper-join) —
/// across the join templates, and while a node is down.
#[test]
fn tpch_shuffle_matches_hyper_across_templates() {
    let scale = 0.02;
    let seed = 5;
    let gen = TpchGen::new(scale, seed);
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        adapt_selections: false,
        seed,
        ..DbConfig::default()
    };
    let mut shuffle_db = Database::new(config.clone().with_mode(Mode::Amoeba));
    gen.load_converged(&mut shuffle_db, li::ORDERKEY).unwrap();
    let mut hyper_db = Database::new(config.with_mode(Mode::Fixed));
    gen.load_converged(&mut hyper_db, li::ORDERKEY).unwrap();

    let mut q_rng = adaptdb_common::rng::derived(seed, "shuffle-equivalence");
    let queries: Vec<Query> =
        Template::join_templates().iter().map(|t| t.instantiate(&mut q_rng)).collect();

    let mut failed = false;
    for (i, q) in queries.iter().enumerate() {
        // Halfway through, knock a node out under the shuffle engine.
        if i == queries.len() / 2 {
            shuffle_db.inject_node_failure(2);
            failed = true;
        }
        let sh = shuffle_db.run(q).unwrap();
        let hy = hyper_db.run(q).unwrap();
        assert_eq!(
            sorted(sh.rows.clone()),
            sorted(hy.rows.clone()),
            "template {i} diverged (node failed: {failed})"
        );
        if sh.stats.shuffle.blocks_spilled > 0 {
            // Shuffle accounting is self-consistent at the query level.
            assert_eq!(sh.stats.shuffle.fetches(), sh.stats.shuffle.blocks_spilled);
        }
    }
    assert!(failed, "the failure case must have been exercised");
}

/// The join results carry real values (guard against a trivially-empty
/// equivalence above).
#[test]
fn equivalence_corpus_is_nontrivial() {
    let (store, lids, rids) = synthetic_store(4, 1, 600);
    let none = PredicateSet::none();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), &none, 4);
    assert!(want.len() >= 600, "reference corpus too small: {}", want.len());
    assert!(want.iter().any(|r| r.get(3) != &Value::Int(0)));
}
