//! Skew-robustness equivalence tests.
//!
//! The memory-budgeted build, its recursive (Grace-style)
//! repartitioning, the block-nested-loop fallback at the recursion cap,
//! and hot-partition splitting all change *how* a reducer joins — never
//! what it returns. These tests pin row-identity of every mitigation
//! path against the in-process reference shuffle, on Zipfian synthetic
//! data and on TPC-H, including the pathological budget of one block.
//! Budget `None` (unbounded) must also reproduce the pre-budget
//! engine's block counts bit-identically — the accounting regression
//! guard.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, PredicateSet, Query, Row};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{
    hash_join_rows, shuffle_join, ExecContext, Joined, ShuffleJoinSpec, ShuffleOptions,
};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};
use adaptdb_workloads::zipf;

const ROWS_PER_BLOCK: usize = 50;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// The pre-service algorithm: materialize both sides in process,
/// hash-partition in memory, join per partition — the row-level ground
/// truth every skew mitigation must reproduce.
fn in_process_reference(
    store: &BlockStore,
    left: (&str, &[u32]),
    right: (&str, &[u32]),
    partitions: usize,
) -> Vec<Row> {
    let read_side = |(table, blocks): (&str, &[u32])| -> Vec<Vec<Row>> {
        let mut parts = vec![Vec::new(); partitions];
        for &b in blocks {
            let block = store.read_block_unaccounted(table, b).unwrap();
            for row in block.rows {
                let p = (row.get(0).stable_hash() % partitions as u64) as usize;
                parts[p].push(row);
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

/// Zipf(s)-keyed fact side joined against an equally-sized side with
/// uniform keys (`i % n_keys`), written as real DFS blocks. Both sides
/// carry the same block volume so reducer coalescing keeps the full
/// fan-out and only *key* skew separates the partitions.
fn zipf_store(nodes: usize, n: usize, n_keys: usize, s: f64) -> (BlockStore, Vec<u32>, Vec<u32>) {
    let store = BlockStore::new(nodes, 1, 11);
    let mut rng = adaptdb_common::rng::derived(42, "skew-equivalence");
    let facts = zipf::zipf_rows(n, n_keys, s, &mut rng);
    let dims: Vec<Row> = (0..n as i64).map(|i| row![i % n_keys as i64, i * 3]).collect();
    let write = |table: &str, rows: Vec<Row>| -> Vec<u32> {
        rows.chunks(ROWS_PER_BLOCK).map(|c| store.write_block(table, c.to_vec(), 2, None)).collect()
    };
    let lids = write("l", facts);
    let rids = write("r", dims);
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
        rows_per_block: ROWS_PER_BLOCK,
    }
}

fn skew_ctx<'a>(
    store: &'a BlockStore,
    clock: &'a SimClock,
    budget: Option<usize>,
    split_threshold: Option<f64>,
) -> ExecContext<'a> {
    ExecContext::new(store, clock)
        .with_shuffle(ShuffleOptions { partitions: Some(4), replication: 1, split_threshold })
        .with_join_mem_budget(budget)
}

#[test]
fn budgeted_joins_match_reference_at_every_budget() {
    let (store, lids, rids) = zipf_store(4, 2_000, 64, 1.2);
    let none = PredicateSet::none();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), 4);
    assert!(want.len() >= 2_000, "corpus too small: {}", want.len());
    // Budget = 1 block is the pathological floor: every non-trivial
    // build overflows, recursing until groups fit (or BNL at the cap).
    for budget in [None, Some(16), Some(4), Some(1)] {
        let clock = SimClock::new();
        let got = shuffle_join(skew_ctx(&store, &clock, budget, None), spec(&lids, &rids, &none))
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(sorted(got), sorted(want.clone()), "budget {budget:?} changed the join result");
        let sh = clock.shuffle_snapshot();
        if let Some(b) = budget {
            assert!(
                sh.peak_reducer_mem_blocks <= b,
                "budget {b} exceeded: peak {}",
                sh.peak_reducer_mem_blocks
            );
        } else {
            assert_eq!(sh.build_blocks_spilled, 0, "unbounded builds never spill");
        }
        // Build spill never perturbs the run-fetch invariant.
        assert_eq!(sh.fetches(), sh.blocks_spilled);
    }
}

#[test]
fn recursion_cap_falls_back_without_changing_rows() {
    // One key owns the whole fact side: salted repartitioning can never
    // shrink the build input, so the depth cap must trigger the
    // block-nested-loop leaf — still row-identical, still ≤ budget.
    let store = BlockStore::new(4, 1, 3);
    let facts: Vec<Row> = (0..600i64).map(|i| row![0i64, i]).collect();
    let lids: Vec<u32> =
        facts.chunks(ROWS_PER_BLOCK).map(|c| store.write_block("l", c.to_vec(), 2, None)).collect();
    // The probe side shares the hot key with 100 rows (2 blocks), so
    // the *smaller* (build) side is 2 blocks > the 1-block budget.
    let probes: Vec<Row> = (0..100i64).map(|i| row![0i64, -i]).collect();
    let rids: Vec<u32> = probes
        .chunks(ROWS_PER_BLOCK)
        .map(|c| store.write_block("r", c.to_vec(), 2, None))
        .collect();
    let none = PredicateSet::none();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), 4);
    assert_eq!(want.len(), 60_000);
    let clock = SimClock::new();
    let got = shuffle_join(skew_ctx(&store, &clock, Some(1), None), spec(&lids, &rids, &none))
        .and_then(Joined::into_rows)
        .unwrap();
    assert_eq!(sorted(got), sorted(want));
    let sh = clock.shuffle_snapshot();
    assert!(sh.peak_reducer_mem_blocks <= 1, "BNL leaf broke the budget");
    assert!(
        sh.max_recursion_depth >= 1,
        "a 2-block build under a 1-block budget must have recursed"
    );
}

#[test]
fn hot_partition_splitting_matches_reference() {
    let (store, lids, rids) = zipf_store(4, 2_000, 64, 1.4);
    let none = PredicateSet::none();
    let want = in_process_reference(&store, ("l", &lids), ("r", &rids), 4);
    // Splitting alone, and splitting combined with a tight budget.
    for budget in [None, Some(2)] {
        let clock = SimClock::new();
        let got =
            shuffle_join(skew_ctx(&store, &clock, budget, Some(1.3)), spec(&lids, &rids, &none))
                .and_then(Joined::into_rows)
                .unwrap();
        assert_eq!(
            sorted(got),
            sorted(want.clone()),
            "split (budget {budget:?}) changed the join result"
        );
        let sh = clock.shuffle_snapshot();
        assert!(sh.split_partitions > 0, "Zipf 1.4 must trip the split threshold");
        assert!(sh.broadcast_fetches > 0, "sub-tasks re-read the small side");
        assert_eq!(sh.fetches(), sh.blocks_spilled, "broadcasts never pollute run fetches");
    }
}

#[test]
fn unbounded_budget_reproduces_block_counts_bit_identically() {
    // The regression guard for the accounting currency: budget `None`
    // and splitting off must reproduce the pre-skew engine's counters
    // exactly — same reads, writes, fetches, locality split.
    let (store, lids, rids) = zipf_store(4, 2_000, 64, 0.6);
    let none = PredicateSet::none();
    let c_default = SimClock::new();
    let base = ExecContext::new(&store, &c_default).with_shuffle(ShuffleOptions {
        partitions: Some(4),
        replication: 1,
        split_threshold: None,
    });
    let a = shuffle_join(base, spec(&lids, &rids, &none)).and_then(Joined::into_rows).unwrap();
    let c_unbounded = SimClock::new();
    let b = shuffle_join(skew_ctx(&store, &c_unbounded, None, None), spec(&lids, &rids, &none))
        .and_then(Joined::into_rows)
        .unwrap();
    assert_eq!(sorted(a), sorted(b));
    assert_eq!(c_default.snapshot(), c_unbounded.snapshot(), "block counts must match");
    let sa = c_default.shuffle_snapshot();
    let sb = c_unbounded.shuffle_snapshot();
    assert_eq!(sa, sb, "shuffle breakdown must match");
    assert_eq!(sb.build_blocks_spilled, 0);
    assert_eq!(sb.split_partitions, 0);
}

/// TPC-H end-to-end: an Amoeba-mode engine running every join through
/// the budgeted, split-enabled shuffle returns the same multisets as
/// the converged Fixed-mode hyper-join engine.
#[test]
fn tpch_budgeted_shuffle_matches_hyper() {
    let scale = 0.02;
    let seed = 9;
    let gen = TpchGen::new(scale, seed);
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        adapt_selections: false,
        seed,
        join_mem_budget_blocks: Some(2),
        shuffle_split_threshold: Some(1.5),
        ..DbConfig::default()
    };
    let mut shuffle_db = Database::new(config.clone().with_mode(Mode::Amoeba));
    gen.load_converged(&mut shuffle_db, li::ORDERKEY).unwrap();
    let mut hyper_db = Database::new(config.with_mode(Mode::Fixed));
    gen.load_converged(&mut hyper_db, li::ORDERKEY).unwrap();

    let mut q_rng = adaptdb_common::rng::derived(seed, "skew-equivalence");
    let queries: Vec<Query> =
        Template::join_templates().iter().map(|t| t.instantiate(&mut q_rng)).collect();
    for (i, q) in queries.iter().enumerate() {
        let sh = shuffle_db.run(q).unwrap();
        let hy = hyper_db.run(q).unwrap();
        assert_eq!(
            sorted(sh.rows.clone()),
            sorted(hy.rows.clone()),
            "template {i} diverged under budget/split"
        );
        if sh.stats.shuffle.blocks_spilled > 0 {
            assert!(sh.stats.shuffle.peak_reducer_mem_blocks <= 2, "budget exceeded");
            assert_eq!(sh.stats.shuffle.fetches(), sh.stats.shuffle.blocks_spilled);
        }
    }
}
