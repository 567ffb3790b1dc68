//! Block-cache equivalence acceptance tests.
//!
//! The per-node block cache changes *where* bytes come from and what a
//! read *costs* — never what a query returns and never the non-cache
//! counters. These tests pin that end-to-end:
//!
//! * TPC-H (Amoeba mode, every join a service shuffle) and a Zipfian
//!   re-access workload return bit-identical rows with the cache on or
//!   off, and the non-cache invariant holds: hits replace would-be DFS
//!   reads one-for-one (`reads_on + hits_on == reads_off`) while spill
//!   writes are untouched,
//! * hot-build reuse (an identical shuffle build side at an identical
//!   snapshot) skips re-spilling without changing a single output row,
//! * mid-run adaptation retires blocks and the cache is invalidated —
//!   queries stay identical to the cache-off twin across the swap,
//! * ingest appends and delta folds behave identically under caching,
//!   and the fold's block retirement purges cached delta blocks,
//! * (property) a cache hit can never serve a retired block's bytes.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::rng::derived;
use adaptdb_common::{row, Query, Row, ScanQuery, Value};
use adaptdb_dfs::SimClock;
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};
use adaptdb_workloads::zipf;
use proptest::prelude::*;

const CACHE_BLOCKS: usize = 64;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// A TPC-H engine pair differing only in the cache budget.
fn tpch_pair(mode: Mode) -> (Database, Database) {
    let gen = TpchGen::new(0.02, 5);
    let base = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        threads: 1,
        adapt_selections: false,
        cache_blocks_per_node: 0,
        seed: 5,
        ..DbConfig::default()
    };
    let mut off = Database::new(base.clone().with_mode(mode));
    gen.load_converged(&mut off, li::ORDERKEY).unwrap();
    let mut on =
        Database::new(DbConfig { cache_blocks_per_node: CACHE_BLOCKS, ..base }.with_mode(mode));
    gen.load_converged(&mut on, li::ORDERKEY).unwrap();
    (off, on)
}

/// Run one query on both engines and assert the row-level and
/// counter-level equivalence. Returns `(reads_off, hits_on)`.
/// `strict` additionally pins the one-for-one read/hit exchange and
/// byte-identical writes — valid whenever hot-build reuse did not kick
/// in (reuse legitimately *removes* build-side I/O on both tallies).
fn check_pair(off: &mut Database, on: &mut Database, q: &Query, strict: bool) -> (usize, usize) {
    let r_off = off.run(q).unwrap();
    let r_on = on.run(q).unwrap();
    assert_eq!(
        sorted(r_off.rows.clone()),
        sorted(r_on.rows.clone()),
        "rows must be bit-identical with the cache on"
    );
    assert_eq!(r_off.stats.cache.lookups(), 0, "cache-off twin must never touch the cache");
    assert_eq!(r_off.stats.cache.hits(), 0);
    // `stats.cache` merges the query and piggybacked-repartition
    // clocks, so the exchange invariant is checked against the same
    // union (`total_io`).
    let (io_off, io_on, cache_on) =
        (r_off.stats.total_io(), r_on.stats.total_io(), &r_on.stats.cache);
    if strict {
        assert_eq!(
            io_on.reads() + cache_on.hits(),
            io_off.reads(),
            "every hit must replace exactly one would-be DFS read"
        );
        assert_eq!(io_on.writes, io_off.writes, "caching must never change the write path");
    }
    // Shuffle self-consistency holds on both engines.
    for r in [&r_off, &r_on] {
        if r.stats.shuffle.blocks_spilled > 0 {
            assert_eq!(r.stats.shuffle.fetches(), r.stats.shuffle.blocks_spilled);
        }
    }
    (io_off.reads(), cache_on.hits())
}

/// TPC-H under Amoeba mode (every join a service shuffle): the full
/// template mix is row- and counter-identical cache on vs off, and the
/// warm second pass actually hits.
#[test]
fn tpch_shuffle_joins_identical_cache_on_and_off() {
    let (mut off, mut on) = tpch_pair(Mode::Amoeba);
    let mut rng = derived(5, "cache-equivalence");
    let queries: Vec<Query> = Template::all().iter().map(|t| t.instantiate(&mut rng)).collect();

    // Pass 1: distinct predicate constants per template — no hot-build
    // reuse is possible, so the strict exchange invariant must hold.
    let mut total_hits = 0;
    for q in &queries {
        let (_, hits) = check_pair(&mut off, &mut on, q, true);
        total_hits += hits;
    }
    // Cross-template re-access (every template scans lineitem) warms
    // the cache already in pass 1.
    assert!(total_hits > 0, "re-accessed table blocks must be served from cache");

    // Pass 2: identical queries — rows stay identical; repeats of the
    // same shuffle build side may now be served from the hot-build
    // cache (checked separately below), so only row equality is strict.
    for q in &queries {
        check_pair(&mut off, &mut on, q, false);
    }
}

/// Zipfian skewed re-access: the same join keeps being asked; the
/// cached engine converges to serving the build side from memory
/// (hot-build reuse) with fewer spills, while every pass stays
/// row-identical.
#[test]
fn zipfian_reaccess_hits_and_hot_build_reuse_preserve_rows() {
    let schema = adaptdb_common::Schema::from_pairs(&[
        ("k", adaptdb_common::ValueType::Int),
        ("x", adaptdb_common::ValueType::Int),
    ]);
    let dim_schema = adaptdb_common::Schema::from_pairs(&[("k", adaptdb_common::ValueType::Int)]);
    // The hot exchange reads through the fetch stream at every window:
    // pin both the one-deep and the overlapped stream.
    for fetch_window in [1, 4] {
        let build = |cache_blocks: usize| {
            let config = DbConfig {
                nodes: 4,
                replication: 1,
                rows_per_block: 32,
                threads: 1,
                fetch_window,
                cache_blocks_per_node: cache_blocks,
                seed: 11,
                ..DbConfig::default()
            };
            let mut db = Database::new(config.with_mode(Mode::Amoeba));
            db.create_table("f", schema.clone(), vec![0]).unwrap();
            db.create_table("d", dim_schema.clone(), vec![0]).unwrap();
            let mut rng = derived(11, "zipf-cache");
            db.load_rows("f", zipf::zipf_rows(1024, 64, 1.1, &mut rng)).unwrap();
            db.load_rows("d", zipf::key_rows(64)).unwrap();
            db
        };
        let mut off = build(0);
        let mut on = build(CACHE_BLOCKS);

        let q = Query::Join(adaptdb_common::JoinQuery::new(
            ScanQuery::full("f"),
            ScanQuery::full("d"),
            0,
            0,
        ));
        let mut spilled_on = Vec::new();
        let mut spilled_off = Vec::new();
        for pass in 0..3 {
            // Pass 0 is cold: no reuse possible, strict invariant applies.
            check_pair(&mut off, &mut on, &q, pass == 0);
            let (r_off, r_on) = (off.run(&q).unwrap(), on.run(&q).unwrap());
            assert_eq!(sorted(r_off.rows), sorted(r_on.rows));
            spilled_off.push(r_off.stats.shuffle.blocks_spilled);
            spilled_on.push(r_on.stats.shuffle.blocks_spilled);
        }
        let report = on.store().cache().expect("cache enabled").report();
        assert!(
            report.build_hits > 0,
            "w={fetch_window}: identical repeated joins must reuse the hot build"
        );
        assert!(
            spilled_on.last().unwrap() < spilled_off.last().unwrap(),
            "w={fetch_window}: hot-build reuse must spill less than the uncached twin: {spilled_on:?} vs {spilled_off:?}"
        );
        assert!(report.hits > 0);
    }
}

/// Mid-run adaptation: a forced repartition retires blocks under a warm
/// cache; the invalidation hooks purge them, and the cached engine
/// stays row-identical to the cache-off twin across the snapshot swap.
#[test]
fn adaptation_invalidates_cache_without_changing_rows() {
    let (mut off, mut on) = tpch_pair(Mode::Adaptive);
    let mut rng = derived(7, "cache-adapt");
    let warm: Vec<Query> = Template::all().iter().map(|t| t.instantiate(&mut rng)).collect();
    for q in &warm {
        check_pair(&mut off, &mut on, q, true);
    }
    let warmed = on.store().cache().expect("cache enabled").report();
    assert!(warmed.resident_blocks > 0, "the warm-up must populate the cache");
    // Adaptive mode repartitions mid-run: the warm loop itself already
    // retired blocks under a warm cache, and every retirement purged
    // its entry.
    assert!(
        warmed.invalidations > 0,
        "mid-run adaptation must have retired (and purged) cached blocks: {warmed:?}"
    );

    // Force one more adaptation toward the partkey attribute on both
    // twins; whether or not it moves further blocks, behavior must
    // stay identical.
    let adapt_q = Template::Q14.instantiate(&mut derived(7, "cache-adapt-q14"));
    off.adapt_now(&adapt_q, &SimClock::new()).unwrap();
    on.adapt_now(&adapt_q, &SimClock::new()).unwrap();

    // Identical behavior continues against the new partitioning.
    let mut rng2 = derived(9, "cache-post-adapt");
    for t in Template::all() {
        let q = t.instantiate(&mut rng2);
        check_pair(&mut off, &mut on, &q, false);
    }
}

/// Ingest: appends and delta folds are row-identical under caching, and
/// the fold's retirement of delta blocks purges them from the cache.
#[test]
fn ingest_folds_identical_and_purge_cached_deltas() {
    let (mut off, mut on) = tpch_pair(Mode::Adaptive);
    let mut extra = TpchGen::new(0.01, 77).lineitem();
    extra.truncate(300);
    off.append_rows("lineitem", extra.clone()).unwrap();
    on.append_rows("lineitem", extra).unwrap();

    // Scans see the appended rows identically (and cache their delta
    // blocks on the cached engine).
    let scan = Query::Scan(ScanQuery::full("lineitem"));
    check_pair(&mut off, &mut on, &scan, true);
    let before = on.store().cache().expect("cache enabled").report();

    let folded_off = off.fold_deltas("lineitem", &SimClock::new()).unwrap();
    let folded_on = on.fold_deltas("lineitem", &SimClock::new()).unwrap();
    assert_eq!(folded_off, folded_on, "fold must move the same blocks on both engines");
    assert!(folded_on > 0, "the appended deltas must actually fold");

    let after = on.store().cache().expect("cache enabled").report();
    assert!(
        after.invalidations > before.invalidations,
        "folding retires delta blocks; their cache entries must go: {after:?}"
    );
    check_pair(&mut off, &mut on, &scan, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache hit can never serve a retired block's bytes: after any
    /// write/warm/retire/rewrite sequence, reading a retired id fails
    /// (classification precedes the cache lookup) and every live block
    /// read through the cached path is bit-identical to the
    /// unaccounted ground truth.
    #[test]
    fn cache_hit_never_serves_retired_block_bytes(
        seeds in prop::collection::vec(0i64..1_000, 3..10),
        kill_at in 0usize..16,
        budget in 1usize..32,
    ) {
        let store = BlockStore::new(2, 1, 9);
        store.enable_cache(budget, 1.5);
        let clock = SimClock::new();
        let mut ids = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            let rows: Vec<Row> = (0..8).map(|j| row![*s + j, i as i64]).collect();
            ids.push(store.write_block("t", rows, 2, None));
        }
        // Warm the cache with every block (twice, so small budgets
        // exercise eviction and re-admission too).
        for _ in 0..2 {
            for &id in &ids {
                store.read_block("t", id, 0, &clock).unwrap();
            }
        }
        // Retire one warm block and write a replacement with fresh
        // rows under a fresh id.
        let retired = ids.remove(kill_at % ids.len());
        store.remove_block("t", retired).unwrap();
        let fresh_rows: Vec<Row> = (0..8).map(|j| row![-1 - j, 99i64]).collect();
        ids.push(store.write_block("t", fresh_rows, 2, None));

        prop_assert!(
            store.read_block("t", retired, 0, &clock).is_err(),
            "a retired id must never be served — cached or not"
        );
        for &id in &ids {
            let via_cache = store.read_block("t", id, 0, &clock).unwrap();
            let truth = store.read_block_unaccounted("t", id).unwrap();
            prop_assert_eq!(&via_cache, &truth, "cached read diverged from ground truth");
            prop_assert!(via_cache.rows.iter().all(|r| r.get(1) != &Value::Int(-1)));
        }
    }
}
