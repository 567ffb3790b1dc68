//! Heap traffic of the query and adaptation paths, counted exactly. A
//! counting allocator pins three mechanisms down:
//!
//! * a hyper-join builds each output row once — the probe row is
//!   gathered at the output width and takes its build cells in place,
//!   and a build key seen once keeps its row inline;
//! * an Amoeba proposal scores its candidates into one reused buffer,
//!   so its allocations do not grow with the query window;
//! * a seeded Fig. 13b shifting sequence stays at most 0.7× the heap
//!   traffic it made before these paths were cut down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{
    rng, row, CmpOp, CostParams, Predicate, PredicateSet, Row, Value, ValueRange,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{hyper_join, ExecContext, HyperJoinSpec};
use adaptdb_join::planner::plan;
use adaptdb_join::{JoinDecision, JoinSide};
use adaptdb_storage::BlockStore;
use adaptdb_tree::{
    AdaptConfig, Adapter, CandidateMemo, QueryWindow, UpfrontPartitioner, WindowEntry,
};
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{Template, TpchGen};

/// Counts this thread's heap allocations and reallocations, so tests
/// running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged, so `System`'s guarantees carry over; the
// counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations (reallocations included) it
/// made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn hyper_join_allocates_once_per_output_row() {
    // Probe side `l`: 8 blocks of 64 rows over keys 0..32. Build side
    // `r`: one block, each key once. Every probe row matches one build
    // row.
    const KEYS: i64 = 32;
    let store = BlockStore::new(4, 1, 1);
    let full = ValueRange::new(Value::Int(0), Value::Int(KEYS - 1));
    let left: Vec<_> = (0..8i64)
        .map(|b| {
            let rows = (0..64i64).map(|i| row![(b * 64 + i) % KEYS, i, b]).collect();
            (store.write_block("l", rows, 3, None), full.clone())
        })
        .collect();
    let rows = (0..KEYS).map(|k| row![k, k * 10]).collect();
    let right = vec![(store.write_block("r", rows, 2, None), full)];
    let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) else {
        panic!("expected a hyper-join")
    };
    assert_eq!(p.build_side, JoinSide::Right, "the one-block side builds");
    let none = PredicateSet::none();
    let clock = SimClock::new();
    let (out, allocs) = allocations(|| {
        hyper_join(
            ExecContext::new(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .unwrap()
    });
    let out_rows = out.len();
    assert_eq!(out_rows, 8 * 64);
    assert!(out.iter().all(|r| r.arity() == 5 && r.get(0) == r.get(3)));
    // One allocation per output row (its probe row, gathered at the
    // output width), one per build row, and a bounded handful per block
    // read — no per-key bucket, no realloc of a gathered row.
    let blocks = left.len() + right.len();
    let bound = out_rows + KEYS as usize + 16 * blocks;
    assert!(allocs <= bound, "{allocs} allocations for {out_rows} output rows (bound {bound})");
}

/// Allocations of one `propose_with` on a memo miss, over a window of
/// `len` copies of one query. The tree splits attribute 1 only; the
/// window filters attribute 0, so every small site has a candidate. The
/// rewrite cost is prohibitive, so no plan is materialized and what is
/// counted is candidate generation (the same at every length) plus
/// scoring.
fn propose_miss_allocations(len: usize) -> usize {
    let mut r = rng::seeded(3);
    let sample: Vec<Row> = (0..2000)
        .map(|_| {
            use rand::RngExt;
            row![r.random_range(0..10_000i64), r.random_range(0..10_000i64)]
        })
        .collect();
    let tree = UpfrontPartitioner::new(2, vec![1], 4, 7).build(&sample);
    let mut window = QueryWindow::new(len);
    for _ in 0..len {
        window.push(WindowEntry {
            join_attr: None,
            predicates: PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 2500i64)),
        });
    }
    let adapter =
        Adapter::new(AdaptConfig { rewrite_cost_per_bucket: 1e9, ..AdaptConfig::default() });
    let mut memo = CandidateMemo::default();
    let (plan, allocs) =
        allocations(|| adapter.propose_with(&tree, &sample, 1, &window, &mut memo));
    assert!(plan.is_none(), "no candidate pays a prohibitive rewrite");
    assert_eq!(memo.builds(), 1, "a fresh memo misses");
    allocs
}

#[test]
fn proposal_scoring_allocates_the_same_at_any_window_length() {
    let short = propose_miss_allocations(4);
    let long = propose_miss_allocations(10);
    assert_eq!(long, short, "scoring 10 window entries allocated more than scoring 4");
}

/// Heap allocations (reallocations included) the seeded Fig. 13b
/// shifting sequence below made before the cuts this file pins: probe
/// rows regrown per output row, one `Vec` per hash key, per-entry
/// scoring buffers and per-node candidate copies. The same in debug and
/// release builds.
const SHIFTING_SEQUENCE_ALLOCATIONS_BEFORE: usize = 319_277;

#[test]
fn shifting_sequence_allocates_under_seven_tenths_of_the_old_engine() {
    let gen = TpchGen::new(0.1, 1);
    let config = DbConfig { rows_per_block: 100, buffer_blocks: 8, seed: 1, ..DbConfig::default() };
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_upfront(&mut db).expect("load TPC-H");
    let seq = patterns::shifting(&Template::all(), 5, 42);
    let mut q_rng = rng::derived(42, "query-allocs");
    let queries: Vec<_> = seq.iter().map(|t| t.instantiate(&mut q_rng)).collect();
    let (rows, allocs) =
        allocations(|| queries.iter().map(|q| db.run(q).expect("query").rows.len()).sum::<usize>());
    assert!(rows > 0);
    println!("shifting sequence: {} queries, {rows} rows, {allocs} allocations", queries.len());
    let bound = SHIFTING_SEQUENCE_ALLOCATIONS_BEFORE * 7 / 10;
    assert!(allocs <= bound, "{allocs} allocations (bound {bound})");
}
