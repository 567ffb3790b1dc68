//! A shuffle reducer streams its probe side: runs stay encoded, each
//! run's key column is probed, and only rows that match are decoded. A
//! counting allocator pins that down — when no probe row has a partner,
//! the reducer's heap allocations grow with the number of probe runs it
//! fetches, not with the rows inside them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adaptdb_common::{row, PredicateSet, Row};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{reduce_partition, ExecContext, ShuffleService};
use adaptdb_storage::BlockStore;

/// Counts this thread's heap allocations, so tests running in parallel
/// do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counter only
// observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations one single-threaded reduce task makes when its
/// probe side arrives as `runs` runs of `rows_per_run` rows, none of
/// which matches the one-row build side.
fn reduce_allocations(runs: usize, rows_per_run: usize) -> usize {
    // One node and one reducer: every run is a full block, fetched
    // locally, and the map side writes exactly `runs` of them.
    let store = BlockStore::new(1, 1, 7);
    let probe: Vec<Row> =
        (0..(runs * rows_per_run) as i64).map(|i| row![i, i * 3, format!("p{}", i % 10)]).collect();
    let pids = vec![store.write_block("p", probe, 3, None)];
    let bids = vec![store.write_block("b", vec![row![-1i64, "build"]], 2, None)];
    let clock = SimClock::new();
    let svc = ShuffleService::new(ExecContext::new(&store, &clock), 1, rows_per_run, "a").unwrap();
    let none = PredicateSet::none();
    let build = svc.spill_blocks("b", &bids, 0, &none).unwrap();
    let probe = svc.spill_blocks("p", &pids, 0, &none).unwrap();
    assert_eq!(probe.runs[0].len(), runs, "the map side wrote one run per block of rows");
    let before = ALLOCS.with(Cell::get);
    let out = reduce_partition(&svc, 0, 1, &build, &probe, 0, 0).unwrap();
    let allocations = ALLOCS.with(Cell::get) - before;
    assert!(out.is_empty(), "no probe row has a partner");
    assert_eq!(clock.shuffle_snapshot().fetches(), runs + 1, "every run fetched once");
    svc.cleanup();
    allocations
}

#[test]
fn unmatched_probe_rows_cost_no_allocations() {
    let few_rows = reduce_allocations(4, 32);
    let many_rows = reduce_allocations(4, 512);
    let more_runs = reduce_allocations(8, 32);
    assert_eq!(
        many_rows, few_rows,
        "16× the probe rows in the same runs must not allocate more ({few_rows} → {many_rows})"
    );
    assert!(more_runs > few_rows, "twice the runs must cost more ({few_rows} → {more_runs})");
    // A handful of allocations per run, nowhere near one per row.
    assert!(few_rows < 4 * 32, "{few_rows} allocations for 128 probe rows");
}
