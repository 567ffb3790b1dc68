//! Skew robustness: shuffle-join tail latency and reducer memory under
//! Zipfian join keys, with memory-budgeted builds and hot-partition
//! splitting.
//!
//! An unmitigated shuffle join under key skew has two failure modes the
//! paper's uniform-key experiments never see: the hot reducer's build
//! table grows without bound (a real engine OOMs), and the hot reduce
//! task dominates the join's tail latency. This figure measures both
//! mitigations on the same Zipf-keyed join:
//!
//! * **skew sweep** — s ∈ {0.0, 0.6, 1.2} with a fixed budget and
//!   splitting on: per-task p99 stays within an asserted factor of the
//!   uniform run, and peak reducer memory stays ≤ budget;
//! * **budget sweep** — s = 1.2 at budget ∞/16/4/1 blocks: tighter
//!   budgets trade build-spill I/O for bounded memory, rows out are
//!   invariant;
//! * **parity** — s = 1.2, budget ∞, splitting off: bit-identical to
//!   the pre-skew engine's counters (the gate diffs this cell against
//!   the committed baseline).
//!
//! Task timing model: a partition split `k` ways runs its sub-tasks
//! concurrently on `k` distinct nodes, so its task time is the
//! partition's simulated seconds divided by `k` (communication — the
//! broadcast leg — is charged in full; only computation fans out).
//! The binary asserts the figure's contracts before it writes
//! `BENCH_skew.json`. Everything is deterministic (simulated I/O, fixed
//! seed), so CI also diffs every value of the file against the
//! committed baseline (`scripts/check_bench.py`).
//!
//! Usage: `fig_skew [--scale X] [--seed N] [--quick]`

use adaptdb_bench::{parse_args, BenchOpts, Fields, Report};
use adaptdb_common::{row, CostParams, Histogram, PredicateSet, Row};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{reduce_partition, ExecContext, ShuffleOptions, ShuffleService};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::zipf;

const ROWS_PER_BLOCK: usize = 100;
const NODES: usize = 4;
/// Split threshold used by every split-enabled cell: a partition whose
/// row load exceeds 1.3× the mean fans out over extra reducers.
const SPLIT_THRESHOLD: f64 = 1.3;

/// One measured cell.
struct Cell {
    s: f64,
    budget: Option<usize>,
    split: bool,
    input_blocks: usize,
    spill_blocks: usize,
    build_spill_blocks: usize,
    broadcast_fetches: usize,
    local_fetches: usize,
    remote_fetches: usize,
    split_partitions: usize,
    peak_mem_blocks: usize,
    max_recursion_depth: usize,
    rows_out: usize,
    p99_task_secs: f64,
    max_task_secs: f64,
    mean_task_secs: f64,
    cost_per_block: f64,
    sim_secs: f64,
}

fn rows_per_side(opts: &BenchOpts) -> usize {
    let n = ((8000.0 * opts.scale).round() as usize).max(2000);
    n.div_ceil(ROWS_PER_BLOCK) * ROWS_PER_BLOCK
}

/// One Zipf(s)-keyed join, reduced task by task so per-task simulated
/// seconds can be read off the clock.
fn measure(opts: &BenchOpts, s: f64, budget: Option<usize>, split: bool) -> Cell {
    let store = BlockStore::new(NODES, 1, opts.seed);
    let n = rows_per_side(opts);
    let n_keys = 64usize;
    let mut rng = adaptdb_common::rng::derived(opts.seed, "fig-skew");
    let facts = zipf::zipf_rows(n, n_keys, s, &mut rng);
    let dims: Vec<Row> = (0..n as i64).map(|i| row![i % n_keys as i64, i * 3]).collect();
    let write = |table: &str, rows: Vec<Row>| -> Vec<u32> {
        rows.chunks(ROWS_PER_BLOCK).map(|c| store.write_block(table, c.to_vec(), 2, None)).collect()
    };
    let lids = write("l", facts);
    let rids = write("r", dims);

    let clock = SimClock::new();
    let ctx = ExecContext::new(&store, &clock)
        .with_shuffle(ShuffleOptions {
            partitions: Some(NODES),
            replication: 1,
            split_threshold: split.then_some(SPLIT_THRESHOLD),
        })
        .with_join_mem_budget(budget);
    let none = PredicateSet::none();
    let svc = ShuffleService::new(ctx, NODES, ROWS_PER_BLOCK, "skew").expect("service");
    let left = svc.spill_blocks("l", &lids, 0, &none).expect("spill left");
    let right = svc.spill_blocks("r", &rids, 0, &none).expect("spill right");
    let plan = svc.split_plan(&left, &right);
    let params = CostParams::default();
    let mut rows_out = 0usize;
    // Log-bucketed histogram instead of a sorted Vec: count/sum/max are
    // exact, and nearest-rank p99 over ≤100 tasks resolves to the max
    // in both formulations, so the JSON stays bit-identical.
    let mut task_secs = Histogram::new();
    for (p, &k) in plan.iter().enumerate() {
        let before = clock.snapshot().simulated_secs(&params);
        rows_out += reduce_partition(&svc, p, k, &left, &right, 0, 0).expect("reduce").len();
        let delta = clock.snapshot().simulated_secs(&params) - before;
        // A k-way split runs k concurrent sub-tasks on distinct nodes.
        task_secs.record(delta / k.max(1) as f64);
    }
    svc.cleanup();
    assert!(!task_secs.is_empty(), "split plan produced no reduce tasks");

    let io = clock.snapshot();
    let sh = clock.shuffle_snapshot();
    let input_blocks = lids.len() + rids.len();
    Cell {
        s,
        budget,
        split,
        input_blocks,
        spill_blocks: sh.blocks_spilled,
        build_spill_blocks: sh.build_blocks_spilled,
        broadcast_fetches: sh.broadcast_fetches,
        local_fetches: sh.local_fetches,
        remote_fetches: sh.remote_fetches,
        split_partitions: sh.split_partitions,
        peak_mem_blocks: sh.peak_reducer_mem_blocks,
        max_recursion_depth: sh.max_recursion_depth,
        rows_out,
        p99_task_secs: task_secs.quantile(0.99),
        max_task_secs: task_secs.max(),
        mean_task_secs: task_secs.mean(),
        cost_per_block: (io.reads() + io.writes) as f64 / input_blocks as f64,
        sim_secs: io.simulated_secs(&params),
    }
}

fn row(c: &Cell) -> Fields {
    Fields::default()
        .fixed("s", c.s, 1)
        .opt("budget", c.budget)
        .lit("split", c.split)
        .lit("input_blocks", c.input_blocks)
        .lit("spill_blocks", c.spill_blocks)
        .lit("build_spill_blocks", c.build_spill_blocks)
        .lit("broadcast_fetches", c.broadcast_fetches)
        .lit("local_fetches", c.local_fetches)
        .lit("remote_fetches", c.remote_fetches)
        .lit("split_partitions", c.split_partitions)
        .lit("peak_mem_blocks", c.peak_mem_blocks)
        .lit("max_recursion_depth", c.max_recursion_depth)
        .lit("rows_out", c.rows_out)
        .fixed("p99_task_secs", c.p99_task_secs, 6)
        .fixed("max_task_secs", c.max_task_secs, 6)
        .fixed("mean_task_secs", c.mean_task_secs, 6)
        .fixed("cost_per_block", c.cost_per_block, 4)
        .fixed("sim_secs", c.sim_secs, 4)
}

fn main() {
    let (opts, _) = parse_args(&[]);
    let skews: &[f64] = &[0.0, 0.6, 1.2];
    let budgets: &[Option<usize>] =
        if opts.quick { &[None, Some(4)] } else { &[None, Some(16), Some(4), Some(1)] };
    const WORKING_BUDGET: usize = 8;

    let skew_sweep: Vec<Cell> =
        skews.iter().map(|&s| measure(&opts, s, Some(WORKING_BUDGET), true)).collect();
    let budget_sweep: Vec<Cell> = budgets.iter().map(|&b| measure(&opts, 1.2, b, true)).collect();
    let parity = measure(&opts, 1.2, None, false);

    let rows = |cells: &[Cell]| cells.iter().map(row).collect();
    let report = Report::new(
        Fields::header("skew", &opts)
            .lit("rows_per_block", ROWS_PER_BLOCK)
            .lit("split_threshold", SPLIT_THRESHOLD),
    )
    .table(
        "skew_sweep",
        format!("Tail latency & memory vs key skew (budget {WORKING_BUDGET} blocks, split on)"),
        rows(&skew_sweep),
    )
    .table(
        "budget_sweep",
        "Budget sweep at Zipf s=1.2 (split on): spill I/O buys bounded memory",
        rows(&budget_sweep),
    )
    .table(
        "parity",
        "Parity cell (s=1.2, budget ∞, split off): the pre-skew engine",
        rows(std::slice::from_ref(&parity)),
    );
    report.print();

    // The figure's contracts, asserted before the file is written.
    for c in skew_sweep.iter().chain(&budget_sweep).chain([&parity]) {
        assert_eq!(
            c.local_fetches + c.remote_fetches,
            c.spill_blocks,
            "s={} budget {:?}: broadcasts or build spills leaked into run fetches",
            c.s,
            c.budget
        );
        match c.budget {
            Some(b) => {
                assert!(c.peak_mem_blocks <= b, "budget {b} exceeded: {}", c.peak_mem_blocks)
            }
            None => assert_eq!(c.build_spill_blocks, 0, "budget ∞ must never spill builds"),
        }
        if !c.split {
            assert_eq!(c.split_partitions, 0, "s={}: split off but partitions split", c.s);
        }
    }
    let uniform = &skew_sweep[0];
    let skewed = skew_sweep.last().expect("cells");
    assert!(
        uniform.s == 0.0 && skewed.s >= 1.2,
        "the skew sweep must span s=0.0 to s>=1.2, got {} to {}",
        uniform.s,
        skewed.s
    );
    assert!(
        skewed.p99_task_secs <= 3.0 * uniform.p99_task_secs.max(1e-9),
        "skewed p99 {:.3} not bounded vs uniform {:.3}",
        skewed.p99_task_secs,
        uniform.p99_task_secs
    );
    assert!(skewed.split_partitions > 0, "s=1.2 must trip the split threshold");
    let rows_out = budget_sweep[0].rows_out;
    for c in budget_sweep.iter().chain([&parity]) {
        assert_eq!(c.rows_out, rows_out, "rows out must be budget-invariant");
    }
    assert_eq!(parity.broadcast_fetches, 0);

    report.write("BENCH_skew.json");
}
