//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **append/merge-on-write** during repartitioning vs naive
//!    write-new-blocks (the HDFS-append semantics of §6),
//! 2. **median splits** vs equi-width range splits in two-phase trees
//!    under skew (the §5.1 argument for medians),
//! 3. **both-direction build-side selection** in the hyper-join planner
//!    vs always building on the left (paper builds on a designated
//!    table),
//! 4. **heuristic warm-start** of the exact solver (incumbent quality
//!    when the node budget is tiny).
//!
//! ```sh
//! cargo run --release -p adaptdb-bench --bin ablations
//! ```

use adaptdb_bench::harness::print_table;
use adaptdb_common::rng::seeded;
use adaptdb_common::{CostParams, Row, Value, ValueRange};
use adaptdb_dfs::SimClock;
use adaptdb_exec::repartition_blocks;
use adaptdb_join::planner::{plan, BlockRange};
use adaptdb_join::{bottom_up, exact, JoinDecision, OverlapMatrix};
use adaptdb_storage::BlockStore;
use adaptdb_tree::{Node, PartitionTree, TwoPhaseBuilder};
use rand::RngExt;
use std::collections::BTreeMap;

fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    ablation_merge_on_write(opts.seed);
    ablation_median_vs_equiwidth(opts.seed);
    ablation_build_side(opts.seed);
    ablation_warm_start(opts.seed);
}

/// Repeatedly migrate small batches into a 16-leaf tree, with and
/// without the append/merge semantics, and compare steady-state blocks.
fn ablation_merge_on_write(seed: u64) {
    let run = |merge: bool| -> (usize, usize) {
        let store = BlockStore::new(4, 1, seed);
        let clock = SimClock::new();
        // 40 source blocks of 10 rows.
        let mut sources = Vec::new();
        for c in 0..40i64 {
            let rows = (c * 10..c * 10 + 10).map(|k| Row::new(vec![Value::Int(k % 160)])).collect();
            sources.push(store.write_block("t", rows, 1, None));
        }
        // Target: a 16-leaf tree over the key space.
        let tree = balanced_tree(0, 0, 160, 4);
        let tree = PartitionTree::from_root(tree, 1, Some(0), 4);
        let mut bucket_map: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for pair in sources.chunks(2) {
            let existing = if merge { bucket_map.clone() } else { BTreeMap::new() };
            let out = repartition_blocks(&store, &clock, "t", pair, &tree, 10, &existing).unwrap();
            for v in bucket_map.values_mut() {
                v.retain(|b| !out.absorbed.contains(b));
            }
            for (bucket, blocks) in out.added {
                bucket_map.entry(bucket).or_default().extend(blocks);
            }
        }
        (store.block_count("t"), clock.snapshot().reads() + clock.snapshot().writes)
    };
    let (merged_blocks, merged_io) = run(true);
    let (naive_blocks, naive_io) = run(false);
    print_table(
        "Ablation 1: append/merge-on-write during repartitioning",
        &["variant", "final blocks (400 rows)", "total migration I/O"],
        &[
            vec!["merge (ours)".into(), merged_blocks.to_string(), merged_io.to_string()],
            vec!["naive".into(), naive_blocks.to_string(), naive_io.to_string()],
        ],
    );
    println!(
        "naive fragments {:.1}x more blocks; every later query pays that block count",
        naive_blocks as f64 / merged_blocks as f64
    );
}

fn balanced_tree(next: u32, lo: i64, hi: i64, depth: usize) -> Node {
    if depth == 0 {
        return Node::leaf(next);
    }
    let mid = (lo + hi) / 2;
    let width = 1u32 << (depth - 1);
    Node::internal(
        0,
        Value::Int(mid),
        balanced_tree(next, lo, mid, depth - 1),
        balanced_tree(next + width, mid + 1, hi, depth - 1),
    )
}

/// Two-phase join levels: medians vs equi-width cuts under Zipf-ish skew.
fn ablation_median_vs_equiwidth(seed: u64) {
    let mut rng = seeded(seed);
    // 80% of keys in [0, 1000), the rest spread over [0, 100_000).
    let rows: Vec<Row> = (0..20_000)
        .map(|_| {
            let k: i64 = if rng.random_bool(0.8) {
                rng.random_range(0..1_000)
            } else {
                rng.random_range(0..100_000)
            };
            Row::new(vec![Value::Int(k)])
        })
        .collect();

    let median_tree = TwoPhaseBuilder::new(1, 0, 5, vec![], 5, seed).build(&rows);
    let equi_tree = PartitionTree::from_root(balanced_tree(0, 0, 100_000, 5), 1, Some(0), 5);

    let imbalance = |tree: &PartitionTree| -> (usize, usize) {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for r in &rows {
            *counts.entry(tree.route(r)).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        (max, counts.len())
    };
    let (med_max, med_parts) = imbalance(&median_tree);
    let (eq_max, eq_parts) = imbalance(&equi_tree);
    print_table(
        "Ablation 2: median vs equi-width join-level cuts under skew (§5.1)",
        &["variant", "largest partition (of 20k rows)", "non-empty partitions"],
        &[
            vec!["median (ours)".into(), med_max.to_string(), med_parts.to_string()],
            vec!["equi-width".into(), eq_max.to_string(), eq_parts.to_string()],
        ],
    );
    println!(
        "equi-width's largest partition is {:.1}x the median tree's — skewed blocks \
         defeat both block-size budgets and hyper-join balance",
        eq_max as f64 / med_max as f64
    );
}

/// Hyper-join planner: evaluating both build directions vs forced-left.
fn ablation_build_side(seed: u64) {
    let mut rng = seeded(seed);
    let mut both_total = 0usize;
    let mut left_total = 0usize;
    for _ in 0..20 {
        // Asymmetric sides: large left, small right.
        let nl = rng.random_range(24..64usize);
        let nr = rng.random_range(4..12usize);
        let left: Vec<BlockRange> = (0..nl)
            .map(|i| {
                let lo = i as i64 * 50;
                (i as u32, ValueRange::new(Value::Int(lo), Value::Int(lo + 70)))
            })
            .collect();
        let span = nl as i64 * 50 / nr as i64;
        let right: Vec<BlockRange> = (0..nr)
            .map(|j| {
                let lo = j as i64 * span;
                (j as u32, ValueRange::new(Value::Int(lo), Value::Int(lo + span - 1)))
            })
            .collect();
        // Ours: planner free to choose.
        if let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) {
            both_total += p.est_total_reads();
        }
        // Forced-left: group left, probe right.
        let lr: Vec<ValueRange> = left.iter().map(|(_, r)| r.clone()).collect();
        let rr: Vec<ValueRange> = right.iter().map(|(_, r)| r.clone()).collect();
        let overlap = OverlapMatrix::compute_sweep(&lr, &rr);
        let g = bottom_up::solve(&overlap, 4);
        left_total += lr.len() + g.cost();
    }
    print_table(
        "Ablation 3: build-side selection (extension over the paper)",
        &["variant", "total est. block reads (20 asymmetric joins)"],
        &[
            vec!["best of both directions (ours)".into(), both_total.to_string()],
            vec!["always build left".into(), left_total.to_string()],
        ],
    );
}

/// Exact solver with vs without a useful incumbent under a tiny budget.
fn ablation_warm_start(seed: u64) {
    let mut rng = seeded(seed);
    let n = 40;
    let rr: Vec<ValueRange> = (0..n)
        .map(|i| {
            let lo = i as i64 * 40 + rng.random_range(0..30);
            ValueRange::new(Value::Int(lo), Value::Int(lo + 60))
        })
        .collect();
    let ss: Vec<ValueRange> = (0..n)
        .map(|j| ValueRange::new(Value::Int(j as i64 * 40), Value::Int(j as i64 * 40 + 39)))
        .collect();
    let overlap = OverlapMatrix::compute_naive(&rr, &ss);
    let heuristic = bottom_up::solve(&overlap, 8).cost();
    let tiny = exact::solve(&overlap, 8, 1); // budget exhausted immediately
    let big = exact::solve(&overlap, 8, 2_000_000);
    print_table(
        "Ablation 4: heuristic warm-start of the exact solver",
        &["solver state", "C(P)", "proven optimal"],
        &[
            vec!["bottom-up heuristic".into(), heuristic.to_string(), "-".into()],
            vec![
                "B&B, 1-node budget (incumbent = warm start)".into(),
                tiny.cost.to_string(),
                tiny.proven_optimal.to_string(),
            ],
            vec![
                "B&B, 2M-node budget".into(),
                big.cost.to_string(),
                big.proven_optimal.to_string(),
            ],
        ],
    );
    println!(
        "the warm start means even a starved exact solve never returns worse than the \
         heuristic — the paper's GLPK runs had no such floor"
    );
}
