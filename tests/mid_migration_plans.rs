//! Mid-migration joins pick the cheapest hyper/shuffle cover (§5.4).
//!
//! While a table migrates, its candidate blocks split into *matching*
//! ones (under a tree on the join attribute) and *other* ones. The
//! planner hyper-joins one cover of those parts — matching × matching,
//! matching × all, all × matching or all × all — and shuffles the rest
//! of L×R. These tests price every cover independently, from the
//! public classification, block metadata and `adaptdb_join`'s planner,
//! and pin that the plan EXPLAIN reports (and `Database::run` runs) is
//! never dearer than any cover or than one full shuffle; that its rows
//! are the nested-loop join's; and that a converged layout's EXPLAIN
//! and `C_HyJ` are what they were before covers were weighed.

use adaptdb::planner::{block_ranges, classify_candidates, SideCandidates};
use adaptdb::{Database, DbConfig, ExplainReport, Mode};
use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    row, BlockId, CmpOp, JoinQuery, Predicate, PredicateSet, Query, Row, ScanQuery, Schema,
    ValueType,
};
use adaptdb_join::planner::{plan, JoinDecision};

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

/// Which of a side's candidates a hyper-join or a shuffle leg reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Part {
    Matching,
    Other,
    All,
}
use Part::{All, Matching, Other};

/// Parts of `(left, right)`: a cover, or a shuffle leg.
type Parts = (Part, Part);

fn blocks(c: &SideCandidates, part: Part) -> Vec<BlockId> {
    match part {
        Matching => c.matching.clone(),
        Other => c.other.clone(),
        All => c.all(),
    }
}

/// Each cover, and the shuffle legs that join the rest of L×R.
const COVERS: [(Parts, &[Parts]); 4] = [
    ((Matching, Matching), &[(Matching, Other), (Other, All)]),
    ((Matching, All), &[(Other, All)]),
    ((All, Matching), &[(All, Other)]),
    ((All, All), &[]),
];

/// The Eq. 1 cost of one full shuffle and each cover's estimate: its
/// hyper-join's reads (the planner's best schedule over the cover's
/// parts) plus `C_SJ`·blocks for every leg with blocks on both sides.
fn cover_estimates(d: &Database, q: &JoinQuery) -> (f64, Vec<(Parts, f64)>) {
    let config = d.config();
    let side = |scan: &ScanQuery, attr| {
        classify_candidates(d.table(&scan.table).unwrap().snapshot(), &scan.predicates, attr)
    };
    let (left, right) = (side(&q.left, q.left_attr), side(&q.right, q.right_attr));
    let cost = &config.cost;
    let full = cost.shuffle_join_cost(left.len(), right.len());
    let estimates = COVERS
        .iter()
        .map(|&((l, r), legs)| {
            let lr = block_ranges(d.store(), &q.left.table, &blocks(&left, l), q.left_attr);
            let rr = block_ranges(d.store(), &q.right.table, &blocks(&right, r), q.right_attr);
            let hyper = match plan(&lr.unwrap(), &rr.unwrap(), config.buffer_blocks, cost) {
                JoinDecision::Hyper(p) => p.est_total_reads() as f64,
                JoinDecision::Shuffle { hyper_cost, .. } => hyper_cost,
            };
            let legs: f64 = legs
                .iter()
                .map(|&(a, b)| (blocks(&left, a).len(), blocks(&right, b).len()))
                .filter(|&(a, b)| a > 0 && b > 0)
                .map(|(a, b)| cost.shuffle_join_cost(a, b))
                .sum();
            ((l, r), hyper + legs)
        })
        .collect();
    (full, estimates)
}

/// The estimate of the plan EXPLAIN reports: the full shuffle's, or the
/// hyper-join's reads plus `C_SJ` per block its shuffle legs read.
fn chosen_estimate(report: &ExplainReport, d: &Database) -> f64 {
    match report.strategy {
        JoinStrategy::ShuffleJoin => report.est_shuffle_cost,
        _ => {
            report.est_hyper_reads.unwrap() as f64
                + d.config().cost.c_sj * report.est_shuffle_spill_blocks as f64
        }
    }
}

/// The join's rows by a nested loop, sorted.
fn nested_loop(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut out: Vec<Row> = left
        .iter()
        .flat_map(|l| right.iter().filter(|r| r.get(0) == l.get(0)).map(|r| l.concat(r)))
        .collect();
    out.sort_by(|a, b| a.values().cmp(b.values()));
    out
}

/// Run `q` `runs` times on `d` while it migrates. Before each run, the
/// plan EXPLAIN reports must cost no more than any cover and than one
/// full shuffle; each run's rows must be the nested-loop join's.
/// Returns each EXPLAIN's text.
fn replay(d: &mut Database, left: &[Row], right: &[Row], runs: usize) -> Vec<String> {
    let j = JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0);
    let q = Query::Join(j.clone());
    let want = nested_loop(left, right);
    assert!(!want.is_empty());
    let mut texts = Vec::new();
    for i in 0..runs {
        let report = d.explain(&q).unwrap();
        let chosen = chosen_estimate(&report, d);
        let (full, estimates) = cover_estimates(d, &j);
        let slack = 1e-9 * full;
        assert!(chosen <= full + slack, "query {i}: {chosen} above a full shuffle's {full}");
        for (cover, est) in estimates {
            assert!(chosen <= est + slack, "query {i}: {chosen} above {cover:?}'s {est}\n{report}");
        }
        texts.push(report.to_string());
        let mut got = d.run(&q).unwrap().rows;
        got.sort_by(|a, b| a.values().cmp(b.values()));
        assert_eq!(got, want, "query {i}");
    }
    texts
}

fn migrating_db(candidate_attrs: Vec<u16>, buffer_blocks: usize) -> Database {
    // A large window keeps migration slow, so every run sees a mid state.
    let config = DbConfig {
        rows_per_block: 10,
        window_size: 20,
        buffer_blocks,
        adapt_selections: false,
        ..DbConfig::small()
    };
    let mut d = Database::new(config);
    d.create_table("l", schema2(), candidate_attrs.clone()).unwrap();
    d.create_table("r", schema2(), candidate_attrs).unwrap();
    d
}

fn load(d: &mut Database, left: &[Row], right: &[Row]) {
    d.load_rows("l", left.iter().cloned()).unwrap();
    d.load_rows("r", right.iter().cloned()).unwrap();
}

/// Up-front trees on both attributes with `k` clustered: the up-front
/// blocks are already co-partitioned on the join key, so hyper-joining
/// every block beats shuffling the unmigrated ones.
#[test]
fn co_partitioned_up_front_layout_keeps_hyper_joining_all_blocks() {
    let left: Vec<Row> = (0..400i64).map(|i| row![i % 200, i]).collect();
    let right: Vec<Row> = (0..40i64).map(|i| row![i * 5, i * 2]).collect();
    let mut d = migrating_db(vec![0, 1], 2);
    load(&mut d, &left, &right);
    let texts = replay(&mut d, &left, &right, 6);
    assert!(texts.iter().skip(1).all(|t| t.contains("strategy: hyper-join")), "{texts:#?}");
}

/// Up-front trees on `x` only, with `l`'s keys scattered over them: a
/// migrated left block is worth hyper-joining against every right
/// block, and the unmigrated left blocks are shuffled against them.
/// With four build blocks per group, several covers beat a full
/// shuffle at once on some runs, so only the cheapest passes.
#[test]
fn scattered_up_front_layout_hyper_joins_migrated_blocks_against_all() {
    let left: Vec<Row> = (0..400i64).map(|i| row![(i * 37) % 200, i]).collect();
    let right: Vec<Row> = (0..200i64).map(|i| row![i, i * 2]).collect();
    let mut d = migrating_db(vec![1], 4);
    load(&mut d, &left, &right);
    let texts = replay(&mut d, &left, &right, 10);
    let shape = "hyper-join: left matching × right all; shuffle: left other × right all";
    assert!(texts.iter().any(|t| t.contains(shape)), "{texts:#?}");
}

/// A converged layout plans as it did before covers were weighed: the
/// same EXPLAIN, byte for byte, and the same `C_HyJ`, bit for bit, as
/// the planner that knew only matching × matching and all × all.
#[test]
fn converged_layout_explains_as_before() {
    let config =
        DbConfig { rows_per_block: 10, buffer_blocks: 4, fetch_window: 4, ..DbConfig::small() };
    let mut d = Database::new(config.with_mode(Mode::Fixed));
    d.create_table("l", schema2(), vec![1]).unwrap();
    d.create_table("r", schema2(), vec![1]).unwrap();
    d.load_two_phase("l", (0..200i64).map(|i| row![i % 100, i]).collect(), 0, None).unwrap();
    d.load_two_phase("r", (0..100i64).map(|i| row![(i * i) % 97, i]).collect(), 0, None).unwrap();
    let q = Query::Join(JoinQuery::new(
        ScanQuery::new("l", PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 150i64))),
        ScanQuery::full("r"),
        0,
        0,
    ));
    let before = "strategy: hyper-join
  l: 28 matching-tree blocks, 0 other blocks
  r: 16 matching-tree blocks, 0 other blocks
  shuffle estimate (Eq.1): 132.0 block-I/Os
  hyper estimate (Eq.2): 46 block reads, C_HyJ = 1.07
  build side: Right, 4 groups
  scheduler: ~44 candidate blocks, interactive lane
";
    assert_eq!(d.explain(&q).unwrap().to_string(), before);
    let c_hyj = d.run(&q).unwrap().stats.estimated_c_hyj.unwrap();
    assert_eq!(c_hyj.to_bits(), 0x3ff1_2492_4924_9249, "C_HyJ {c_hyj}");
}
