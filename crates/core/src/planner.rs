//! Query planning: the one place a query's plan is decided.
//!
//! `plan_query` makes every decision about how a query runs, against
//! the layout snapshots it will read, before any data is read. The read
//! path ([`crate::readpath`]) executes the plan, `EXPLAIN`
//! ([`crate::Database::explain`]) renders it, and the admission
//! estimate ([`crate::cost::estimate_query`]) counts candidates with
//! the same `table_candidates` rule without building a plan.
//!
//! A join falls in one of the three tree-configuration cases of §6:
//!
//! 1. both tables have one tree on the join attribute → pure hyper-join;
//! 2. one table is mid-migration (several trees) → hyper-join for the
//!    blocks under the matching tree plus shuffle join for the rest;
//! 3. no tree matches → shuffle join (unless the up-front partitioning
//!    "happens to work out", which the cost comparison detects).
//!
//! [`classify_candidates`] splits a table's candidate blocks into the
//! *matching* set (stored under a tree whose join attribute equals the
//! query's) and the *other* set; the plan hyper-joins the cheapest
//! *cover* of those parts and shuffles the rest of L×R, if that beats
//! one full shuffle (§5.4).

use std::borrow::Cow;

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    AttrId, BlockId, JoinQuery, JoinStep, PredicateSet, Query, Result, ScanQuery, ValueRange,
};
use adaptdb_exec::StepGroup;
use adaptdb_join::planner::{self as join_planner, BlockRange};
use adaptdb_join::{HyperJoinPlan, JoinDecision};
use adaptdb_storage::BlockStore;

use crate::config::Mode;
use crate::readpath::SnapshotSource;
use crate::table::TableSnapshot;
use Part::{All, Matching, Other};

/// Candidate blocks for one side of a join, split by tree affinity.
#[derive(Debug, Clone, Default)]
pub struct SideCandidates {
    /// Blocks stored under a tree organized for the query's join attr.
    pub matching: Vec<BlockId>,
    /// Blocks stored under any other tree.
    pub other: Vec<BlockId>,
}

impl SideCandidates {
    /// All candidate blocks.
    pub fn all(&self) -> Vec<BlockId> {
        let mut v = self.matching.clone();
        v.extend_from_slice(&self.other);
        v
    }

    /// Total candidate count.
    pub fn len(&self) -> usize {
        self.matching.len() + self.other.len()
    }

    /// True when no blocks qualify.
    pub fn is_empty(&self) -> bool {
        self.matching.is_empty() && self.other.is_empty()
    }

    /// The blocks of one part, borrowed where no concatenation is needed.
    pub(crate) fn part(&self, part: Part) -> Cow<'_, [BlockId]> {
        match part {
            Part::Matching => Cow::Borrowed(&self.matching),
            Part::Other => Cow::Borrowed(&self.other),
            Part::All => Cow::Owned(self.all()),
        }
    }

    /// The block count of one part.
    pub(crate) fn count(&self, part: Part) -> usize {
        match part {
            Part::Matching => self.matching.len(),
            Part::Other => self.other.len(),
            Part::All => self.len(),
        }
    }
}

/// Which of a side's candidates a hyper-join or a shuffle leg reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// [`SideCandidates::matching`].
    Matching,
    /// [`SideCandidates::other`].
    Other,
    /// Both, matching first.
    All,
}

impl Part {
    /// Lower-case name, as `EXPLAIN` prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Part::Matching => "matching",
            Part::Other => "other",
            Part::All => "all",
        }
    }
}

/// Parts of `(left, right)`: a hyper-join's cover, or a shuffle leg.
pub(crate) type Parts = (Part, Part);

/// Each cover a hyper-join can read, as parts of `(left, right)`, with
/// the shuffle legs that join the rest of L×R, so that every pair of
/// blocks is joined exactly once. The matching × matching split comes
/// first.
const COVERS: [(Parts, &[Parts]); 4] = [
    ((Matching, Matching), &[(Matching, Other), (Other, All)]),
    ((Matching, All), &[(Other, All)]),
    ((All, Matching), &[(All, Other)]),
    ((All, All), &[]),
];

/// The shuffle legs of `cover` ([`COVERS`]) with blocks on both sides.
fn cover_legs(left: &SideCandidates, right: &SideCandidates, cover: Parts) -> Vec<Parts> {
    let legs = COVERS.iter().find(|(c, _)| *c == cover).map_or(&[][..], |(_, legs)| legs);
    legs.iter().copied().filter(|&(l, r)| left.count(l) > 0 && right.count(r) > 0).collect()
}

/// Classify a table's `lookup` results by whether their tree matches the
/// join attribute. Takes the immutable layout snapshot, so the serving
/// runtime can plan against a pinned view while adaptation proceeds.
pub fn classify_candidates(
    table: &TableSnapshot,
    preds: &PredicateSet,
    join_attr: AttrId,
) -> SideCandidates {
    let mut out = SideCandidates::default();
    for info in &table.trees {
        let blocks = info.lookup_blocks(preds);
        if info.join_attr() == Some(join_attr) {
            out.matching.extend(blocks);
        } else {
            out.other.extend(blocks);
        }
    }
    // Unfolded delta blocks live under no tree: they always shuffle
    // (and their presence forces the mixed/shuffle path, never hyper).
    out.other.extend_from_slice(&table.delta);
    out
}

/// Whether `mode` lets the planner weigh a hyper-join. The FullScan and
/// Amoeba baselines always shuffle.
fn allows_hyper(mode: Mode) -> bool {
    matches!(mode, Mode::Adaptive | Mode::FullRepartition | Mode::Fixed)
}

/// The candidate blocks one table contributes to a query. FullScan
/// prunes nothing: every block, all in `other`. Otherwise `lookup(T, q)`:
/// split by tree affinity for a join leg (`join_attr`), all in `other`
/// and in scan order for a scan. Reads tree metadata only, never block
/// metadata, so admission can afford it for every submission.
pub(crate) fn table_candidates(
    mode: Mode,
    table: &TableSnapshot,
    preds: &PredicateSet,
    join_attr: Option<AttrId>,
) -> SideCandidates {
    match (mode, join_attr) {
        (Mode::FullScan, _) => SideCandidates { matching: Vec::new(), other: table.all_blocks() },
        (_, Some(attr)) => classify_candidates(table, preds, attr),
        (_, None) => SideCandidates { matching: Vec::new(), other: table.lookup_blocks(preds) },
    }
}

/// Fetch `(block, join-attribute range)` pairs for the hyper-join
/// planner from block metadata.
pub fn block_ranges(
    store: &BlockStore,
    table: &str,
    blocks: &[BlockId],
    attr: AttrId,
) -> Result<Vec<BlockRange>> {
    blocks
        .iter()
        .map(|&b| {
            let range: ValueRange = store.with_block_meta(table, b, |m| m.range(attr).clone())?;
            Ok((b, range))
        })
        .collect()
}

/// How one query runs, decided by [`plan_query`].
#[derive(Debug)]
pub(crate) enum QueryPlan<'q> {
    /// A single-table scan of `blocks`, in scan order.
    Scan { scan: &'q ScanQuery, blocks: Vec<BlockId> },
    /// A two-table join, then each multi-way step in order.
    Join { first: JoinPlan<'q>, steps: Vec<StepPlan<'q>> },
}

/// The plan of a two-table join: both sides' candidates and the §5.4
/// choice.
#[derive(Debug)]
pub(crate) struct JoinPlan<'q> {
    pub query: &'q JoinQuery,
    pub left: SideCandidates,
    pub right: SideCandidates,
    pub choice: JoinChoice,
}

/// How a two-table join runs.
#[derive(Debug)]
pub(crate) enum JoinChoice {
    /// Shuffle every candidate of both sides. `costs` is the Eq. 1
    /// shuffle cost and the hyper-join alternative's cost, when the mode
    /// let the planner weigh one.
    Shuffle { costs: Option<(f64, f64)> },
    /// Hyper-join the parts `cover` names under `plan`, then shuffle
    /// the rest of L×R ([`JoinPlan::shuffle_legs`]). A cover other than
    /// all × all is §6 case 2's hyper-join of the blocks already under
    /// a tree on the join attribute, on one side or both.
    Hyper { plan: HyperJoinPlan, cover: Parts },
}

/// The plan of one multi-way step (§4.3), with the step table's
/// candidate counts: under a tree on the step's attribute (`matching`)
/// and the rest (`other`).
#[derive(Debug)]
pub(crate) struct StepPlan<'q> {
    pub step: &'q JoinStep,
    pub matching: usize,
    pub other: usize,
    pub choice: StepChoice,
}

/// How a multi-way step runs.
#[derive(Debug)]
pub(crate) enum StepChoice {
    /// Every candidate sits under a tree on the step's attribute: only
    /// the intermediate is shuffled, and the stored side is read group
    /// by group through a hyper-join schedule.
    Hyper(Vec<StepGroup>),
    /// Scan these blocks (in scan order) and shuffle both sides.
    Shuffle(Vec<BlockId>),
}

impl JoinPlan<'_> {
    /// The hyper-join schedule, if the join runs one.
    pub(crate) fn hyper(&self) -> Option<&HyperJoinPlan> {
        match &self.choice {
            JoinChoice::Hyper { plan, .. } => Some(plan),
            JoinChoice::Shuffle { .. } => None,
        }
    }

    /// The shuffle joins this join runs, in order, as the part of each
    /// side they read. A full shuffle reads every candidate; a
    /// hyper-join, the legs its cover leaves ([`COVERS`]) that have
    /// blocks on both sides: none for all × all.
    pub(crate) fn shuffle_legs(&self) -> Vec<Parts> {
        match self.choice {
            JoinChoice::Shuffle { .. } => vec![(Part::All, Part::All)],
            JoinChoice::Hyper { cover, .. } => cover_legs(&self.left, &self.right, cover),
        }
    }

    /// The hyper-join's cover and the shuffle legs, as `EXPLAIN` prints
    /// them, when the join runs both (mid-migration).
    pub(crate) fn describe_cover(&self) -> Option<String> {
        let JoinChoice::Hyper { cover, .. } = self.choice else { return None };
        let pair = |(l, r): Parts| format!("left {} × right {}", l.name(), r.name());
        let legs: Vec<String> = self.shuffle_legs().into_iter().map(pair).collect();
        let shuffle = legs.join(", ");
        (!legs.is_empty()).then(|| format!("hyper-join: {}; shuffle: {shuffle}", pair(cover)))
    }
}

impl QueryPlan<'_> {
    /// The strategy the plan runs. A hyper-join with any shuffled part
    /// (a mixed remainder or a step fallback) is [`JoinStrategy::Mixed`].
    pub(crate) fn strategy(&self) -> JoinStrategy {
        match self {
            QueryPlan::Scan { .. } => JoinStrategy::ScanOnly,
            QueryPlan::Join { first, steps } => match first.choice {
                JoinChoice::Shuffle { .. } => JoinStrategy::ShuffleJoin,
                JoinChoice::Hyper { .. }
                    if !first.shuffle_legs().is_empty()
                        || steps.iter().any(|s| matches!(s.choice, StepChoice::Shuffle(_))) =>
                {
                    JoinStrategy::Mixed
                }
                JoinChoice::Hyper { .. } => JoinStrategy::HyperJoin,
            },
        }
    }

    /// The first (or only) two-table join, if the query joins.
    pub(crate) fn first(&self) -> Option<&JoinPlan<'_>> {
        match self {
            QueryPlan::Scan { .. } => None,
            QueryPlan::Join { first, .. } => Some(first),
        }
    }

    /// `C_HyJ` of the first join's hyper-join schedule, if it runs one.
    pub(crate) fn c_hyj(&self) -> Option<f64> {
        self.first().and_then(JoinPlan::hyper).map(|p| p.c_hyj)
    }

    /// Candidate blocks per table leg, in query order:
    /// `(table, matching-tree blocks, other blocks)`.
    pub(crate) fn candidates(&self) -> Vec<(String, usize, usize)> {
        let side = |scan: &ScanQuery, c: &SideCandidates| {
            (scan.table.clone(), c.matching.len(), c.other.len())
        };
        match self {
            QueryPlan::Scan { scan, blocks } => vec![(scan.table.clone(), 0, blocks.len())],
            QueryPlan::Join { first, steps } => {
                let j = first.query;
                let mut out = vec![side(&j.left, &first.left), side(&j.right, &first.right)];
                out.extend(steps.iter().map(|s| (s.step.table.table.clone(), s.matching, s.other)));
                out
            }
        }
    }

    /// Stored blocks each shuffle join of the plan reads, as
    /// `(left, right)`: the first join's legs, then each step fallback's
    /// stored side (its intermediate's size is known only once it runs).
    pub(crate) fn shuffle_legs(&self) -> Vec<(usize, usize)> {
        match self {
            QueryPlan::Scan { .. } => Vec::new(),
            QueryPlan::Join { first, steps } => {
                let mut legs: Vec<(usize, usize)> = first
                    .shuffle_legs()
                    .into_iter()
                    .map(|(l, r)| (first.left.count(l), first.right.count(r)))
                    .collect();
                legs.extend(steps.iter().filter_map(|s| match &s.choice {
                    StepChoice::Shuffle(blocks) => Some((0, blocks.len())),
                    StepChoice::Hyper(_) => None,
                }));
                legs
            }
        }
    }
}

/// Decide how `query` runs against `src`'s snapshots: each table's
/// candidates, the first join's §5.4 choice, and each multi-way step's
/// hyper-step or fallback. Reads tree and block metadata, never data.
pub(crate) fn plan_query<'q, S: SnapshotSource>(
    src: &S,
    query: &'q Query,
) -> Result<QueryPlan<'q>> {
    match query {
        Query::Scan(scan) => {
            let snap = src.snapshot(&scan.table)?;
            let blocks = table_candidates(src.config().mode, &snap, &scan.predicates, None).other;
            Ok(QueryPlan::Scan { scan, blocks })
        }
        Query::Join(j) => Ok(QueryPlan::Join { first: plan_join(src, j)?, steps: Vec::new() }),
        Query::MultiJoin { first, steps } => Ok(QueryPlan::Join {
            first: plan_join(src, first)?,
            steps: steps.iter().map(|step| plan_step(src, step)).collect::<Result<_>>()?,
        }),
    }
}

/// Plan a two-table join (§5.4). The baseline cover is matching ×
/// matching when both sides have matching blocks, else all × all (case
/// 3's "up-front partitioning happens to work out"). Mid-migration the
/// other covers are planned too. A cover costs its hyper reads plus
/// `C_SJ`·blocks per shuffle leg (Eqs. 2 and 1); the cheapest that
/// beats one full shuffle wins, ties going to the baseline.
fn plan_join<'q, S: SnapshotSource>(src: &S, query: &'q JoinQuery) -> Result<JoinPlan<'q>> {
    let config = src.config();
    let side = |scan: &ScanQuery, attr| -> Result<SideCandidates> {
        Ok(table_candidates(
            config.mode,
            &*src.snapshot(&scan.table)?,
            &scan.predicates,
            Some(attr),
        ))
    };
    let left = side(&query.left, query.left_attr)?;
    let right = side(&query.right, query.right_attr)?;
    let mut plan = JoinPlan { query, left, right, choice: JoinChoice::Shuffle { costs: None } };
    if !allows_hyper(config.mode) {
        return Ok(plan);
    }
    let cost = &config.cost;
    let full = cost.shuffle_join_cost(plan.left.len(), plan.right.len());
    // A cover's plan and price, or the costs by which its hyper part
    // loses to shuffling that part.
    let price = |plan: &JoinPlan, cover: Parts| -> Result<std::result::Result<_, _>> {
        let (l, r) = cover;
        let l_ranges =
            block_ranges(src.store(), &query.left.table, &plan.left.part(l), query.left_attr)?;
        let r_ranges =
            block_ranges(src.store(), &query.right.table, &plan.right.part(r), query.right_attr)?;
        Ok(match join_planner::plan(&l_ranges, &r_ranges, config.buffer_blocks, cost) {
            JoinDecision::Hyper(hyper) => {
                let legs = cover_legs(&plan.left, &plan.right, cover);
                let mixed = legs.iter().fold(hyper.est_total_reads() as f64, |acc, &(l, r)| {
                    acc + cost.shuffle_join_cost(plan.left.count(l), plan.right.count(r))
                });
                Ok((JoinChoice::Hyper { plan: hyper, cover }, mixed))
            }
            JoinDecision::Shuffle { est_cost, hyper_cost } => Err((est_cost, hyper_cost)),
        })
    };
    let both = !plan.left.matching.is_empty() && !plan.right.matching.is_empty();
    let baseline = if both { (Matching, Matching) } else { (All, All) };
    // §5.4: the hyper part plus the remainder shuffles must beat one
    // full shuffle, else shuffling everything at once is cheaper. (A
    // cover with no legs already beat it inside the planner.)
    let mut best = full;
    plan.choice = match price(&plan, baseline)? {
        Ok((_, mixed)) if mixed >= full => JoinChoice::Shuffle { costs: Some((full, mixed)) },
        Ok((choice, mixed)) => {
            best = mixed;
            choice
        }
        Err(costs) => JoinChoice::Shuffle { costs: Some(costs) },
    };
    // Plan each cover that reads other blocks than those planned so
    // far. On a side with no other blocks matching is all, and a side
    // with no matching blocks has only all, so a layout where no side
    // holds both plans the baseline alone.
    let key = |c: &SideCandidates, p: Part| if c.other.is_empty() { Matching } else { p };
    let mut planned = vec![(key(&plan.left, baseline.0), key(&plan.right, baseline.1))];
    for &((l, r), _) in &COVERS {
        let k = (key(&plan.left, l), key(&plan.right, r));
        if planned.contains(&k) || plan.left.count(l) == 0 || plan.right.count(r) == 0 {
            continue;
        }
        planned.push(k);
        if let Ok((choice, mixed)) = price(&plan, (l, r))? {
            if mixed < best {
                best = mixed;
                plan.choice = choice;
            }
        }
    }
    Ok(plan)
}

fn plan_step<'q, S: SnapshotSource>(src: &S, step: &'q JoinStep) -> Result<StepPlan<'q>> {
    let mode = src.config().mode;
    let (table, preds) = (&step.table.table, &step.table.predicates);
    let snap = src.snapshot(table)?;
    let c = table_candidates(mode, &snap, preds, Some(step.table_attr));
    let (matching, other) = (c.matching.len(), c.other.len());
    let choice = if allows_hyper(mode) && !c.matching.is_empty() && c.other.is_empty() {
        StepChoice::Hyper(step_groups(src, table, &c.matching, step.table_attr)?)
    } else if c.matching.is_empty() {
        // No tree matches, so `other` already lists each tree's lookup
        // in turn and then the deltas: the scan order.
        StepChoice::Shuffle(c.other)
    } else {
        StepChoice::Shuffle(table_candidates(mode, &snap, preds, None).other)
    };
    Ok(StepPlan { step, matching, other, choice })
}

/// Group a step's stored blocks exactly like a two-table hyper-join
/// would, with per-group key ranges for routing the intermediate.
fn step_groups<S: SnapshotSource>(
    src: &S,
    table: &str,
    blocks: &[BlockId],
    attr: AttrId,
) -> Result<Vec<StepGroup>> {
    let ranges = block_ranges(src.store(), table, blocks, attr)?;
    let plain: Vec<ValueRange> = ranges.iter().map(|(_, r)| r.clone()).collect();
    let overlap = adaptdb_join::OverlapMatrix::compute_sweep(&plain, &plain);
    let grouping = adaptdb_join::bottom_up::solve(&overlap, src.config().buffer_blocks.max(1));
    Ok(grouping
        .groups()
        .iter()
        .map(|members| {
            let mut range = ValueRange::empty();
            let blocks = members
                .iter()
                .map(|&i| {
                    range.merge(&ranges[i].1);
                    ranges[i].0
                })
                .collect();
            StepGroup { blocks, range }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, Schema, Value, ValueType};
    use adaptdb_tree::{Node, PartitionTree};
    use std::collections::BTreeMap;

    use crate::table::TreeInfo;

    fn two_tree_table() -> TableSnapshot {
        // Tree A on attr 0, tree B on attr 1.
        let t0 = PartitionTree::from_root(
            Node::internal(0, Value::Int(10), Node::leaf(0), Node::leaf(1)),
            2,
            Some(0),
            1,
        );
        let t1 = PartitionTree::from_root(
            Node::internal(1, Value::Int(5), Node::leaf(0), Node::leaf(1)),
            2,
            Some(1),
            1,
        );
        let mut a = TreeInfo::empty(t0);
        a.add_blocks(BTreeMap::from([(0, vec![1]), (1, vec![2])]));
        let mut b = TreeInfo::empty(t1);
        b.add_blocks(BTreeMap::from([(0, vec![3]), (1, vec![4])]));
        TableSnapshot {
            schema: Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]),
            trees: vec![a, b],
            delta: Vec::new(),
        }
    }

    #[test]
    fn classification_follows_tree_join_attr() {
        let t = two_tree_table();
        let c = classify_candidates(&t, &PredicateSet::none(), 0);
        assert_eq!(c.matching, vec![1, 2]);
        assert_eq!(c.other, vec![3, 4]);
        let c = classify_candidates(&t, &PredicateSet::none(), 1);
        assert_eq!(c.matching, vec![3, 4]);
        assert_eq!(c.other, vec![1, 2]);
        // Unknown attr: everything "other" (planner case 3).
        let c = classify_candidates(&t, &PredicateSet::none(), 7);
        assert!(c.matching.is_empty());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn predicates_prune_within_each_tree() {
        use adaptdb_common::{CmpOp, Predicate};
        let t = two_tree_table();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 10i64));
        let c = classify_candidates(&t, &preds, 0);
        // Tree A prunes to bucket 0 → block 1; tree B cannot prune attr 0.
        assert_eq!(c.matching, vec![1]);
        assert_eq!(c.other, vec![3, 4]);
    }

    #[test]
    fn delta_blocks_classify_as_other_on_every_attr() {
        let mut t = two_tree_table();
        t.delta = vec![9, 10];
        let c = classify_candidates(&t, &PredicateSet::none(), 0);
        assert_eq!(c.matching, vec![1, 2]);
        assert_eq!(c.other, vec![3, 4, 9, 10], "deltas always shuffle");
        // Even a predicate that prunes every tree keeps the deltas.
        use adaptdb_common::{CmpOp, Predicate};
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 10i64));
        let c = classify_candidates(&t, &preds, 0);
        assert!(c.other.ends_with(&[9, 10]));
    }

    #[test]
    fn block_ranges_read_from_meta() {
        let store = BlockStore::new(2, 1, 1);
        let id = store.write_block("t", vec![row![5i64, 1i64], row![9i64, 2i64]], 2, None);
        let ranges = block_ranges(&store, "t", &[id], 0).unwrap();
        assert_eq!(ranges[0].0, id);
        assert_eq!(ranges[0].1.min(), Some(&Value::Int(5)));
        assert_eq!(ranges[0].1.max(), Some(&Value::Int(9)));
        assert!(block_ranges(&store, "t", &[99], 0).is_err());
    }

    #[test]
    fn side_candidates_helpers() {
        let c = SideCandidates { matching: vec![1], other: vec![2, 3] };
        assert_eq!(c.all(), vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(SideCandidates::default().is_empty());
    }
}
