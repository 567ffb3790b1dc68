//! Amoeba-style adaptive repartitioning for selection predicates (§3.2).
//!
//! After each query, the adapter considers *alternative trees* obtained by
//! transformation rules on the current tree (the paper's example rule:
//! "merge two existing blocks partitioned on A and repartition them on
//! B"), estimates each alternative's benefit over the query window
//! against its repartitioning cost, and proposes the best net-positive
//! plan. Applying the plan (rewriting the affected blocks) is the
//! executor's job; this module only does the tree surgery and the math.
//!
//! Two-phase trees are adapted *below* their join levels only — the join
//! phase is owned by the smooth-repartitioning optimizer (§5.2).
//!
//! A proposal is two steps. *Candidate generation* rebuilds a subtree
//! from the sample at every site; it reads only the tree, the sample,
//! the window's attribute-priority order and the seed, so a
//! [`CandidateMemo`] keeps its result under that exact key and the next
//! call with the same key builds nothing. *Scoring* — each candidate's
//! block reads over the window, the best net choice, the plan — runs on
//! every call, since predicate constants change query by query.

use adaptdb_common::rng;
use adaptdb_common::{AttrId, Row};

use crate::node::{BucketId, Node};
use crate::tree::PartitionTree;
use crate::upfront;
use crate::window::QueryWindow;

/// Tuning knobs for the adapter.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Largest fraction of the table's buckets one adaptation may rewrite.
    /// Keeps per-query repartitioning overhead bounded (Amoeba amortizes
    /// reorganization rather than cracking everything at once).
    pub max_rewrite_fraction: f64,
    /// Cost charged per rewritten bucket, in "block reads" units. A
    /// rewrite is one read plus one write, so 2.0 is the natural default.
    pub rewrite_cost_per_bucket: f64,
    /// Minimum net benefit (window block reads saved minus rewrite cost)
    /// before a plan is proposed.
    pub min_net_benefit: f64,
    /// Hysteresis: the estimated benefit must exceed the rewrite cost by
    /// this factor. Without it, marginal proposals fire on every query
    /// as the window slides (predicate constants vary between instances
    /// of the same template) and the adapter never reaches a steady
    /// state — cracking-style thrash the paper explicitly avoids
    /// ("AdaptDB does careful planning for each round of re-partitioning
    /// to amortize its cost", §8).
    pub benefit_cost_ratio: f64,
    /// Seed for tie-breaking randomness in rebuilt subtrees.
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            max_rewrite_fraction: 0.5,
            rewrite_cost_per_bucket: 2.0,
            min_net_benefit: 0.5,
            benefit_cost_ratio: 1.5,
            seed: 0,
        }
    }
}

/// A proposed repartitioning: the new tree plus which buckets to rewrite.
#[derive(Debug, Clone)]
pub struct RepartitionPlan {
    /// The tree after the transformation.
    pub new_tree: PartitionTree,
    /// Buckets (of the old tree) whose blocks must be read and re-routed.
    pub old_buckets: Vec<BucketId>,
    /// Freshly allocated buckets the rewritten rows will land in.
    pub new_buckets: Vec<BucketId>,
    /// Estimated block reads saved per pass over the query window.
    pub est_benefit: f64,
    /// Estimated rewrite cost in block-read units.
    pub est_cost: f64,
}

/// Proposes tree transformations based on the query window.
#[derive(Debug, Clone, Default)]
pub struct Adapter {
    config: AdaptConfig,
}

/// One candidate transformation: the site it replaces and the subtree
/// rebuilt there from the sample, its leaves labelled `0..n` in build
/// order until a plan relabels them.
#[derive(Debug)]
struct Candidate {
    /// Path of left(false)/right(true) turns from the root to the site.
    path: Vec<bool>,
    /// Leaves of the site's current subtree (the buckets rewritten).
    leaves: usize,
    replacement: Node,
}

/// Everything candidate generation reads, compared exactly (the
/// rewrite bound follows from the tree and the adapter's config).
#[derive(Debug)]
struct CandidateKey {
    tree: PartitionTree,
    sample_version: u64,
    attr_priority: Vec<AttrId>,
    seed: u64,
    max_rewrite: usize,
}

/// The candidate subtrees of the last [`Adapter::propose_with`] call,
/// with the exact key they were built for: the tree, a version of the
/// sample, the window's attribute-priority order and the adapter seed.
/// A call whose key matches reuses them and builds no subtree; any
/// other call rebuilds and replaces the entry. The key holds no copy
/// of the sample rows — the caller's version stands for them, so it
/// must change whenever the rows do.
#[derive(Debug, Default)]
pub struct CandidateMemo {
    entry: Option<(CandidateKey, Vec<Candidate>)>,
    builds: usize,
}

impl CandidateMemo {
    /// How many times candidates were (re)built — one per miss.
    pub fn builds(&self) -> usize {
        self.builds
    }
}

impl Adapter {
    /// Adapter with explicit configuration.
    pub fn new(config: AdaptConfig) -> Self {
        Adapter { config }
    }

    /// Consider alternative trees for `tree` given the table's `sample`
    /// and query `window`; return the best net-positive plan, if any.
    pub fn propose(
        &self,
        tree: &PartitionTree,
        sample: &[Row],
        window: &QueryWindow,
    ) -> Option<RepartitionPlan> {
        self.propose_with(tree, sample, 0, window, &mut CandidateMemo::default())
    }

    /// [`Adapter::propose`] in two parts. *Candidate generation* — the
    /// sites below the join levels and a subtree rebuilt from the
    /// sample at each — is a pure function of the tree, the sample,
    /// the window's attribute-priority order and the seed, so it is
    /// taken from `memo` when those match (`sample_version` stands for
    /// the sample rows) and rebuilt into it otherwise. *Scoring* — each
    /// candidate's benefit over the window, the best net choice and the
    /// plan — runs on every call. The plan equals a fresh `propose`.
    pub fn propose_with(
        &self,
        tree: &PartitionTree,
        sample: &[Row],
        sample_version: u64,
        window: &QueryWindow,
        memo: &mut CandidateMemo,
    ) -> Option<RepartitionPlan> {
        if window.is_empty() {
            return None;
        }
        let attr_priority: Vec<AttrId> =
            window.predicate_attr_counts().into_iter().map(|(a, _)| a).collect();
        if attr_priority.is_empty() {
            return None;
        }
        let total_buckets = tree.bucket_count();
        let max_rewrite =
            ((total_buckets as f64 * self.config.max_rewrite_fraction).floor() as usize).max(2);
        let hit = memo.entry.as_ref().is_some_and(|(k, _)| {
            k.sample_version == sample_version
                && k.seed == self.config.seed
                && k.max_rewrite == max_rewrite
                && k.attr_priority == attr_priority
                && k.tree == *tree
        });
        if !hit {
            let candidates = self.candidates(tree, sample, &attr_priority, max_rewrite);
            let key = CandidateKey {
                tree: tree.clone(),
                sample_version,
                attr_priority,
                seed: self.config.seed,
                max_rewrite,
            };
            memo.entry = Some((key, candidates));
            memo.builds += 1;
        }
        let (_, candidates) = memo.entry.as_ref().expect("filled above");

        // Score every candidate, counting block reads into one buffer;
        // only the winner is materialized as a plan.
        let mut matched = Vec::new();
        let mut reads = |node: &Node| -> usize {
            window
                .iter()
                .map(|e| {
                    matched.clear();
                    node.collect_matching(e.predicates.predicates(), &mut matched);
                    matched.len()
                })
                .sum()
        };
        let mut best: Option<(f64, &Candidate, f64, f64)> = None;
        for c in candidates {
            // Estimate benefit: window block reads through old vs new subtree.
            let old_reads = reads(node_at(tree.root(), &c.path));
            let new_reads = reads(&c.replacement);
            // Rewriting keeps block count roughly constant; cost scales
            // with the leaves rewritten.
            let est_benefit = old_reads as f64 - new_reads as f64;
            let est_cost = c.leaves as f64 * self.config.rewrite_cost_per_bucket;
            let net = est_benefit - est_cost;
            if net < self.config.min_net_benefit
                || est_benefit < est_cost * self.config.benefit_cost_ratio
            {
                continue;
            }
            if best.as_ref().is_none_or(|(b, ..)| net > *b) {
                best = Some((net, c, est_benefit, est_cost));
            }
        }
        // Materialize the plan: clone the tree, allocate real bucket
        // ids, splice the replacement in.
        let (_, c, est_benefit, est_cost) = best?;
        let mut new_tree = tree.clone();
        let fresh = new_tree.allocate_buckets(c.replacement.leaf_count());
        let mut relabeled = c.replacement.clone();
        relabel_leaves(&mut relabeled, &fresh);
        let mut old_buckets = Vec::new();
        node_at(tree.root(), &c.path).collect_buckets(&mut old_buckets);
        splice(new_tree.root_mut(), &c.path, relabeled);
        Some(RepartitionPlan { new_tree, old_buckets, new_buckets: fresh, est_benefit, est_cost })
    }

    /// Candidate generation: every site below the join levels small
    /// enough to rewrite, with the subtree the sample rows routed there
    /// built over `attr_priority` — kept when it differs from what is
    /// there now.
    fn candidates(
        &self,
        tree: &PartitionTree,
        sample: &[Row],
        attr_priority: &[AttrId],
        max_rewrite: usize,
    ) -> Vec<Candidate> {
        let mut build = CandidateBuild {
            adapter: self,
            attr_priority,
            max_rewrite,
            join_levels: tree.join_levels(),
            path: Vec::new(),
            path_counts: vec![0; tree.arity()],
            global_counts: vec![0; tree.arity()],
            out: Vec::new(),
        };
        let mut rows: Vec<&Row> = sample.iter().collect();
        build.visit(tree.root(), 0, &mut rows);
        build.out
    }
}

/// One candidate generation's walk over the tree, with the buffers
/// every site reuses.
struct CandidateBuild<'a> {
    adapter: &'a Adapter,
    attr_priority: &'a [AttrId],
    max_rewrite: usize,
    join_levels: usize,
    /// Turns from the root to the node being visited.
    path: Vec<bool>,
    path_counts: Vec<usize>,
    global_counts: Vec<usize>,
    out: Vec<Candidate>,
}

impl CandidateBuild<'_> {
    /// Visit `node`, which the sample rows `rows` route to: every node
    /// strictly below the join levels (leaves included, which can be
    /// *split*) is a site, visited before its children. `rows` is
    /// reordered in place — split at each cut for the children, and by
    /// each site's rebuild — never copied.
    fn visit(&mut self, node: &Node, level: usize, rows: &mut [&Row]) {
        let leaves = node.leaf_count();
        if level >= self.join_levels && leaves <= self.max_rewrite {
            // Build the replacement subtree over the window's attributes.
            let mut rng = rng::derived(self.adapter.config.seed, "adapt");
            let mut next_placeholder: BucketId = 0;
            self.path_counts.fill(0);
            self.global_counts.fill(0);
            let replacement = upfront::build_subtree(
                rows,
                self.attr_priority,
                subtree_target_depth(node),
                &mut self.path_counts,
                &mut self.global_counts,
                &mut rng,
                &mut next_placeholder,
            );
            if replacement != *node {
                self.out.push(Candidate { path: self.path.clone(), leaves, replacement });
            }
        }
        if let Node::Internal { attr, cut, left, right } = node {
            let (l, r) = upfront::split_at_cut(rows, *attr, cut);
            self.path.push(false);
            self.visit(left, level + 1, l);
            self.path.pop();
            self.path.push(true);
            self.visit(right, level + 1, r);
            self.path.pop();
        }
    }
}

/// Depth budget for a replacement subtree: at least the old depth, and at
/// least 1 so leaves can be split into two (the "repartition two sibling
/// blocks on a new attribute" rule generalized).
fn subtree_target_depth(node: &Node) -> usize {
    node.depth().max(1)
}

/// Rewrite leaf bucket ids of `node` (labelled 0..n in build order) to the
/// allocated ids in `fresh`.
fn relabel_leaves(node: &mut Node, fresh: &[BucketId]) {
    fn rec(node: &mut Node, fresh: &[BucketId], next: &mut usize) {
        match node {
            Node::Leaf { bucket } => {
                *bucket = fresh[*next];
                *next += 1;
            }
            Node::Internal { left, right, .. } => {
                rec(left, fresh, next);
                rec(right, fresh, next);
            }
        }
    }
    let mut next = 0;
    rec(node, fresh, &mut next);
}

/// The subtree at `path`.
fn node_at<'a>(root: &'a Node, path: &[bool]) -> &'a Node {
    let mut cur = root;
    for &go_right in path {
        match cur {
            Node::Internal { left, right, .. } => {
                cur = if go_right { right } else { left };
            }
            Node::Leaf { .. } => panic!("site path descends through a leaf"),
        }
    }
    cur
}

/// Replace the subtree at `path` with `replacement`.
fn splice(root: &mut Node, path: &[bool], replacement: Node) {
    let mut cur = root;
    for &go_right in path {
        match cur {
            Node::Internal { left, right, .. } => {
                cur = if go_right { right } else { left };
            }
            Node::Leaf { .. } => panic!("splice path descends through a leaf"),
        }
    }
    *cur = replacement;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upfront::UpfrontPartitioner;
    use crate::window::WindowEntry;
    use adaptdb_common::rng::seeded;
    use adaptdb_common::{CmpOp, Predicate, PredicateSet, Value};
    use rand::RngExt;

    fn sample(n: usize, arity: usize, seed: u64) -> Vec<Row> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                Row::new((0..arity).map(|_| Value::Int(rng.random_range(0..10_000))).collect())
            })
            .collect()
    }

    fn window_on(attr: AttrId, n: usize, cap: usize) -> QueryWindow {
        let mut w = QueryWindow::new(cap);
        for i in 0..n {
            w.push(WindowEntry {
                join_attr: None,
                predicates: PredicateSet::none().and(Predicate::new(
                    attr,
                    CmpOp::Lt,
                    (100 + i as i64) * 10,
                )),
            });
        }
        w
    }

    /// A tree partitioned only on attr 0 should adapt toward attr 2 once
    /// the window is full of attr-2 predicates.
    #[test]
    fn adapts_toward_frequent_predicate_attr() {
        let rows = sample(4000, 3, 1);
        let tree = UpfrontPartitioner::new(3, vec![0], 4, 2).build(&rows);
        assert!(!tree.attr_histogram().contains_key(&2));
        let w = window_on(2, 10, 10);
        let plan = Adapter::new(AdaptConfig { max_rewrite_fraction: 1.0, ..Default::default() })
            .propose(&tree, &rows, &w)
            .expect("adaptation should trigger");
        assert!(plan.new_tree.attr_histogram().get(&2).copied().unwrap_or(0) > 0);
        assert!(plan.est_benefit > plan.est_cost);
        assert!(!plan.old_buckets.is_empty());
        assert_eq!(
            plan.new_tree.bucket_count(),
            tree.bucket_count() - plan.old_buckets.len() + plan.new_buckets.len()
        );
    }

    #[test]
    fn new_tree_reads_fewer_blocks_for_window_queries() {
        let rows = sample(4000, 3, 3);
        let tree = UpfrontPartitioner::new(3, vec![0], 5, 2).build(&rows);
        let w = window_on(1, 10, 10);
        let plan = Adapter::new(AdaptConfig { max_rewrite_fraction: 1.0, ..Default::default() })
            .propose(&tree, &rows, &w)
            .expect("adaptation should trigger");
        let q = PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 1000i64));
        assert!(plan.new_tree.lookup(&q).len() < tree.lookup(&q).len());
    }

    #[test]
    fn empty_window_proposes_nothing() {
        let rows = sample(1000, 2, 4);
        let tree = UpfrontPartitioner::new(2, vec![0], 3, 2).build(&rows);
        assert!(Adapter::default().propose(&tree, &rows, &QueryWindow::new(5)).is_none());
    }

    #[test]
    fn scan_only_window_without_predicates_proposes_nothing() {
        let rows = sample(1000, 2, 5);
        let tree = UpfrontPartitioner::new(2, vec![0], 3, 2).build(&rows);
        let mut w = QueryWindow::new(5);
        w.push(WindowEntry { join_attr: Some(0), predicates: PredicateSet::none() });
        assert!(Adapter::default().propose(&tree, &rows, &w).is_none());
    }

    #[test]
    fn already_good_tree_is_left_alone() {
        // Tree already partitioned deeply on attr 1; window queries attr 1.
        let rows = sample(4000, 2, 6);
        let tree = UpfrontPartitioner::new(2, vec![1], 5, 2).build(&rows);
        let w = window_on(1, 10, 10);
        let plan = Adapter::default().propose(&tree, &rows, &w);
        if let Some(p) = plan {
            // If anything is proposed, it must still be net-positive by a
            // real margin — not thrash.
            assert!(p.est_benefit - p.est_cost >= 0.5);
        }
    }

    #[test]
    fn join_levels_are_never_touched() {
        use crate::two_phase::TwoPhaseBuilder;
        let rows = sample(4000, 3, 7);
        let tree = TwoPhaseBuilder::new(3, 0, 3, vec![1], 5, 2).build(&rows);
        let w = window_on(2, 10, 10);
        if let Some(plan) =
            Adapter::new(AdaptConfig { max_rewrite_fraction: 1.0, ..Default::default() })
                .propose(&tree, &rows, &w)
        {
            // The top 3 levels must still be join-attribute splits.
            fn check(node: &Node, level: usize) {
                if level >= 3 {
                    return;
                }
                if let Node::Internal { attr, left, right, .. } = node {
                    assert_eq!(*attr, 0);
                    check(left, level + 1);
                    check(right, level + 1);
                }
            }
            check(plan.new_tree.root(), 0);
        }
    }

    #[test]
    fn rewrite_fraction_bounds_plan_size() {
        let rows = sample(4000, 3, 8);
        let tree = UpfrontPartitioner::new(3, vec![0], 5, 2).build(&rows);
        let w = window_on(1, 10, 10);
        let cfg = AdaptConfig { max_rewrite_fraction: 0.25, ..Default::default() };
        if let Some(plan) = Adapter::new(cfg).propose(&tree, &rows, &w) {
            assert!(plan.old_buckets.len() <= (tree.bucket_count() / 4).max(2));
        }
    }

    /// A plan's fields, with the estimates bitwise.
    fn plan_key(p: &RepartitionPlan) -> (PartitionTree, Vec<BucketId>, Vec<BucketId>, u64, u64) {
        (
            p.new_tree.clone(),
            p.old_buckets.clone(),
            p.new_buckets.clone(),
            p.est_benefit.to_bits(),
            p.est_cost.to_bits(),
        )
    }

    /// Over random trees, samples and window sequences — with the
    /// sample growing and plans applied along the way — the memoised
    /// proposal equals a fresh one at every step, and it does hit.
    #[test]
    fn memoised_propose_equals_fresh_propose() {
        let mut rng = seeded(21);
        let mut plans = 0;
        for case in 0..12u64 {
            let arity = rng.random_range(2..5usize);
            let mut rows = sample(rng.random_range(1000..3000), arity, 100 + case);
            let mut version = 0u64;
            let attrs: Vec<AttrId> = (0..rng.random_range(1..arity) as AttrId).collect();
            let mut tree =
                UpfrontPartitioner::new(arity, attrs, rng.random_range(2..6), case).build(&rows);
            let adapter = Adapter::new(AdaptConfig {
                max_rewrite_fraction: [0.25, 0.5, 1.0][rng.random_range(0..3usize)],
                seed: case,
                ..Default::default()
            });
            let mut window = QueryWindow::new(rng.random_range(2..8));
            let mut memo = CandidateMemo::default();
            let mut calls = 0;
            // The window mostly queries one attribute, which shifts now
            // and then — the pattern adaptation exists for.
            let mut focus = rng.random_range(0..arity) as AttrId;
            for _ in 0..40 {
                if rng.random_range(0..12u32) == 0 {
                    focus = rng.random_range(0..arity) as AttrId;
                }
                let attr = if rng.random_range(0..5u32) == 0 {
                    rng.random_range(0..arity) as AttrId
                } else {
                    focus
                };
                let cut = rng.random_range(0..2_000i64);
                window.push(WindowEntry {
                    join_attr: None,
                    predicates: PredicateSet::none().and(Predicate::new(attr, CmpOp::Lt, cut)),
                });
                if rng.random_range(0..10u32) == 0 {
                    rows.extend(sample(5, arity, 1000 + version));
                    version += 1;
                }
                let fresh = adapter.propose(&tree, &rows, &window);
                let memoised = adapter.propose_with(&tree, &rows, version, &window, &mut memo);
                calls += 1;
                assert_eq!(fresh.as_ref().map(plan_key), memoised.as_ref().map(plan_key));
                if let Some(plan) = memoised {
                    plans += 1;
                    if rng.random_range(0..2u32) == 0 {
                        tree = plan.new_tree;
                    }
                }
            }
            assert!(
                memo.builds() < calls,
                "case {case}: {} builds in {calls} calls",
                memo.builds()
            );
        }
        assert!(plans > 0, "the sequences must exercise non-empty plans");
    }

    /// The memo key is exact: an identical call reuses the candidates,
    /// and a new sample version, a replaced tree, or a new attribute
    /// order each rebuild them.
    #[test]
    fn memo_rebuilds_on_sample_tree_or_priority_change() {
        let rows = sample(2000, 3, 9);
        let tree = UpfrontPartitioner::new(3, vec![0], 4, 2).build(&rows);
        let adapter = Adapter::new(AdaptConfig { max_rewrite_fraction: 1.0, ..Default::default() });
        let mut memo = CandidateMemo::default();
        let w1 = window_on(1, 4, 4);
        adapter.propose_with(&tree, &rows, 0, &w1, &mut memo);
        assert_eq!(memo.builds(), 1);
        // Same inputs, other cut constants: same attribute order — a hit.
        let mut w1b = window_on(1, 4, 4);
        w1b.push(WindowEntry {
            join_attr: None,
            predicates: PredicateSet::none().and(Predicate::new(1, CmpOp::Ge, 7i64)),
        });
        adapter.propose_with(&tree, &rows, 0, &w1b, &mut memo);
        assert_eq!(memo.builds(), 1, "an unchanged key must not rebuild");
        // A sample offer bumps the version.
        adapter.propose_with(&tree, &rows, 1, &w1, &mut memo);
        assert_eq!(memo.builds(), 2, "a new sample version must rebuild");
        // A replaced tree.
        let other = UpfrontPartitioner::new(3, vec![2], 4, 2).build(&rows);
        adapter.propose_with(&other, &rows, 1, &w1, &mut memo);
        assert_eq!(memo.builds(), 3, "a replaced tree must rebuild");
        // A changed attribute-priority order.
        adapter.propose_with(&other, &rows, 1, &window_on(2, 4, 4), &mut memo);
        assert_eq!(memo.builds(), 4, "a new priority order must rebuild");
        adapter.propose_with(&other, &rows, 1, &window_on(2, 4, 4), &mut memo);
        assert_eq!(memo.builds(), 4);
    }

    #[test]
    fn splice_replaces_correct_subtree() {
        let mut root = Node::internal(
            0,
            Value::Int(10),
            Node::leaf(0),
            Node::internal(0, Value::Int(20), Node::leaf(1), Node::leaf(2)),
        );
        splice(&mut root, &[true, false], Node::leaf(99));
        let mut buckets = Vec::new();
        root.collect_buckets(&mut buckets);
        assert_eq!(buckets, vec![0, 99, 2]);
    }
}
