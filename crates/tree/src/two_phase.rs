//! Two-phase partitioning (§5.1, Fig. 9).
//!
//! AdaptDB trees reserve their top levels for the *join attribute*,
//! split at recursive medians (so hyper-join sees few overlapping blocks
//! per partition and skew cannot unbalance blocks), and hand the lower
//! levels to the Amoeba allocator over *selection attributes* (so
//! predicate skipping still works). The number of join levels is the
//! knob swept in Fig. 16; the paper defaults to half the tree.

use adaptdb_common::rng;
use adaptdb_common::{AttrId, Row};

use crate::median;
use crate::node::{BucketId, Node};
use crate::tree::PartitionTree;
use crate::upfront;

/// Builds two-phase (join + selection) partitioning trees.
///
/// ```
/// use adaptdb_common::{row, CmpOp, Predicate, PredicateSet, Row};
/// use adaptdb_tree::TwoPhaseBuilder;
///
/// let sample: Vec<Row> = (0..512i64).map(|i| row![i, i % 17]).collect();
/// // Top 2 levels on attribute 0 (the join key), rest on attribute 1.
/// let tree = TwoPhaseBuilder::new(2, 0, 2, vec![1], 4, 42).build(&sample);
/// assert_eq!(tree.join_attr(), Some(0));
///
/// // Join-key predicates prune through the median levels.
/// let q = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 100i64));
/// assert!(tree.lookup(&q).len() <= tree.bucket_count() / 2);
/// ```
#[derive(Debug, Clone)]
pub struct TwoPhaseBuilder {
    arity: usize,
    join_attr: AttrId,
    join_levels: usize,
    selection_attrs: Vec<AttrId>,
    total_depth: usize,
    seed: u64,
}

impl TwoPhaseBuilder {
    /// A builder producing trees of height `total_depth`, whose top
    /// `join_levels` levels split `join_attr` at medians and whose
    /// remaining levels are allocated over `selection_attrs`.
    pub fn new(
        arity: usize,
        join_attr: AttrId,
        join_levels: usize,
        selection_attrs: Vec<AttrId>,
        total_depth: usize,
        seed: u64,
    ) -> Self {
        assert!(join_levels <= total_depth, "join levels cannot exceed total depth");
        TwoPhaseBuilder { arity, join_attr, join_levels, selection_attrs, total_depth, seed }
    }

    /// Convenience: reserve half of the levels for the join attribute —
    /// the paper's default ("used half of the levels of the partitioning
    /// tree for join attributes", §7.1).
    pub fn half_join_levels(
        arity: usize,
        join_attr: AttrId,
        selection_attrs: Vec<AttrId>,
        total_depth: usize,
        seed: u64,
    ) -> Self {
        TwoPhaseBuilder::new(arity, join_attr, total_depth / 2, selection_attrs, total_depth, seed)
    }

    /// Build the tree from a data sample.
    pub fn build(&self, sample: &[Row]) -> PartitionTree {
        let mut refs: Vec<&Row> = sample.iter().collect();
        let mut rng = rng::derived(self.seed, "two-phase");
        let mut next_bucket: BucketId = 0;
        let mut global_counts = vec![0usize; self.arity];
        let root =
            self.build_join_phase(&mut refs, 0, &mut global_counts, &mut rng, &mut next_bucket);
        PartitionTree::new(root, self.arity, Some(self.join_attr), self.join_levels, next_bucket)
    }

    fn build_join_phase(
        &self,
        rows: &mut [&Row],
        level: usize,
        global_counts: &mut Vec<usize>,
        rng: &mut rand::rngs::StdRng,
        next_bucket: &mut BucketId,
    ) -> Node {
        if level >= self.join_levels {
            // Phase 2: selection levels via the Amoeba allocator.
            let remaining = self.total_depth - level;
            if remaining == 0 || self.selection_attrs.is_empty() {
                return leaf_or_selection(rows, &[], remaining, global_counts, rng, next_bucket);
            }
            return leaf_or_selection(
                rows,
                &self.selection_attrs,
                remaining,
                global_counts,
                rng,
                next_bucket,
            );
        }
        // Phase 1: median split on the join attribute.
        match median::median_cut_of(rows, self.join_attr) {
            Some(cut) => {
                let (left_rows, right_rows) = upfront::split_at_cut(rows, self.join_attr, &cut);
                let left =
                    self.build_join_phase(left_rows, level + 1, global_counts, rng, next_bucket);
                let right =
                    self.build_join_phase(right_rows, level + 1, global_counts, rng, next_bucket);
                Node::internal(self.join_attr, cut, left, right)
            }
            // Sample subset can't split further (duplicated key region):
            // fall through to the selection phase for the remaining depth.
            None => leaf_or_selection(
                rows,
                &self.selection_attrs,
                self.total_depth - level,
                global_counts,
                rng,
                next_bucket,
            ),
        }
    }
}

fn leaf_or_selection(
    rows: &mut [&Row],
    attrs: &[AttrId],
    depth: usize,
    global_counts: &mut Vec<usize>,
    rng: &mut rand::rngs::StdRng,
    next_bucket: &mut BucketId,
) -> Node {
    if depth == 0 || attrs.is_empty() {
        let b = *next_bucket;
        *next_bucket += 1;
        return Node::leaf(b);
    }
    let mut path_counts = vec![0usize; global_counts.len()];
    upfront::build_subtree(rows, attrs, depth, &mut path_counts, global_counts, rng, next_bucket)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::rng::seeded;
    use adaptdb_common::{CmpOp, Predicate, PredicateSet, Value};
    use rand::RngExt;

    fn sample(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.random_range(0..100_000)), // join key
                    Value::Int(rng.random_range(0..365)),     // date-ish
                    Value::Int(rng.random_range(0..50)),      // quantity-ish
                ])
            })
            .collect()
    }

    #[test]
    fn top_levels_are_join_attr_only() {
        let t = TwoPhaseBuilder::new(3, 0, 3, vec![1, 2], 6, 5).build(&sample(5000, 1));
        // Walk the top 3 levels: every internal node there must split attr 0.
        fn check(node: &Node, level: usize, join_levels: usize) {
            if level >= join_levels {
                return;
            }
            match node {
                Node::Internal { attr, left, right, .. } => {
                    assert_eq!(*attr, 0, "non-join attr at level {level}");
                    check(left, level + 1, join_levels);
                    check(right, level + 1, join_levels);
                }
                Node::Leaf { .. } => {}
            }
        }
        check(t.root(), 0, 3);
        assert_eq!(t.join_attr(), Some(0));
        assert_eq!(t.join_levels(), 3);
    }

    #[test]
    fn join_phase_produces_disjoint_key_ranges() {
        // Route the sample through the tree; per-bucket join-key ranges
        // from disjoint top-level regions must not overlap.
        let rows = sample(4000, 2);
        let t = TwoPhaseBuilder::new(3, 0, 4, vec![], 4, 5).build(&rows);
        use std::collections::BTreeMap;
        let mut per_bucket: BTreeMap<u32, (i64, i64)> = BTreeMap::new();
        for r in &rows {
            let b = t.route(r);
            let k = r.get(0).as_int().unwrap();
            let e = per_bucket.entry(b).or_insert((k, k));
            e.0 = e.0.min(k);
            e.1 = e.1.max(k);
        }
        let mut intervals: Vec<(i64, i64)> = per_bucket.values().copied().collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            assert!(w[0].1 < w[1].0, "bucket ranges overlap: {w:?}");
        }
    }

    #[test]
    fn median_splits_balance_skewed_keys() {
        // Zipf-ish skew: many duplicate low keys. Median splits must keep
        // bucket populations within a small factor of each other.
        let mut rng = seeded(3);
        let rows: Vec<Row> = (0..8000)
            .map(|_| {
                let k: i64 = if rng.random_bool(0.5) {
                    rng.random_range(0..10)
                } else {
                    rng.random_range(0..100_000)
                };
                Row::new(vec![Value::Int(k)])
            })
            .collect();
        let t = TwoPhaseBuilder::new(1, 0, 3, vec![], 3, 5).build(&rows);
        let mut counts = std::collections::BTreeMap::new();
        for r in &rows {
            *counts.entry(t.route(r)).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap();
        assert!(max <= min * 6, "skewed buckets: min={min} max={max}");
    }

    #[test]
    fn selection_levels_allow_predicate_skipping() {
        let rows = sample(5000, 4);
        let t = TwoPhaseBuilder::half_join_levels(3, 0, vec![1, 2], 6, 5).build(&rows);
        let q = PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 30i64));
        assert!(t.lookup(&q).len() < t.bucket_count());
        // And join-key predicates prune via the top levels.
        let qj = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 1000i64));
        assert!(t.lookup(&qj).len() <= t.bucket_count() / 2);
    }

    #[test]
    fn zero_join_levels_is_pure_amoeba_shape() {
        let rows = sample(2000, 5);
        let t = TwoPhaseBuilder::new(3, 0, 0, vec![1, 2], 4, 5).build(&rows);
        assert_eq!(t.join_levels(), 0);
        // Join attr should not appear (it is not among selection attrs).
        assert!(!t.attr_histogram().contains_key(&0));
    }

    #[test]
    fn all_join_levels_uses_only_join_attr() {
        let rows = sample(2000, 6);
        let t = TwoPhaseBuilder::new(3, 0, 4, vec![1, 2], 4, 5).build(&rows);
        let h = t.attr_histogram();
        assert_eq!(h.len(), 1);
        assert!(h.contains_key(&0));
    }

    #[test]
    #[should_panic(expected = "join levels cannot exceed total depth")]
    fn invalid_levels_panic() {
        TwoPhaseBuilder::new(1, 0, 5, vec![], 4, 5);
    }
}
