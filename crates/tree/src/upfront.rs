//! Amoeba's upfront, workload-oblivious partitioner (§3.1, Fig. 3).
//!
//! With no workload to guide it, Amoeba partitions on *as many attributes
//! as possible*: each root-to-leaf path splits on a different mix of
//! attributes (heterogeneous branching), so any future predicate can skip
//! some data. Cut points are medians from a sample so blocks come out
//! near-equal despite skew.

use adaptdb_common::rng;
use adaptdb_common::{AttrId, Row, Value};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::median;
use crate::node::{BucketId, Node};
use crate::tree::PartitionTree;

/// Builds Amoeba-style upfront partitioning trees.
#[derive(Debug, Clone)]
pub struct UpfrontPartitioner {
    arity: usize,
    candidate_attrs: Vec<AttrId>,
    depth: usize,
    seed: u64,
}

impl UpfrontPartitioner {
    /// Partitioner over `candidate_attrs`, producing trees of height
    /// `depth` (≤ 2^depth buckets) for a table of `arity` columns.
    pub fn new(arity: usize, candidate_attrs: Vec<AttrId>, depth: usize, seed: u64) -> Self {
        assert!(!candidate_attrs.is_empty(), "need at least one candidate attribute");
        UpfrontPartitioner { arity, candidate_attrs, depth, seed }
    }

    /// Build a tree from a data sample.
    pub fn build(&self, sample: &[Row]) -> PartitionTree {
        let mut refs: Vec<&Row> = sample.iter().collect();
        let mut rng = rng::derived(self.seed, "upfront");
        let mut next_bucket: BucketId = 0;
        let mut global_counts = vec![0usize; self.arity];
        let root = build_subtree(
            &mut refs,
            &self.candidate_attrs,
            self.depth,
            &mut vec![0usize; self.arity],
            &mut global_counts,
            &mut rng,
            &mut next_bucket,
        );
        PartitionTree::new(root, self.arity, None, 0, next_bucket)
    }
}

/// Recursive allocator shared with the two-phase builder's lower levels.
///
/// At each node it prefers the candidate attribute least used on the
/// current root path (diversity along paths), tie-breaking by global use
/// count (diversity across the tree — the paper's "average number of ways
/// each attribute is partitioned on is almost the same"), then randomly.
/// Attributes that cannot produce a valid median cut on the local sample
/// subset are skipped; if none can, the node becomes a leaf early.
///
/// `rows` is reordered in place: each node splits its slice at the cut
/// and hands the two halves down, so the build allocates nothing but
/// the nodes. The tree depends only on which rows reach a node, never
/// on their order.
pub(crate) fn build_subtree(
    rows: &mut [&Row],
    candidates: &[AttrId],
    depth: usize,
    path_counts: &mut Vec<usize>,
    global_counts: &mut Vec<usize>,
    rng: &mut StdRng,
    next_bucket: &mut BucketId,
) -> Node {
    if depth == 0 {
        return make_leaf(next_bucket);
    }
    // Pick uniformly among the candidates of least (path use, global
    // use), then try every other candidate in order.
    let key = |a: AttrId| (path_counts[a as usize], global_counts[a as usize]);
    let best = candidates.iter().map(|&a| key(a)).min();
    let is_best = |a: &&AttrId| Some(key(**a)) == best;
    let ties = candidates.iter().filter(is_best).count();
    let pick = (ties > 0).then(|| {
        let nth = rng.random_range(0..ties);
        *candidates.iter().filter(is_best).nth(nth).expect("nth < ties")
    });
    let rest = candidates.iter().copied().filter(|&a| Some(a) != pick);
    for attr in pick.into_iter().chain(rest) {
        if let Some(cut) = median::median_cut_of(rows, attr) {
            let (left_rows, right_rows) = split_at_cut(rows, attr, &cut);
            path_counts[attr as usize] += 1;
            global_counts[attr as usize] += 1;
            let left = build_subtree(
                left_rows,
                candidates,
                depth - 1,
                path_counts,
                global_counts,
                rng,
                next_bucket,
            );
            let right = build_subtree(
                right_rows,
                candidates,
                depth - 1,
                path_counts,
                global_counts,
                rng,
                next_bucket,
            );
            path_counts[attr as usize] -= 1;
            return Node::internal(attr, cut, left, right);
        }
    }
    make_leaf(next_bucket)
}

/// Reorder `rows` so those whose `attr` is at most `cut` (the rows a
/// node routes left) come first, and split the slice there.
pub(crate) fn split_at_cut<'s, 'r>(
    rows: &'s mut [&'r Row],
    attr: AttrId,
    cut: &Value,
) -> (&'s mut [&'r Row], &'s mut [&'r Row]) {
    let mut left = 0;
    for i in 0..rows.len() {
        if rows[i].get(attr) <= cut {
            rows.swap(left, i);
            left += 1;
        }
    }
    rows.split_at_mut(left)
}

fn make_leaf(next_bucket: &mut BucketId) -> Node {
    let b = *next_bucket;
    *next_bucket += 1;
    Node::leaf(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::rng::seeded;
    use adaptdb_common::{row, CmpOp, Predicate, PredicateSet};
    use rand::RngExt;

    fn uniform_sample(n: usize, arity: usize, seed: u64) -> Vec<Row> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                Row::new(
                    (0..arity)
                        .map(|_| adaptdb_common::Value::Int(rng.random_range(0..10_000)))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn builds_full_depth_tree_on_rich_sample() {
        let sample = uniform_sample(2000, 3, 1);
        let t = UpfrontPartitioner::new(3, vec![0, 1, 2], 4, 7).build(&sample);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.bucket_count(), 16);
    }

    #[test]
    fn buckets_are_dense_and_unique() {
        let sample = uniform_sample(2000, 2, 2);
        let t = UpfrontPartitioner::new(2, vec![0, 1], 5, 7).build(&sample);
        let mut buckets = t.buckets();
        buckets.sort_unstable();
        let expect: Vec<u32> = (0..t.bucket_count() as u32).collect();
        assert_eq!(buckets, expect);
    }

    #[test]
    fn attribute_coverage_is_balanced_along_paths() {
        // The paper's goal: "the average number of ways each attribute is
        // partitioned on is almost the same". With 3 attributes and depth 6,
        // every root-to-leaf path should split each attribute ~2 times.
        let sample = uniform_sample(5000, 3, 3);
        let t = UpfrontPartitioner::new(3, vec![0, 1, 2], 6, 11).build(&sample);
        fn walk(node: &Node, counts: [usize; 3], ok: &mut bool) {
            match node {
                Node::Leaf { .. } => {
                    let max = counts.iter().max().unwrap();
                    let min = counts.iter().min().unwrap();
                    if max - min > 1 {
                        *ok = false;
                    }
                }
                Node::Internal { attr, left, right, .. } => {
                    let mut c = counts;
                    c[*attr as usize] += 1;
                    walk(left, c, ok);
                    walk(right, c, ok);
                }
            }
        }
        let mut ok = true;
        walk(t.root(), [0, 0, 0], &mut ok);
        assert!(ok, "some path uses attributes unevenly");
    }

    #[test]
    fn heterogeneous_branching_uses_more_attrs_than_depth() {
        // Depth 2 tree but 4 candidate attributes: heterogeneous branching
        // (Fig. 3b) should employ more than 2 attributes across the tree.
        let sample = uniform_sample(4000, 4, 4);
        let t = UpfrontPartitioner::new(4, vec![0, 1, 2, 3], 2, 5).build(&sample);
        assert!(t.attr_histogram().len() > 2, "expected heterogeneous branching");
    }

    #[test]
    fn every_attribute_predicate_can_skip_data() {
        // The point of hyper-partitioning: a selective predicate on any
        // partitioned attribute should skip some buckets.
        let sample = uniform_sample(4000, 3, 5);
        let t = UpfrontPartitioner::new(3, vec![0, 1, 2], 6, 13).build(&sample);
        for a in 0..3u16 {
            let q = PredicateSet::none().and(Predicate::new(a, CmpOp::Lt, 100i64));
            let hit = t.lookup(&q).len();
            assert!(hit < t.bucket_count(), "predicate on attr {a} skipped nothing");
        }
    }

    #[test]
    fn constant_attribute_is_skipped() {
        // Attribute 1 is constant: unsplittable, tree must fall back to 0.
        let sample: Vec<Row> = (0..100i64).map(|i| row![i, 7i64]).collect();
        let t = UpfrontPartitioner::new(2, vec![0, 1], 3, 3).build(&sample);
        let h = t.attr_histogram();
        assert_eq!(h.get(&1), None, "constant attr must not be split on");
        assert!(h.get(&0).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn empty_sample_degenerates_to_single_leaf() {
        let t = UpfrontPartitioner::new(2, vec![0, 1], 4, 3).build(&[]);
        assert_eq!(t.bucket_count(), 1);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let sample = uniform_sample(1000, 3, 6);
        let a = UpfrontPartitioner::new(3, vec![0, 1, 2], 4, 9).build(&sample);
        let b = UpfrontPartitioner::new(3, vec![0, 1, 2], 4, 9).build(&sample);
        assert_eq!(a, b);
    }
}
