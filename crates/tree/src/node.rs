//! Tree nodes and predicate-pruned descent.

use adaptdb_common::{AttrId, CmpOp, ColumnVec, Predicate, Row, Value};

/// Identifier of a partitioning-tree leaf bucket (re-exported from the
/// storage writer so the two layers agree).
pub use adaptdb_storage::writer::BucketId;

/// A node of a partitioning tree.
///
/// `Internal { attr, cut, .. }` is the paper's `A_p`: rows with
/// `attr ≤ cut` descend left, the rest right. Box-based recursion keeps
/// subtree surgery (the adaptive repartitioner's transformation rules)
/// simple; trees are small (≤ a few thousand nodes) so pointer chasing
/// is not a concern here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Routing node `A_p`.
    Internal {
        /// Attribute compared at this node.
        attr: AttrId,
        /// Cut point: `attr ≤ cut` goes left.
        cut: Value,
        /// Subtree for `attr ≤ cut`.
        left: Box<Node>,
        /// Subtree for `attr > cut`.
        right: Box<Node>,
    },
    /// A leaf bucket.
    Leaf {
        /// Bucket id, mapping to stored blocks in the catalog.
        bucket: BucketId,
    },
}

impl Node {
    /// Build an internal node.
    pub fn internal(attr: AttrId, cut: Value, left: Node, right: Node) -> Node {
        Node::Internal { attr, cut, left: Box::new(left), right: Box::new(right) }
    }

    /// Build a leaf.
    pub fn leaf(bucket: BucketId) -> Node {
        Node::Leaf { bucket }
    }

    /// Route a row to its bucket.
    pub fn route(&self, row: &Row) -> BucketId {
        match self {
            Node::Leaf { bucket } => *bucket,
            Node::Internal { attr, cut, left, right } => {
                if row.get(*attr) <= cut {
                    left.route(row)
                } else {
                    right.route(row)
                }
            }
        }
    }

    /// Route row `i` of a block given as decoded columns — `cols[a]`
    /// holds attribute `a` for every attribute the subtree splits on —
    /// to the bucket [`Node::route`] sends that row to: each split
    /// compares the cell with its cut by [`ColumnVec::cmp_at`], the
    /// same `≤` under `Value`'s order, without building a row.
    pub fn route_column_row(&self, cols: &[Option<ColumnVec>], i: usize) -> BucketId {
        let mut node = self;
        loop {
            match node {
                Node::Leaf { bucket } => return *bucket,
                Node::Internal { attr, cut, left, right } => {
                    let col = cols[*attr as usize].as_ref().expect("split column decoded");
                    node = if col.cmp_at(i, cut).is_le() { left } else { right };
                }
            }
        }
    }

    /// Collect the buckets that may contain rows matching `preds`,
    /// pruning subtrees whose half-space contradicts a predicate.
    ///
    /// The per-node test is exact for a single predicate and conservative
    /// (never false-negative) for conjunctions, which is all `lookup(T,q)`
    /// needs: it may read an extra block, never miss one.
    pub fn collect_matching(&self, preds: &[Predicate], out: &mut Vec<BucketId>) {
        match self {
            Node::Leaf { bucket } => out.push(*bucket),
            Node::Internal { attr, cut, left, right } => {
                let mut go_left = true;
                let mut go_right = true;
                for p in preds.iter().filter(|p| p.attr == *attr) {
                    go_left &= allows_left(p, cut);
                    go_right &= allows_right(p, cut);
                }
                if go_left {
                    left.collect_matching(preds, out);
                }
                if go_right {
                    right.collect_matching(preds, out);
                }
            }
        }
    }

    /// All leaf buckets in left-to-right order.
    pub fn collect_buckets(&self, out: &mut Vec<BucketId>) {
        match self {
            Node::Leaf { bucket } => out.push(*bucket),
            Node::Internal { left, right, .. } => {
                left.collect_buckets(out);
                right.collect_buckets(out);
            }
        }
    }

    /// Number of leaves under this node.
    pub fn leaf_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { left, right, .. } => left.leaf_count() + right.leaf_count(),
        }
    }

    /// Height of the subtree (leaf = 0).
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// Count, per attribute, how many internal nodes split on it.
    pub fn attr_counts(&self, counts: &mut std::collections::BTreeMap<AttrId, usize>) {
        if let Node::Internal { attr, left, right, .. } = self {
            *counts.entry(*attr).or_insert(0) += 1;
            left.attr_counts(counts);
            right.attr_counts(counts);
        }
    }
}

/// Can the left half-space (`attr ≤ cut`) contain a row satisfying `p`
/// (a predicate on the same attribute)?
fn allows_left(p: &Predicate, cut: &Value) -> bool {
    match p.op {
        // A value arbitrarily small exists on the left: < / ≤ / ≠ always can.
        CmpOp::Lt | CmpOp::Le | CmpOp::Neq => true,
        CmpOp::Gt => cut > &p.value,
        CmpOp::Ge => cut >= &p.value,
        CmpOp::Eq => p.value <= *cut,
    }
}

/// Can the right half-space (`attr > cut`) contain a row satisfying `p`?
fn allows_right(p: &Predicate, cut: &Value) -> bool {
    match p.op {
        CmpOp::Gt | CmpOp::Ge | CmpOp::Neq => true,
        // Need some x > cut with x < v (resp. ≤ v): possible iff v > cut.
        CmpOp::Lt | CmpOp::Le => p.value > *cut,
        CmpOp::Eq => p.value > *cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    /// The left tree of the paper's Fig. 4: two levels on the join
    /// attribute splitting [0,400) into four buckets of width 100.
    fn fig4_tree() -> Node {
        Node::internal(
            0,
            Value::Int(199),
            Node::internal(0, Value::Int(99), Node::leaf(0), Node::leaf(1)),
            Node::internal(0, Value::Int(299), Node::leaf(2), Node::leaf(3)),
        )
    }

    #[test]
    fn routing_respects_cuts() {
        let t = fig4_tree();
        assert_eq!(t.route(&row![0i64]), 0);
        assert_eq!(t.route(&row![99i64]), 0);
        assert_eq!(t.route(&row![100i64]), 1);
        assert_eq!(t.route(&row![250i64]), 2);
        assert_eq!(t.route(&row![399i64]), 3);
    }

    #[test]
    fn lookup_prunes_point_queries_to_one_leaf() {
        let t = fig4_tree();
        let mut out = Vec::new();
        t.collect_matching(&[Predicate::new(0, CmpOp::Eq, 150i64)], &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn lookup_range_queries() {
        let t = fig4_tree();
        let mut out = Vec::new();
        // 150 ≤ A < 320 touches buckets 1, 2, 3.
        t.collect_matching(
            &[Predicate::new(0, CmpOp::Ge, 150i64), Predicate::new(0, CmpOp::Lt, 320i64)],
            &mut out,
        );
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn lookup_without_predicates_returns_all() {
        let t = fig4_tree();
        let mut out = Vec::new();
        t.collect_matching(&[], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn predicates_on_other_attrs_do_not_prune() {
        let t = fig4_tree();
        let mut out = Vec::new();
        t.collect_matching(&[Predicate::new(5, CmpOp::Eq, 1i64)], &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn boundary_eq_on_cut_goes_left_only() {
        let t = fig4_tree();
        let mut out = Vec::new();
        t.collect_matching(&[Predicate::new(0, CmpOp::Eq, 199i64)], &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn pruning_never_loses_matching_rows() {
        // Exhaustive check against brute-force on a small domain.
        let t = fig4_tree();
        for v in (0..400i64).step_by(7) {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Neq] {
                let p = Predicate::new(0, op, v);
                let mut buckets = Vec::new();
                t.collect_matching(std::slice::from_ref(&p), &mut buckets);
                // Every row matching p must route to a collected bucket.
                for x in 0..400i64 {
                    let r = row![x];
                    if p.matches(&r) {
                        assert!(buckets.contains(&t.route(&r)), "row {x} lost under {op:?} {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_helpers() {
        let t = fig4_tree();
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.depth(), 2);
        let mut counts = std::collections::BTreeMap::new();
        t.attr_counts(&mut counts);
        assert_eq!(counts.get(&0), Some(&3));
        let mut buckets = Vec::new();
        t.collect_buckets(&mut buckets);
        assert_eq!(buckets, vec![0, 1, 2, 3]);
    }
}
