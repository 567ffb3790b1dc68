//! The partitioning tree: routing, lookup, statistics, persistence.

use std::collections::BTreeMap;

use adaptdb_common::{AttrId, ColumnVec, Error, PredicateSet, Result, Row};
use adaptdb_storage::codec;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::node::{BucketId, Node};

/// A partitioning tree for one table (a table may have several during
/// smooth repartitioning — one per join attribute, §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionTree {
    root: Node,
    arity: usize,
    /// The join attribute occupying the tree's top levels, if this is a
    /// two-phase tree (§5.1); `None` for a pure Amoeba tree.
    join_attr: Option<AttrId>,
    /// How many top levels are reserved for the join attribute.
    join_levels: usize,
    /// Next bucket id to allocate when the tree is restructured.
    next_bucket: BucketId,
}

impl PartitionTree {
    /// Wrap a root node. `next_bucket` must exceed every bucket id in the
    /// tree; [`PartitionTree::from_root`] computes it for you.
    pub fn new(
        root: Node,
        arity: usize,
        join_attr: Option<AttrId>,
        join_levels: usize,
        next_bucket: BucketId,
    ) -> Self {
        PartitionTree { root, arity, join_attr, join_levels, next_bucket }
    }

    /// Wrap a root node, deriving the bucket counter from its contents.
    pub fn from_root(
        root: Node,
        arity: usize,
        join_attr: Option<AttrId>,
        join_levels: usize,
    ) -> Self {
        let mut buckets = Vec::new();
        root.collect_buckets(&mut buckets);
        let next = buckets.iter().copied().max().map(|b| b + 1).unwrap_or(0);
        PartitionTree::new(root, arity, join_attr, join_levels, next)
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Mutable root access (used by the adapter when applying a plan).
    pub fn root_mut(&mut self) -> &mut Node {
        &mut self.root
    }

    /// Schema width the tree routes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The join attribute of a two-phase tree.
    pub fn join_attr(&self) -> Option<AttrId> {
        self.join_attr
    }

    /// Number of top levels reserved for the join attribute.
    pub fn join_levels(&self) -> usize {
        self.join_levels
    }

    /// Route a row to its bucket.
    pub fn route(&self, row: &Row) -> BucketId {
        self.root.route(row)
    }

    /// Route the `rows` rows of a block given as decoded columns —
    /// `cols[a]` holds attribute `a` for every attribute in
    /// [`PartitionTree::attr_histogram`] — returning each row's bucket:
    /// the column-wise [`PartitionTree::route`] (see
    /// [`Node::route_column_row`]).
    pub fn route_columns(&self, cols: &[Option<ColumnVec>], rows: usize) -> Vec<BucketId> {
        (0..rows).map(|i| self.root.route_column_row(cols, i)).collect()
    }

    /// The paper's `lookup(T, q)`: buckets that may contain matches.
    pub fn lookup(&self, preds: &PredicateSet) -> Vec<BucketId> {
        let mut out = Vec::new();
        self.root.collect_matching(preds.predicates(), &mut out);
        out
    }

    /// All buckets, left-to-right.
    pub fn buckets(&self) -> Vec<BucketId> {
        let mut out = Vec::new();
        self.root.collect_buckets(&mut out);
        out
    }

    /// Number of leaf buckets.
    pub fn bucket_count(&self) -> usize {
        self.root.leaf_count()
    }

    /// Tree height.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Nodes per attribute — used to verify heterogeneous branching
    /// balances attribute coverage.
    pub fn attr_histogram(&self) -> BTreeMap<AttrId, usize> {
        let mut counts = BTreeMap::new();
        self.root.attr_counts(&mut counts);
        counts
    }

    /// Allocate `n` fresh bucket ids (monotonic; never reused).
    pub fn allocate_buckets(&mut self, n: usize) -> Vec<BucketId> {
        let start = self.next_bucket;
        self.next_bucket += n as BucketId;
        (start..self.next_bucket).collect()
    }

    /// Serialize the tree (preorder) for catalog persistence.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_slice(b"ADBT");
        buf.put_u16_le(self.arity as u16);
        match self.join_attr {
            Some(a) => {
                buf.put_u8(1);
                buf.put_u16_le(a);
            }
            None => buf.put_u8(0),
        }
        buf.put_u16_le(self.join_levels as u16);
        buf.put_u32_le(self.next_bucket);
        encode_node(&mut buf, &self.root);
        buf.freeze()
    }

    /// Decode a tree serialized with [`PartitionTree::encode`].
    pub fn decode(mut buf: Bytes) -> Result<Self> {
        if buf.remaining() < 4 || &buf.split_to(4)[..] != b"ADBT" {
            return Err(Error::Codec("bad tree magic".into()));
        }
        if buf.remaining() < 3 {
            return Err(Error::Codec("truncated tree header".into()));
        }
        let arity = buf.get_u16_le() as usize;
        let join_attr = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 2 {
                    return Err(Error::Codec("truncated join attr".into()));
                }
                Some(buf.get_u16_le())
            }
            t => return Err(Error::Codec(format!("bad join-attr tag {t}"))),
        };
        if buf.remaining() < 6 {
            return Err(Error::Codec("truncated tree header".into()));
        }
        let join_levels = buf.get_u16_le() as usize;
        let next_bucket = buf.get_u32_le();
        let root = decode_node(&mut buf)?;
        if buf.has_remaining() {
            return Err(Error::Codec("trailing bytes after tree".into()));
        }
        Ok(PartitionTree { root, arity, join_attr, join_levels, next_bucket })
    }
}

fn encode_node(buf: &mut BytesMut, node: &Node) {
    match node {
        Node::Leaf { bucket } => {
            buf.put_u8(1);
            buf.put_u32_le(*bucket);
        }
        Node::Internal { attr, cut, left, right } => {
            buf.put_u8(0);
            buf.put_u16_le(*attr);
            codec::encode_value(buf, cut);
            encode_node(buf, left);
            encode_node(buf, right);
        }
    }
}

fn decode_node(buf: &mut Bytes) -> Result<Node> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("truncated node tag".into()));
    }
    match buf.get_u8() {
        1 => {
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated leaf".into()));
            }
            Ok(Node::leaf(buf.get_u32_le()))
        }
        0 => {
            if buf.remaining() < 2 {
                return Err(Error::Codec("truncated internal node".into()));
            }
            let attr = buf.get_u16_le();
            let cut = codec::decode_value(buf)?;
            let left = decode_node(buf)?;
            let right = decode_node(buf)?;
            Ok(Node::internal(attr, cut, left, right))
        }
        t => Err(Error::Codec(format!("bad node tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate, Value};

    fn sample_tree() -> PartitionTree {
        let root = Node::internal(
            0,
            Value::Int(100),
            Node::internal(1, Value::Double(0.5), Node::leaf(0), Node::leaf(1)),
            Node::leaf(2),
        );
        PartitionTree::from_root(root, 2, Some(0), 1)
    }

    #[test]
    fn from_root_derives_bucket_counter() {
        let mut t = sample_tree();
        assert_eq!(t.bucket_count(), 3);
        assert_eq!(t.allocate_buckets(2), vec![3, 4]);
        assert_eq!(t.allocate_buckets(1), vec![5]);
    }

    #[test]
    fn lookup_uses_both_levels() {
        let t = sample_tree();
        let q = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 100i64)).and(Predicate::new(
            1,
            CmpOp::Gt,
            0.5,
        ));
        assert_eq!(t.lookup(&q), vec![1]);
        assert_eq!(t.lookup(&PredicateSet::none()), vec![0, 1, 2]);
    }

    #[test]
    fn route_and_lookup_agree() {
        let t = sample_tree();
        for (a, b) in [(50i64, 0.2), (50, 0.9), (150, 0.2)] {
            let r = row![a, b];
            let bucket = t.route(&r);
            let q = PredicateSet::none().and(Predicate::new(0, CmpOp::Eq, a)).and(Predicate::new(
                1,
                CmpOp::Eq,
                b,
            ));
            assert!(t.lookup(&q).contains(&bucket));
        }
    }

    #[test]
    fn column_routing_matches_row_routing() {
        let t = sample_tree();
        let rows: Vec<Row> = [(50i64, 0.2), (50, 0.9), (150, 0.2), (100, f64::NAN), (7, -0.0)]
            .iter()
            .map(|&(a, b)| row![a, b])
            .collect();
        let cols: Vec<Option<ColumnVec>> = (0..2)
            .map(|a| Some(ColumnVec::from_values(rows.iter().map(|r| r.get(a).clone()).collect())))
            .collect();
        let want: Vec<BucketId> = rows.iter().map(|r| t.route(r)).collect();
        assert_eq!(t.route_columns(&cols, rows.len()), want);
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_tree();
        let enc = t.encode();
        let dec = PartitionTree::decode(enc).unwrap();
        assert_eq!(dec, t);
    }

    #[test]
    fn decode_rejects_corruption() {
        let t = sample_tree();
        let enc = t.encode();
        for cut in 1..enc.len() {
            assert!(PartitionTree::decode(enc.slice(0..cut)).is_err(), "cut {cut}");
        }
        let mut garbled = BytesMut::from(enc.as_ref());
        garbled[0] = b'X';
        assert!(PartitionTree::decode(garbled.freeze()).is_err());
    }

    #[test]
    fn attr_histogram_counts_nodes() {
        let t = sample_tree();
        let h = t.attr_histogram();
        assert_eq!(h.get(&0), Some(&1));
        assert_eq!(h.get(&1), Some(&1));
    }

    #[test]
    fn metadata_accessors() {
        let t = sample_tree();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.join_attr(), Some(0));
        assert_eq!(t.join_levels(), 1);
        assert_eq!(t.depth(), 2);
    }
}
