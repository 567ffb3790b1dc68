//! Per-table catalog state: trees, bucket→block maps, samples, windows.
//!
//! The layout a query needs — partition trees plus their bucket→block
//! manifests — lives in an immutable [`TableSnapshot`] behind an `Arc`.
//! Readers clone the `Arc` and scan without any lock; adaptation
//! mutates copy-on-write ([`TableState::trees_mut`]) and installs the
//! result with a single atomic pointer swap, so a concurrent serving
//! runtime never blocks a reader behind a rewrite. The serial engine
//! holds the only reference, so `Arc::make_mut` mutates in place and
//! behavior is bit-identical to the pre-snapshot design.

use std::collections::BTreeMap;
use std::sync::Arc;

use adaptdb_common::{AttrId, BlockId, PredicateSet, Schema};
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::Reservoir;
use adaptdb_tree::{Adapter, CandidateMemo, PartitionTree, QueryWindow, RepartitionPlan};

/// One partitioning tree of a table plus the blocks currently stored
/// under it. During smooth repartitioning a table has several of these —
/// "one tree per frequent join attribute" (§5.2).
#[derive(Debug, Clone)]
pub struct TreeInfo {
    /// The tree structure.
    pub tree: PartitionTree,
    /// Map from the tree's leaf buckets to the stored blocks holding
    /// their rows (several blocks per bucket under skew).
    pub buckets: BTreeMap<BucketId, Vec<BlockId>>,
}

impl TreeInfo {
    /// A tree with no data yet (a freshly created migration target).
    pub fn empty(tree: PartitionTree) -> Self {
        TreeInfo { tree, buckets: BTreeMap::new() }
    }

    /// The join attribute this tree is organized for.
    pub fn join_attr(&self) -> Option<AttrId> {
        self.tree.join_attr()
    }

    /// Number of blocks currently stored under this tree — the paper's
    /// `|T|` in the smooth-repartitioning formula (Fig. 11).
    pub fn block_count(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// All block ids under this tree.
    pub fn all_blocks(&self) -> Vec<BlockId> {
        self.buckets.values().flatten().copied().collect()
    }

    /// `lookup(T, q)` resolved to block ids.
    pub fn lookup_blocks(&self, preds: &PredicateSet) -> Vec<BlockId> {
        let mut out = Vec::new();
        for bucket in self.tree.lookup(preds) {
            if let Some(blocks) = self.buckets.get(&bucket) {
                out.extend_from_slice(blocks);
            }
        }
        out
    }

    /// Remove a set of blocks (after they migrated elsewhere); prunes
    /// emptied buckets.
    pub fn remove_blocks(&mut self, ids: &std::collections::HashSet<BlockId>) {
        for blocks in self.buckets.values_mut() {
            blocks.retain(|b| !ids.contains(b));
        }
        self.buckets.retain(|_, v| !v.is_empty());
    }

    /// Merge newly written blocks into the bucket map.
    pub fn add_blocks(&mut self, map: BTreeMap<BucketId, Vec<BlockId>>) {
        for (bucket, blocks) in map {
            self.buckets.entry(bucket).or_default().extend(blocks);
        }
    }
}

/// The immutable, atomically-swappable part of a table's catalog state:
/// schema plus partitioning trees with their block manifests. This is
/// everything a read query needs — queries resolve blocks from a
/// snapshot and never see a half-rewritten layout.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Schema.
    pub schema: Schema,
    /// Partitioning trees (usually one; several mid-migration).
    pub trees: Vec<TreeInfo>,
    /// Appended-but-not-yet-folded delta blocks: ingest lands here in
    /// arrival order, outside any tree, until maintenance folds them
    /// into the partition layout. A query that pinned this snapshot
    /// reads base + exactly these deltas — appends after the pin are
    /// invisible (snapshot isolation).
    pub delta: Vec<BlockId>,
}

impl TableSnapshot {
    /// A snapshot with no trees yet.
    pub fn empty(schema: Schema) -> Self {
        TableSnapshot { schema, trees: Vec::new(), delta: Vec::new() }
    }

    /// Total stored blocks across all trees plus unfolded deltas.
    pub fn total_blocks(&self) -> usize {
        self.trees.iter().map(TreeInfo::block_count).sum::<usize>() + self.delta.len()
    }

    /// Index of the tree organized for `attr`, if one exists.
    pub fn tree_for_join_attr(&self, attr: AttrId) -> Option<usize> {
        self.trees.iter().position(|t| t.join_attr() == Some(attr))
    }

    /// All blocks of the table (tree-resident, then deltas).
    pub fn all_blocks(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self.trees.iter().flat_map(TreeInfo::all_blocks).collect();
        out.extend_from_slice(&self.delta);
        out
    }

    /// `lookup` across every tree (a query may touch blocks under any
    /// tree while migration is in flight), plus every unfolded delta
    /// block — trees cannot prune deltas (they route no delta rows),
    /// but per-block zone maps still skip them at scan time.
    pub fn lookup_blocks(&self, preds: &PredicateSet) -> Vec<BlockId> {
        let mut out: Vec<BlockId> =
            self.trees.iter().flat_map(|t| t.lookup_blocks(preds)).collect();
        out.extend_from_slice(&self.delta);
        out
    }
}

/// Catalog state for one table: the swappable layout snapshot plus the
/// mutable adaptation state (sample, query window) that only the
/// engine/maintenance side touches.
#[derive(Debug)]
pub struct TableState {
    /// Table name.
    pub name: String,
    /// The current layout. Private so every mutation goes through the
    /// copy-on-write accessors below.
    snapshot: Arc<TableSnapshot>,
    /// Reservoir sample used for cut-point selection (§3.1). It changes
    /// only through `offer`, never by replacement: the candidate memo
    /// takes `seen()` as the sample's version.
    pub(crate) sample: Reservoir,
    /// Recent-query window for this table (§3.2).
    pub window: QueryWindow,
    /// Attributes eligible as selection-partitioning candidates.
    pub candidate_attrs: Vec<AttrId>,
    /// Amoeba's candidate subtrees from the last selection proposal,
    /// reused while the tree, sample and window order are unchanged.
    candidates: CandidateMemo,
}

impl TableState {
    /// Fresh state with no trees.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        candidate_attrs: Vec<AttrId>,
        sample: Reservoir,
        window: QueryWindow,
    ) -> Self {
        TableState {
            name: name.into(),
            snapshot: Arc::new(TableSnapshot::empty(schema)),
            sample,
            window,
            candidate_attrs,
            candidates: CandidateMemo::default(),
        }
    }

    /// State over an explicit tree set (tests and catalog restore).
    pub fn with_trees(
        name: impl Into<String>,
        schema: Schema,
        trees: Vec<TreeInfo>,
        candidate_attrs: Vec<AttrId>,
        sample: Reservoir,
        window: QueryWindow,
    ) -> Self {
        TableState {
            name: name.into(),
            snapshot: Arc::new(TableSnapshot { schema, trees, delta: Vec::new() }),
            sample,
            window,
            candidate_attrs,
            candidates: CandidateMemo::default(),
        }
    }

    /// The current layout snapshot.
    pub fn snapshot(&self) -> &TableSnapshot {
        &self.snapshot
    }

    /// A shareable handle to the current layout — what a serving
    /// runtime publishes to its readers. Cloning is a refcount bump.
    pub fn snapshot_arc(&self) -> Arc<TableSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.snapshot.schema
    }

    /// Read access to the trees.
    pub fn trees(&self) -> &[TreeInfo] {
        &self.snapshot.trees
    }

    /// Copy-on-write access to the trees: when readers share the
    /// current snapshot this clones it (so they keep a consistent view)
    /// and further edits land in the fresh copy; when the engine holds
    /// the only reference it mutates in place, exactly like the
    /// pre-snapshot design.
    pub fn trees_mut(&mut self) -> &mut Vec<TreeInfo> {
        &mut Arc::make_mut(&mut self.snapshot).trees
    }

    /// Replace the tree set wholesale (bulk load, catalog restore, full
    /// repartition) — installs a brand-new snapshot. Unfolded delta
    /// blocks are preserved: replacing the tree layout never loses
    /// appended rows.
    pub fn set_trees(&mut self, trees: Vec<TreeInfo>) {
        self.snapshot = Arc::new(TableSnapshot {
            schema: self.snapshot.schema.clone(),
            trees,
            delta: self.snapshot.delta.clone(),
        });
    }

    /// The appended-but-unfolded delta blocks, in arrival order.
    pub fn delta(&self) -> &[BlockId] {
        &self.snapshot.delta
    }

    /// Append freshly written delta blocks (copy-on-write: pinned
    /// readers keep their admission-time view).
    pub fn append_delta(&mut self, blocks: impl IntoIterator<Item = BlockId>) {
        Arc::make_mut(&mut self.snapshot).delta.extend(blocks);
    }

    /// Drop `ids` from the delta list (they were folded into a tree or
    /// rewritten by a tail merge).
    pub fn remove_delta(&mut self, ids: &std::collections::HashSet<BlockId>) {
        if self.snapshot.delta.iter().any(|b| ids.contains(b)) {
            Arc::make_mut(&mut self.snapshot).delta.retain(|b| !ids.contains(b));
        }
    }

    /// Clear the delta list entirely (after a full fold).
    pub fn clear_delta(&mut self) {
        if !self.snapshot.delta.is_empty() {
            Arc::make_mut(&mut self.snapshot).delta.clear();
        }
    }

    /// Total stored blocks across all trees.
    pub fn total_blocks(&self) -> usize {
        self.snapshot.total_blocks()
    }

    /// Index of the tree organized for `attr`, if one exists.
    pub fn tree_for_join_attr(&self, attr: AttrId) -> Option<usize> {
        self.snapshot.tree_for_join_attr(attr)
    }

    /// All blocks of the table.
    pub fn all_blocks(&self) -> Vec<BlockId> {
        self.snapshot.all_blocks()
    }

    /// `lookup` across every tree.
    pub fn lookup_blocks(&self, preds: &PredicateSet) -> Vec<BlockId> {
        self.snapshot.lookup_blocks(preds)
    }

    /// Amoeba's proposal (§3.2) for tree `idx` over this table's sample
    /// and window. Candidate subtrees come from the table's memo while
    /// the tree, the sample (versioned by the rows offered to it —
    /// `offer` is the reservoir's only mutator) and the window's
    /// attribute order are unchanged.
    pub(crate) fn propose_selection(
        &mut self,
        idx: usize,
        adapter: &Adapter,
    ) -> Option<RepartitionPlan> {
        adapter.propose_with(
            &self.snapshot.trees[idx].tree,
            self.sample.rows(),
            self.sample.seen() as u64,
            &self.window,
            &mut self.candidates,
        )
    }

    /// How many times the selection proposal rebuilt its candidates.
    #[cfg(test)]
    pub(crate) fn candidate_builds(&self) -> usize {
        self.candidates.builds()
    }

    /// Drop trees that no longer hold any blocks (migration completed —
    /// the last sub-figure of Fig. 10), keeping at least one tree.
    pub fn prune_empty_trees(&mut self) {
        let trees = self.trees();
        // Check read-only first so the no-op case never clones a shared
        // snapshot.
        let prunable = trees.len() > 1
            && trees.iter().any(|t| t.block_count() > 0)
            && trees.iter().any(|t| t.block_count() == 0);
        if prunable {
            self.trees_mut().retain(|t| t.block_count() > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{CmpOp, Predicate, Value, ValueType};
    use adaptdb_tree::Node;

    fn tree_info() -> TreeInfo {
        let root = Node::internal(0, Value::Int(10), Node::leaf(0), Node::leaf(1));
        let tree = PartitionTree::from_root(root, 1, Some(0), 1);
        let mut ti = TreeInfo::empty(tree);
        ti.add_blocks(BTreeMap::from([(0, vec![100, 101]), (1, vec![102])]));
        ti
    }

    fn state_with(trees: Vec<TreeInfo>) -> TableState {
        TableState::with_trees(
            "t",
            Schema::from_pairs(&[("k", ValueType::Int)]),
            trees,
            vec![0],
            Reservoir::new(8, 1),
            QueryWindow::new(4),
        )
    }

    #[test]
    fn block_counting_and_lookup() {
        let ti = tree_info();
        assert_eq!(ti.block_count(), 3);
        assert_eq!(ti.all_blocks(), vec![100, 101, 102]);
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 5i64));
        assert_eq!(ti.lookup_blocks(&preds), vec![100, 101]);
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Gt, 10i64));
        assert_eq!(ti.lookup_blocks(&preds), vec![102]);
    }

    #[test]
    fn remove_blocks_prunes_buckets() {
        let mut ti = tree_info();
        let dead: std::collections::HashSet<BlockId> = [100, 102].into_iter().collect();
        ti.remove_blocks(&dead);
        assert_eq!(ti.block_count(), 1);
        assert_eq!(ti.all_blocks(), vec![101]);
        assert!(!ti.buckets.contains_key(&1), "emptied bucket must go away");
    }

    #[test]
    fn table_state_prunes_empty_trees() {
        let mut ts = state_with(vec![tree_info(), TreeInfo::empty(tree_info().tree)]);
        assert_eq!(ts.trees().len(), 2);
        ts.prune_empty_trees();
        assert_eq!(ts.trees().len(), 1);
        assert_eq!(ts.total_blocks(), 3);
        // Never drop the final tree even if empty.
        let mut empty = state_with(vec![TreeInfo::empty(tree_info().tree)]);
        empty.prune_empty_trees();
        assert_eq!(empty.trees().len(), 1);
    }

    #[test]
    fn tree_for_join_attr_finds_match() {
        let ts = state_with(vec![tree_info()]);
        assert_eq!(ts.tree_for_join_attr(0), Some(0));
        assert_eq!(ts.tree_for_join_attr(5), None);
    }

    #[test]
    fn mutation_is_copy_on_write_when_shared() {
        let mut ts = state_with(vec![tree_info()]);
        // A reader takes the published snapshot.
        let published = ts.snapshot_arc();
        assert_eq!(published.total_blocks(), 3);
        // The engine rewrites the layout.
        let dead: std::collections::HashSet<BlockId> = [100].into_iter().collect();
        ts.trees_mut()[0].remove_blocks(&dead);
        // The reader's view is untouched; the engine sees the new one.
        assert_eq!(published.total_blocks(), 3);
        assert_eq!(ts.total_blocks(), 2);
        // With the reader gone, further edits mutate in place.
        drop(published);
        let unique_before = Arc::strong_count(&ts.snapshot_arc());
        assert_eq!(unique_before, 2); // ours + the temporary
    }

    #[test]
    fn delta_blocks_ride_every_lookup_and_survive_set_trees() {
        let mut ts = state_with(vec![tree_info()]);
        let pinned = ts.snapshot_arc();
        ts.append_delta([200, 201]);
        // The pinned reader sees its admission-time view; the engine
        // sees base + delta everywhere blocks are resolved.
        assert_eq!(pinned.total_blocks(), 3);
        assert_eq!(ts.total_blocks(), 5);
        assert_eq!(ts.all_blocks(), vec![100, 101, 102, 200, 201]);
        // Tree pruning cannot exclude deltas: even a fully pruning
        // predicate still returns them.
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Gt, 10i64));
        assert_eq!(ts.lookup_blocks(&preds), vec![102, 200, 201]);
        // Replacing the tree layout keeps the unfolded deltas.
        ts.set_trees(vec![tree_info()]);
        assert_eq!(ts.delta(), &[200, 201]);
        // Removing a folded subset leaves the rest in order.
        ts.remove_delta(&[200].into_iter().collect());
        assert_eq!(ts.delta(), &[201]);
        ts.clear_delta();
        assert!(ts.delta().is_empty());
    }

    #[test]
    fn noop_prune_does_not_clone_shared_snapshot() {
        let mut ts = state_with(vec![tree_info()]);
        let published = ts.snapshot_arc();
        ts.prune_empty_trees(); // single non-empty tree: nothing to do
        assert!(Arc::ptr_eq(&published, &ts.snapshot_arc()), "prune must not COW on no-op");
    }
}
