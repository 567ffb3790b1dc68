//! The simulated cluster: nodes, block placement, replication, reads.

use std::collections::HashMap;

use adaptdb_common::rng;
use adaptdb_common::{Error, GlobalBlockId, Result};
use rand::rngs::StdRng;
use rand::RngExt;

/// Identifier of a cluster node.
pub type NodeId = u16;

/// Where a block's replicas live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Nodes holding a replica, primary first.
    pub replicas: Vec<NodeId>,
    /// Size of the block in bytes (all replicas identical).
    pub bytes: usize,
}

/// Classification of a block read, the unit of Fig. 7's experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The reading node holds a replica.
    Local,
    /// The block is fetched from another node over the network.
    Remote,
}

/// The simulated distributed filesystem.
///
/// Placement policy mirrors HDFS defaults: the first replica lands on the
/// writing node; additional replicas are placed round-robin across the
/// other nodes (deterministic, so experiments are reproducible). Blocks
/// are append-only: a "rewrite" during repartitioning is modelled as
/// delete + write of new blocks, exactly like AdaptDB on HDFS creates new
/// files and retires old ones.
///
/// Nodes can be failed ([`SimDfs::fail_node`]) for fault-injection
/// testing: reads fail over to surviving replicas (remote), writes skip
/// dead nodes, and a block whose replicas are all dead reads as
/// [`adaptdb_common::Error::Dfs`].
#[derive(Debug)]
pub struct SimDfs {
    nodes: usize,
    replication: usize,
    placement: HashMap<GlobalBlockId, Placement>,
    rr_cursor: usize,
    rng: StdRng,
    dead: Vec<bool>,
}

impl SimDfs {
    /// Create a cluster of `nodes` nodes with a replication factor
    /// (clamped to the node count).
    pub fn new(nodes: usize, replication: usize, seed: u64) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        SimDfs {
            nodes,
            replication: replication.clamp(1, nodes),
            placement: HashMap::new(),
            rr_cursor: 0,
            rng: rng::derived(seed, "simdfs"),
            dead: vec![false; nodes],
        }
    }

    /// Mark a node as failed. Its replicas become unreadable; future
    /// writes avoid it. Panics on an unknown node id (test misuse).
    pub fn fail_node(&mut self, node: NodeId) {
        self.dead[node as usize] = true;
    }

    /// Bring a failed node back (its old replicas are considered intact,
    /// as after a transient outage).
    pub fn recover_node(&mut self, node: NodeId) {
        self.dead[node as usize] = false;
    }

    /// True if the node is currently failed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node as usize]
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Ids of all currently-live nodes, ascending — the pool a task
    /// scheduler places map and reduce tasks on.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes as NodeId).filter(|n| !self.dead[*n as usize]).collect()
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of blocks currently stored.
    pub fn block_count(&self) -> usize {
        self.placement.len()
    }

    /// Write a block from `writer` (HDFS rule: primary replica is local to
    /// the writer; `None` picks a node round-robin, which is what the bulk
    /// loader does). Returns the placement.
    pub fn write_block(
        &mut self,
        id: GlobalBlockId,
        bytes: usize,
        writer: Option<NodeId>,
    ) -> Placement {
        self.write_block_with_replication(id, bytes, writer, self.replication)
    }

    /// [`SimDfs::write_block`] with an explicit replication factor for
    /// this block only (clamped to the node count). Shuffle spill runs
    /// use this: transient per-reducer runs are typically written
    /// unreplicated (replication 1, like Spark/MapReduce shuffle files)
    /// even when table data carries the HDFS default of 3.
    pub fn write_block_with_replication(
        &mut self,
        id: GlobalBlockId,
        bytes: usize,
        writer: Option<NodeId>,
        replication: usize,
    ) -> Placement {
        let replication = replication.clamp(1, self.nodes);
        let alive = |n: NodeId, dead: &[bool]| !dead[n as usize];
        let primary = match writer {
            Some(n) if alive(n % self.nodes as NodeId, &self.dead) => n % self.nodes as NodeId,
            _ => {
                // Round-robin over live nodes (a dead writer's blocks land
                // on whichever node takes over its task).
                let mut n;
                loop {
                    n = (self.rr_cursor % self.nodes) as NodeId;
                    self.rr_cursor += 1;
                    if alive(n, &self.dead) {
                        break;
                    }
                    assert!(self.live_nodes() > 0, "cannot write a block with every node failed");
                }
                n
            }
        };
        let mut replicas = vec![primary];
        // Spread the remaining replicas over distinct other live nodes,
        // starting from a random offset so replica sets don't all align.
        if replication > 1 {
            let start = self.rng.random_range(0..self.nodes);
            let mut i = 0usize;
            while replicas.len() < replication && i < self.nodes {
                let cand = ((start + i) % self.nodes) as NodeId;
                if !replicas.contains(&cand) && alive(cand, &self.dead) {
                    replicas.push(cand);
                }
                i += 1;
            }
        }
        let p = Placement { replicas, bytes };
        self.placement.insert(id, p.clone());
        p
    }

    /// Re-register a block at an explicit placement — crash recovery
    /// replaying a durable journal. Unlike [`SimDfs::write_block`] this
    /// advances neither the round-robin cursor nor the replica RNG, so
    /// restoring N blocks leaves future placements exactly where a
    /// fresh cluster would put them.
    pub fn restore_block(&mut self, id: GlobalBlockId, bytes: usize, replicas: Vec<NodeId>) {
        assert!(!replicas.is_empty(), "restored block needs at least one replica");
        self.placement.insert(id, Placement { replicas, bytes });
    }

    /// Remove a block (repartitioning retires old blocks).
    pub fn remove_block(&mut self, id: &GlobalBlockId) -> Result<()> {
        self.placement.remove(id).map(|_| ()).ok_or(Error::UnknownBlock(id.block))
    }

    /// Placement of a block.
    pub fn locate(&self, id: &GlobalBlockId) -> Result<&Placement> {
        self.placement.get(id).ok_or(Error::UnknownBlock(id.block))
    }

    /// Classify a read of `id` issued by `reader`. A read is local only
    /// if the reader is alive and holds a replica; when the reader's
    /// replica is dead the read fails over to a surviving replica
    /// (remote). Errors if every replica is on a failed node.
    pub fn read_from(&self, id: &GlobalBlockId, reader: NodeId) -> Result<ReadKind> {
        let p = self.locate(id)?;
        let any_alive = p.replicas.iter().any(|n| !self.dead[*n as usize]);
        if !any_alive {
            return Err(Error::Dfs(format!(
                "block {}:{} unavailable: all replicas on failed nodes",
                id.table, id.block
            )));
        }
        if p.replicas.contains(&reader) && !self.dead[reader as usize] {
            Ok(ReadKind::Local)
        } else {
            Ok(ReadKind::Remote)
        }
    }

    /// The node a locality-aware scheduler would pick to process this
    /// block: its first *live* replica holder.
    pub fn preferred_node(&self, id: &GlobalBlockId) -> Result<NodeId> {
        let p = self.locate(id)?;
        p.replicas.iter().copied().find(|n| !self.dead[*n as usize]).ok_or_else(|| {
            Error::Dfs(format!(
                "block {}:{} unavailable: all replicas on failed nodes",
                id.table, id.block
            ))
        })
    }

    /// Per-node count of primary replicas — used by tests to check the
    /// loader balances data across the cluster.
    pub fn primary_distribution(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes];
        for p in self.placement.values() {
            counts[p.replicas[0] as usize] += 1;
        }
        counts
    }

    /// Total bytes stored (counting each block once, not per replica).
    pub fn logical_bytes(&self) -> usize {
        self.placement.values().map(|p| p.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(b: u32) -> GlobalBlockId {
        GlobalBlockId::new("t", b)
    }

    #[test]
    fn round_robin_balances_primaries() {
        let mut dfs = SimDfs::new(4, 1, 1);
        for b in 0..40 {
            dfs.write_block(gid(b), 100, None);
        }
        assert_eq!(dfs.primary_distribution(), vec![10, 10, 10, 10]);
    }

    #[test]
    fn replication_is_clamped_and_distinct() {
        let mut dfs = SimDfs::new(3, 5, 1);
        assert_eq!(dfs.replication(), 3);
        let p = dfs.write_block(gid(0), 100, None);
        let mut nodes = p.replicas.clone();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "replicas must land on distinct nodes");
    }

    #[test]
    fn writer_gets_primary_replica() {
        let mut dfs = SimDfs::new(10, 3, 1);
        let p = dfs.write_block(gid(1), 64, Some(7));
        assert_eq!(p.replicas[0], 7);
    }

    #[test]
    fn read_classification() {
        let mut dfs = SimDfs::new(10, 1, 1);
        dfs.write_block(gid(1), 64, Some(3));
        assert_eq!(dfs.read_from(&gid(1), 3).unwrap(), ReadKind::Local);
        assert_eq!(dfs.read_from(&gid(1), 4).unwrap(), ReadKind::Remote);
    }

    #[test]
    fn replicas_make_more_reads_local() {
        let mut dfs = SimDfs::new(10, 3, 1);
        dfs.write_block(gid(1), 64, Some(0));
        let locals =
            (0..10u16).filter(|n| dfs.read_from(&gid(1), *n).unwrap() == ReadKind::Local).count();
        assert_eq!(locals, 3);
    }

    #[test]
    fn remove_and_missing_block_errors() {
        let mut dfs = SimDfs::new(2, 1, 1);
        dfs.write_block(gid(9), 10, None);
        assert!(dfs.remove_block(&gid(9)).is_ok());
        assert!(matches!(dfs.remove_block(&gid(9)), Err(Error::UnknownBlock(9))));
        assert!(dfs.read_from(&gid(9), 0).is_err());
    }

    #[test]
    fn logical_bytes_counts_each_block_once() {
        let mut dfs = SimDfs::new(4, 3, 1);
        dfs.write_block(gid(0), 100, None);
        dfs.write_block(gid(1), 50, None);
        assert_eq!(dfs.logical_bytes(), 150);
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = SimDfs::new(8, 3, 42);
        let mut b = SimDfs::new(8, 3, 42);
        for blk in 0..20 {
            assert_eq!(a.write_block(gid(blk), 1, None), b.write_block(gid(blk), 1, None));
        }
    }

    #[test]
    fn failed_node_reads_fail_over_to_replicas() {
        let mut dfs = SimDfs::new(4, 2, 1);
        let p = dfs.write_block(gid(0), 64, Some(0));
        assert_eq!(p.replicas[0], 0);
        dfs.fail_node(0);
        // Reading from the dead primary's node is now a remote read via
        // the surviving replica.
        assert_eq!(dfs.read_from(&gid(0), 0).unwrap(), ReadKind::Remote);
        // The scheduler prefers the live replica.
        let pref = dfs.preferred_node(&gid(0)).unwrap();
        assert_ne!(pref, 0);
        assert!(p.replicas.contains(&pref));
    }

    #[test]
    fn unreplicated_blocks_are_lost_with_their_node() {
        let mut dfs = SimDfs::new(4, 1, 1);
        dfs.write_block(gid(0), 64, Some(2));
        dfs.fail_node(2);
        assert!(matches!(dfs.read_from(&gid(0), 0), Err(Error::Dfs(_))));
        assert!(dfs.preferred_node(&gid(0)).is_err());
        // Recovery restores access.
        dfs.recover_node(2);
        assert_eq!(dfs.read_from(&gid(0), 2).unwrap(), ReadKind::Local);
    }

    #[test]
    fn writes_avoid_failed_nodes() {
        let mut dfs = SimDfs::new(4, 2, 1);
        dfs.fail_node(1);
        for b in 0..12 {
            let p = dfs.write_block(gid(b), 64, Some(1)); // dead writer
            assert!(p.replicas.iter().all(|n| *n != 1), "replica on dead node: {p:?}");
        }
        assert_eq!(dfs.live_nodes(), 3);
    }

    #[test]
    fn per_block_replication_override() {
        // Cluster default replication 3, but spill runs land unreplicated
        // on the writer's node.
        let mut dfs = SimDfs::new(6, 3, 1);
        let p = dfs.write_block_with_replication(gid(0), 64, Some(4), 1);
        assert_eq!(p.replicas, vec![4]);
        assert_eq!(dfs.read_from(&gid(0), 4).unwrap(), ReadKind::Local);
        assert_eq!(dfs.read_from(&gid(0), 0).unwrap(), ReadKind::Remote);
        // Overrides above the node count are clamped.
        let p = dfs.write_block_with_replication(gid(1), 64, Some(0), 99);
        assert_eq!(p.replicas.len(), 6);
    }

    #[test]
    fn restore_block_preserves_future_placement_determinism() {
        // Restoring a recovered placement must consume neither the
        // round-robin cursor nor the replica RNG: a cluster that
        // restored N blocks places future writes exactly like a fresh
        // cluster that never saw them.
        let mut a = SimDfs::new(4, 2, 7);
        let p = a.write_block(gid(0), 100, Some(1));
        let mut restored = SimDfs::new(4, 2, 7);
        restored.restore_block(gid(0), 100, p.replicas.clone());
        assert_eq!(restored.locate(&gid(0)).unwrap(), &p);
        assert_eq!(restored.read_from(&gid(0), p.replicas[0]).unwrap(), ReadKind::Local);
        let mut fresh = SimDfs::new(4, 2, 7);
        for blk in 1..10 {
            assert_eq!(
                restored.write_block(gid(blk), 10, None),
                fresh.write_block(gid(blk), 10, None)
            );
        }
    }

    #[test]
    fn alive_nodes_tracks_failures() {
        let mut dfs = SimDfs::new(4, 1, 1);
        assert_eq!(dfs.alive_nodes(), vec![0, 1, 2, 3]);
        dfs.fail_node(2);
        assert_eq!(dfs.alive_nodes(), vec![0, 1, 3]);
        dfs.recover_node(2);
        assert_eq!(dfs.alive_nodes().len(), 4);
    }

    #[test]
    #[should_panic(expected = "every node failed")]
    fn writing_with_no_live_nodes_panics() {
        let mut dfs = SimDfs::new(2, 1, 1);
        dfs.fail_node(0);
        dfs.fail_node(1);
        dfs.write_block(gid(0), 64, None);
    }
}
