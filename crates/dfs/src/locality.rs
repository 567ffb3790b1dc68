//! Map-task scheduling and the locality model of Fig. 7.
//!
//! The paper verifies (§4.2) that remote reads cost barely more than
//! local ones by running a map-only job at varying locality fractions.
//! [`TaskScheduler`] reproduces both sides of that experiment:
//! locality-aware scheduling (each block processed on a node holding a
//! replica when possible) and *forced-locality* scheduling, where a
//! chosen fraction of tasks is deliberately placed off-replica.

use adaptdb_common::rng;
use adaptdb_common::{CostParams, GlobalBlockId, Result};
use rand::RngExt;

use crate::cluster::{NodeId, ReadKind, SimDfs};

/// Assignment of one block-processing task to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignment {
    /// Block the task reads.
    pub block: GlobalBlockId,
    /// Node the task runs on.
    pub node: NodeId,
    /// Whether the read ends up local.
    pub kind: ReadKind,
}

/// Schedules block-processing tasks onto cluster nodes.
#[derive(Debug)]
pub struct TaskScheduler<'a> {
    dfs: &'a SimDfs,
}

impl<'a> TaskScheduler<'a> {
    /// Scheduler over a cluster.
    pub fn new(dfs: &'a SimDfs) -> Self {
        TaskScheduler { dfs }
    }

    /// Locality-aware assignment: every task runs on a node holding a
    /// *live* replica, with simple load balancing (pick the replica with
    /// the fewest tasks so far) — so every assignment reads locally.
    /// Dead nodes are never scheduled onto (the pre-fix code
    /// load-balanced across *all* replicas, landing tasks on failed
    /// nodes with kind hardcoded Local); a block whose every replica is
    /// dead is unreadable anywhere, so that surfaces as the DFS error
    /// here, at scheduling time, rather than at execution time.
    pub fn assign_local(&self, blocks: &[GlobalBlockId]) -> Result<Vec<TaskAssignment>> {
        let mut load = vec![0usize; self.dfs.node_count()];
        let mut out = Vec::with_capacity(blocks.len());
        for b in blocks {
            let placement = self.dfs.locate(b)?;
            let node = placement
                .replicas
                .iter()
                .filter(|n| !self.dfs.is_dead(**n))
                .min_by_key(|n| load[**n as usize])
                .copied()
                .ok_or_else(|| {
                    adaptdb_common::Error::Dfs(format!(
                        "block {}:{} unavailable: all replicas on failed nodes",
                        b.table, b.block
                    ))
                })?;
            load[node as usize] += 1;
            out.push(TaskAssignment { block: b.clone(), node, kind: ReadKind::Local });
        }
        Ok(out)
    }

    /// Place `n` reduce tasks across the live nodes, round-robin — the
    /// shuffle service asks this for its reducer homes. Errors when the
    /// whole cluster is down.
    pub fn place_reducers(&self, n: usize) -> Result<Vec<NodeId>> {
        let alive = self.dfs.alive_nodes();
        if alive.is_empty() {
            return Err(adaptdb_common::Error::Dfs("no live node to place reducers on".into()));
        }
        Ok((0..n).map(|i| alive[i % alive.len()]).collect())
    }

    /// [`TaskScheduler::assign_local`] folded into per-node map-task
    /// lists for one table (input order preserved within each node) —
    /// the shape both the shuffle service's map phase and the
    /// repartitioners consume.
    pub fn map_tasks_by_node(
        &self,
        table: &str,
        blocks: &[adaptdb_common::BlockId],
    ) -> Result<std::collections::BTreeMap<NodeId, Vec<adaptdb_common::BlockId>>> {
        let gids: Vec<GlobalBlockId> =
            blocks.iter().map(|&b| GlobalBlockId::new(table, b)).collect();
        let mut out: std::collections::BTreeMap<NodeId, Vec<adaptdb_common::BlockId>> =
            std::collections::BTreeMap::new();
        for (a, &b) in self.assign_local(&gids)?.iter().zip(blocks) {
            out.entry(a.node).or_default().push(b);
        }
        Ok(out)
    }

    /// Forced-locality assignment: approximately `locality` (0..=1) of
    /// tasks run on a replica node; the rest are deliberately placed on a
    /// non-replica node. This is the independent variable of Fig. 7.
    pub fn assign_with_locality(
        &self,
        blocks: &[GlobalBlockId],
        locality: f64,
        seed: u64,
    ) -> Result<Vec<TaskAssignment>> {
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
        let mut rng = rng::derived(seed, "locality");
        let mut load = vec![0usize; self.dfs.node_count()];
        let mut out = Vec::with_capacity(blocks.len());
        for b in blocks {
            let placement = self.dfs.locate(b)?;
            let make_local = rng.random_bool(locality);
            let live_replica = if make_local {
                placement
                    .replicas
                    .iter()
                    .filter(|n| !self.dfs.is_dead(**n))
                    .min_by_key(|n| load[**n as usize])
                    .copied()
            } else {
                None
            };
            let node = match live_replica {
                Some(n) => n,
                // Least-loaded live node that does NOT hold a replica,
                // falling back to any live node when replicas cover the
                // whole live cluster (or when a forced-local pick found
                // every replica dead).
                None => {
                    let alive = self.dfs.alive_nodes();
                    alive
                        .iter()
                        .copied()
                        .filter(|n| !placement.replicas.contains(n))
                        .min_by_key(|n| load[*n as usize])
                        .or_else(|| alive.into_iter().min_by_key(|n| load[*n as usize]))
                        .ok_or_else(|| {
                            adaptdb_common::Error::Dfs("no live node to schedule on".into())
                        })?
                }
            };
            load[node as usize] += 1;
            let kind = self.dfs.read_from(b, node)?;
            out.push(TaskAssignment { block: b.clone(), node, kind });
        }
        Ok(out)
    }
}

/// Fraction of assignments whose reads are local.
pub fn locality_fraction(assignments: &[TaskAssignment]) -> f64 {
    if assignments.is_empty() {
        return 1.0;
    }
    let local = assignments.iter().filter(|a| a.kind == ReadKind::Local).count();
    local as f64 / assignments.len() as f64
}

/// Response time of a map-only job: nodes work in parallel, each
/// processing its assigned blocks serially; the job finishes when the
/// slowest node does (this is what Fig. 7 plots).
pub fn job_response_time(assignments: &[TaskAssignment], nodes: usize, params: &CostParams) -> f64 {
    let mut per_node = vec![0.0f64; nodes];
    for a in assignments {
        let cost = match a.kind {
            ReadKind::Local => params.block_read_secs,
            ReadKind::Remote => params.block_read_secs * params.remote_read_penalty,
        } + params.cpu_per_block_secs;
        per_node[a.node as usize] += cost;
    }
    per_node.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_blocks(n_blocks: u32) -> (SimDfs, Vec<GlobalBlockId>) {
        let mut dfs = SimDfs::new(4, 1, 7);
        let blocks: Vec<GlobalBlockId> = (0..n_blocks)
            .map(|b| {
                let id = GlobalBlockId::new("t", b);
                dfs.write_block(id.clone(), 64, None);
                id
            })
            .collect();
        (dfs, blocks)
    }

    #[test]
    fn local_assignment_is_fully_local() {
        let (dfs, blocks) = cluster_with_blocks(40);
        let sched = TaskScheduler::new(&dfs);
        let asg = sched.assign_local(&blocks).unwrap();
        assert_eq!(locality_fraction(&asg), 1.0);
    }

    #[test]
    fn forced_locality_hits_target_roughly() {
        let (dfs, blocks) = cluster_with_blocks(400);
        let sched = TaskScheduler::new(&dfs);
        let asg = sched.assign_with_locality(&blocks, 0.27, 1).unwrap();
        let f = locality_fraction(&asg);
        assert!((f - 0.27).abs() < 0.08, "got locality {f}");
    }

    #[test]
    fn lower_locality_is_slower_but_not_catastrophic() {
        // The shape of Fig. 7: 27% locality should be slower than 100%,
        // but by well under 2x (paper: 18% slower).
        let (dfs, blocks) = cluster_with_blocks(400);
        let sched = TaskScheduler::new(&dfs);
        let params = CostParams::default();
        let t100 = job_response_time(&sched.assign_local(&blocks).unwrap(), 4, &params);
        let t27 =
            job_response_time(&sched.assign_with_locality(&blocks, 0.27, 1).unwrap(), 4, &params);
        assert!(t27 > t100);
        assert!(t27 < t100 * 1.5, "t27={t27} t100={t100}");
    }

    #[test]
    fn response_time_is_max_over_nodes() {
        let a =
            TaskAssignment { block: GlobalBlockId::new("t", 0), node: 0, kind: ReadKind::Local };
        let b =
            TaskAssignment { block: GlobalBlockId::new("t", 1), node: 0, kind: ReadKind::Local };
        let params =
            CostParams { block_read_secs: 1.0, cpu_per_block_secs: 0.0, ..CostParams::default() };
        // Both tasks on node 0 → serial → 2s, even with 4 nodes available.
        assert_eq!(job_response_time(&[a, b], 4, &params), 2.0);
    }

    #[test]
    fn empty_job_is_instant_and_fully_local() {
        assert_eq!(locality_fraction(&[]), 1.0);
        assert_eq!(job_response_time(&[], 4, &CostParams::default()), 0.0);
    }

    #[test]
    fn assign_local_avoids_dead_nodes() {
        // Replication 2: each block survives one node failure. The
        // pre-fix scheduler load-balanced across *all* replicas and
        // happily landed tasks on the dead node with kind=Local.
        let mut dfs = SimDfs::new(4, 2, 7);
        let blocks: Vec<GlobalBlockId> = (0..40)
            .map(|b| {
                let id = GlobalBlockId::new("t", b);
                dfs.write_block(id.clone(), 64, None);
                id
            })
            .collect();
        dfs.fail_node(1);
        let sched = TaskScheduler::new(&dfs);
        let asg = sched.assign_local(&blocks).unwrap();
        assert!(asg.iter().all(|a| a.node != 1), "task scheduled on a failed node");
        // Every block still has a live replica, so everything stays local.
        assert_eq!(locality_fraction(&asg), 1.0);
    }

    #[test]
    fn assign_local_errors_when_all_replicas_die() {
        let mut dfs = SimDfs::new(4, 1, 7);
        let id = GlobalBlockId::new("t", 0);
        let p = dfs.write_block(id.clone(), 64, None);
        let other = GlobalBlockId::new("t", 1);
        // A second block whose replica stays alive.
        let alive_home = (0..4u16).find(|n| *n != p.replicas[0]).unwrap();
        dfs.write_block(other.clone(), 64, Some(alive_home));
        dfs.fail_node(p.replicas[0]);
        let sched = TaskScheduler::new(&dfs);
        // The orphaned block is unreadable anywhere: a clean Dfs error,
        // not a task on the dead node.
        assert!(sched.assign_local(std::slice::from_ref(&id)).is_err());
        // The surviving block schedules normally.
        let asg = sched.assign_local(std::slice::from_ref(&other)).unwrap();
        assert_eq!(asg[0].node, alive_home);
        assert_eq!(asg[0].kind, ReadKind::Local);
    }

    #[test]
    fn forced_locality_respects_failures() {
        let (mut dfs, blocks) = {
            let mut dfs = SimDfs::new(4, 2, 7);
            let blocks: Vec<GlobalBlockId> = (0..100)
                .map(|b| {
                    let id = GlobalBlockId::new("t", b);
                    dfs.write_block(id.clone(), 64, None);
                    id
                })
                .collect();
            (dfs, blocks)
        };
        dfs.fail_node(0);
        let sched = TaskScheduler::new(&dfs);
        let asg = sched.assign_with_locality(&blocks, 0.5, 3).unwrap();
        assert!(asg.iter().all(|a| a.node != 0), "task scheduled on a failed node");
        // Kinds are still consistent with the DFS's own classification.
        for a in &asg {
            assert_eq!(a.kind, dfs.read_from(&a.block, a.node).unwrap());
        }
    }

    #[test]
    fn reducers_are_placed_on_live_nodes_round_robin() {
        let mut dfs = SimDfs::new(4, 1, 7);
        let sched = TaskScheduler::new(&dfs);
        assert_eq!(sched.place_reducers(6).unwrap(), vec![0, 1, 2, 3, 0, 1]);
        dfs.fail_node(1);
        let sched = TaskScheduler::new(&dfs);
        assert_eq!(sched.place_reducers(4).unwrap(), vec![0, 2, 3, 0]);
        dfs.fail_node(0);
        dfs.fail_node(2);
        dfs.fail_node(3);
        let sched = TaskScheduler::new(&dfs);
        assert!(sched.place_reducers(1).is_err());
    }
}
