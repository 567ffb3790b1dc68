//! Cheap per-query cost estimation — the admission-control signal.
//!
//! The planner (`planner::plan_query`, rendered by `EXPLAIN`)
//! decides everything about a plan, including the hyper-join schedule,
//! which requires reading per-block metadata ranges. Admission control
//! needs something cheaper: a projection good enough to tell a point
//! query from a scan storm *before* the query waits in a queue,
//! computed from partition-tree lookups alone (no plan construction, no
//! block metadata, no data reads).
//!
//! [`estimate_query`] counts each referenced table's candidate blocks
//! with the planner's own `planner::table_candidates` rule, so
//! its count equals the candidates `EXPLAIN` reports, then prices the
//! worst-case execution (every join charged as a shuffle — the
//! conservative upper bound mid-migration). The server classifies the
//! result into a scheduling [`Lane`] with [`CostEstimate::lane`]:
//! queries projected to touch at least
//! [`crate::DbConfig::batch_cost_blocks`] blocks go to the batch lane,
//! everything else stays interactive. `EXPLAIN` surfaces the same
//! classification so operators can see where a query would be admitted.

use adaptdb_common::{AttrId, CostParams, Query, Result, ScanQuery};

use crate::config::DbConfig;
use crate::planner::table_candidates;
use crate::readpath::SnapshotSource;

/// Scheduling lane a query is admitted into — the priority classes of
/// the server's cost-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Cheap, latency-sensitive work (point lookups, selective scans).
    /// Highest priority under lane-aware policies.
    Interactive,
    /// Expensive foreground work (large scans, full-table joins) —
    /// classified automatically when the projected candidate blocks
    /// reach [`DbConfig::batch_cost_blocks`].
    Batch,
    /// Background work explicitly tagged by the submitter (never
    /// auto-classified). Lowest priority: under the lane policies it
    /// runs when the other lanes are empty, or when the maintenance
    /// starvation cap forces a turn.
    Maintenance,
}

/// Number of lanes (array-indexing helper for per-lane gauges).
pub const LANE_COUNT: usize = 3;

/// All lanes in priority order (highest first).
pub const LANES: [Lane; LANE_COUNT] = [Lane::Interactive, Lane::Batch, Lane::Maintenance];

impl Lane {
    /// Stable array index (priority order, 0 = interactive).
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
            Lane::Maintenance => 2,
        }
    }

    /// Lower-case display name (`"interactive"`, `"batch"`,
    /// `"maintenance"`).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
            Lane::Maintenance => "maintenance",
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cheap projection of what one query would cost, computed from
/// partition-tree lookups only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// Projected candidate blocks read across all referenced tables,
    /// after tree pruning — the lane-classification signal and the
    /// fair-share scheduling weight.
    pub blocks: usize,
    /// Run blocks the map side would spill if every join shuffles (the
    /// conservative mid-migration upper bound; a converged hyper-join
    /// spills nothing).
    pub est_spill_blocks: usize,
    /// Projected fetch-leg seconds charged serially.
    pub est_fetch_secs_serial: f64,
}

impl CostEstimate {
    /// Projected serial seconds for the whole query: candidate reads
    /// plus the shuffle spill/fetch legs, under the cost model. A
    /// convenience projection for experiments and operators — the
    /// server's scheduler itself reasons in projected *blocks*
    /// ([`CostEstimate::blocks`] classifies the lane and weights the
    /// fair share), and its wait estimates use observed service times,
    /// not this projection.
    pub fn est_secs(&self, params: &CostParams) -> f64 {
        params.secs_for(self.blocks, 0, self.est_spill_blocks) + self.est_fetch_secs_serial
    }

    /// The scheduling lane cost classification assigns: batch when the
    /// projected blocks reach `config.batch_cost_blocks`, interactive
    /// otherwise. (The maintenance lane is explicit-only; cost
    /// classification never routes a query there.)
    pub fn lane(&self, config: &DbConfig) -> Lane {
        if self.blocks >= config.batch_cost_blocks.max(1) {
            Lane::Batch
        } else {
            Lane::Interactive
        }
    }
}

/// Expected fraction of shuffle-run fetches that land reducer-local
/// under the configured spill replication
/// (`min(1, replication / nodes)`).
pub fn shuffle_locality(config: &DbConfig) -> f64 {
    (config.shuffle_replication.max(1) as f64 / config.nodes.max(1) as f64).min(1.0)
}

/// Project the shuffle fetch leg under the configured pipelining:
/// `(per-reducer fetch concurrency, serial seconds, pipelined
/// seconds)`. Serial charges every fetch in full; pipelined charges
/// each window of `concurrency` fetches its max member (remote-priced
/// whenever any remote fetch is expected, i.e. locality < 1).
pub fn project_fetch_costs(
    spill_blocks: usize,
    locality: f64,
    fanout: usize,
    fetch_window: usize,
    params: &CostParams,
) -> (usize, f64, f64) {
    if spill_blocks == 0 {
        return (1, 0.0, 0.0);
    }
    let per_reducer = spill_blocks.div_ceil(fanout.max(1)).max(1);
    let concurrency = fetch_window.max(1).min(per_reducer);
    let parallelism = params.parallelism.max(1) as f64;
    let local = locality * spill_blocks as f64;
    let remote = spill_blocks as f64 - local;
    let serial = (local * params.block_read_secs
        + remote * params.block_read_secs * params.remote_read_penalty)
        / parallelism;
    // Each reducer drains its own stream, so windows don't pack across
    // reducers: every active reducer (at most one per run when runs are
    // scarce) issues ceil(per_reducer / concurrency) windows of its own.
    let active_reducers = fanout.max(1).min(spill_blocks) as f64;
    let windows = active_reducers * (per_reducer as f64 / concurrency as f64).ceil();
    let max_cost = if locality < 1.0 {
        params.block_read_secs * params.remote_read_penalty
    } else {
        params.block_read_secs
    };
    let pipelined = (windows * max_cost / parallelism).min(serial);
    (concurrency, serial, pipelined)
}

/// Estimate `query` from layout snapshots alone: candidate blocks per
/// referenced table, by the planner's own `table_candidates` rule, and
/// the projected shuffle fetch leg. No plan is built and no blocks (or
/// block metadata) are read, so this is cheap enough to run on the
/// admission path for every submission.
pub fn estimate_query<S: SnapshotSource>(src: &S, query: &Query) -> Result<CostEstimate> {
    let config = src.config();
    let count = |scan: &ScanQuery, join_attr: Option<AttrId>| -> Result<usize> {
        let snap = src.snapshot(&scan.table)?;
        Ok(table_candidates(config.mode, &snap, &scan.predicates, join_attr).len())
    };
    let (blocks, joined) = match query {
        Query::Scan(s) => (count(s, None)?, false),
        Query::Join(j) => {
            (count(&j.left, Some(j.left_attr))? + count(&j.right, Some(j.right_attr))?, true)
        }
        Query::MultiJoin { first, steps } => {
            let mut blocks = count(&first.left, Some(first.left_attr))?
                + count(&first.right, Some(first.right_attr))?;
            for step in steps {
                blocks += count(&step.table, Some(step.table_attr))?;
            }
            (blocks, true)
        }
    };
    // Worst case mid-migration: every joined candidate is shuffled.
    let est_spill_blocks = if joined { blocks } else { 0 };
    let (_, est_fetch_secs_serial, _) = project_fetch_costs(
        est_spill_blocks,
        shuffle_locality(config),
        config.shuffle_fanout(),
        config.fetch_window,
        &config.cost,
    );
    Ok(CostEstimate { blocks, est_spill_blocks, est_fetch_secs_serial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig};
    use adaptdb_common::{row, CmpOp, JoinQuery, Predicate, PredicateSet, ScanQuery, Schema};
    use adaptdb_common::{Query, ValueType};

    fn db() -> Database {
        let mut db = Database::new(DbConfig {
            rows_per_block: 10,
            batch_cost_blocks: 16,
            fetch_window: 4,
            ..DbConfig::small()
        });
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
        db.create_table("r", schema, vec![0, 1]).unwrap();
        db.load_rows("l", (0..400i64).map(|i| row![i % 200, i])).unwrap();
        db.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
        db
    }

    #[test]
    fn point_scan_is_interactive_full_join_is_batch() {
        let d = db();
        let point = Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 10i64)),
        ));
        let est = estimate_query(&d, &point).unwrap();
        assert!(est.blocks < d.config().batch_cost_blocks, "point scan: {} blocks", est.blocks);
        assert_eq!(est.lane(d.config()), Lane::Interactive);
        assert_eq!(est.est_spill_blocks, 0, "scans never shuffle");

        let join = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
        let est = estimate_query(&d, &join).unwrap();
        assert!(est.blocks >= d.config().batch_cost_blocks, "full join: {} blocks", est.blocks);
        assert_eq!(est.lane(d.config()), Lane::Batch);
        assert_eq!(est.est_spill_blocks, est.blocks);
        assert!(est.est_fetch_secs_serial > 0.0);
        assert!(est.est_secs(&d.config().cost) > 0.0);
    }

    #[test]
    fn estimate_reads_no_blocks() {
        let d = db();
        let join = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
        let before = d.store().unaccounted_reads();
        estimate_query(&d, &join).unwrap();
        assert_eq!(d.store().unaccounted_reads(), before, "estimation must not touch data");
    }

    #[test]
    fn estimate_matches_explain_candidates() {
        let d = db();
        let join = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
        let est = estimate_query(&d, &join).unwrap();
        let report = d.explain(&join).unwrap();
        let explained: usize = report.candidates.iter().map(|(_, m, o)| m + o).sum();
        assert_eq!(est.blocks, explained, "cheap estimate agrees with EXPLAIN's candidates");
        assert_eq!(report.est_cost_blocks, est.blocks);
        assert_eq!(report.est_lane, Lane::Batch);
    }

    #[test]
    fn unknown_table_errors() {
        let d = db();
        assert!(estimate_query(&d, &Query::Scan(ScanQuery::full("nope"))).is_err());
    }

    #[test]
    fn lane_names_and_order() {
        assert_eq!(Lane::Interactive.to_string(), "interactive");
        assert_eq!(LANES.map(Lane::index), [0, 1, 2]);
        assert!(Lane::Interactive < Lane::Batch && Lane::Batch < Lane::Maintenance);
    }
}
