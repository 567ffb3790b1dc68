//! Side-calls into each layer's public functions, made on the snapshot a
//! query just ran against, so the traced run can time a layer on its
//! own: the admission estimate (`core`), tree lookups (`tree`), join
//! planning (`join`) and block fetch + decode (`storage`, on a
//! throwaway clock so no simulated counter moves).

use adaptdb::cost;
use adaptdb::planner::{block_ranges, classify_candidates};
use adaptdb::readpath::SnapshotSource;
use adaptdb_common::{JoinQuery, Query, Result};
use adaptdb_dfs::SimClock;
use adaptdb_join::planner::{self as join_planner, JoinDecision};

use crate::spans::Spans;

/// Blocks fetched per scanned table to time the storage layer.
const READ_SAMPLE: usize = 4;

pub const ESTIMATE: &str = "core.estimate";
pub const LOOKUP: &str = "tree.lookup";
pub const PLAN: &str = "join.plan";
pub const READ: &str = "storage.read";

/// Milliseconds spent in side-calls, which are not part of the
/// workload's own end-to-end wall.
pub fn side_call_ms(spans: &Spans) -> f64 {
    [ESTIMATE, LOOKUP, PLAN, READ].iter().map(|n| spans.total_ms(n)).sum()
}

/// What the side-calls learned about one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Tree-lookup candidate blocks, summed over the query's tables.
    pub candidates: usize,
    /// The planner's estimated block reads when it picks a hyper-join
    /// for the query's first (or only) two-table join.
    pub hyper_est_reads: Option<usize>,
}

/// Run the side-calls for `query` (operation `op`).
pub fn probe<S: SnapshotSource>(
    src: &S,
    query: &Query,
    op: usize,
    spans: &mut Spans,
) -> Result<Probe> {
    spans.time(ESTIMATE, op, None, || cost::estimate_query(src, query))?;
    let throwaway = SimClock::new();
    let mut out = Probe::default();
    for scan in query.scans() {
        let snap = src.snapshot(&scan.table)?;
        let blocks = spans.time(LOOKUP, op, None, || snap.lookup_blocks(&scan.predicates));
        out.candidates += blocks.len();
        for &id in blocks.iter().take(READ_SAMPLE) {
            let node = src.store().preferred_node(&scan.table, id)?;
            spans.time(READ, op, None, || {
                src.store().read_block_classified(&scan.table, id, node, &throwaway)
            })?;
        }
    }
    let first = match query {
        Query::Scan(_) => None,
        Query::Join(j) => Some(j),
        Query::MultiJoin { first, .. } => Some(first),
    };
    if let Some(j) = first {
        out.hyper_est_reads = spans.time(PLAN, op, None, || plan_join(src, j))?;
    }
    Ok(out)
}

/// The planning half of the read path's two-table join: candidate
/// classification, block ranges, and the hyper-join planner's verdict
/// (its estimated block reads when it picks a hyper-join).
fn plan_join<S: SnapshotSource>(src: &S, j: &JoinQuery) -> Result<Option<usize>> {
    let config = src.config();
    let lt = src.snapshot(&j.left.table)?;
    let rt = src.snapshot(&j.right.table)?;
    let lc = classify_candidates(&lt, &j.left.predicates, j.left_attr);
    let rc = classify_candidates(&rt, &j.right.predicates, j.right_attr);
    let (l, r) = if !lc.matching.is_empty() && !rc.matching.is_empty() {
        (lc.matching, rc.matching)
    } else {
        (lc.all(), rc.all())
    };
    let l_ranges = block_ranges(src.store(), &j.left.table, &l, j.left_attr)?;
    let r_ranges = block_ranges(src.store(), &j.right.table, &r, j.right_attr)?;
    Ok(match join_planner::plan(&l_ranges, &r_ranges, config.buffer_blocks, &config.cost) {
        JoinDecision::Hyper(plan) => Some(plan.est_total_reads()),
        JoinDecision::Shuffle { .. } => None,
    })
}
