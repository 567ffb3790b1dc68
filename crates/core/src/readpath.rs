//! The read-only query path, expressed over layout snapshots.
//!
//! Everything needed to answer a query — scan, shuffle join, hyper-join,
//! multi-way steps — lives here as free functions over a
//! [`SnapshotSource`]: any provider of `Arc<TableSnapshot>` handles plus
//! a store and config. Each query runs the plan
//! `planner::plan_query` decides for it. The serial
//! [`crate::Database`] implements the source over its catalog map; the
//! concurrent server implements it over its published snapshot table,
//! so many reader threads execute this exact code against pinned
//! layouts while maintenance rewrites blocks underneath.

use std::sync::Arc;

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{AttrId, BlockId, Error, PredicateSet, Query, Result, Row};
use adaptdb_dfs::{SimClock, TraceCtx};
use adaptdb_exec::{
    hyper_join, scan_blocks, shuffle_join, shuffle_join_rows, ExecContext, HyperJoinSpec, Joined,
    ShuffleJoinSpec,
};
use adaptdb_storage::BlockStore;

use crate::config::{DbConfig, Mode};
use crate::planner::{plan_query, JoinChoice, JoinPlan, QueryPlan, StepChoice, StepPlan};
use crate::table::TableSnapshot;

/// A provider of everything the read path needs. Implementations must
/// return a *stable* snapshot per table for the duration of one query
/// (the server pins snapshots at admission; the serial engine is its
/// own pin).
pub trait SnapshotSource {
    /// The active configuration.
    fn config(&self) -> &DbConfig;
    /// The block store.
    fn store(&self) -> &BlockStore;
    /// The layout snapshot a query should read for `table`.
    fn snapshot(&self, table: &str) -> Result<Arc<TableSnapshot>>;
}

/// Check that every attribute `query` names lies inside its table's
/// schema: predicate attributes, join attributes, and each multi-join
/// step's attribute into the accumulated output (the concatenated
/// columns of every table joined before it). A bad index is an
/// [`Error::Plan`] here, before observation, cost estimate, or
/// execution see it. Tables the source does not know are left for
/// execution to report as [`Error::UnknownTable`].
pub fn check_attrs<S: SnapshotSource>(src: &S, query: &Query) -> Result<()> {
    let width = |table: &str| src.snapshot(table).ok().map(|s| s.schema.len());
    let check = |what: &str, table: &str, attr: AttrId, width: Option<usize>| match width {
        Some(w) if usize::from(attr) >= w => Err(Error::Plan(format!(
            "{what} attribute {attr} out of range for {table} ({w} columns)"
        ))),
        _ => Ok(()),
    };
    for scan in query.scans() {
        let w = width(&scan.table);
        for p in scan.predicates.predicates() {
            check("predicate", &scan.table, p.attr, w)?;
        }
    }
    let (first, steps) = match query {
        Query::Scan(_) => return Ok(()),
        Query::Join(j) => (j, &[][..]),
        Query::MultiJoin { first, steps } => (first, &steps[..]),
    };
    let (lw, rw) = (width(&first.left.table), width(&first.right.table));
    check("join", &first.left.table, first.left_attr, lw)?;
    check("join", &first.right.table, first.right_attr, rw)?;
    let mut joined = lw.zip(rw).map(|(l, r)| l + r);
    for step in steps {
        let w = width(&step.table.table);
        check("join", &step.table.table, step.table_attr, w)?;
        check("intermediate join", "the joined output", step.intermediate_attr, joined)?;
        joined = joined.zip(w).map(|(j, w)| j + w);
    }
    Ok(())
}

fn exec_ctx<'a, S: SnapshotSource>(
    src: &'a S,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> ExecContext<'a> {
    ExecContext::new(src.store(), clock)
        .with_shuffle(src.config().shuffle_options())
        .with_fetch_window(src.config().fetch_window)
        .with_join_mem_budget(src.config().join_mem_budget_blocks)
        .with_trace(trace)
}

/// Execute one query against the source's snapshots: plan, run, account
/// on `clock`. Returns rows, the chosen strategy, and the planner's
/// `C_HyJ` estimate when a hyper-join was considered.
pub fn execute_query<S: SnapshotSource>(
    src: &S,
    query: &Query,
    clock: &SimClock,
) -> Result<(Vec<Row>, JoinStrategy, Option<f64>)> {
    execute_query_traced(src, query, clock, None)
}

/// [`execute_query`] with an optional tracing handle: operator spans
/// (plan, scan, shuffle map/fetch/probe, hyper-join) nest under the
/// handle's parent span. `None` is exactly `execute_query` — tracing
/// never changes accounting, so the untraced path stays bit-identical.
///
/// A join's result moves from step to step as row ids ([`Joined`]);
/// its rows are built once, at the query's final width, here.
pub fn execute_query_traced<'a, S: SnapshotSource>(
    src: &'a S,
    query: &Query,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<(Vec<Row>, JoinStrategy, Option<f64>)> {
    let plan = plan_query(src, query)?;
    let (strategy, c_hyj) = (plan.strategy(), plan.c_hyj());
    let rows = match plan {
        QueryPlan::Scan { scan, blocks } => {
            execute_scan(src, &scan.table, &blocks, &scan.predicates, clock, trace)?
        }
        QueryPlan::Join { first, steps } => {
            let mut joined = execute_join(src, &first, clock, trace)?;
            for step in steps {
                joined = execute_step(src, step, joined, clock, trace)?;
            }
            joined.into_rows()?
        }
    };
    Ok((rows, strategy, c_hyj))
}

/// Execute one multi-way join step (§4.3): through a hyper-join
/// schedule over the stored side, shuffling only the intermediate
/// ("AdaptDB only needs to shuffle tempLO based on custkey, and can then
/// use hyper-join"), or by scanning the table and shuffling both sides;
/// the shuffle's map side spills rows, so the intermediate is built
/// into rows first.
fn execute_step<'a, S: SnapshotSource>(
    src: &'a S,
    plan: StepPlan<'_>,
    intermediate: Joined,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Joined> {
    let config = src.config();
    let step = plan.step;
    let (table, preds) = (&step.table.table, &step.table.predicates);
    match plan.choice {
        StepChoice::Hyper(groups) => {
            let (child, span) = match trace {
                Some(t) => {
                    let (c, g) = t.span("hyper-step", clock);
                    (Some(c), Some(g))
                }
                None => (None, None),
            };
            let before = span.as_ref().map(|_| clock.snapshot());
            let rows = adaptdb_exec::hyper_step_join(
                exec_ctx(src, clock, child),
                table,
                groups,
                step.table_attr,
                preds,
                intermediate,
                step.intermediate_attr,
                config.rows_per_block,
            )?;
            if let (Some(g), Some(b)) = (&span, before) {
                let a = clock.snapshot();
                g.attr_s("table", table);
                g.attr_i("blocks_read", (a.reads() - b.reads()) as i64);
            }
            Ok(rows)
        }
        StepChoice::Shuffle(blocks) => {
            let side = execute_scan(src, table, &blocks, preds, clock, trace)?;
            shuffle_join_rows(
                exec_ctx(src, clock, trace),
                intermediate.into_rows()?,
                side,
                step.intermediate_attr,
                step.table_attr,
                config.rows_per_block,
            )
        }
    }
}

fn execute_scan<'a, S: SnapshotSource>(
    src: &'a S,
    table: &str,
    blocks: &[BlockId],
    preds: &PredicateSet,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    if src.config().mode == Mode::FullScan {
        // Baseline: no metadata skipping either; filter after reading.
        let rows = scan_blocks(exec_ctx(src, clock, trace), table, blocks, &PredicateSet::none())?;
        return Ok(rows.into_iter().filter(|r| preds.matches(r)).collect());
    }
    scan_blocks(exec_ctx(src, clock, trace), table, blocks, preds)
}

fn execute_join<'a, S: SnapshotSource>(
    src: &'a S,
    plan: &JoinPlan<'_>,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Joined> {
    // The plan was made from in-memory metadata, so this span is
    // zero-duration on the simulated timeline; its attributes carry
    // the candidate sets and the cost-based decision.
    if let Some(g) = trace.map(|t| t.span("plan", clock).1) {
        g.attr_i("left_candidates", plan.left.len() as i64);
        g.attr_i("right_candidates", plan.right.len() as i64);
        match &plan.choice {
            JoinChoice::Hyper { plan: hyper, .. } => {
                g.attr_s("decision", "hyper");
                g.attr_f("est_c_hyj", hyper.c_hyj);
            }
            JoinChoice::Shuffle { costs } => {
                g.attr_s("decision", "shuffle");
                if let Some((est_cost, hyper_cost)) = costs {
                    g.attr_f("est_shuffle_cost", *est_cost);
                    g.attr_f("est_hyper_cost", *hyper_cost);
                }
            }
        }
    }
    let j = plan.query;
    let mut joined = match &plan.choice {
        JoinChoice::Shuffle { .. } => Joined::default(),
        JoinChoice::Hyper { plan: hyper, .. } => {
            let hspan = trace.map(|t| {
                let (c, g) = t.span("hyper-join", clock);
                (c, g, clock.snapshot())
            });
            let rows = hyper_join(
                exec_ctx(src, clock, hspan.as_ref().map(|(c, _, _)| *c)),
                HyperJoinSpec {
                    left_table: &j.left.table,
                    right_table: &j.right.table,
                    left_attr: j.left_attr,
                    right_attr: j.right_attr,
                    left_preds: &j.left.predicates,
                    right_preds: &j.right.predicates,
                    plan: hyper,
                },
            )?;
            if let Some((_, g, before)) = &hspan {
                let after = clock.snapshot();
                g.attr_i("blocks_read", (after.reads() - before.reads()) as i64);
                g.attr_f("est_c_hyj", hyper.c_hyj);
            }
            rows
        }
    };
    for (l, r) in plan.shuffle_legs() {
        let part = shuffle_join(
            exec_ctx(src, clock, trace),
            ShuffleJoinSpec {
                left_table: &j.left.table,
                left_blocks: &plan.left.part(l),
                right_table: &j.right.table,
                right_blocks: &plan.right.part(r),
                left_attr: j.left_attr,
                right_attr: j.right_attr,
                left_preds: &j.left.predicates,
                right_preds: &j.right.predicates,
                // Fan-out comes from the context's ShuffleOptions, which
                // exec_ctx fills from config.shuffle_fanout().
                rows_per_block: src.config().rows_per_block,
            },
        )?;
        joined.extend(part);
    }
    Ok(joined)
}

/// Convenience: resolve a snapshot or fail with [`Error::UnknownTable`].
pub fn require_snapshot(
    map: &std::collections::BTreeMap<String, Arc<TableSnapshot>>,
    table: &str,
) -> Result<Arc<TableSnapshot>> {
    map.get(table).cloned().ok_or_else(|| Error::UnknownTable(table.to_string()))
}
