//! `EXPLAIN` for the AdaptDB planner: report the plan a query would get
//! — strategy, candidate block counts, cost estimates — without reading
//! any data. Experiments and operators use this to see *why* the
//! planner picks hyper-join or shuffle (the §5.4 decision) at the
//! current state of migration.

use std::sync::Arc;

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{Query, QueryStats, Result, Trace};
use adaptdb_join::JoinSide;

use crate::cost::{self, Lane};
use crate::database::Database;
use crate::planner::{plan_query, JoinChoice, JoinPlan, QueryPlan};
use crate::Mode;

/// What the planner would do for one query, and why.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The strategy the executor would run.
    pub strategy: JoinStrategy,
    /// Candidate blocks per referenced table, after `lookup(T, q)`
    /// pruning: `(table, matching-tree blocks, other-tree blocks)`.
    pub candidates: Vec<(String, usize, usize)>,
    /// Candidate blocks the per-block zone maps (min/max column
    /// metadata) would additionally exclude before any read — the
    /// pruning stage *after* tree pruning. Projected with the exact
    /// check the scan runs, so for scan queries it equals the measured
    /// `IoStats::zone_skipped`. Join legs read exactly their scheduled
    /// blocks (no zone-map stage), so joins project 0.
    pub est_zone_skipped: usize,
    /// Eq. 1 estimate for shuffling the candidates.
    pub est_shuffle_cost: f64,
    /// Shuffle-service estimate: run blocks the map side would spill
    /// (≈ candidate blocks, rows are conserved) — also the fetch count.
    pub est_shuffle_spill_blocks: usize,
    /// Expected fraction of run fetches that land reducer-local under
    /// the configured spill replication (`min(1, replication / nodes)`).
    pub est_shuffle_locality: f64,
    /// Projected fetch concurrency per reducer: the configured
    /// `fetch_window` clamped to the runs a reducer actually has to
    /// fetch (`1` = serial fetching, no pipelining).
    pub est_fetch_concurrency: usize,
    /// Projected simulated seconds of the shuffle *fetch leg* charged
    /// serially (every run fetch paid in full).
    pub est_fetch_secs_serial: f64,
    /// Projected fetch-leg seconds with pipelining: windows of
    /// `est_fetch_concurrency` fetches charged max-of-window. Equals
    /// the serial figure when concurrency is 1 or nothing is shuffled.
    pub est_fetch_secs_pipelined: f64,
    /// Estimated total block reads of the hyper-join schedule, if one
    /// was considered.
    pub est_hyper_reads: Option<usize>,
    /// Estimated `C_HyJ` of the schedule.
    pub est_c_hyj: Option<f64>,
    /// Which side the hash tables would be built over.
    pub build_side: Option<JoinSide>,
    /// Number of build groups in the schedule.
    pub groups: Option<usize>,
    /// Per-reducer build-side memory budget (blocks) the join would run
    /// under ([`crate::DbConfig::join_mem_budget_blocks`]). `None` =
    /// unbounded builds, the pre-budget behavior.
    pub join_mem_budget_blocks: Option<usize>,
    /// Candidate blocks the admission cost model projects
    /// ([`cost::estimate_query`]) — the scheduler's classification and
    /// fair-share weighting signal.
    pub est_cost_blocks: usize,
    /// The scheduling lane cost classification would admit this query
    /// into under the current `batch_cost_blocks` threshold.
    pub est_lane: Lane,
    /// Unfolded ingest delta blocks across the referenced tables —
    /// appended data the query must read outside any partitioning tree
    /// (they classify as `other` blocks). Maintenance folds them into
    /// the tree once a table accumulates
    /// [`crate::DbConfig::ingest_fold_blocks`] of them.
    pub delta_blocks: usize,
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "strategy: {}", self.strategy)?;
        for (t, m, o) in &self.candidates {
            writeln!(f, "  {t}: {m} matching-tree blocks, {o} other blocks")?;
        }
        if self.est_zone_skipped > 0 {
            writeln!(
                f,
                "  zone maps: {} candidate blocks skipped before any read",
                self.est_zone_skipped
            )?;
        }
        writeln!(f, "  shuffle estimate (Eq.1): {:.1} block-I/Os", self.est_shuffle_cost)?;
        if self.est_shuffle_spill_blocks > 0 {
            writeln!(
                f,
                "  shuffle service: ~{} spill blocks, ~{:.0}% local fetches",
                self.est_shuffle_spill_blocks,
                self.est_shuffle_locality * 100.0
            )?;
            if self.est_fetch_concurrency > 1 {
                writeln!(
                    f,
                    "  fetch leg: serial {:.2} s, pipelined {:.2} s ({}-deep prefetch)",
                    self.est_fetch_secs_serial,
                    self.est_fetch_secs_pipelined,
                    self.est_fetch_concurrency
                )?;
            } else {
                writeln!(
                    f,
                    "  fetch leg: serial {:.2} s (no pipelining)",
                    self.est_fetch_secs_serial
                )?;
            }
        }
        if let (Some(reads), Some(c)) = (self.est_hyper_reads, self.est_c_hyj) {
            writeln!(f, "  hyper estimate (Eq.2): {reads} block reads, C_HyJ = {c:.2}")?;
        }
        if let (Some(side), Some(groups)) = (self.build_side, self.groups) {
            writeln!(f, "  build side: {side:?}, {groups} groups")?;
        }
        if let Some(budget) = self.join_mem_budget_blocks {
            writeln!(f, "  join memory budget: {budget} blocks per reducer build")?;
        }
        writeln!(
            f,
            "  scheduler: ~{} candidate blocks, {} lane",
            self.est_cost_blocks, self.est_lane
        )?;
        if self.delta_blocks > 0 {
            writeln!(
                f,
                "  ingest: {} unfolded delta blocks awaiting maintenance fold",
                self.delta_blocks
            )?;
        }
        Ok(())
    }
}

/// `EXPLAIN ANALYZE`: the pre-execution projection side by side with
/// what actually happened — measured statistics and the executed span
/// tree. Produced by [`Database::explain_analyze`], which forces
/// tracing on for the one run.
#[derive(Debug, Clone)]
pub struct ExplainAnalyzeReport {
    /// The plan projection, taken *before* the query ran (and before
    /// any piggybacked adaptation it triggered).
    pub explain: ExplainReport,
    /// Everything measured while answering.
    pub stats: QueryStats,
    /// The executed span tree on the simulated-microsecond timeline.
    pub trace: Arc<Trace>,
    /// Output row count (the rows themselves are discarded, as in SQL
    /// `EXPLAIN ANALYZE`).
    pub rows: usize,
}

impl std::fmt::Display for ExplainAnalyzeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.explain)?;
        writeln!(f, "analyze:")?;
        if self.stats.strategy != self.explain.strategy {
            writeln!(
                f,
                "  strategy drift: planned {}, ran {} (adaptation moved blocks first)",
                self.explain.strategy, self.stats.strategy
            )?;
        }
        writeln!(
            f,
            "  blocks read: {} actual vs ~{} estimated (+{} repartition writes)",
            self.stats.query_io.reads(),
            self.explain.est_cost_blocks,
            self.stats.repartition_io.writes
        )?;
        let sh = &self.stats.shuffle;
        if sh.fetches() > 0 {
            let realized = sh.local_fetches as f64 / sh.fetches() as f64;
            writeln!(
                f,
                "  shuffle locality: {:.0}% realized vs ~{:.0}% projected",
                realized * 100.0,
                self.explain.est_shuffle_locality * 100.0
            )?;
        }
        if self.stats.query_io.zone_skipped > 0 || self.explain.est_zone_skipped > 0 {
            writeln!(
                f,
                "  zone maps: {} blocks skipped vs ~{} projected",
                self.stats.query_io.zone_skipped, self.explain.est_zone_skipped
            )?;
        }
        if self.stats.overlap.hidden() > 0 {
            writeln!(
                f,
                "  fetch overlap: {} of {} fetch latencies hidden by pipelining",
                self.stats.overlap.hidden(),
                self.stats.overlap.fetches
            )?;
        }
        writeln!(f, "  rows out: {}", self.rows)?;
        writeln!(f, "span tree:")?;
        for line in self.trace.render_tree().lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

impl Database {
    /// Explain the plan for `query` without executing it (and without
    /// triggering any adaptation — the query is *not* added to windows).
    /// The report renders the plan `planner::plan_query` decides, which is the
    /// plan [`Database::run`] would execute on the current layout.
    pub fn explain(&self, query: &Query) -> Result<ExplainReport> {
        let config = self.config();
        let est = cost::estimate_query(self, query)?;
        let plan = plan_query(self, query)?;
        let candidates = plan.candidates();
        let est_zone_skipped = match &plan {
            // The baseline passes no predicates to the scan, so zone
            // maps never exclude anything.
            QueryPlan::Scan { .. } if config.mode == Mode::FullScan => 0,
            // Project zone-map skipping with the scan's exact runtime
            // check over the same block metadata.
            QueryPlan::Scan { scan, blocks } => {
                let mut skipped = 0usize;
                for &b in blocks {
                    let may_match = self.store().with_block_meta(&scan.table, b, |m| {
                        scan.predicates.may_match(&m.ranges)
                    })?;
                    skipped += usize::from(!may_match);
                }
                skipped
            }
            QueryPlan::Join { .. } => 0,
        };
        let first = plan.first();
        let hyper = first.and_then(JoinPlan::hyper);
        let est_hyper_reads = match first.map(|f| &f.choice) {
            Some(JoinChoice::Hyper { plan, .. }) => Some(plan.est_total_reads()),
            Some(JoinChoice::Shuffle { costs: Some((_, cost)) }) if cost.is_finite() => {
                Some(*cost as usize)
            }
            _ => None,
        };
        // Shuffle-service projection over the plan's own shuffle legs:
        // rows are conserved through the map phase, so spill ≈ the
        // stored blocks shuffled; a fetch is local when one of the run's
        // replicas is the reducer's node.
        let est_shuffle_spill_blocks: usize = plan.shuffle_legs().iter().map(|(l, r)| l + r).sum();
        let est_shuffle_locality = cost::shuffle_locality(config);
        let (est_fetch_concurrency, est_fetch_secs_serial, est_fetch_secs_pipelined) =
            cost::project_fetch_costs(
                est_shuffle_spill_blocks,
                est_shuffle_locality,
                config.shuffle_fanout(),
                config.fetch_window,
                &config.cost,
            );
        let delta_blocks = candidates
            .iter()
            .map(|(t, _, _)| self.table(t).map(|ts| ts.delta().len()).unwrap_or(0))
            .sum();
        Ok(ExplainReport {
            strategy: plan.strategy(),
            est_zone_skipped,
            est_shuffle_cost: first
                .map_or(0.0, |f| config.cost.shuffle_join_cost(f.left.len(), f.right.len())),
            est_shuffle_spill_blocks,
            est_shuffle_locality,
            est_fetch_concurrency,
            est_fetch_secs_serial,
            est_fetch_secs_pipelined,
            est_hyper_reads,
            est_c_hyj: hyper.map(|p| p.c_hyj),
            build_side: hyper.map(|p| p.build_side),
            groups: hyper.map(|p| p.groups.len()),
            join_mem_budget_blocks: first.and(config.join_mem_budget_blocks),
            est_cost_blocks: est.blocks,
            est_lane: est.lane(config),
            delta_blocks,
            candidates,
        })
    }

    /// `EXPLAIN ANALYZE`: take the plan projection, then execute the
    /// query with tracing forced on and return both. The run is a real
    /// [`Database::run`] — windows are updated and adaptation happens
    /// exactly as it would for a normal query; only the output rows are
    /// discarded. The previous tracing setting is restored afterwards.
    pub fn explain_analyze(&mut self, query: &Query) -> Result<ExplainAnalyzeReport> {
        let explain = self.explain(query)?;
        let was_tracing = self.config().trace;
        self.set_trace(true);
        let result = self.run(query);
        self.set_trace(was_tracing);
        let result = result?;
        let trace = result.trace.expect("tracing was forced on");
        Ok(ExplainAnalyzeReport { explain, stats: result.stats, trace, rows: result.rows.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbConfig, Mode};
    use adaptdb_common::{row, JoinQuery, PredicateSet, Row, ScanQuery, Schema, ValueType};

    fn db(mode: Mode) -> Database {
        // fetch_window pinned explicitly: the pipelined-projection
        // tests need a window above 1.
        let mut db = Database::new(
            DbConfig { rows_per_block: 10, buffer_blocks: 4, fetch_window: 4, ..DbConfig::small() }
                .with_mode(mode),
        );
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        db.create_table("l", schema.clone(), vec![1]).unwrap();
        db.create_table("r", schema, vec![1]).unwrap();
        db.load_two_phase("l", (0..200i64).map(|i| row![i % 100, i]).collect(), 0, None).unwrap();
        db.load_two_phase("r", (0..100i64).map(|i| row![i, i]).collect(), 0, None).unwrap();
        db
    }

    fn join() -> Query {
        Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
    }

    #[test]
    fn explain_matches_execution_strategy() {
        let mut d = db(Mode::Fixed);
        let report = d.explain(&join()).unwrap();
        assert_eq!(report.strategy, JoinStrategy::HyperJoin);
        assert!(report.est_hyper_reads.unwrap() > 0);
        assert!(report.est_c_hyj.unwrap() >= 1.0);
        assert!((report.est_hyper_reads.unwrap() as f64) < report.est_shuffle_cost);
        let res = d.run(&join()).unwrap();
        assert_eq!(res.stats.strategy, report.strategy);
    }

    #[test]
    fn explain_does_not_execute_or_adapt() {
        let d = db(Mode::Fixed);
        let before_blocks = d.store().block_count("l");
        let report = d.explain(&join()).unwrap();
        assert_eq!(d.store().block_count("l"), before_blocks);
        // Windows untouched: explain is read-only.
        assert!(d.table("l").unwrap().window.is_empty());
        assert!(report.groups.unwrap() >= 1);
    }

    #[test]
    fn shuffle_mode_explains_shuffle() {
        let d = db(Mode::Amoeba);
        let report = d.explain(&join()).unwrap();
        assert_eq!(report.strategy, JoinStrategy::ShuffleJoin);
        assert!(report.build_side.is_none());
        assert!(report.est_shuffle_cost > 0.0);
        // Shuffle-service projection: spill ≈ candidate blocks, and with
        // unreplicated runs on a 4-node cluster ~1/4 of fetches are local.
        let (_, m0, o0) = report.candidates[0].clone();
        let (_, m1, o1) = report.candidates[1].clone();
        assert_eq!(report.est_shuffle_spill_blocks, m0 + o0 + m1 + o1);
        assert!((report.est_shuffle_locality - 0.25).abs() < 1e-9);
        assert!(report.to_string().contains("shuffle service"));
    }

    #[test]
    fn hyper_explain_projects_no_shuffle_spill() {
        let d = db(Mode::Fixed);
        let report = d.explain(&join()).unwrap();
        assert_eq!(report.strategy, JoinStrategy::HyperJoin);
        assert_eq!(report.est_shuffle_spill_blocks, 0);
        assert_eq!(report.est_fetch_secs_serial, 0.0, "nothing shuffled, nothing fetched");
    }

    #[test]
    fn explain_distinguishes_pipelined_from_serial_fetch_cost() {
        let d = db(Mode::Amoeba); // every join shuffles, window pinned to 4
        let report = d.explain(&join()).unwrap();
        assert!(report.est_fetch_concurrency > 1);
        assert!(report.est_fetch_concurrency <= d.config().fetch_window);
        assert!(report.est_fetch_secs_serial > 0.0);
        assert!(
            report.est_fetch_secs_pipelined < report.est_fetch_secs_serial,
            "window {} must project overlap savings: {} vs {}",
            report.est_fetch_concurrency,
            report.est_fetch_secs_pipelined,
            report.est_fetch_secs_serial
        );
        assert!(report.to_string().contains("pipelined"));
        // A serial-I/O config projects no savings and says so.
        let serial = {
            let config = DbConfig { fetch_window: 1, ..d.config().clone() };
            let mut db = Database::new(config);
            let schema =
                adaptdb_common::Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
            db.create_table("l", schema.clone(), vec![1]).unwrap();
            db.create_table("r", schema, vec![1]).unwrap();
            db.load_two_phase("l", (0..200i64).map(|i| row![i % 100, i]).collect(), 0, None)
                .unwrap();
            db.load_two_phase("r", (0..100i64).map(|i| row![i, i]).collect(), 0, None).unwrap();
            db
        };
        let report = serial.explain(&join()).unwrap();
        assert_eq!(report.est_fetch_concurrency, 1);
        assert_eq!(report.est_fetch_secs_pipelined, report.est_fetch_secs_serial);
        assert!(report.to_string().contains("no pipelining"));
    }

    #[test]
    fn explain_fetch_projection_matches_runtime_stats() {
        // The projection and the executed stats must agree in kind:
        // pipelined strictly cheaper than serial, both ways of looking.
        let mut d = db(Mode::Amoeba);
        let report = d.explain(&join()).unwrap();
        let res = d.run(&join()).unwrap();
        let params = d.config().cost.clone();
        assert!(res.stats.shuffle.fetches() > 0);
        assert!(res.stats.overlap.hidden() > 0, "runtime overlapped fetches");
        let serial_secs = res.stats.simulated_secs(&params);
        let pipelined_secs = res.stats.pipelined_simulated_secs(&params);
        assert!(pipelined_secs < serial_secs);
        // Projection saw the same phenomenon before execution.
        assert!(report.est_fetch_secs_pipelined < report.est_fetch_secs_serial);
        // Spill projection tracks actual spilled blocks (rows are
        // conserved; coalescing can pack runs a little tighter).
        assert!(report.est_shuffle_spill_blocks >= res.stats.shuffle.blocks_spilled);
    }

    #[test]
    fn scan_explain_counts_pruned_blocks() {
        use adaptdb_common::{CmpOp, Predicate};
        let d = db(Mode::Fixed);
        let q = Query::Scan(ScanQuery::new(
            "l",
            PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 10i64)),
        ));
        let report = d.explain(&q).unwrap();
        assert_eq!(report.strategy, JoinStrategy::ScanOnly);
        let (_, _, pruned) = report.candidates[0];
        let full = d.table("l").unwrap().total_blocks();
        assert!(pruned < full, "{pruned} vs {full}");
    }

    /// The zone-map projection uses the scan's exact runtime check, so
    /// `EXPLAIN ANALYZE` must show estimate == measured, and the scan
    /// must return exactly the naive filter of the loaded rows.
    #[test]
    fn zone_skip_projection_matches_runtime() {
        use adaptdb_common::{CmpOp, Predicate};
        let mut d = Database::new(
            DbConfig { rows_per_block: 10, fetch_window: 4, ..DbConfig::small() }
                .with_mode(Mode::Fixed),
        );
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        // The tree only knows attribute 0 (`k`); `x` is invisible to
        // tree pruning but clustered enough for zone maps.
        d.create_table("l", schema, vec![0]).unwrap();
        let loaded: Vec<Row> = (0..200i64).map(|i| row![i % 100, i]).collect();
        d.load_two_phase("l", loaded.clone(), 0, None).unwrap();
        // A predicate on the non-partitioned attribute (`x`): the tree
        // cannot prune on it, the zone maps can.
        let preds = PredicateSet::none().and(Predicate::new(1, CmpOp::Lt, 20i64));
        let q = Query::Scan(ScanQuery::new("l", preds.clone()));
        let report = d.explain_analyze(&q).unwrap();
        assert!(report.explain.est_zone_skipped > 0, "zone maps must project skips");
        assert_eq!(report.stats.query_io.zone_skipped, report.explain.est_zone_skipped);
        assert!(report.to_string().contains("zone maps"));
        let mut got = d.run(&q).unwrap().rows;
        let mut expect: Vec<Row> = loaded.into_iter().filter(|r| preds.matches(r)).collect();
        got.sort_by(|a, b| a.values().cmp(b.values()));
        expect.sort_by(|a, b| a.values().cmp(b.values()));
        assert_eq!(got, expect);
    }

    #[test]
    fn explain_surfaces_unfolded_delta_blocks() {
        let mut d = db(Mode::Fixed);
        assert_eq!(d.explain(&join()).unwrap().delta_blocks, 0);
        // Appended rows land as delta blocks outside the tree; explain
        // must show the query will have to read them.
        d.append_rows("l", (0..20i64).map(|i| row![i, i]).collect()).unwrap();
        let report = d.explain(&join()).unwrap();
        assert!(report.delta_blocks > 0, "append must surface as delta blocks");
        assert!(report.to_string().contains("unfolded delta blocks"));
    }

    #[test]
    fn display_is_readable() {
        let d = db(Mode::Fixed);
        let text = d.explain(&join()).unwrap().to_string();
        assert!(text.contains("strategy: hyper-join"));
        assert!(text.contains("C_HyJ"));
    }
}
