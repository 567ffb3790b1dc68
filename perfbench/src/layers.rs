//! The per-layer metrics of the traced run. Every workload prints the
//! same list; a layer a workload does not load reads 0.

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::Query;
use adaptdb_server::ServerReport;

use crate::common::{
    is_join, mean, median, quantile, ratio, sorted, used_hyper, Outcome, QueryRecord, THREADS,
};
use crate::probe::{Probe, ESTIMATE, LOOKUP, PLAN, READ};
use crate::spans::Spans;

/// Span names of the read path and adaptation, timed around
/// `readpath::execute_query` and `record_observation` + `adapt_now`.
pub const READPATH: &str = "core.readpath";
pub const ADAPT: &str = "core.adapt";

/// Server-side inputs (serving workloads only).
pub struct ServerSide {
    /// `QueryStats::queue_wait_secs` per query, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// `Session::run` wall minus queue wait per query, in ms.
    pub service_ms: Vec<f64>,
    pub report: ServerReport,
}

/// Ingest-side inputs (`ingest_skew` only).
pub struct IngestSide {
    /// Largest unfolded delta backlog seen between queries, in blocks.
    pub delta_backlog_max: usize,
    pub write_amp: f64,
}

/// The traced run's queries with, aligned by index, their records
/// (`None` for a failed query) and side-call findings.
pub struct LayerInputs<'a> {
    pub queries: &'a [Query],
    pub records: &'a [Option<QueryRecord>],
    pub probes: &'a [Probe],
    pub spans: &'a Spans,
    pub server: Option<ServerSide>,
    pub ingest: Option<IngestSide>,
    /// How late the open-loop generator sent each request, in ms.
    pub late_ms: Vec<f64>,
    /// Tail latency (see [`crate::common::tail_q`]) of the untraced
    /// baseline round's operations, in ms.
    pub op_tail_ms: f64,
    /// Traced wall over untraced wall, minus one.
    pub overhead: f64,
    /// Share of the traced run's end-to-end wall, side-calls excluded,
    /// that the layer spans cover.
    pub coverage: f64,
}

pub fn report(out: &mut Outcome, inp: &LayerInputs<'_>) {
    let recs: Vec<&QueryRecord> = inp.records.iter().flatten().collect();
    let n = recs.len().max(1) as f64;
    let spans = inp.spans;
    let sum = |f: &dyn Fn(&QueryRecord) -> usize| recs.iter().map(|r| f(r)).sum::<usize>() as f64;

    let (qw, sv, passes, deferrals) = match &inp.server {
        Some(s) => (
            median(&s.queue_wait_ms),
            median(&s.service_ms),
            s.report.maintenance_passes as f64,
            s.report.maintenance_deferrals as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    out.metric("server.queue_wait_ms", "ms", qw);
    out.metric("server.service_ms", "ms", sv);
    out.metric("server.maint_passes", "count", passes);
    out.metric("server.maint_deferrals", "count", deferrals);

    let readpath_ms = spans.total_ms(READPATH) / n;
    out.metric("core.estimate_us", "us", mean(&spans.durations_ms(ESTIMATE)) * 1e3);
    out.metric("core.adapt_ms", "ms", spans.total_ms(ADAPT) / n);
    out.metric("core.readpath_ms", "ms", readpath_ms);
    let joins: Vec<&QueryRecord> = inp
        .records
        .iter()
        .zip(inp.queries)
        .filter(|(_, q)| is_join(q))
        .filter_map(|(r, _)| r.as_ref())
        .collect();
    let hyper = joins.iter().filter(|r| used_hyper(r.strategy)).count();
    out.metric("core.hyper_frac", "ratio", ratio(hyper as f64, joins.len() as f64));

    let lookup_ms = spans.total_ms(LOOKUP);
    out.metric("tree.lookup_us", "us", mean(&spans.durations_ms(LOOKUP)) * 1e3);
    let candidates: usize = inp.probes.iter().map(|p| p.candidates).sum();
    out.metric(
        "tree.candidate_blocks",
        "blocks",
        candidates as f64 / inp.probes.len().max(1) as f64,
    );
    out.metric("tree.migrated_blocks", "blocks", sum(&|r| r.repartition_io.writes) / n);

    let plan_ms = spans.total_ms(PLAN);
    out.metric("join.plan_ms", "ms", ratio(plan_ms, spans.count(PLAN) as f64));
    let errs = est_errors(inp);
    out.detail("join_est_error_samples", errs.len());
    out.metric("join.est_error", "ratio", mean(&errs));

    // Fetch + decode runs on the executor's `THREADS` workers inside the
    // read path, so its wall share is the serial side-call cost spread
    // over them.
    let read_ms = mean(&spans.durations_ms(READ));
    let reads = sum(&|r| r.query_io.reads());
    let storage_ms = reads * read_ms / THREADS as f64;
    let self_ms = readpath_ms - (lookup_ms + plan_ms + storage_ms) / n;
    out.metric("exec.self_ms", "ms", self_ms);
    let rows_out = sum(&|r| r.digest.rows);
    out.metric(
        "exec.rows_scanned_per_out",
        "ratio",
        ratio(sum(&|r| r.query_io.rows_scanned), rows_out),
    );
    out.metric("exec.spill_blocks", "blocks", sum(&|r| r.shuffle.blocks_spilled) / n);
    out.metric("exec.build_spill_blocks", "blocks", sum(&|r| r.shuffle.build_blocks_spilled) / n);
    out.metric("exec.split_partitions", "count", sum(&|r| r.shuffle.split_partitions) / n);
    let peak = recs.iter().map(|r| r.shuffle.peak_reducer_mem_blocks).max().unwrap_or(0);
    out.metric("exec.peak_reducer_blocks", "blocks", peak as f64);

    out.metric("storage.read_us", "us", read_ms * 1e3);
    let skipped = sum(&|r| r.query_io.zone_skipped);
    out.metric("storage.zone_skip_frac", "ratio", ratio(skipped, skipped + reads));
    let ingest = inp.server.as_ref().map(|s| s.report.ingest).unwrap_or_default();
    out.metric(
        "storage.delta_blocks_per_append",
        "blocks",
        ratio(ingest.delta_blocks_written as f64, ingest.appends as f64),
    );
    out.metric("storage.tail_rewrites", "count", ingest.tail_rewrites as f64);
    out.metric("storage.blocks_folded", "blocks", ingest.blocks_folded as f64);
    let (backlog, write_amp) =
        inp.ingest.as_ref().map_or((0.0, 0.0), |i| (i.delta_backlog_max as f64, i.write_amp));
    out.metric("storage.delta_backlog_max", "blocks", backlog);
    out.metric("storage.write_amp", "ratio", write_amp);

    out.metric(
        "dfs.reads_per_query",
        "blocks",
        sum(&|r| r.query_io.reads() + r.repartition_io.reads()) / n,
    );
    out.metric("dfs.remote_frac", "ratio", ratio(sum(&|r| r.query_io.remote_reads), reads));
    out.metric(
        "dfs.shuffle_local_frac",
        "ratio",
        ratio(sum(&|r| r.shuffle.local_fetches), sum(&|r| r.shuffle.fetches())),
    );

    out.metric("gen.late_p99_ms", "ms", quantile(&sorted(inp.late_ms.clone()), 0.99));
    out.metric("op.tail_ms", "ms", inp.op_tail_ms);
    out.metric("trace.overhead", "ratio", inp.overhead);
    out.metric("trace.coverage", "ratio", inp.coverage);
}

/// Relative errors of the hyper-join planner's estimated block reads
/// (build + `C_HyJ`-weighted probe reads) against the blocks each
/// two-table hyper-join actually read.
fn est_errors(inp: &LayerInputs<'_>) -> Vec<f64> {
    inp.queries
        .iter()
        .zip(inp.records)
        .zip(inp.probes)
        .filter_map(|((q, r), p)| {
            let r = r.as_ref()?;
            let est = p.hyper_est_reads? as f64;
            let real = r.query_io.reads() as f64;
            let pure = matches!(q, Query::Join(_)) && r.strategy == JoinStrategy::HyperJoin;
            (pure && real > 0.0).then(|| (est - real).abs() / real)
        })
        .collect()
}
