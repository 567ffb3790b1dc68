//! Pieces every workload shares: the pinned engine configuration, the
//! per-query record the correctness and determinism checks compare,
//! small statistics helpers, and the result a run reports.

use std::time::Instant;

use adaptdb::{DbConfig, Mode, SchedPolicy};
use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{CostParams, IoStats, Query, QueryStats, ShuffleStats};
use adaptdb_server::ServerOptions;

use crate::oracle::Digest;

/// Executor threads per query and server workers: the benchmark host
/// class has two cores.
pub const THREADS: usize = 2;

/// Every `DbConfig` field, spelled out. `DbConfig::default()` reads ten
/// `ADAPTDB_*` environment variables; building the struct literally
/// keeps a run's configuration independent of the caller's environment.
pub fn pinned_config(seed: u64, mode: Mode) -> DbConfig {
    DbConfig {
        nodes: 10,
        replication: 3,
        rows_per_block: 200,
        window_size: 10,
        buffer_blocks: 32,
        join_levels_fraction: 0.5,
        min_join_frequency: 1,
        adapt_selections: true,
        shuffle_partitions: None,
        shuffle_replication: 1,
        shuffle_split_threshold: Some(4.0),
        join_mem_budget_blocks: None,
        fetch_window: 4,
        sched: SchedPolicy::Fifo,
        batch_cost_blocks: 64,
        maint_pace_wait_ms: 5.0,
        fetch_pace_wait_ms: None,
        columnar: false,
        morsel_rows: 1024,
        trace: false,
        ingest_fold_blocks: 8,
        ingest_merge_tail: true,
        cache_blocks_per_node: 0,
        durable_path: None,
        cost: CostParams {
            c_sj: 3.0,
            block_read_secs: 1.0,
            remote_read_penalty: 1.25,
            block_write_secs: 1.0,
            cpu_per_block_secs: 0.1,
            parallelism: 10,
            cache_hit_secs: 0.02,
        },
        mode,
        threads: THREADS,
        seed,
    }
}

/// Server options for the serving workloads, all fields explicit.
pub fn server_options() -> ServerOptions {
    ServerOptions {
        workers: Some(THREADS),
        queue_capacity: Some(4 * THREADS),
        sched: Some(SchedPolicy::Fifo),
        fair_quantum: None,
        max_queue_wait_ms: None,
    }
}

/// What one answered query is checked by: its digest against the
/// reference, and its simulated counters against a repeat of the same
/// query sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    pub digest: Digest,
    pub query_io: IoStats,
    pub repartition_io: IoStats,
    pub shuffle: ShuffleStats,
    pub strategy: JoinStrategy,
    pub c_hyj: Option<u64>,
    /// Simulated seconds (`QueryStats::simulated_secs`).
    pub sim_s: f64,
}

impl QueryRecord {
    pub fn new(digest: Digest, stats: &QueryStats, cost: &CostParams) -> Self {
        QueryRecord {
            digest,
            query_io: stats.query_io,
            repartition_io: stats.repartition_io,
            shuffle: stats.shuffle,
            strategy: stats.strategy,
            c_hyj: stats.estimated_c_hyj.map(f64::to_bits),
            sim_s: stats.simulated_secs(cost),
        }
    }
}

/// FNV-1a over the simulated counters of a record sequence: two runs
/// with one seed must print the same value.
pub fn counters_digest(records: &[QueryRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        for io in [&r.query_io, &r.repartition_io] {
            for x in [io.local_reads, io.remote_reads, io.writes, io.rows_scanned, io.rows_out] {
                eat(x as u64);
            }
        }
        let s = &r.shuffle;
        for x in [s.runs_written, s.blocks_spilled, s.local_fetches, s.remote_fetches] {
            eat(x as u64);
        }
        for x in [s.build_blocks_spilled, s.split_partitions, s.peak_reducer_mem_blocks] {
            eat(x as u64);
        }
        eat(r.sim_s.to_bits());
        eat(r.c_hyj.unwrap_or(0));
    }
    h
}

/// True for the strategies in which a hyper-join ran.
pub fn used_hyper(s: JoinStrategy) -> bool {
    matches!(s, JoinStrategy::HyperJoin | JoinStrategy::Mixed)
}

pub fn is_join(q: &Query) -> bool {
    !matches!(q, Query::Scan(_))
}

/// Linear-interpolated quantile of `sorted` (ascending), `q` in [0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: p99 once there are at
/// least 1000 samples, else the highest percentile that still leaves ten
/// samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn gmean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency stand-in for a failed operation: it exceeds every percentile
/// of any successful one.
pub const FAILED_MS: f64 = 1.0e9;

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The wall-clock end-to-end figures of a run.
pub struct EndToEnd {
    /// The operation the latency figures time: `query`, `lookup` or
    /// `append`.
    pub op: &'static str,
    pub qps: f64,
    /// The gated per-operation latency, `op_ms`: the p50 where every
    /// operation has one shape, the geometric mean over a multimodal
    /// template mix (see [`EndToEnd::gmean_of`]).
    pub op_ms: f64,
    /// Which statistic `op_ms` is: `p50` or `gmean`.
    pub op_stat: &'static str,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The quantile `tail_ms` is (see [`tail_q`]).
    pub tail_q: f64,
}

impl EndToEnd {
    /// Figures for operations of one shape: `op_ms` is the p50.
    pub fn p50_of(op: &'static str, qps: f64, p50_ms: f64, tail_ms: f64, tail_q: f64) -> Self {
        EndToEnd { op, qps, op_ms: p50_ms, op_stat: "p50", p50_ms, tail_ms, tail_q }
    }

    /// Figures for a mix of query templates whose costs differ
    /// several-fold: `op_ms` is the geometric mean of the per-query
    /// latencies, the summary TPC-H's power metric uses. The median of
    /// such a mix sits in a gap between templates, so a change of table
    /// rows moves it from one template's cost to another's.
    pub fn gmean_of(op: &'static str, qps: f64, lat_ms: &[f64]) -> Self {
        let (p50_ms, tail_ms) = p50_and_tail(lat_ms);
        let tail_q = tail_q(lat_ms.len());
        let op_ms = gmean(lat_ms);
        EndToEnd { op, qps, op_ms, op_stat: "gmean", p50_ms, tail_ms, tail_q }
    }
}

/// Median and tail (see [`tail_q`]) of a latency sample.
pub fn p50_and_tail(lat_ms: &[f64]) -> (f64, f64) {
    let lat = sorted(lat_ms.to_vec());
    (quantile(&lat, 0.5), quantile(&lat, tail_q(lat.len())))
}

/// Per-operation minimum across rounds that replayed the same
/// operations (`None` = the operation failed): what is left once the
/// interference of a shared host is taken out of each operation's wall
/// time. An operation that failed in any round reads [`FAILED_MS`].
pub fn best_of(rounds: &[Vec<Option<f64>>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds.iter().map(|r| r[i].unwrap_or(FAILED_MS)).fold(f64::INFINITY, |a, b| {
                if a == FAILED_MS || b == FAILED_MS {
                    FAILED_MS
                } else {
                    a.min(b)
                }
            })
        })
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer matched the reference and every self-check held.
    pub correct: bool,
    pub attempted: usize,
    /// Failed, refused or wrong operations.
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result (config echo,
    /// workload-specific figures, self-check digests).
    pub details: Vec<(String, String)>,
    /// Self-check failures; any entry makes the run fail loudly.
    pub broken: Vec<String>,
}

impl Outcome {
    /// The end-to-end metrics every workload reports, in one order.
    /// The latency figures are also echoed under the operation's own
    /// names (`lookup_p50_ms`, `query_gmean_ms`, `append_p99_ms`, ...).
    /// The tail is echoed only, not reported as a metric: on a shared
    /// two-core host the append p99 moved by a third between two sets of
    /// ten runs of the same code, more than any bound a metric may
    /// carry. The traced run reports it as `op.tail_ms`.
    pub fn end_to_end(&mut self, e: EndToEnd, sim_s: &[f64], setups: &[f64], heap_mb: f64) {
        self.detail("op_ms_is", format!("{}_{}_ms", e.op, e.op_stat));
        if e.op_stat != "p50" {
            self.detail(&format!("{}_{}_ms", e.op, e.op_stat), e.op_ms);
        }
        self.detail(&format!("{}_p50_ms", e.op), e.p50_ms);
        self.detail(&format!("{}_p{}_ms", e.op, e.tail_q * 100.0), e.tail_ms);
        self.metric("qps", "1/s", e.qps);
        self.metric("op_ms", "ms", e.op_ms);
        self.metric("sim_s_per_query", "sim_s", mean(sim_s));
        self.metric("setup_s", "s", median(setups));
        self.metric("peak_heap_mb", "MiB", heap_mb);
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        self.metrics.push(Metric { name, unit, value: value + 0.0 });
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// Record a self-check; a failing one breaks the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_summarises_a_multimodal_mix() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
        let e = EndToEnd::gmean_of("query", 1.0, &[1.0, 1.0, 100.0, 100.0]);
        assert!((e.op_ms - 10.0).abs() < 1e-9);
        assert_eq!((e.op_stat, e.p50_ms), ("gmean", 50.5));
    }
}
