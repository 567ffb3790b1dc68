//! Server- and session-level serving statistics, per scheduling lane.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use adaptdb::cost::{Lane, LANES, LANE_COUNT};
use adaptdb_common::{Histogram, IngestStats, IoStats, OverlapStats, QueryStats, ShuffleStats};
use parking_lot::Mutex;

/// Latency aggregate for one lane, kept under a mutex (updated once per
/// query, so contention is negligible next to query execution). Both
/// distributions are log-bucketed [`Histogram`]s: count/sum/min/max are
/// exact (so means and the admission-control math are unchanged from
/// the old scalar accumulators) and quantiles are O(1)-memory with
/// ≤ one bucket width (~9% relative) error.
#[derive(Debug, Default, Clone)]
struct LaneAgg {
    /// Submit-to-finish latency, milliseconds — what clients experience.
    latency_ms: Histogram,
    /// In-service (start-to-finish) seconds only — excludes queue wait,
    /// so the admission estimate never feeds its own backlog back into
    /// itself.
    service_secs: Histogram,
}

impl LaneAgg {
    fn queries(&self) -> u64 {
        self.latency_ms.count()
    }
}

/// Most recent sessions retained for the fairness index; older
/// principals are evicted so the map stays bounded on a long-lived
/// server.
const MAX_FAIRNESS_SESSIONS: usize = 1024;

/// What one session has been served — the fairness-index input.
#[derive(Debug, Default, Clone, Copy)]
struct SessionServe {
    queries: u64,
    cost_blocks: u64,
}

/// Live server counters, shared by every thread that runs queries.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    queries: AtomicU64,
    errors: AtomicU64,
    /// Queries currently executing, on a client thread or a worker —
    /// the in-flight gauge.
    in_flight: AtomicU64,
    /// Queries served via deadline promotion.
    promoted: AtomicU64,
    /// Submissions rejected by latency-aware admission, per lane.
    shed: [AtomicU64; LANE_COUNT],
    latency: Mutex<[LaneAgg; LANE_COUNT]>,
    /// Per-session served work, for the fairness index.
    sessions: Mutex<BTreeMap<u64, SessionServe>>,
    /// Admission-time cost estimates (estimated execution seconds), the
    /// cold-start seed for [`Metrics::est_wait_ms`]: before any query
    /// has *finished*, observed service means are empty, and a first
    /// storm would read `est wait = 0` and never shed. The planner's
    /// estimate of what's been admitted is the best prior available.
    /// Held as a histogram so the cold path reads the same
    /// mean-of-distribution state the warm path does.
    estimates: Mutex<Histogram>,
    /// Merged shuffle-service breakdown of every served query (spill,
    /// fetch locality, skew mitigation tallies).
    shuffle: Mutex<ShuffleStats>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
            shed: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Mutex::new(std::array::from_fn(|_| LaneAgg::default())),
            sessions: Mutex::new(BTreeMap::new()),
            estimates: Mutex::new(Histogram::new()),
            shuffle: Mutex::new(ShuffleStats::default()),
        }
    }

    /// Record one admission-time cost estimate (estimated execution
    /// seconds) — the cold-start prior for queue-wait estimation.
    pub(crate) fn note_estimate(&self, est_secs: f64) {
        self.estimates.lock().record(est_secs.max(0.0));
    }

    /// Merge one served query's shuffle breakdown into the server-wide
    /// aggregate surfaced on [`ServerReport`].
    pub(crate) fn note_shuffle(&self, sh: &ShuffleStats) {
        self.shuffle.lock().merge(sh);
    }

    /// Mark a query as started, inline or by a worker (gauge up).
    pub(crate) fn begin(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one submission rejected by the admission bound.
    pub(crate) fn note_shed(&self, lane: Lane) {
        self.shed[lane.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one finished query: `elapsed` is submit-to-finish (what
    /// clients experience, including queue wait), `service` is
    /// start-to-finish (pure execution).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &self,
        lane: Lane,
        session: u64,
        cost_blocks: usize,
        promoted: bool,
        elapsed: Duration,
        service: Duration,
        ok: bool,
    ) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if promoted {
            self.promoted.fetch_add(1, Ordering::Relaxed);
        }
        let secs = elapsed.as_secs_f64();
        {
            let mut lanes = self.latency.lock();
            let agg = &mut lanes[lane.index()];
            agg.latency_ms.record(secs * 1e3);
            agg.service_secs.record(service.as_secs_f64());
        }
        let mut sessions = self.sessions.lock();
        let s = sessions.entry(session).or_default();
        s.queries += 1;
        s.cost_blocks += cost_blocks.max(1) as u64;
        // Bound the fairness window: session ids are allocated
        // monotonically, so dropping the smallest keys retires the
        // oldest principals — a long-lived server with
        // one-session-per-connection clients reports fairness over the
        // most recent `MAX_FAIRNESS_SESSIONS` instead of growing
        // without bound.
        while sessions.len() > MAX_FAIRNESS_SESSIONS {
            let oldest = *sessions.keys().next().expect("non-empty map");
            sessions.remove(&oldest);
        }
    }

    /// Estimated queue wait for a new submission whose policy-ordered
    /// backlog is `depths_ahead` jobs per lane, in milliseconds: each
    /// lane's backlog is priced at that lane's observed mean *service*
    /// time (batch jobs are slower than interactive ones), divided by
    /// the worker count. Service time (not submit-to-finish) is
    /// deliberate — using client latency here would double-count queue
    /// wait and make a past burst's inflated mean shed healthy load
    /// forever. The single source of truth for the per-lane
    /// `est_wait_ms` gauges and admission control; computing it per
    /// lane is what keeps a drained batch lane from masking (or a deep
    /// batch lane from inflating) the interactive-lane decision.
    pub(crate) fn est_wait_ms(&self, depths_ahead: [usize; LANE_COUNT], workers: usize) -> f64 {
        let lanes = self.latency.lock();
        // One fallback chain for every lane, cold or warm: the lane's
        // own observed service mean, else the overall observed mean,
        // else the mean admission-time *cost estimate*. The last rung
        // is the cold-start seed: before any query has finished, pricing
        // the backlog at the planner's estimate (instead of reading
        // zero) is what lets shedding and pacing trigger during the
        // first storm. Histogram sums/counts are exact, so the means
        // here are identical to the old scalar accumulators.
        let overall_queries: u64 = lanes.iter().map(|a| a.service_secs.count()).sum();
        let overall_mean = if overall_queries > 0 {
            lanes.iter().map(|a| a.service_secs.sum()).sum::<f64>() / overall_queries as f64
        } else {
            let est = self.estimates.lock();
            if est.is_empty() {
                return 0.0;
            }
            est.mean()
        };
        let secs: f64 = depths_ahead
            .iter()
            .zip(lanes.iter())
            .map(|(&d, agg)| {
                let mean = if agg.service_secs.is_empty() {
                    overall_mean
                } else {
                    agg.service_secs.mean()
                };
                d as f64 * mean
            })
            .sum();
        secs * 1e3 / workers.max(1) as f64
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn report(
        &self,
        policy: &'static str,
        workers: usize,
        queue_capacity: usize,
        lane_depths: [usize; LANE_COUNT],
        lane_waits_ms: [f64; LANE_COUNT],
        maintenance_io: IoStats,
        maintenance_passes: u64,
        maintenance_backlog: usize,
        maintenance_deferrals: u64,
        ingest: IngestStats,
        delta_blocks: usize,
    ) -> ServerReport {
        let queries = self.queries.load(Ordering::Relaxed);
        let errors = self.errors.load(Ordering::Relaxed);
        let in_flight = self.in_flight.load(Ordering::Relaxed) as usize;
        let lanes_agg = self.latency.lock().clone();
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let total_ms: f64 = lanes_agg.iter().map(|a| a.latency_ms.sum()).sum();
        let max_ms = lanes_agg.iter().map(|a| a.latency_ms.max()).fold(0.0f64, f64::max);
        let mean_latency_ms = if queries > 0 { total_ms / queries as f64 } else { 0.0 };
        let lanes = LANES.map(|lane| {
            let agg = &lanes_agg[lane.index()];
            LaneReport {
                lane: lane.name(),
                depth: lane_depths[lane.index()],
                est_wait_ms: lane_waits_ms[lane.index()],
                queries: agg.queries(),
                shed: self.shed[lane.index()].load(Ordering::Relaxed),
                mean_latency_ms: agg.latency_ms.mean(),
                max_latency_ms: agg.latency_ms.max(),
                p50_ms: agg.latency_ms.quantile(0.50),
                p95_ms: agg.latency_ms.quantile(0.95),
                p99_ms: agg.latency_ms.quantile(0.99),
            }
        });
        let (session_count, fairness_index) = {
            let sessions = self.sessions.lock();
            let xs: Vec<f64> = sessions.values().map(|s| s.cost_blocks as f64).collect();
            let n = xs.len();
            let sum: f64 = xs.iter().sum();
            let sq: f64 = xs.iter().map(|x| x * x).sum();
            let jain = if n <= 1 || sq == 0.0 { 1.0 } else { sum * sum / (n as f64 * sq) };
            (n, jain)
        };
        ServerReport {
            policy,
            queries,
            errors,
            elapsed_secs,
            qps: if elapsed_secs > 0.0 { queries as f64 / elapsed_secs } else { 0.0 },
            mean_latency_ms,
            max_latency_ms: max_ms,
            maintenance_io,
            maintenance_passes,
            maintenance_backlog,
            maintenance_deferrals,
            workers,
            queue_capacity,
            queue_depth: lane_depths.iter().sum(),
            in_flight,
            est_queue_wait_ms: lane_waits_ms[Lane::Interactive.index()],
            lanes,
            promoted: self.promoted.load(Ordering::Relaxed),
            session_count,
            fairness_index,
            shuffle: *self.shuffle.lock(),
            ingest,
            delta_blocks,
        }
    }
}

/// Per-lane slice of a [`ServerReport`].
#[derive(Debug, Clone, Copy)]
pub struct LaneReport {
    /// Lane name (`"interactive"` | `"batch"` | `"maintenance"`).
    pub lane: &'static str,
    /// Jobs waiting in this lane right now (gauge).
    pub depth: usize,
    /// Estimated queue wait for a new submission into this lane under
    /// the active policy, milliseconds. Computed per lane so a drained
    /// batch lane never masks interactive backlog (and vice versa).
    pub est_wait_ms: f64,
    /// Queries served from this lane.
    pub queries: u64,
    /// Submissions rejected by the admission bound in this lane.
    pub shed: u64,
    /// Mean submit-to-finish latency of this lane's queries, ms
    /// (exact — histogram sums are not quantized).
    pub mean_latency_ms: f64,
    /// Worst submit-to-finish latency of this lane's queries, ms
    /// (exact — the histogram tracks the true max).
    pub max_latency_ms: f64,
    /// Median submit-to-finish latency, ms. Log-bucketed estimate:
    /// within one bucket width (≈ 9% relative) of the true percentile,
    /// at O(1) memory regardless of query count.
    pub p50_ms: f64,
    /// 95th-percentile submit-to-finish latency, ms (bucketed, see
    /// [`LaneReport::p50_ms`]).
    pub p95_ms: f64,
    /// 99th-percentile submit-to-finish latency, ms (bucketed, see
    /// [`LaneReport::p50_ms`]).
    pub p99_ms: f64,
}

/// A point-in-time throughput/latency summary of a running server.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Active admission policy (`"fifo"` | `"lanes"` | `"fair"`).
    pub policy: &'static str,
    /// Queries answered (including errors).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Wall-clock seconds since the server started.
    pub elapsed_secs: f64,
    /// Observed throughput, queries per wall-clock second.
    pub qps: f64,
    /// Mean per-query wall latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Worst per-query wall latency, milliseconds.
    pub max_latency_ms: f64,
    /// I/O performed by background maintenance (its own
    /// `ClockKind::Maintenance` clock — never mixed into query costs).
    pub maintenance_io: IoStats,
    /// Completed maintenance passes.
    pub maintenance_passes: u64,
    /// Observations still queued for maintenance because pacing
    /// deferred them (gauge; drains to zero at idle).
    pub maintenance_backlog: usize,
    /// Passes in which pacing deferred part of the inbox to protect
    /// foreground latency.
    pub maintenance_deferrals: u64,
    /// Execution slots (and worker threads).
    pub workers: usize,
    /// Admission-queue capacity (per lane under lane-aware policies).
    pub queue_capacity: usize,
    /// Queries waiting in the admission queue right now (gauge).
    pub queue_depth: usize,
    /// Queries currently executing (gauge, ≤ `workers`).
    pub in_flight: usize,
    /// Latency-aware admission estimate for a new *interactive*
    /// submission, milliseconds (see [`LaneReport::est_wait_ms`] for
    /// the other lanes). The admission bound
    /// (`ServerOptions::max_queue_wait_ms`) sheds load per lane when
    /// that lane's estimate exceeds it.
    pub est_queue_wait_ms: f64,
    /// Per-lane depth/wait/latency/shed breakdown.
    pub lanes: [LaneReport; LANE_COUNT],
    /// Queries served via deadline promotion.
    pub promoted: u64,
    /// Distinct sessions in the fairness window (the most recent
    /// ~1024 principals; older ones are evicted so a long-lived server
    /// stays bounded).
    pub session_count: usize,
    /// Jain fairness index over per-session served cost blocks
    /// (1.0 = perfectly even shares, → 1/n under total capture by one
    /// session).
    pub fairness_index: f64,
    /// Merged shuffle-service breakdown of every served query: spill
    /// and fetch-locality counts plus the skew-mitigation tallies
    /// (build spill, hot-partition splits, peak reducer memory).
    pub shuffle: ShuffleStats,
    /// Ingest counters since the server started: appends accepted,
    /// rows and delta blocks written, tail rewrites, and maintenance
    /// folds of deltas into the partition tree.
    pub ingest: IngestStats,
    /// Unfolded ingest delta blocks across all served tables right now
    /// (gauge; maintenance folds a table once it crosses
    /// `DbConfig::ingest_fold_blocks`).
    pub delta_blocks: usize,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} queries in {:.2}s ({:.0} q/s, {} workers, queue {}, policy {})",
            self.queries,
            self.elapsed_secs,
            self.qps,
            self.workers,
            self.queue_capacity,
            self.policy
        )?;
        writeln!(
            f,
            "latency: mean {:.2} ms, max {:.2} ms; errors: {}",
            self.mean_latency_ms, self.max_latency_ms, self.errors
        )?;
        writeln!(
            f,
            "queue: {} waiting, {} in flight, est wait {:.2} ms",
            self.queue_depth, self.in_flight, self.est_queue_wait_ms
        )?;
        for lane in &self.lanes {
            writeln!(
                f,
                "lane {}: {} served, {} waiting, est wait {:.2} ms, mean {:.2} ms, \
                 p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, shed {}",
                lane.lane,
                lane.queries,
                lane.depth,
                lane.est_wait_ms,
                lane.mean_latency_ms,
                lane.p50_ms,
                lane.p95_ms,
                lane.p99_ms,
                lane.shed
            )?;
        }
        writeln!(
            f,
            "sessions: {} served, fairness index {:.3}, {} deadline promotions",
            self.session_count, self.fairness_index, self.promoted
        )?;
        if self.shuffle.blocks_spilled > 0 {
            writeln!(
                f,
                "shuffle: {} blocks spilled, {:.0}% local fetches, {} build-spill blocks, \
                 {} split partitions, peak reducer mem {} blocks",
                self.shuffle.blocks_spilled,
                self.shuffle.locality_fraction() * 100.0,
                self.shuffle.build_blocks_spilled,
                self.shuffle.split_partitions,
                self.shuffle.peak_reducer_mem_blocks
            )?;
        }
        if self.ingest.appends > 0 || self.delta_blocks > 0 {
            writeln!(
                f,
                "ingest: {} appends ({} rows), {} delta blocks written, {} tail rewrites, \
                 {} folds ({} blocks); {} unfolded now",
                self.ingest.appends,
                self.ingest.rows_appended,
                self.ingest.delta_blocks_written,
                self.ingest.tail_rewrites,
                self.ingest.folds,
                self.ingest.blocks_folded,
                self.delta_blocks
            )?;
        }
        write!(
            f,
            "maintenance: {} passes, {} reads / {} writes (off hot path), \
             backlog {}, {} paced deferrals",
            self.maintenance_passes,
            self.maintenance_io.reads(),
            self.maintenance_io.writes,
            self.maintenance_backlog,
            self.maintenance_deferrals
        )
    }
}

/// Per-session accumulation of what one client's queries did.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Queries this session ran successfully.
    pub queries: usize,
    /// Queries that errored (including admission rejections).
    pub errors: usize,
    /// Successful queries per admission lane
    /// (`Lane::index()`-indexed: interactive, batch, maintenance).
    pub lane_queries: [usize; LANE_COUNT],
    /// Rows returned across all queries.
    pub rows_out: usize,
    /// Merged I/O of this session's queries.
    pub io: IoStats,
    /// Merged shuffle-service breakdown (runs spilled, local vs remote
    /// fetches) of this session's queries.
    pub shuffle: ShuffleStats,
    /// Merged pipelined-fetch breakdown (windows issued, read latency
    /// hidden by overlap) of this session's queries.
    pub overlap: OverlapStats,
    /// Total wall seconds spent waiting for results.
    pub total_wall_secs: f64,
    /// Of those, seconds spent waiting in the admission queue (the
    /// scheduler's contribution to this session's latency).
    pub queue_wait_secs: f64,
}

impl SessionStats {
    pub(crate) fn record_ok(&mut self, lane: Lane, rows: usize, stats: &QueryStats) {
        self.queries += 1;
        self.lane_queries[lane.index()] += 1;
        self.rows_out += rows;
        self.io.merge(&stats.query_io);
        self.shuffle.merge(&stats.shuffle);
        self.overlap.merge(&stats.overlap);
        self.total_wall_secs += stats.wall_secs;
        self.queue_wait_secs += stats.queue_wait_secs;
    }

    pub(crate) fn record_err(&mut self) {
        self.errors += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_lane_wait_estimates_are_independent() {
        let m = Metrics::new();
        // One served interactive query (fast) and one batch (slow).
        m.begin();
        m.record(
            Lane::Interactive,
            1,
            1,
            false,
            Duration::from_millis(2),
            Duration::from_millis(2),
            true,
        );
        m.begin();
        m.record(
            Lane::Batch,
            2,
            50,
            false,
            Duration::from_millis(100),
            Duration::from_millis(100),
            true,
        );
        // A deep batch lane with a drained interactive lane: the
        // interactive estimate must stay at zero — batch backlog is not
        // ahead of an interactive arrival under lane-aware policies.
        let interactive = m.est_wait_ms([0, 0, 0], 1);
        assert_eq!(interactive, 0.0);
        let batch = m.est_wait_ms([0, 5, 0], 1);
        assert!((batch - 500.0).abs() < 1.0, "5 × 100 ms batch service: {batch}");
        // And interactive backlog is priced at interactive service
        // time, not the batch mean.
        let mixed = m.est_wait_ms([3, 0, 0], 1);
        assert!((mixed - 6.0).abs() < 1.0, "3 × 2 ms: {mixed}");
    }

    #[test]
    fn lane_without_history_uses_overall_mean() {
        let m = Metrics::new();
        m.begin();
        m.record(
            Lane::Interactive,
            1,
            1,
            false,
            Duration::from_millis(10),
            Duration::from_millis(10),
            true,
        );
        // Batch lane never served: its backlog is priced at the overall
        // mean rather than zero, so an untried lane still sheds.
        let est = m.est_wait_ms([0, 2, 0], 1);
        assert!((est - 20.0).abs() < 1.0, "{est}");
    }

    #[test]
    fn cold_start_seeds_from_cost_estimate() {
        let m = Metrics::new();
        // Nothing served, nothing estimated: the estimate is honestly
        // zero (no prior of any kind).
        assert_eq!(m.est_wait_ms([5, 0, 0], 1), 0.0);
        // Two submissions estimated at 2 s and 4 s have been admitted
        // but none has finished — the first-storm regression: the wait
        // estimate must read the 3 s estimate mean, not zero.
        m.note_estimate(2.0);
        m.note_estimate(4.0);
        let est = m.est_wait_ms([5, 0, 0], 1);
        assert!((est - 15_000.0).abs() < 1.0, "5 × 3 s estimated service: {est}");
        // The seed scales with backlog: an empty queue still waits 0.
        assert_eq!(m.est_wait_ms([0, 0, 0], 1), 0.0);
        // More workers drain the same backlog proportionally faster.
        let est4 = m.est_wait_ms([5, 0, 0], 4);
        assert!((est4 - 3_750.0).abs() < 1.0, "{est4}");
        // Once real service history exists, it takes over from the seed.
        m.begin();
        m.record(
            Lane::Interactive,
            1,
            1,
            false,
            Duration::from_millis(10),
            Duration::from_millis(10),
            true,
        );
        let warm = m.est_wait_ms([5, 0, 0], 1);
        assert!((warm - 50.0).abs() < 1.0, "observed 10 ms mean wins: {warm}");
    }

    #[test]
    fn report_aggregates_shuffle_breakdown() {
        let m = Metrics::new();
        let sh = ShuffleStats {
            blocks_spilled: 8,
            local_fetches: 6,
            remote_fetches: 2,
            build_blocks_spilled: 3,
            split_partitions: 1,
            peak_reducer_mem_blocks: 4,
            ..Default::default()
        };
        m.note_shuffle(&sh);
        m.note_shuffle(&sh);
        let report = m.report(
            "fifo",
            1,
            4,
            [0; LANE_COUNT],
            [0.0; LANE_COUNT],
            IoStats::default(),
            0,
            0,
            0,
            IngestStats::default(),
            0,
        );
        assert_eq!(report.shuffle.blocks_spilled, 16);
        assert_eq!(report.shuffle.build_blocks_spilled, 6);
        assert_eq!(report.shuffle.split_partitions, 2);
        // Peak memory is a gauge: max, not sum.
        assert_eq!(report.shuffle.peak_reducer_mem_blocks, 4);
        assert!(report.to_string().contains("peak reducer mem 4 blocks"));
    }

    #[test]
    fn fairness_index_detects_capture() {
        let m = Metrics::new();
        for _ in 0..9 {
            m.begin();
            m.record(
                Lane::Batch,
                1,
                100,
                false,
                Duration::from_millis(1),
                Duration::from_millis(1),
                true,
            );
        }
        m.begin();
        m.record(
            Lane::Interactive,
            2,
            1,
            false,
            Duration::from_millis(1),
            Duration::from_millis(1),
            true,
        );
        let report = m.report(
            "fifo",
            1,
            4,
            [0; LANE_COUNT],
            [0.0; LANE_COUNT],
            IoStats::default(),
            0,
            0,
            0,
            IngestStats::default(),
            0,
        );
        assert_eq!(report.session_count, 2);
        assert!(
            report.fairness_index < 0.6,
            "one session captured ~99.9% of served cost: {}",
            report.fairness_index
        );
        assert_eq!(report.lanes[Lane::Batch.index()].queries, 9);
        assert_eq!(report.lanes[Lane::Interactive.index()].queries, 1);
        assert!(report.to_string().contains("fairness index"));
    }
}
