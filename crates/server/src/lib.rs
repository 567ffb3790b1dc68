//! # adaptdb-server — the concurrent query-serving runtime
//!
//! AdaptDB's premise is a system that keeps answering queries *while*
//! it repartitions under a live workload. The serial
//! [`adaptdb::Database`] interleaves the two on one thread;
//! [`DbServer`] splits them:
//!
//! * **Snapshot reads.** Each table's layout (partition trees + block
//!   manifests) is an immutable [`adaptdb::TableSnapshot`] behind an
//!   `Arc`, published in a map the readers consult. A query pins the
//!   `Arc` of every table it names, all under one read of the map, and
//!   holds them for its whole run, so it always sees one consistent
//!   layout, and an adaptation installing a new layout is a single
//!   pointer swap — readers never block behind a rewrite.
//! * **Cost-aware scheduling.** Admission goes through one
//!   [`scheduler::Scheduler`] queue, which an [`adaptdb::SchedPolicy`]
//!   sets to FIFO, priority lanes, or per-session fair share. Every
//!   submission is classified into a [`Lane`] by a cheap cost estimate
//!   ([`adaptdb::cost::estimate_query`] — tree lookups only), so a
//!   scan storm lands in the batch lane and cannot starve point
//!   queries; deadlines promote waiting work; per-lane wait estimates
//!   drive optional load shedding.
//! * **Caller-runs executor.** At most `workers` queries execute at
//!   once, each on the exact serial read path ([`adaptdb::readpath`])
//!   against its pinned snapshots. When nothing is queued and an
//!   execution slot is free, a query runs on the submitting thread, on
//!   the snapshots admission pinned — no hand-off to another thread and
//!   back. Otherwise it queues, and a pool of worker threads runs the
//!   queued queries in the scheduler's order, pinning at pop time.
//! * **Background maintenance.** Executed queries are forwarded to a
//!   maintenance thread that replays the serial engine's window
//!   bookkeeping and adaptation decisions
//!   ([`Database::record_observation`] / [`Database::adapt_now`]) under
//!   an engine mutex, performs block migration off the hot path with
//!   deferred retirement, swaps the new snapshots in, and
//!   garbage-collects retired blocks once every reader pinned to an
//!   older snapshot has drained. The pass is *paced* by the same load
//!   signal the scheduler exposes: on a loaded server (a query queued
//!   or every slot busy) it processes one observation at a time
//!   (deferring the rest), and it drains the whole inbox when the
//!   server is idle. Maintenance I/O is charged to its own
//!   `ClockKind::Maintenance` [`SimClock`], so query-visible cost
//!   figures stay faithful to the paper.
//!
//! ```
//! use adaptdb::{Database, DbConfig};
//! use adaptdb_common::{row, JoinQuery, Query, ScanQuery, Schema, ValueType};
//! use adaptdb_server::DbServer;
//!
//! let mut db = Database::new(DbConfig { rows_per_block: 8, ..DbConfig::small() });
//! let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
//! db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
//! db.create_table("r", schema, vec![0, 1]).unwrap();
//! db.load_rows("l", (0..64i64).map(|i| row![i % 32, i])).unwrap();
//! db.load_rows("r", (0..32i64).map(|i| row![i, i * 2])).unwrap();
//!
//! let server = DbServer::start(db);
//! let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
//! let mut session = server.session();
//! let res = session.run(&q).unwrap();
//! assert_eq!(res.rows.len(), 64);
//! assert_eq!(session.stats().queries, 1);
//! ```

pub mod maintenance;
pub mod metrics;
pub mod queue;
pub mod scheduler;

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adaptdb::cost::{self, Lane};
use adaptdb::readpath::{self, SnapshotSource};
use adaptdb::{
    Database, DbConfig, Mode, QueryResult, RetireMode, SchedPolicy, TableSnapshot, TableState,
};
use adaptdb_common::{Error, Query, QueryStats, Result, Row};
use adaptdb_dfs::SimClock;
use adaptdb_storage::BlockStore;
use parking_lot::{Mutex, RwLock};

pub use metrics::{LaneReport, ServerReport, SessionStats};

use maintenance::{GraceEntry, GC_RETRY};
use metrics::Metrics;
use queue::SchedQueue;
use scheduler::{JobMeta, Scheduler};

/// DRR quantum (cost blocks granted per rotation) of the fair-share
/// policy when [`ServerOptions::fair_quantum`] is unset.
pub const DEFAULT_FAIR_QUANTUM: f64 = 8.0;

/// One submitted query plus the channel its result travels back on.
/// Scheduling metadata (lane, session, cost, deadline, submit time)
/// rides separately in [`JobMeta`].
struct Job {
    query: Query,
    reply: mpsc::Sender<Result<QueryResult>>,
}

/// Everything the worker pool, the maintenance loop, and the sessions
/// share.
pub(crate) struct Shared {
    config: DbConfig,
    store: Arc<BlockStore>,
    /// The serial engine: windows, samples, adaptation decisions. Only
    /// the maintenance thread (and test inspection) locks it — readers
    /// never touch it.
    engine: Mutex<Database>,
    /// The snapshots readers pin. Written only by [`Shared::publish`]
    /// (and filled once at start-up); the lock is held only for map
    /// lookup/replace.
    published: RwLock<BTreeMap<String, Arc<TableSnapshot>>>,
    /// Retired-block batches awaiting reader drain, oldest first.
    /// [`Shared::publish`] pushes; the maintenance loop collects.
    grace: Mutex<VecDeque<GraceEntry>>,
    /// Write acquisitions of `published`, for tests that pin when the
    /// readers' lock is contended.
    #[cfg(test)]
    publish_writes: AtomicU64,
    /// Acquisitions of the engine mutex through [`Shared::engine`] —
    /// the maintenance loop's — for tests that pin when it is taken.
    #[cfg(test)]
    engine_locks: AtomicU64,
    /// Executed queries awaiting window bookkeeping + adaptation.
    inbox: StdMutex<Vec<Query>>,
    inbox_signal: Condvar,
    queue: SchedQueue<Job>,
    /// The FIFO bound, or per-lane bound under the lane policies.
    queue_capacity: usize,
    metrics: Metrics,
    /// Execution slots, also the worker count (the divisor of the
    /// admission wait estimate).
    workers: usize,
    /// Latency-aware admission bound; see
    /// [`ServerOptions::max_queue_wait_ms`].
    max_queue_wait_ms: Option<f64>,
    /// Session-id allocator (0 is reserved for [`DbServer::run`]).
    next_session: AtomicU64,
    /// Maintenance-attributed I/O clock (`ClockKind::Maintenance`).
    maint_clock: SimClock,
    maintenance_passes: AtomicU64,
    obs_submitted: AtomicU64,
    obs_processed: AtomicU64,
    /// Observations left in the inbox by pacing (gauge).
    maint_backlog: AtomicU64,
    /// Passes in which pacing deferred part of the inbox.
    maint_deferrals: AtomicU64,
    /// JSON-lines journal of maintenance/adaptation decisions
    /// (adaptation passes, snapshot swaps, GC batches, pacing
    /// deferrals). Only written when [`DbConfig::trace`] is on.
    journal: adaptdb_common::Journal,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_observation(&self, query: Query) {
        self.obs_submitted.fetch_add(1, Ordering::SeqCst);
        let mut inbox = self.inbox.lock().unwrap();
        let was_empty = inbox.is_empty();
        inbox.push(query);
        drop(inbox);
        // The maintenance thread waits only on an empty inbox (checked
        // under this lock), so only the first arrival needs to wake it;
        // this keeps a futex wake-up off most clients' critical path.
        if was_empty {
            self.inbox_signal.notify_one();
        }
    }

    /// Estimated queue wait for a new submission into `lane`, under the
    /// active policy's ordering (milliseconds).
    pub(crate) fn est_wait_ms(&self, lane: Lane) -> f64 {
        self.metrics.est_wait_ms(self.queue.depths_ahead(lane), self.workers)
    }

    /// The maintenance pacer's load signal: true while any query is
    /// waiting for admission, every execution slot is busy (queries run
    /// on their clients' threads, so a saturated server can have an
    /// empty queue), or the interactive wait estimate exceeds
    /// `DbConfig::maint_pace_wait_ms`. Loaded means "defer background
    /// work"; idle means "catch up".
    pub(crate) fn is_loaded(&self) -> bool {
        !self.queue.is_empty()
            || self.queue.is_saturated()
            || self.est_wait_ms(Lane::Interactive) > self.config.maint_pace_wait_ms
    }

    /// Drain up to `quota` pending observations, waiting (at most once)
    /// while there are none. With an empty grace queue the wait blocks
    /// until a notify or shutdown — an idle server burns no CPU; while
    /// retired blocks await collection it also returns after
    /// [`GC_RETRY`], so collection retries without traffic. The queue
    /// is checked under the inbox lock, which [`Shared::publish`]
    /// cycles before it signals, so a new grace entry is never missed.
    /// Any wakeup returns (possibly empty): the maintenance loop counts
    /// a pass per wakeup, which is what `DbServer::drain_maintenance`'s
    /// notify-handshake relies on. Observations beyond the quota stay
    /// queued and are counted on the backlog/deferral gauges.
    pub(crate) fn wait_for_observations(&self, quota: usize) -> Vec<Query> {
        let mut inbox = self.inbox.lock().unwrap();
        if inbox.is_empty() && !self.is_shutdown() {
            inbox = if self.grace.lock().is_empty() {
                self.inbox_signal.wait(inbox).unwrap()
            } else {
                self.inbox_signal.wait_timeout(inbox, GC_RETRY).unwrap().0
            };
        }
        let taken = if inbox.len() <= quota {
            std::mem::take(&mut *inbox)
        } else {
            self.maint_deferrals.fetch_add(1, Ordering::SeqCst);
            if let Some(j) = self.journal() {
                j.event(
                    self.journal_ts_us(),
                    "maintenance-deferral",
                    vec![
                        ("taken".into(), adaptdb_common::AttrValue::Int(quota as i64)),
                        (
                            "deferred".into(),
                            adaptdb_common::AttrValue::Int((inbox.len() - quota) as i64),
                        ),
                    ],
                );
            }
            inbox.drain(..quota).collect()
        };
        self.maint_backlog.store(inbox.len() as u64, Ordering::SeqCst);
        taken
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn engine(&self) -> &Mutex<Database> {
        #[cfg(test)]
        self.engine_locks.fetch_add(1, Ordering::SeqCst);
        &self.engine
    }

    /// Whether replaying `queries` through the engine can change a
    /// layout. Under an adapting mode it always can. Under `Fixed` and
    /// `FullScan` the only change is a delta fold, and it is due only
    /// when a table the queries name holds `ingest_fold_blocks` delta
    /// blocks — read off the published snapshots, which every append
    /// publishes before it returns. Their windows feed nothing but
    /// adaptation, so such a replay is skipped whole.
    pub(crate) fn replay_may_change_layout(&self, queries: &[Query]) -> bool {
        if !matches!(self.config.mode, Mode::Fixed | Mode::FullScan) {
            return true;
        }
        let published = self.published.read();
        let fold_due = |t: &str| {
            published.get(t).is_some_and(|s| s.delta.len() >= self.config.ingest_fold_blocks)
        };
        queries.iter().any(|q| q.tables().into_iter().any(fold_due))
    }

    pub(crate) fn grace(&self) -> &Mutex<VecDeque<GraceEntry>> {
        &self.grace
    }

    /// The one publish path. Installs every table whose current
    /// snapshot differs from the published one (or that is new), then
    /// queues what the swap displaced, together with the blocks the
    /// engine retired since the last call, as one grace entry, and
    /// wakes the maintenance loop to collect it once those readers
    /// drain. `engine` is the caller's engine-mutex guard, so publishes
    /// are totally ordered and grace entries are queued in retirement
    /// order; locks nest engine → `published` → `grace`. A call that
    /// changes nothing takes no write lock and allocates nothing.
    /// Returns how many retired blocks it queued.
    pub(crate) fn publish(&self, engine: &mut Database) -> usize {
        let current = |published: &BTreeMap<String, Arc<TableSnapshot>>, t: &TableState| {
            published.get(&t.name).is_some_and(|slot| std::ptr::eq(&**slot, t.snapshot()))
        };
        let stale = {
            let published = self.published.read();
            !engine.tables().all(|t| current(&published, t))
        };
        let (mut guards, mut swapped) = (Vec::new(), Vec::new());
        if stale {
            #[cfg(test)]
            self.publish_writes.fetch_add(1, Ordering::SeqCst);
            let mut published = self.published.write();
            for t in engine.tables() {
                if current(&published, t) {
                    continue;
                }
                if let Some(displaced) = published.insert(t.name.clone(), t.snapshot_arc()) {
                    guards.push(displaced);
                    swapped.push(&t.name);
                }
            }
        }
        if let Some(j) = self.journal() {
            for table in swapped {
                j.event(
                    self.journal_ts_us(),
                    "snapshot-swap",
                    vec![("table".into(), adaptdb_common::AttrValue::Str(table.clone()))],
                );
            }
        }
        let blocks = engine.take_retired();
        let retired = blocks.len();
        if !guards.is_empty() || !blocks.is_empty() {
            self.grace.lock().push_back(GraceEntry { guards, blocks });
            // Cycle the inbox lock before signalling: the loop checks
            // the grace queue under it, so it either saw this entry or
            // is already waiting for the signal.
            drop(self.inbox.lock().unwrap());
            self.inbox_signal.notify_one();
        }
        retired
    }

    pub(crate) fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    pub(crate) fn maint_clock(&self) -> &SimClock {
        &self.maint_clock
    }

    /// The maintenance journal, or `None` while tracing is off (so the
    /// hot paths skip formatting entirely).
    pub(crate) fn journal(&self) -> Option<&adaptdb_common::Journal> {
        self.config.trace.then_some(&self.journal)
    }

    /// Journal timestamp: the maintenance clock's simulated time, µs.
    pub(crate) fn journal_ts_us(&self) -> u64 {
        adaptdb_dfs::secs_to_us(self.maint_clock.simulated_secs(&self.config.cost))
    }

    pub(crate) fn note_pass(&self, processed: usize) {
        self.obs_processed.fetch_add(processed as u64, Ordering::SeqCst);
        self.maintenance_passes.fetch_add(1, Ordering::SeqCst);
    }
}

/// The per-query reader view: pins the `Arc` of every table the query
/// names under one read of the published map when the view is built,
/// so a query never sees two generations of one table, nor one table
/// before a swap and another after it. A table missing from the map is
/// not pinned, and resolving it fails with [`Error::UnknownTable`].
struct QueryView<'a> {
    shared: &'a Shared,
    pinned: BTreeMap<String, Arc<TableSnapshot>>,
}

impl<'a> QueryView<'a> {
    fn new(shared: &'a Shared, query: &Query) -> Self {
        let pinned = {
            let published = shared.published.read();
            query
                .tables()
                .into_iter()
                .filter_map(|t| published.get_key_value(t))
                .map(|(name, snap)| (name.clone(), Arc::clone(snap)))
                .collect()
        };
        QueryView { shared, pinned }
    }
}

impl SnapshotSource for QueryView<'_> {
    fn config(&self) -> &DbConfig {
        &self.shared.config
    }

    fn store(&self) -> &BlockStore {
        &self.shared.store
    }

    fn snapshot(&self, table: &str) -> Result<Arc<TableSnapshot>> {
        readpath::require_snapshot(&self.pinned, table)
    }
}

/// Options for [`DbServer::start_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Execution slots: at most this many queries execute at once, and
    /// as many worker threads serve the queries that had to queue. A
    /// query runs start to finish on one thread, so this is the
    /// server's only wall-clock parallelism. Defaults to the engine's
    /// `DbConfig::threads` (which honors `ADAPTDB_THREADS`).
    pub workers: Option<usize>,
    /// Admission-queue capacity: the FIFO bound, or the *per-lane*
    /// bound under the lane policies (so a batch storm backpressures
    /// batch producers only). Defaults to `4 × workers`.
    pub queue_capacity: Option<usize>,
    /// Admission-scheduling policy. Defaults to the engine's
    /// `DbConfig::sched`.
    pub sched: Option<SchedPolicy>,
    /// DRR quantum for [`SchedPolicy::Fair`], in cost-block units.
    /// Defaults to [`DEFAULT_FAIR_QUANTUM`].
    pub fair_quantum: Option<f64>,
    /// Latency-aware admission bound: reject a submission up front
    /// (with an error, instead of blocking) when the estimated queue
    /// wait *for its lane* — jobs scheduled ahead of it × their lanes'
    /// observed mean service time ÷ workers — exceeds this many
    /// milliseconds. `None` (the default) keeps pure blocking
    /// backpressure. Queries already admitted always run.
    pub max_queue_wait_ms: Option<f64>,
}

/// Per-submission scheduling options for [`Session::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Admission lane override. `None` classifies by the cheap cost
    /// estimate (`batch_cost_blocks` threshold); explicitly tagging
    /// [`Lane::Maintenance`] is the only way into that lane.
    pub lane: Option<Lane>,
    /// Latency deadline. Under the lane policies a batch or
    /// maintenance query is promoted ahead of lane order once half the
    /// deadline has elapsed in the queue.
    pub deadline: Option<Duration>,
    /// Session scheduling weight under [`SchedPolicy::Fair`]: scales
    /// the session's per-rotation DRR credit, so a weight-4 session is
    /// granted 4× the cost-blocks per rotation of a weight-1 peer in
    /// the same lane (clamped to [0.1, 16]; `None` = 1.0). Ignored by
    /// FIFO and plain lane policies.
    pub weight: Option<f64>,
}

/// A concurrent query server over a loaded [`Database`].
///
/// Construction takes ownership of the engine (load tables first);
/// [`DbServer::stop`] — also run on drop — shuts the pool down
/// gracefully and force-collects any remaining retired blocks.
pub struct DbServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
    worker_count: usize,
}

impl DbServer {
    /// Start serving with default options.
    pub fn start(db: Database) -> Self {
        DbServer::start_with(db, ServerOptions::default())
    }

    /// Start serving. Spawns the worker pool and the maintenance thread.
    pub fn start_with(mut db: Database, opts: ServerOptions) -> Self {
        // The server's invariant: a reader pinned to an old snapshot
        // must be able to finish, so migrated blocks are deleted only
        // after that snapshot drains.
        db.set_retire_mode(RetireMode::Deferred);
        let config = db.config().clone();
        let worker_count = opts.workers.unwrap_or(config.threads).max(1);
        let capacity = opts.queue_capacity.unwrap_or(worker_count * 4).max(1);
        let policy = opts.sched.unwrap_or(config.sched);
        let quantum = opts.fair_quantum.unwrap_or(DEFAULT_FAIR_QUANTUM);
        let published = db.tables().map(|t| (t.name.clone(), t.snapshot_arc())).collect();
        let shared = Arc::new(Shared {
            store: db.store_arc(),
            config,
            engine: Mutex::new(db),
            published: RwLock::new(published),
            grace: Mutex::new(VecDeque::new()),
            #[cfg(test)]
            publish_writes: AtomicU64::new(0),
            #[cfg(test)]
            engine_locks: AtomicU64::new(0),
            inbox: StdMutex::new(Vec::new()),
            inbox_signal: Condvar::new(),
            queue: SchedQueue::new(Scheduler::new(policy, capacity, quantum), worker_count),
            queue_capacity: capacity,
            metrics: Metrics::new(),
            workers: worker_count,
            max_queue_wait_ms: opts.max_queue_wait_ms,
            next_session: AtomicU64::new(1),
            maint_clock: SimClock::maintenance(),
            maintenance_passes: AtomicU64::new(0),
            obs_submitted: AtomicU64::new(0),
            obs_processed: AtomicU64::new(0),
            maint_backlog: AtomicU64::new(0),
            maint_deferrals: AtomicU64::new(0),
            journal: adaptdb_common::Journal::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adaptdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let maintenance = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adaptdb-maintenance".into())
                .spawn(move || maintenance::run_loop(&shared))
                .expect("spawn maintenance")
        };
        DbServer { shared, workers, maintenance: Some(maintenance), worker_count }
    }

    /// Open a client session. Sessions are cheap; give each client
    /// thread its own. Each session is a distinct fairness principal
    /// under [`SchedPolicy::Fair`].
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            stats: SessionStats::default(),
        }
    }

    /// One-off query without session bookkeeping (fairness session 0).
    pub fn run(&self, query: &Query) -> Result<QueryResult> {
        submit(&self.shared, 0, query, SubmitOptions::default()).0
    }

    /// Append rows to a served table — the ingest write path. Rows
    /// land in delta blocks outside any partitioning tree and are
    /// visible to every query admitted after this returns; a query
    /// already pinned to the previous snapshot never sees them
    /// (snapshot isolation per admission). Appending never folds: once
    /// the table holds at least [`DbConfig::ingest_fold_blocks`] delta
    /// blocks, the next maintenance pass that replays a query naming
    /// the table folds them into its partition tree, so under
    /// append-only traffic the delta keeps growing until such a query
    /// runs. A tail block the append's merge retired is collected once
    /// every reader of the displaced snapshot drains. On a durable engine
    /// ([`Database::open_durable`]) the append has been committed to
    /// the manifest journal before this returns.
    pub fn append(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        append_rows(&self.shared, table, rows)
    }

    /// Server-level throughput/latency report, including the live
    /// per-lane depth/wait gauges, ingest counters, and per-session
    /// fairness stats.
    pub fn report(&self) -> ServerReport {
        let lane_depths = self.shared.queue.lane_depths();
        let lane_waits_ms = [
            self.shared.est_wait_ms(Lane::Interactive),
            self.shared.est_wait_ms(Lane::Batch),
            self.shared.est_wait_ms(Lane::Maintenance),
        ];
        // Ingest counters live on the engine; the lock is taken and
        // released before any other lock (same order as maintenance).
        let (ingest, delta_blocks) = {
            let engine = self.shared.engine.lock();
            let delta = engine.tables().map(|t| t.delta().len()).sum();
            (engine.ingest_stats(), delta)
        };
        self.shared.metrics.report(
            self.shared.queue.policy_name(),
            self.worker_count,
            self.shared.queue_capacity,
            lane_depths,
            lane_waits_ms,
            self.shared.maint_clock.snapshot(),
            self.shared.maintenance_passes.load(Ordering::SeqCst),
            self.shared.maint_backlog.load(Ordering::SeqCst) as usize,
            self.shared.maint_deferrals.load(Ordering::SeqCst),
            ingest,
            delta_blocks,
        )
    }

    /// JSON-lines journal of maintenance/adaptation decisions —
    /// adaptation passes (with their maintenance-clock I/O deltas and
    /// retired-block counts), snapshot swaps per table, GC batches, and
    /// pacing deferrals. Empty unless [`DbConfig::trace`] is on.
    /// Timestamps are the maintenance clock's simulated microseconds.
    pub fn journal_jsonl(&self) -> String {
        self.shared.journal.to_jsonl()
    }

    /// The journal's events as structured values (see
    /// [`DbServer::journal_jsonl`]).
    pub fn journal_events(&self) -> Vec<adaptdb_common::JournalEvent> {
        self.shared.journal.snapshot()
    }

    /// Block until every observation submitted so far has been through
    /// window bookkeeping + adaptation, and every retired-block batch
    /// has been garbage-collected (i.e. all readers pinned to displaced
    /// snapshots drained). Call only after in-flight queries you care
    /// about returned. Test hook — production callers never need to
    /// wait on maintenance.
    pub fn drain_maintenance(&self) {
        if self.maintenance.is_none() {
            // Already stopped: the final pass ran and force-collected.
            return;
        }
        let target = self.shared.obs_submitted.load(Ordering::SeqCst);
        while self.shared.obs_processed.load(Ordering::SeqCst) < target {
            self.shared.inbox_signal.notify_one();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Two further passes, so the loop has run a whole pass (its
        // collection included) that began after the last batch…
        let pass_target = self.shared.maintenance_passes.load(Ordering::SeqCst) + 2;
        while self.shared.maintenance_passes.load(Ordering::SeqCst) < pass_target {
            self.shared.inbox_signal.notify_one();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // …then wait for the grace queue to empty (readers drain and
        // collection retries on its own timer while entries remain).
        while !self.shared.grace.lock().is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Inspect (or mutate) the underlying engine under the maintenance
    /// mutex — catalog state, windows, convergence checks in tests.
    /// Whatever the closure changed (tables it created and loaded, rows
    /// it appended) is published to readers before this returns, down
    /// the same path as ingest and maintenance; a closure that changes
    /// nothing leaves the readers' lock alone.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut engine = self.shared.engine.lock();
        let out = f(&mut engine);
        self.shared.publish(&mut engine);
        out
    }

    /// Graceful shutdown: stop admitting, drain the queue, join the
    /// workers, wait for queries running on client threads, run a final
    /// maintenance pass, and force-collect retired blocks (no readers
    /// remain once every slot is released). Idempotent.
    pub fn stop(&mut self) {
        if self.workers.is_empty() && self.maintenance.is_none() {
            return;
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.queue.await_idle();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Take and release the inbox lock between setting the flag and
        // notifying: a maintenance thread between its shutdown check and
        // its wait would otherwise miss the wakeup forever.
        drop(self.shared.inbox.lock().unwrap());
        self.shared.inbox_signal.notify_all();
        if let Some(m) = self.maintenance.take() {
            let _ = m.join();
        }
    }
}

impl Drop for DbServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A client handle: submits queries and accumulates per-session stats.
/// Under [`SchedPolicy::Fair`] each session is one fairness principal
/// of the deficit round-robin.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
    stats: SessionStats,
}

impl Session {
    /// Run one query through the server, blocking for the result (and
    /// for admission while the query's lane is full — that is the
    /// server's backpressure). The lane comes from cost
    /// classification; use [`Session::run_with`] to override it or to
    /// attach a deadline.
    pub fn run(&mut self, query: &Query) -> Result<QueryResult> {
        self.run_with(query, SubmitOptions::default())
    }

    /// Run one query with explicit scheduling options.
    pub fn run_with(&mut self, query: &Query, opts: SubmitOptions) -> Result<QueryResult> {
        let (res, lane) = submit(&self.shared, self.id, query, opts);
        match &res {
            Ok(r) => self.stats.record_ok(lane, r.rows.len(), &r.stats),
            Err(_) => self.stats.record_err(),
        }
        res
    }

    /// Append rows to a served table through this session — see
    /// [`DbServer::append`] for the visibility and durability contract.
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        append_rows(&self.shared, table, rows)
    }

    /// This session's fairness-principal id (stable for its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this session's queries did so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }
}

/// The shared ingest write path: run the engine's append under the
/// maintenance mutex, then publish the table's new snapshot
/// ([`Shared::publish`] queues the displaced one, and any tail block
/// the merge retired, for collection once its readers drain).
fn append_rows(shared: &Shared, table: &str, rows: Vec<Row>) -> Result<usize> {
    let engine = &mut *shared.engine.lock();
    let n = engine.append_rows_with(table, rows, shared.maint_clock())?;
    shared.publish(engine);
    if let Some(j) = shared.journal() {
        let delta_blocks = engine.table(table)?.delta().len();
        j.event(
            shared.journal_ts_us(),
            "append",
            vec![
                ("table".into(), adaptdb_common::AttrValue::Str(table.to_string())),
                ("rows".into(), adaptdb_common::AttrValue::Int(n as i64)),
                ("delta_blocks".into(), adaptdb_common::AttrValue::Int(delta_blocks as i64)),
            ],
        );
    }
    Ok(n)
}

/// Classify and admission-check one query, then run it on this thread
/// if the server is idle, else enqueue it and await a worker's reply.
/// Returns the result and the lane the query was admitted into.
fn submit(
    shared: &Arc<Shared>,
    session: u64,
    query: &Query,
    opts: SubmitOptions,
) -> (Result<QueryResult>, Lane) {
    // An attribute outside its table's schema would panic a worker
    // mid-plan; reject it before it is estimated or queued.
    let view = QueryView::new(shared, query);
    if let Err(e) = readpath::check_attrs(&view, query) {
        return (Err(e), opts.lane.unwrap_or(Lane::Interactive));
    }
    // The cheap cost estimate (tree lookups only): the classification
    // and fair-share weighting signal. An estimation error (e.g.
    // unknown table) is not surfaced here — the query is admitted
    // interactive and the executor reports the real error.
    let est = cost::estimate_query(&view, query).unwrap_or_default();
    let lane = opts.lane.unwrap_or_else(|| est.lane(&shared.config));
    // Seed the cold-start queue-wait prior: before any query finishes,
    // the admission estimate is the only service-time signal available.
    shared.metrics.note_estimate(est.est_secs(&shared.config.cost));
    // Latency-aware admission: when a wait bound is configured, shed
    // load up front instead of blocking. The estimate is per lane —
    // only work scheduled *ahead* of this submission counts, priced at
    // its own lanes' observed service times, so a drained batch lane
    // never masks interactive backlog and a deep batch lane never
    // sheds healthy interactive load.
    if let Some(bound_ms) = shared.max_queue_wait_ms {
        let est_ms = shared.est_wait_ms(lane);
        if est_ms > bound_ms {
            shared.metrics.note_shed(lane);
            return (
                Err(Error::Plan(format!(
                    "admission rejected: estimated {lane}-lane queue wait {est_ms:.1} ms \
                     exceeds bound {bound_ms:.1} ms"
                ))),
                lane,
            );
        }
    }
    let meta = match opts.weight {
        Some(w) => JobMeta::new(session, lane, est.blocks, opts.deadline).with_weight(w),
        None => JobMeta::new(session, lane, est.blocks, opts.deadline),
    };
    // Caller-runs: nothing queued and a slot free, so run here on the
    // snapshots pinned above. Queued work always runs first.
    if let Some(_slot) = shared.queue.try_claim() {
        return (serve(shared, &view, Cow::Borrowed(query), &meta), lane);
    }
    // A queued query pins when a worker pops it, so it sees the layout
    // current then, and holds no old snapshot while it waits.
    drop(view);
    let (reply, rx) = mpsc::channel();
    if shared.queue.push(Job { query: query.clone(), reply }, meta).is_err() {
        return (Err(Error::Plan("server is shut down".into())), lane);
    }
    let res = match rx.recv() {
        Ok(r) => r,
        Err(_) => Err(Error::Plan("server worker dropped the query".into())),
    };
    (res, lane)
}

/// The message a panic was raised with, for the failed query's error.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or("unknown panic", |s| s).to_string(),
    };
    format!("query panicked: {msg}")
}

/// Run one admitted query on the snapshot read path.
fn execute(
    shared: &Shared,
    view: &QueryView<'_>,
    query: &Query,
    meta: &JobMeta,
    queue_wait: Duration,
) -> Result<QueryResult> {
    #[cfg(test)]
    tests::on_execute(query);
    let unaccounted_before = shared.store.unaccounted_reads();
    let clock = SimClock::new();
    // Per-query span tree when tracing is on. The simulated clock
    // starts at zero per query; admission wait is wall time, not
    // simulated, so it rides as a zero-duration span attribute.
    let params = &shared.config.cost;
    let tracer = shared.config.trace.then(adaptdb_common::Tracer::new);
    let root = tracer.as_ref().map(|t| {
        let root = t.start("query", None, 0);
        let w = t.start("admission-wait", Some(root), 0);
        t.attr_f(w, "wall_ms", queue_wait.as_secs_f64() * 1e3);
        t.attr_s(w, "lane", meta.lane.name());
        if meta.promoted {
            t.attr_i(w, "promoted", 1);
        }
        t.end(w, 0);
        root
    });
    let trace_ctx = tracer.as_ref().zip(root).map(|(t, root)| adaptdb_dfs::TraceCtx {
        tracer: t,
        params,
        parent: root,
        base_us: 0,
    });
    let result = readpath::execute_query_traced(view, query, &clock, trace_ctx).map(
        |(rows, strategy, c_hyj)| {
            let mut stats = QueryStats::empty(strategy);
            stats.query_io = clock.snapshot();
            stats.shuffle = clock.shuffle_snapshot();
            stats.overlap = clock.overlap_snapshot();
            stats.estimated_c_hyj = c_hyj;
            // Submit-to-finish, so admission wait shows up under load.
            stats.wall_secs = meta.submitted.elapsed().as_secs_f64();
            stats.queue_wait_secs = queue_wait.as_secs_f64();
            let trace = tracer.map(|t| {
                let root = root.expect("root exists when tracing");
                t.attr_s(root, "strategy", &format!("{strategy:?}"));
                t.attr_i(root, "rows", rows.len() as i64);
                t.attr_i(root, "blocks_read", stats.query_io.reads() as i64);
                t.end(root, adaptdb_dfs::secs_to_us(stats.query_io.simulated_secs(params)));
                Arc::new(t.finish())
            });
            QueryResult { rows, stats, trace }
        },
    );
    debug_assert_eq!(
        shared.store.unaccounted_reads(),
        unaccounted_before,
        "a server read path skipped clock accounting"
    );
    result
}

/// Run one admitted query on the calling thread, on the snapshots of
/// `view` — the one body of both admission paths: a client thread that
/// found the server idle, and a worker that popped a queued query.
fn serve(
    shared: &Shared,
    view: &QueryView<'_>,
    query: Cow<'_, Query>,
    meta: &JobMeta,
) -> Result<QueryResult> {
    shared.metrics.begin();
    let picked_up = Instant::now();
    let queue_wait = picked_up.duration_since(meta.submitted);
    // A panic while running the query fails that query, not the thread
    // running it: without the catch a worker dies (and a one-worker
    // server never answers again), or the client's own thread unwinds.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        execute(shared, view, &query, meta, queue_wait)
    }))
    .unwrap_or_else(|payload| Err(Error::Plan(panic_message(payload))));
    let ok = result.is_ok();
    if let Ok(r) = &result {
        shared.metrics.note_shuffle(&r.stats.shuffle);
        // Feed the window/adaptation machinery off the hot path. A
        // queued query is owned here; an inline one is cloned once, as
        // enqueuing it would have. A failed query is not observed:
        // replaying a panicking one on the maintenance thread would
        // panic there too.
        shared.push_observation(query.into_owned());
    }
    shared.metrics.record(
        meta.lane,
        meta.session,
        meta.cost_blocks,
        meta.promoted,
        meta.submitted.elapsed(),
        picked_up.elapsed(),
        ok,
    );
    result
}

fn worker_loop(shared: &Shared) {
    while let Some((Job { query, reply }, meta, slot)) = shared.queue.pop() {
        let view = QueryView::new(shared, &query);
        let result = serve(shared, &view, Cow::Owned(query), &meta);
        // Free the slot before replying, so the client's next query can
        // claim it and run inline.
        drop((view, slot));
        // A client that gave up waiting is not an error.
        let _ = reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, JoinQuery, JoinStep, ScanQuery, Schema, ValueType};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    /// A scan of this table panics inside `execute`.
    const PANIC_TABLE: &str = "panic-in-read-path";

    /// A scan of `GATE_PREFIX` + `<gate>/<id>` waits inside `execute` at
    /// the registered [`Gate`] named `<gate>` until the test opens `id`.
    /// No such table exists, so once let through the query fails with
    /// `UnknownTable`.
    const GATE_PREFIX: &str = "gate-in-read-path/";

    static GATES: StdMutex<BTreeMap<String, Arc<Gate>>> = StdMutex::new(BTreeMap::new());

    /// How long a test waits for the server before calling it stuck.
    const STUCK: Duration = Duration::from_secs(60);

    thread_local! {
        /// Queries `execute` ran on this thread.
        static EXECUTED_HERE: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn on_execute(query: &Query) {
        EXECUTED_HERE.with(|n| n.set(n.get() + 1));
        let Query::Scan(scan) = query else { return };
        if scan.table == PANIC_TABLE {
            panic!("read path failed on {PANIC_TABLE}");
        }
        if let Some((gate, id)) =
            scan.table.strip_prefix(GATE_PREFIX).and_then(|r| r.split_once('/'))
        {
            let gate = Arc::clone(&GATES.lock().unwrap()[gate]);
            gate.pass(id.parse().expect("gate id"));
        }
    }

    fn executed_here() -> usize {
        EXECUTED_HERE.with(Cell::get)
    }

    #[derive(Default)]
    struct GateState {
        opened: BTreeSet<usize>,
        all_open: bool,
        running: usize,
        max_running: usize,
        /// Ids in the order their queries reached the gate.
        started: Vec<usize>,
    }

    /// A latch inside `execute` that counts the queries waiting at it.
    #[derive(Default)]
    struct Gate {
        state: StdMutex<GateState>,
        changed: Condvar,
    }

    impl Gate {
        /// Register a gate under `name` (one per test: tests share the
        /// registry and run in parallel).
        fn register(name: &str) -> Arc<Gate> {
            let gate = Arc::new(Gate::default());
            GATES.lock().unwrap().insert(name.to_string(), Arc::clone(&gate));
            gate
        }

        fn query(name: &str, id: usize) -> Query {
            Query::Scan(ScanQuery::full(format!("{GATE_PREFIX}{name}/{id}")))
        }

        fn pass(&self, id: usize) {
            let mut st = self.state.lock().unwrap();
            st.running += 1;
            st.max_running = st.max_running.max(st.running);
            st.started.push(id);
            self.changed.notify_all();
            while !st.all_open && !st.opened.contains(&id) {
                st = self.changed.wait(st).unwrap();
            }
            st.running -= 1;
        }

        fn open(&self, id: usize) {
            self.state.lock().unwrap().opened.insert(id);
            self.changed.notify_all();
        }

        /// Wait until `n` queries have reached the gate; their ids in
        /// arrival order.
        fn await_started(&self, n: usize) -> Vec<usize> {
            let st = self.state.lock().unwrap();
            let (st, timeout) =
                self.changed.wait_timeout_while(st, STUCK, |st| st.started.len() < n).unwrap();
            let started = st.started.clone();
            drop(st);
            assert!(!timeout.timed_out(), "only {started:?} reached the gate");
            started
        }

        fn max_running(&self) -> usize {
            self.state.lock().unwrap().max_running
        }
    }

    /// Opens the gate for every id when dropped, so a failing test
    /// cannot leave its clients blocked at the gate (a scoped client
    /// would hang the test instead of failing it).
    struct OpenOnDrop<'a>(&'a Gate);

    impl Drop for OpenOnDrop<'_> {
        fn drop(&mut self) {
            self.0.state.lock().unwrap().all_open = true;
            self.0.changed.notify_all();
        }
    }

    /// Wait until `depth` queries are queued.
    fn await_queued(server: &DbServer, depth: usize) {
        let deadline = Instant::now() + STUCK;
        while server.shared.queue.len() < depth {
            assert!(Instant::now() < deadline, "queue never reached depth {depth}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `l` (64 rows) joins `r` (32 rows) into 64 rows.
    fn small_join_db() -> Database {
        let mut db = Database::new(DbConfig { rows_per_block: 8, ..DbConfig::small() });
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
        db.create_table("r", schema, vec![0, 1]).unwrap();
        db.load_rows("l", (0..64i64).map(|i| row![i % 32, i])).unwrap();
        db.load_rows("r", (0..32i64).map(|i| row![i, i * 2])).unwrap();
        db
    }

    fn small_join() -> Query {
        Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
    }

    #[test]
    fn an_idle_server_runs_queries_on_the_callers_thread() {
        let server = DbServer::start_with(
            small_join_db(),
            ServerOptions { workers: Some(2), ..Default::default() },
        );
        let mut session = server.session();
        let before = executed_here();
        assert_eq!(session.run(&small_join()).unwrap().rows.len(), 64);
        assert_eq!(executed_here(), before + 1, "Session::run handed the query to a worker");
        assert_eq!(server.run(&small_join()).unwrap().rows.len(), 64);
        assert_eq!(executed_here(), before + 2, "DbServer::run handed the query to a worker");
        server.drain_maintenance();
        assert_eq!(server.report().in_flight, 0);
    }

    #[test]
    fn at_most_workers_queries_execute_and_the_rest_queue_in_fifo_order() {
        let gate = Gate::register("slot-bound");
        let server = DbServer::start_with(
            small_join_db(),
            ServerOptions {
                workers: Some(2),
                sched: Some(SchedPolicy::Fifo),
                ..Default::default()
            },
        );
        std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            let mut clients = Vec::new();
            for id in 0..5 {
                let mut session = server.session();
                clients.push(s.spawn(move || session.run(&Gate::query("slot-bound", id))));
                // Clients 0 and 1 take the two slots on their own
                // threads; 2, 3 and 4 queue behind them, in this order.
                if id < 2 {
                    gate.await_started(id + 1);
                } else {
                    await_queued(&server, id - 1);
                }
            }
            assert_eq!(server.report().in_flight, 2);
            // Each freed slot starts the oldest queued query.
            for (freed, next) in [(0, 2), (1, 3), (2, 4)] {
                gate.open(freed);
                assert_eq!(
                    gate.await_started(next + 1)[next],
                    next,
                    "queued queries ran out of order"
                );
            }
            gate.open(3);
            gate.open(4);
            for c in clients {
                assert!(matches!(c.join().unwrap(), Err(Error::UnknownTable(_))));
            }
        });
        assert_eq!(gate.max_running(), 2, "more than `workers` queries executed at once");
        let report = server.report();
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.queries, 5);
    }

    #[test]
    fn a_queued_panicking_query_fails_alone_and_the_worker_keeps_serving() {
        let gate = Gate::register("queued-panic");
        let server = Arc::new(DbServer::start_with(
            small_join_db(),
            ServerOptions { workers: Some(1), ..Default::default() },
        ));
        let _open = OpenOnDrop(&gate);
        let (tx, rx) = mpsc::channel();
        // Each client reports its answer and how many queries ran on its
        // own thread.
        let spawn_client = |name: &'static str, query: Query| {
            let (server, tx) = (Arc::clone(&server), tx.clone());
            std::thread::spawn(move || {
                let before = executed_here();
                let res = server.run(&query).map(|r| r.rows.len());
                tx.send((name, (res, executed_here() - before))).unwrap();
            })
        };
        // The gated query holds the only slot, so the next two queue.
        let clients = [
            spawn_client("holder", Gate::query("queued-panic", 0)),
            {
                gate.await_started(1);
                spawn_client("panicking", Query::Scan(ScanQuery::full(PANIC_TABLE)))
            },
            {
                await_queued(&server, 1);
                spawn_client("next", small_join())
            },
        ];
        await_queued(&server, 2);
        gate.open(0);
        let answers: BTreeMap<_, _> =
            (0..3).map(|_| rx.recv_timeout(STUCK).expect("server stopped answering")).collect();
        for client in clients {
            client.join().expect("client thread");
        }
        assert!(matches!(answers["holder"], (Err(Error::UnknownTable(_)), 1)));
        match &answers["panicking"] {
            (Err(Error::Plan(msg)), 0) => assert!(msg.contains(PANIC_TABLE), "{msg}"),
            other => panic!("expected the panic as an error from the worker, got {other:?}"),
        }
        assert!(
            matches!(answers["next"], (Ok(64), 0)),
            "the worker must serve the next query: {:?}",
            answers["next"]
        );
        server.drain_maintenance();
        let report = server.report();
        assert_eq!(report.in_flight, 0, "the failed query left the in-flight gauge");
        assert_eq!(report.errors, 2);
    }

    /// `stop` closes admission but lets every client already queued
    /// behind a held slot run, and returns once the last one finished.
    #[test]
    fn stop_lets_every_queued_client_finish() {
        let gate = Gate::register("stop-drains");
        let mut server = DbServer::start_with(
            small_join_db(),
            ServerOptions { workers: Some(1), ..Default::default() },
        );
        let mut late = server.session();
        let _open = OpenOnDrop(&gate);
        let (tx, rx) = mpsc::channel();
        let spawn_client = |query: Query| {
            let (mut session, tx) = (server.session(), tx.clone());
            std::thread::spawn(move || tx.send(session.run(&query).map(|r| r.rows.len())).unwrap())
        };
        let mut clients = vec![spawn_client(Gate::query("stop-drains", 0))];
        gate.await_started(1);
        for depth in 1..=3 {
            clients.push(spawn_client(small_join()));
            await_queued(&server, depth);
        }
        let (stopped_tx, stopped) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            stopped_tx.send(()).unwrap();
            server
        });
        assert!(
            stopped.recv_timeout(Duration::from_millis(50)).is_err(),
            "stop returned while a query held the slot"
        );
        gate.open(0);
        let mut answers: Vec<_> = (0..4)
            .map(|_| rx.recv_timeout(STUCK).expect("a queued client got no answer"))
            .collect();
        stopped.recv_timeout(STUCK).expect("stop never returned");
        for client in clients {
            client.join().expect("client thread");
        }
        let server = stopper.join().expect("stopper thread");
        answers.sort_by_key(|a| a.is_ok());
        assert!(matches!(answers[0], Err(Error::UnknownTable(_))), "{answers:?}");
        assert!(answers[1..].iter().all(|a| matches!(a, Ok(64))), "{answers:?}");
        assert!(
            matches!(late.run(&small_join()), Err(Error::Plan(msg)) if msg.contains("shut down")),
            "a stopped server admits nothing"
        );
        let report = server.report();
        assert_eq!((report.queries, report.in_flight, report.queue_depth), (4, 0, 0));
    }

    #[test]
    fn a_panicking_query_fails_alone_and_the_worker_keeps_serving() {
        // One slot, and the server idle between queries, so both run on
        // the client's thread: the panic must come back as an error, and
        // the slot it held must be free for the next query (the queued
        // case is `a_queued_panicking_query_fails_alone_…`). Wait with a
        // timeout instead of hanging if it is not.
        let server = Arc::new(DbServer::start_with(
            small_join_db(),
            ServerOptions { workers: Some(1), ..Default::default() },
        ));
        let join = small_join();
        let queries = [Query::Scan(ScanQuery::full(PANIC_TABLE)), join];
        let (tx, rx) = mpsc::channel();
        let client = Arc::clone(&server);
        let client_thread = std::thread::spawn(move || {
            for q in &queries {
                tx.send(client.run(q).map(|r| r.rows.len())).unwrap();
            }
        });
        let answer = || rx.recv_timeout(Duration::from_secs(60)).expect("server stopped answering");
        match answer() {
            Err(Error::Plan(msg)) => assert!(msg.contains(PANIC_TABLE), "{msg}"),
            other => panic!("expected the panic as an error, got {other:?}"),
        }
        assert_eq!(answer().unwrap(), 64, "the next query is served");
        client_thread.join().expect("client thread");
        server.drain_maintenance();
        let report = server.report();
        assert_eq!(report.in_flight, 0, "the failed query left the in-flight gauge");
        assert_eq!(report.errors, 1);
    }

    /// A `Fixed` server over two small tables, `l` (64 rows) and `r`
    /// (32 rows), eight rows a block.
    fn fixed_join_server() -> DbServer {
        let config =
            DbConfig { rows_per_block: 8, mode: adaptdb::Mode::Fixed, ..DbConfig::small() };
        let mut db = Database::new(config);
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
        db.create_table("r", schema, vec![0, 1]).unwrap();
        db.load_rows("l", (0..64i64).map(|i| row![i % 32, i])).unwrap();
        db.load_rows("r", (0..32i64).map(|i| row![i, i * 2])).unwrap();
        DbServer::start(db)
    }

    /// A `Fixed` server never changes a layout unless a fold is due, so
    /// its maintenance passes take neither the engine mutex nor the
    /// readers' write lock.
    #[test]
    fn idle_maintenance_passes_take_no_publish_write_lock() {
        let server = fixed_join_server();
        let join = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
        let passes_before = server.shared.maintenance_passes.load(Ordering::SeqCst);
        for _ in 0..4 {
            for _ in 0..3 {
                assert_eq!(server.run(&join).unwrap().rows.len(), 64);
            }
            server.drain_maintenance();
        }
        let passes = server.shared.maintenance_passes.load(Ordering::SeqCst) - passes_before;
        assert!(passes >= 8, "only {passes} maintenance passes ran");
        assert_eq!(server.shared.obs_processed.load(Ordering::SeqCst), 12);
        assert_eq!(server.shared.engine_locks.load(Ordering::SeqCst), 0);
        assert_eq!(server.shared.publish_writes.load(Ordering::SeqCst), 0);
    }

    /// A due fold is the one layout change a `Fixed` server makes: a
    /// query on a table whose delta reached `ingest_fold_blocks` sends
    /// its pass to the engine, which folds the delta; a query on the
    /// other table does not.
    #[test]
    fn fixed_server_maintenance_locks_the_engine_only_for_a_due_fold() {
        let server = fixed_join_server();
        let fold = server.shared.config.ingest_fold_blocks;
        server.append("r", (0..(8 * fold) as i64).map(|i| row![100 + i, i]).collect()).unwrap();
        assert!(server.report().delta_blocks >= fold);
        let scan = |t: &str| Query::Scan(ScanQuery::full(t));
        assert_eq!(server.run(&scan("l")).unwrap().rows.len(), 64);
        server.drain_maintenance();
        assert_eq!(server.shared.engine_locks.load(Ordering::SeqCst), 0, "l has no delta");
        assert_eq!(server.run(&scan("r")).unwrap().rows.len(), 32 + 8 * fold);
        server.drain_maintenance();
        assert_eq!(server.shared.engine_locks.load(Ordering::SeqCst), 1);
        assert_eq!(server.report().delta_blocks, 0, "the pass folded r's delta");
        assert_eq!(server.run(&scan("r")).unwrap().rows.len(), 32 + 8 * fold);
    }

    /// `with_engine` publishes exactly what its closure changed: a
    /// read-only closure leaves the readers' lock alone, and an append
    /// made inside one is served and its displaced snapshot queued.
    #[test]
    fn with_engine_publishes_only_what_its_closure_changed() {
        let server = DbServer::start(small_join_db());
        let before = Arc::clone(&server.shared.published.read()["r"]);
        let blocks = server.with_engine(|db| db.table("r").unwrap().snapshot().total_blocks());
        assert_eq!(blocks, 4);
        assert_eq!(server.shared.publish_writes.load(Ordering::SeqCst), 0);
        server.with_engine(|db| db.append_rows("r", vec![row![32i64, 64i64]]).unwrap());
        assert_eq!(server.shared.publish_writes.load(Ordering::SeqCst), 1);
        assert!(!Arc::ptr_eq(&server.shared.published.read()["r"], &before));
        // `before` still pins the displaced snapshot, so its entry waits.
        assert_eq!(server.shared.grace.lock().len(), 1);
        let scan = Query::Scan(ScanQuery::full("r"));
        assert_eq!(server.run(&scan).unwrap().rows.len(), 33);
        drop(before);
        server.drain_maintenance();
    }

    /// A view pins every table of a multi-way join when it is built: a
    /// snapshot an append publishes afterwards is not the one the query
    /// reads.
    #[test]
    fn query_view_pins_every_table_when_built() {
        let mut db = Database::new(DbConfig { rows_per_block: 8, ..DbConfig::small() });
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        for t in ["a", "b", "c"] {
            db.create_table(t, schema.clone(), vec![0, 1]).unwrap();
            db.load_rows(t, (0..16i64).map(|i| row![i, i])).unwrap();
        }
        let server = DbServer::start(db);
        let query = Query::MultiJoin {
            first: JoinQuery::new(ScanQuery::full("a"), ScanQuery::full("b"), 0, 0),
            steps: vec![JoinStep {
                intermediate_attr: 0,
                table: ScanQuery::full("c"),
                table_attr: 0,
            }],
        };
        let before = Arc::clone(&server.shared.published.read()["b"]);
        let view = QueryView::new(&server.shared, &query);
        server.append("b", vec![row![16i64, 16i64]]).unwrap();
        let fresh = Arc::clone(&server.shared.published.read()["b"]);
        assert!(!Arc::ptr_eq(&fresh, &before), "the append must publish a new snapshot");
        let got = view.snapshot("b").unwrap();
        assert!(Arc::ptr_eq(&got, &before), "the view must keep the pre-publish snapshot");
        assert!(!Arc::ptr_eq(&got, &fresh));
        // A table the query does not name is not pinned.
        assert!(matches!(view.snapshot("missing"), Err(Error::UnknownTable(_))));
    }
}
