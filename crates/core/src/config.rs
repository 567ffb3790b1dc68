//! Database configuration.

use adaptdb_common::CostParams;

/// Which system variant runs — AdaptDB proper or one of the paper's
/// baselines (Figs. 12, 13, 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full AdaptDB: smooth repartitioning toward join attributes,
    /// Amoeba-style selection adaptation, cost-based hyper-join.
    Adaptive,
    /// "Full Scan" baseline: partitioning trees are ignored for pruning
    /// and every join is a shuffle join over all blocks.
    FullScan,
    /// "Repartitioning" baseline: no smooth migration — when half the
    /// query window uses a new join attribute, the whole table is
    /// repartitioned at once (the latency spikes of Figs. 13/18).
    FullRepartition,
    /// Amoeba baseline: selection-predicate adaptation only, shuffle
    /// joins always (its trees carry no join attribute).
    Amoeba,
    /// Static partitioning as loaded (hand-tuned / "best guess"
    /// baselines); the planner still chooses hyper vs shuffle by cost.
    Fixed,
}

/// Admission-scheduling policy of the serving runtime: how the one
/// admission queue in `crates/server` assigns each job a
/// `(queue, session)` slot. Selectable per server via
/// `ServerOptions::sched`, defaulting to FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// One FIFO queue, no lanes: every admitted query runs in arrival
    /// order. The original bounded-queue behavior.
    #[default]
    Fifo,
    /// Priority lanes (interactive > batch > maintenance) with
    /// cost-based classification, per-lane capacity, deadline
    /// promotion, and a maintenance starvation cap.
    Lanes,
    /// The same lane priority, with deficit-weighted round-robin
    /// across sessions (fair share) inside each lane.
    Fair,
}

impl SchedPolicy {
    /// Stable lower-case name (`"fifo"`, `"lanes"`, `"fair"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Lanes => "lanes",
            SchedPolicy::Fair => "fair",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for a [`crate::Database`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Simulated cluster size (paper: 10 machines).
    pub nodes: usize,
    /// DFS replication factor (HDFS default: 3).
    pub replication: usize,
    /// Block-size budget expressed in rows (the paper's `B` bytes; all
    /// rows of a table are near-constant size, so rows are the unit).
    pub rows_per_block: usize,
    /// Query-window length `|W|` (paper default: 10, §7.1).
    pub window_size: usize,
    /// Hyper-join memory budget in blocks per worker (Fig. 14 sweeps
    /// this; paper lands on 4 GB ≈ tens of blocks).
    pub buffer_blocks: usize,
    /// Fraction of tree levels reserved for the join attribute in
    /// two-phase trees (paper default: half, §7.1).
    pub join_levels_fraction: f64,
    /// Minimum number of window queries with a new join attribute before
    /// a tree is created for it (`f_min`, §5.2).
    pub min_join_frequency: usize,
    /// Enable Amoeba-style selection-predicate adaptation.
    pub adapt_selections: bool,
    /// Shuffle-service reducer fan-out (`None` = one reducer per
    /// cluster node, the Spark default of "as many reducers as cores").
    pub shuffle_partitions: Option<usize>,
    /// Replication factor for spilled shuffle runs. 1 (the default)
    /// matches Spark/MapReduce shuffle files: transient runs are not
    /// worth the HDFS factor, and the occasional remote fetch is
    /// exactly what `C_SJ = 3` prices in. Raising it trades spill
    /// bandwidth for fetch locality (see `fig_shuffle`).
    pub shuffle_replication: usize,
    /// Hot-partition split threshold for shuffle joins: a reduce
    /// partition whose combined row load exceeds this multiple of the
    /// mean partition load (and is at least two blocks of rows) is
    /// split across extra reducers — the skew inverse of AQE-style
    /// coalescing. `None` disables splitting. The default (4×) leaves
    /// uniform workloads untouched.
    pub shuffle_split_threshold: Option<f64>,
    /// Per-reducer build-side memory budget for shuffle joins, in
    /// blocks: a reducer whose build hash table would exceed it spills
    /// the overflow to scratch and recursively repartitions it
    /// (Grace-style), falling back to block-nested-loop at the
    /// recursion cap. `None` (the default) is unbounded — the
    /// pre-budget join, bit-identical block counts. Changing it
    /// changes the I/O *plan* (budgeted builds spill and re-read
    /// overflow), but never a query's rows.
    pub join_mem_budget_blocks: Option<usize>,
    /// Depth of the fetch streams every scan, hyper-join probe leg, and
    /// shuffle reducer reads through: up to this many block reads
    /// outstanding, charged max-of-window latency on the overlap
    /// breakdown. `1` is a one-deep stream that reads one block at a
    /// time, when it is needed — serial I/O, hiding nothing. Block
    /// *counts*, rows, and row order are the same at every setting.
    pub fetch_window: usize,
    /// Admission-scheduling policy the server runs
    /// ([`SchedPolicy::Fifo`] | [`SchedPolicy::Lanes`] |
    /// [`SchedPolicy::Fair`]). Pure scheduling: never changes any
    /// query's result, only the order work is admitted in. Defaults to
    /// [`SchedPolicy::Fifo`].
    pub sched: SchedPolicy,
    /// Cost-classification threshold: a query whose cheap estimate
    /// ([`crate::cost::estimate_query`]) projects at least this many
    /// candidate blocks is admitted into the batch lane instead of the
    /// interactive lane. Irrelevant under [`SchedPolicy::Fifo`].
    pub batch_cost_blocks: usize,
    /// Maintenance pacing threshold, milliseconds: when the estimated
    /// interactive queue wait exceeds this (or any query is waiting for
    /// admission), the background maintenance thread throttles itself
    /// to one observation per paced pass instead of draining its whole
    /// inbox — adaptation defers under load and catches up at idle.
    pub maint_pace_wait_ms: f64,
    /// Deprecated no-op, read nowhere. Prefetch pacing shrank a served
    /// query's `fetch_window` under queue pressure; a fetch window is
    /// simulated accounting only, so pacing saved no wall time and was
    /// removed. The field stays only so configurations that spell it
    /// out keep compiling.
    #[deprecated(note = "no effect: prefetch pacing was removed")]
    pub fetch_pace_wait_ms: Option<f64>,
    /// Deprecated no-op, read nowhere. The engine has one data plane:
    /// blocks are written `ADB2` and every filtered read materialises
    /// late. The field stays only so configurations that spell it out
    /// keep compiling.
    #[deprecated(note = "no effect: the columnar data plane is the only one")]
    pub columnar: bool,
    /// Deprecated no-op, read nowhere. A query runs on one thread and a
    /// scan gathers each block's selected rows in one call, so there
    /// are no morsels to size. The field stays only so configurations
    /// that spell it out keep compiling.
    #[deprecated(note = "no effect: scans no longer split blocks into morsels")]
    pub morsel_rows: usize,
    /// Query-lifecycle tracing: when on, every query run through
    /// [`crate::Database`] or the server collects a span tree
    /// (plan/scan/shuffle map/fetch/probe/…) timestamped on the
    /// simulated clocks, exportable as Chrome trace-event JSON. Tracing
    /// is observational only — it never charges a clock, so every
    /// stat, block count, and result is bit-identical with it off
    /// (the default).
    pub trace: bool,
    /// Delta-fold threshold for the ingest path: once a table has
    /// accumulated at least this many unfolded delta blocks, the next
    /// adaptation on a query naming the table folds them into the
    /// partition tree (a repartition of just the deltas, costed on the
    /// maintenance clock). An append alone never folds. Smaller =
    /// tighter query plans, more background I/O.
    pub ingest_fold_blocks: usize,
    /// Merge appended rows into a partial delta tail block instead of
    /// always opening a new block: the tail is read back (charged),
    /// rewritten full-size, and the old tail retired. Keeps trickle
    /// ingest block counts identical to bulk ingest of the same rows.
    /// On by default; disable to make every append its own block run.
    pub ingest_merge_tail: bool,
    /// Never read: the per-node block cache it sized was removed, and
    /// every block access is a DFS read as in the paper's cost model.
    /// The field stays only so configurations that spell it out keep
    /// compiling.
    #[deprecated(note = "no effect: the block cache was removed")]
    pub cache_blocks_per_node: usize,
    /// Durable-journal directory: when set, every block write/remove
    /// and every committed catalog snapshot is logged to a write-ahead
    /// manifest journal under this path (`FileDfs` backend), and
    /// [`crate::Database::open_durable`] can recover the last committed
    /// snapshot after a crash. `None` (the default) keeps the purely
    /// in-memory `SimDfs`.
    pub durable_path: Option<String>,
    /// Cost model for simulated seconds and plan comparison.
    pub cost: CostParams,
    /// System variant.
    pub mode: Mode,
    /// The server's default execution slots: how many queries
    /// `adaptdb_server::DbServer` runs at once when its
    /// `ServerOptions::workers` is unset. A query itself always runs on
    /// one thread, so [`crate::Database`] alone never reads this, and
    /// no simulated number depends on it. Defaults honor the
    /// `ADAPTDB_THREADS` environment variable (a positive integer).
    pub threads: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for DbConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        DbConfig {
            nodes: 10,
            replication: 3,
            rows_per_block: 200,
            window_size: 10,
            buffer_blocks: 4,
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
            cost: CostParams::default(),
            mode: Mode::Adaptive,
            threads: env_override("ADAPTDB_THREADS", positive).unwrap_or(2),
            seed: 42,
        }
    }
}

/// The `var` environment override: `None` when unset, else the value
/// `parse` reads from it (trimmed). A value `parse` rejects — malformed
/// or out of range — panics with the variable and the value, so a typo
/// never silently falls back to the default.
fn env_override<T>(var: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    let raw = match std::env::var(var) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(raw)) => panic!("{var}={raw:?} is not valid UTF-8"),
    };
    Some(parse_override(var, &raw, parse).unwrap_or_else(|msg| panic!("{msg}")))
}

/// The pure half of [`env_override`]: `raw` parsed, or a message naming
/// `var` and `raw`.
fn parse_override<T>(var: &str, raw: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    parse(raw.trim()).ok_or_else(|| format!("malformed environment override {var}={raw:?}"))
}

fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|n| *n > 0)
}

impl DbConfig {
    /// A small configuration suited to unit tests and doc examples:
    /// 4 nodes, no replication, tiny blocks.
    pub fn small() -> Self {
        DbConfig {
            nodes: 4,
            replication: 1,
            rows_per_block: 16,
            buffer_blocks: 2,
            threads: env_override("ADAPTDB_THREADS", positive).unwrap_or(1),
            ..DbConfig::default()
        }
    }

    /// Same configuration with a different [`Mode`] — used to build the
    /// baseline systems in experiments.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Tree depth for a table of `rows` rows: enough levels that leaf
    /// buckets hold about one block each.
    pub fn depth_for_rows(&self, rows: usize) -> usize {
        if rows <= self.rows_per_block {
            return 0;
        }
        (rows as f64 / self.rows_per_block as f64).log2().ceil() as usize
    }

    /// Join levels for a tree of `depth` levels under the configured
    /// fraction.
    pub fn join_levels_for(&self, depth: usize) -> usize {
        ((depth as f64 * self.join_levels_fraction).round() as usize).min(depth)
    }

    /// Reducer fan-out the shuffle service uses under this config.
    pub fn shuffle_fanout(&self) -> usize {
        self.shuffle_partitions.unwrap_or(self.nodes).max(1)
    }

    /// The shuffle knobs in executor form.
    pub fn shuffle_options(&self) -> adaptdb_exec::ShuffleOptions {
        adaptdb_exec::ShuffleOptions {
            partitions: Some(self.shuffle_fanout()),
            replication: self.shuffle_replication.max(1),
            split_threshold: self.shuffle_split_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_scales_logarithmically() {
        let c = DbConfig { rows_per_block: 100, ..DbConfig::default() };
        assert_eq!(c.depth_for_rows(50), 0);
        assert_eq!(c.depth_for_rows(100), 0);
        assert_eq!(c.depth_for_rows(200), 1);
        assert_eq!(c.depth_for_rows(800), 3);
        assert_eq!(c.depth_for_rows(1000), 4); // ceil(log2(10)) = 4
    }

    #[test]
    fn join_levels_follow_fraction() {
        let c = DbConfig { join_levels_fraction: 0.5, ..DbConfig::default() };
        assert_eq!(c.join_levels_for(8), 4);
        assert_eq!(c.join_levels_for(7), 4); // round(3.5) = 4
        let c = DbConfig { join_levels_fraction: 1.0, ..DbConfig::default() };
        assert_eq!(c.join_levels_for(6), 6);
    }

    #[test]
    fn with_mode_builder() {
        let c = DbConfig::small().with_mode(Mode::FullScan);
        assert_eq!(c.mode, Mode::FullScan);
    }

    #[test]
    fn shuffle_knobs_default_and_override() {
        let c = DbConfig::small();
        assert_eq!(c.shuffle_fanout(), c.nodes, "default: one reducer per node");
        assert_eq!(c.shuffle_options().replication, 1, "spill runs unreplicated by default");
        let c = DbConfig { shuffle_partitions: Some(7), shuffle_replication: 3, ..c };
        assert_eq!(c.shuffle_fanout(), 7);
        assert_eq!(c.shuffle_options().partitions, Some(7));
        assert_eq!(c.shuffle_options().replication, 3);
    }

    #[test]
    fn skew_knobs_default_and_thread_through() {
        let c = DbConfig::default();
        assert_eq!(c.shuffle_split_threshold, Some(4.0), "splitting on by default at 4x mean");
        assert_eq!(c.shuffle_options().split_threshold, Some(4.0));
        assert_eq!(c.join_mem_budget_blocks, None, "build memory unbounded by default");
        let c = DbConfig { shuffle_split_threshold: None, ..c };
        assert_eq!(c.shuffle_options().split_threshold, None);
    }

    #[test]
    fn sched_policy_names_and_defaults() {
        assert_eq!(SchedPolicy::Fifo.to_string(), "fifo");
        assert_eq!(SchedPolicy::Lanes.to_string(), "lanes");
        assert_eq!(SchedPolicy::Fair.to_string(), "fair");
        assert_eq!(DbConfig::default().sched, SchedPolicy::Fifo);
        let c = DbConfig::default();
        assert!(c.batch_cost_blocks > 0);
        assert!(c.maint_pace_wait_ms > 0.0);
    }

    #[test]
    #[allow(deprecated)]
    fn columnar_defaults_off_and_morsel_positive() {
        assert!(!DbConfig::default().columnar, "the deprecated flag defaults off");
        assert!(DbConfig::default().morsel_rows > 0, "the deprecated field keeps its old default");
    }

    #[test]
    fn ingest_knobs_default() {
        let c = DbConfig::default();
        assert_eq!(c.ingest_fold_blocks, 8);
        assert!(c.ingest_merge_tail, "tail merging on by default (trickle == bulk counts)");
        assert_eq!(c.durable_path, None, "durability is opt-in; SimDfs stays the default");
    }

    #[test]
    fn fetch_window_defaults_pipelined() {
        // Pipelining is on by default (window 4); results never
        // depend on it.
        assert_eq!(DbConfig::default().fetch_window, 4);
        assert_eq!(DbConfig::small().fetch_window, 4);
        let serial = DbConfig { fetch_window: 1, ..DbConfig::small() };
        assert_eq!(serial.fetch_window, 1);
    }

    #[test]
    fn env_overrides_parse_or_name_the_bad_value() {
        assert_eq!(parse_override("ADAPTDB_THREADS", " 4 ", positive), Ok(4));
        for bad in ["abc", "0", "-1", "", "4x"] {
            let err = parse_override("ADAPTDB_THREADS", bad, positive).unwrap_err();
            assert!(err.contains("ADAPTDB_THREADS") && err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
