//! Simulated time accounting.
//!
//! A [`SimClock`] accumulates block-level I/O events and converts them to
//! simulated seconds under a [`CostParams`]. Executors thread a clock
//! through their operators; experiments read it per query. The clock is
//! internally synchronized so parallel executor workers can share one.
//!
//! The cost-accounting rules — what counts as Local, Remote,
//! Maintenance, and Overlapped — are documented canonically in
//! `docs/ARCHITECTURE.md` (§ "Cost accounting").

#[allow(deprecated)]
use adaptdb_common::CacheStats;
use adaptdb_common::{CostParams, IoStats, OverlapStats, ShuffleStats};
use parking_lot::Mutex;

use crate::cluster::ReadKind;

/// What a clock's tally is attributed to. Query-visible cost figures
/// must come from [`ClockKind::Query`] clocks only; background
/// maintenance (the server's off-hot-path repartitioning) charges a
/// [`ClockKind::Maintenance`] clock so the paper's per-query numbers
/// stay faithful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ClockKind {
    /// I/O performed answering a query (or piggybacked on one, as the
    /// serial engine's adaptation is).
    #[default]
    Query,
    /// I/O performed by a background maintenance task off the hot path.
    Maintenance,
}

/// Thread-safe I/O tally with cost conversion.
#[derive(Debug, Default)]
pub struct SimClock {
    io: Mutex<IoStats>,
    /// Shuffle-phase breakdown: spilled runs and reducer fetches. The
    /// underlying block reads/writes are *also* in `io` — this tally
    /// only classifies them, it never double-charges.
    shuffle: Mutex<ShuffleStats>,
    /// Pipelined-fetch breakdown: reads whose latency was hidden by an
    /// in-flight window. Like `shuffle`, this only *classifies* reads
    /// already counted in `io` — block counts are never reduced, only
    /// the simulated time a consumer derives from them.
    overlap: Mutex<OverlapStats>,
    kind: ClockKind,
}

impl SimClock {
    /// A fresh, zeroed query-attributed clock.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A fresh clock attributed to background maintenance.
    pub fn maintenance() -> Self {
        SimClock { kind: ClockKind::Maintenance, ..SimClock::default() }
    }

    /// What this clock's tally is attributed to.
    pub fn kind(&self) -> ClockKind {
        self.kind
    }

    /// Record a block read of the given kind.
    pub fn record_read(&self, kind: ReadKind) {
        let mut io = self.io.lock();
        match kind {
            ReadKind::Local => io.local_reads += 1,
            ReadKind::Remote => io.remote_reads += 1,
        }
    }

    /// Record one window of overlapped block fetches: `local` + `remote`
    /// reads issued concurrently by a fetch stream. Every read is
    /// counted in full on the I/O tally (block counts are the paper's
    /// currency and must not change); the *latency* model is
    /// max-of-window — the window completes when its slowest member
    /// does, so all but the slowest read have their latency hidden:
    ///
    /// * any remote present → the max is a remote fetch: every local
    ///   and all but one remote hide,
    /// * all local → all but one local hide,
    /// * a window of one (or an empty window) hides nothing, which is
    ///   exactly the serial charging of [`SimClock::record_read`].
    ///
    /// The hidden reads land on the overlap tally;
    /// [`adaptdb_common::OverlapStats::saved_secs`] converts them to the
    /// simulated seconds a pipelined run saves over serial fetching.
    pub fn record_fetch_window(&self, local: usize, remote: usize) {
        if local + remote == 0 {
            return;
        }
        {
            let mut io = self.io.lock();
            io.local_reads += local;
            io.remote_reads += remote;
        }
        let (hidden_local, hidden_remote) =
            if remote > 0 { (local, remote - 1) } else { (local - 1, 0) };
        let mut ov = self.overlap.lock();
        ov.windows += 1;
        ov.fetches += local + remote;
        ov.hidden_local += hidden_local;
        ov.hidden_remote += hidden_remote;
        ov.max_in_flight = ov.max_in_flight.max(local + remote);
    }

    /// Record `n` block writes.
    pub fn record_writes(&self, n: usize) {
        self.io.lock().writes += n;
    }

    /// Record `n` candidate blocks skipped by zone maps (per-column
    /// min/max metadata) before any read was issued. Skips are *not*
    /// I/O — they charge no read and no simulated time; the tally only
    /// exposes how much the metadata pruning tier saved.
    pub fn record_zone_skips(&self, n: usize) {
        self.io.lock().zone_skipped += n;
    }

    /// Record rows flowing through operators.
    pub fn record_rows(&self, scanned: usize, out: usize) {
        let mut io = self.io.lock();
        io.rows_scanned += scanned;
        io.rows_out += out;
    }

    /// Record a map task spilling one shuffle run: `blocks` physical
    /// blocks totalling `bytes`. Charges the block writes on the I/O
    /// tally and the run on the shuffle breakdown.
    pub fn record_shuffle_spill(&self, blocks: usize, bytes: usize) {
        self.io.lock().writes += blocks;
        let mut sh = self.shuffle.lock();
        sh.runs_written += 1;
        sh.blocks_spilled += blocks;
        sh.bytes_spilled += bytes;
    }

    /// Classify an already-charged read as a reducer fetching one
    /// spilled run block. The block read itself is recorded by the
    /// store's read path ([`SimClock::record_read`]); this only updates
    /// the shuffle breakdown, so fetches are never double-charged.
    pub fn record_shuffle_fetch(&self, kind: ReadKind) {
        let mut sh = self.shuffle.lock();
        match kind {
            ReadKind::Local => sh.local_fetches += 1,
            ReadKind::Remote => sh.remote_fetches += 1,
        }
    }

    /// Record a budgeted build phase spilling `blocks` overflow
    /// build-side blocks back to scratch. Charges the block writes on
    /// the I/O tally (spill is real I/O, like run spill) and the count
    /// on the shuffle breakdown's `build_blocks_spilled`.
    pub fn record_build_spill(&self, blocks: usize) {
        if blocks == 0 {
            return;
        }
        self.io.lock().writes += blocks;
        self.shuffle.lock().build_blocks_spilled += blocks;
    }

    /// Classify an already-charged read as a broadcast of a split
    /// partition's small side to a sibling sub-task. Like
    /// [`SimClock::record_shuffle_fetch`] this never charges the read
    /// itself — but it lands on the separate `broadcast_fetches`
    /// counter, so per-run fetch invariants are undisturbed.
    pub fn record_broadcast_fetch(&self, _kind: ReadKind) {
        self.shuffle.lock().broadcast_fetches += 1;
    }

    /// Record one hot partition being split across extra reducers.
    pub fn record_partition_split(&self) {
        self.shuffle.lock().split_partitions += 1;
    }

    /// Record a budgeted build recursing to repartition depth `depth`
    /// (gauge: the tally keeps the maximum).
    pub fn record_recursion_depth(&self, depth: usize) {
        let mut sh = self.shuffle.lock();
        sh.max_recursion_depth = sh.max_recursion_depth.max(depth);
    }

    /// Record a reducer holding a `blocks`-block build table (gauge:
    /// the tally keeps the per-query maximum).
    pub fn record_reducer_peak(&self, blocks: usize) {
        let mut sh = self.shuffle.lock();
        sh.peak_reducer_mem_blocks = sh.peak_reducer_mem_blocks.max(blocks);
    }

    /// Snapshot of the tally so far.
    pub fn snapshot(&self) -> IoStats {
        *self.io.lock()
    }

    /// Snapshot of the shuffle breakdown so far.
    pub fn shuffle_snapshot(&self) -> ShuffleStats {
        *self.shuffle.lock()
    }

    /// Snapshot of the pipelined-fetch breakdown so far.
    pub fn overlap_snapshot(&self) -> OverlapStats {
        *self.overlap.lock()
    }

    /// Always empty: the block cache it reported on was removed.
    #[deprecated(note = "no effect: the block cache was removed")]
    #[allow(deprecated)]
    pub fn cache_snapshot(&self) -> CacheStats {
        CacheStats
    }

    /// Reset to zero, returning the previous tally (the shuffle and
    /// overlap breakdowns reset with it; see [`SimClock::take_shuffle`]).
    pub fn take(&self) -> IoStats {
        let io = std::mem::take(&mut *self.io.lock());
        let _ = std::mem::take(&mut *self.shuffle.lock());
        let _ = std::mem::take(&mut *self.overlap.lock());
        io
    }

    /// Reset and return the shuffle breakdown only.
    pub fn take_shuffle(&self) -> ShuffleStats {
        std::mem::take(&mut *self.shuffle.lock())
    }

    /// Simulated seconds for the tally so far.
    pub fn simulated_secs(&self, params: &CostParams) -> f64 {
        self.snapshot().simulated_secs(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let c = SimClock::new();
        c.record_read(ReadKind::Local);
        c.record_read(ReadKind::Remote);
        c.record_read(ReadKind::Remote);
        c.record_writes(4);
        c.record_rows(100, 10);
        let io = c.snapshot();
        assert_eq!(io.local_reads, 1);
        assert_eq!(io.remote_reads, 2);
        assert_eq!(io.writes, 4);
        assert_eq!(io.rows_scanned, 100);
        assert_eq!(io.rows_out, 10);
    }

    #[test]
    fn take_resets() {
        let c = SimClock::new();
        c.record_writes(2);
        let io = c.take();
        assert_eq!(io.writes, 2);
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let c = std::sync::Arc::new(SimClock::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.record_read(ReadKind::Local);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().local_reads, 4000);
    }

    #[test]
    fn shuffle_tally_classifies_without_double_charging() {
        let c = SimClock::new();
        c.record_shuffle_spill(3, 120);
        c.record_shuffle_spill(0, 0); // empty runs may be recorded by callers...
        c.record_shuffle_fetch(ReadKind::Local);
        c.record_shuffle_fetch(ReadKind::Remote);
        let io = c.snapshot();
        let sh = c.shuffle_snapshot();
        // ...but an empty run charges no block I/O, and fetch tagging
        // never charges reads (the store's read path does that).
        assert_eq!(io.writes, 3);
        assert_eq!(io.reads(), 0);
        assert_eq!(sh.runs_written, 2);
        assert_eq!(sh.blocks_spilled, 3);
        assert_eq!(sh.bytes_spilled, 120);
        assert_eq!(sh.local_fetches, 1);
        assert_eq!(sh.remote_fetches, 1);
        // take() resets both tallies together.
        c.take();
        assert_eq!(c.shuffle_snapshot(), adaptdb_common::ShuffleStats::default());
    }

    #[test]
    fn fetch_windows_charge_full_counts_but_hide_latency() {
        let c = SimClock::new();
        // Window of 3 locals + 2 remotes: 5 reads counted, 3 locals +
        // 1 remote hidden (the slowest remote is charged).
        c.record_fetch_window(3, 2);
        let io = c.snapshot();
        assert_eq!((io.local_reads, io.remote_reads), (3, 2));
        let ov = c.overlap_snapshot();
        assert_eq!(ov.windows, 1);
        assert_eq!(ov.fetches, 5);
        assert_eq!((ov.hidden_local, ov.hidden_remote), (3, 1));
        assert_eq!(ov.max_in_flight, 5);
        // All-local window hides all but one local.
        c.record_fetch_window(4, 0);
        let ov = c.overlap_snapshot();
        assert_eq!((ov.hidden_local, ov.hidden_remote), (3 + 3, 1));
        // A window of one is exactly serial: nothing hidden.
        c.record_fetch_window(0, 1);
        let ov = c.overlap_snapshot();
        assert_eq!(ov.hidden(), 7);
        assert_eq!(ov.windows, 3);
        // Empty windows are ignored entirely.
        c.record_fetch_window(0, 0);
        assert_eq!(c.overlap_snapshot().windows, 3);
        // take() resets the overlap tally with the rest.
        c.take();
        assert_eq!(c.overlap_snapshot(), adaptdb_common::OverlapStats::default());
    }

    #[test]
    fn skew_tallies_classify_and_gauge() {
        let c = SimClock::new();
        // Build spill charges writes; zero-block spills are a no-op.
        c.record_build_spill(2);
        c.record_build_spill(0);
        // Broadcast fetches classify only — no read charged here.
        c.record_broadcast_fetch(ReadKind::Local);
        c.record_broadcast_fetch(ReadKind::Remote);
        c.record_partition_split();
        // Gauges keep the maximum, not the sum.
        c.record_recursion_depth(1);
        c.record_recursion_depth(3);
        c.record_recursion_depth(2);
        c.record_reducer_peak(4);
        c.record_reducer_peak(2);
        let io = c.snapshot();
        let sh = c.shuffle_snapshot();
        assert_eq!(io.writes, 2);
        assert_eq!(io.reads(), 0);
        assert_eq!(sh.build_blocks_spilled, 2);
        assert_eq!(sh.broadcast_fetches, 2);
        assert_eq!(sh.split_partitions, 1);
        assert_eq!(sh.max_recursion_depth, 3);
        assert_eq!(sh.peak_reducer_mem_blocks, 4);
        // Broadcasts stay out of the per-run fetch breakdown.
        assert_eq!(sh.fetches(), 0);
    }

    #[test]
    fn zone_skips_tally_without_charging_io() {
        let c = SimClock::new();
        c.record_zone_skips(3);
        c.record_zone_skips(2);
        let io = c.snapshot();
        assert_eq!(io.zone_skipped, 5);
        assert_eq!(io.reads(), 0, "skips are not reads");
        let params =
            CostParams { parallelism: 1, cpu_per_block_secs: 0.0, ..CostParams::default() };
        assert_eq!(c.simulated_secs(&params), 0.0, "skips cost no simulated time");
        c.take();
        assert_eq!(c.snapshot().zone_skipped, 0);
    }

    #[test]
    fn kind_is_carried() {
        assert_eq!(SimClock::new().kind(), ClockKind::Query);
        let m = SimClock::maintenance();
        assert_eq!(m.kind(), ClockKind::Maintenance);
        m.record_read(ReadKind::Local);
        assert_eq!(m.snapshot().local_reads, 1);
    }

    #[test]
    fn simulated_secs_uses_params() {
        let c = SimClock::new();
        c.record_read(ReadKind::Local);
        let params =
            CostParams { parallelism: 1, cpu_per_block_secs: 0.0, ..CostParams::default() };
        assert_eq!(c.simulated_secs(&params), params.block_read_secs);
    }
}
