//! The background maintenance loop: window bookkeeping, adaptation,
//! snapshot publication, and grace-period garbage collection — paced
//! by foreground load.
//!
//! Each pass takes a *quota* of the executed-query inbox and replays it
//! through the serial engine's exact decision procedure
//! ([`adaptdb::Database::record_observation`] and
//! [`adaptdb::Database::adapt_now`]) under the engine mutex, with block
//! migration writing through the concurrent store, then publishes the
//! result through `Shared::publish` — the one path every snapshot swap
//! takes, ingest and `DbServer::with_engine` included. A pass that
//! cannot change a layout (`Fixed` or `FullScan` with no fold due)
//! skips the replay: it takes neither the engine mutex nor the
//! published map's write lock. Retirement is
//! deferred: migrated-away blocks stay readable until every query
//! pinned to a pre-migration snapshot finishes, and each pass collects
//! the grace entries whose readers have drained.
//!
//! **Pacing.** The quota follows the scheduler's load signal
//! (`Shared::is_loaded`): while any query waits for admission or every
//! execution slot is busy (or the estimated interactive queue wait
//! exceeds `DbConfig::maint_pace_wait_ms`), a pass processes *one*
//! observation and then backs off for `PACE_BACKOFF`, deferring the
//! rest of the inbox (counted on the `maintenance_backlog` /
//! `maintenance_deferrals` gauges). On an idle server the pass drains
//! everything — adaptation throttles itself when the server is loaded
//! and catches up when it is not, so migration bursts never inflate
//! foreground tail latency. Shutdown always drains in full.
//!
//! Correctness of the collector rests on two facts:
//!
//! 1. Readers pin snapshots only by cloning an `Arc` out of the
//!    published map, and the map only ever holds the newest generation,
//!    so once a displaced snapshot's `Arc::strong_count` drops to 1
//!    (the grace entry's own reference), no reader holds it — and no
//!    new reader ever can.
//! 2. A block retired in pass *N* may appear in the manifests of *any*
//!    earlier generation, not just the one displaced in pass *N*.
//!    Entries are therefore collected strictly FIFO: an entry's blocks
//!    are deleted only after every earlier entry has been collected,
//!    which implies all older generations have fully drained.

use std::sync::Arc;
use std::time::Duration;

use adaptdb::TableSnapshot;
use adaptdb_common::{AttrValue, BlockId};

use crate::Shared;

/// Blocks awaiting deletion, guarded by the snapshots that were current
/// when they were retired.
pub(crate) struct GraceEntry {
    /// Displaced snapshot generations. When all are uniquely held, no
    /// reader can reach the blocks below through this generation.
    pub(crate) guards: Vec<Arc<TableSnapshot>>,
    /// `(table, block)` pairs to delete.
    pub(crate) blocks: Vec<(String, BlockId)>,
}

/// Retry interval for pending garbage collection: while retired blocks
/// await reader drain, the loop wakes this often even without traffic.
/// With an empty grace queue it blocks until an observation, a new
/// grace entry (or shutdown) arrives — an idle server burns no CPU.
pub(crate) const GC_RETRY: Duration = Duration::from_millis(2);

/// How many observations a paced pass processes while the server is
/// loaded. One: the smallest unit that still makes progress, so a
/// migration burst can never monopolize the engine mutex (or the
/// store) while queries are queueing.
const PACED_QUOTA: usize = 1;

/// Sleep after a paced pass: yields the CPU to the worker pool and
/// lets the inbox batch up, so a loaded server runs adaptation at a
/// bounded trickle instead of per completed query.
const PACE_BACKOFF: Duration = Duration::from_millis(1);

pub(crate) fn run_loop(shared: &Shared) {
    loop {
        // Re-read the load signal every pass: quota shrinks to
        // PACED_QUOTA under load and opens back up at idle.
        let loaded = shared.is_loaded();
        let quota = if loaded { PACED_QUOTA } else { usize::MAX };
        let drained = shared.wait_for_observations(quota);
        let stopping = shared.is_shutdown();
        let processed = drained.len();
        if !drained.is_empty() {
            adapt_and_publish(shared, &drained);
        }
        collect(shared, false);
        shared.note_pass(processed);
        if stopping {
            // `DbServer::stop` has joined the workers and waited for
            // every slot to be released; process any observations that
            // raced in — quota fully open, the pacer never defers a
            // shutdown drain — then force-collect (no reader holds any
            // snapshot anymore).
            loop {
                let rest = shared.wait_for_observations(usize::MAX);
                if rest.is_empty() {
                    break;
                }
                adapt_and_publish(shared, &rest);
                shared.note_pass(rest.len());
            }
            collect(shared, true);
            shared.note_pass(0);
            break;
        }
        if loaded && processed > 0 {
            std::thread::sleep(PACE_BACKOFF);
        }
    }
}

/// Replay `queries` through the engine's serial decision procedure and
/// publish any changed layouts (a pass that changed none never blocks a
/// reader). A pass that cannot change a layout
/// ([`Shared::replay_may_change_layout`]) returns before taking the
/// engine mutex.
fn adapt_and_publish(shared: &Shared, queries: &[adaptdb_common::Query]) {
    if !shared.replay_may_change_layout(queries) {
        return;
    }
    let io_before = shared.maint_clock().snapshot();
    let mut engine = shared.engine().lock();
    for q in queries {
        // A worker already surfaced any error (e.g. unknown table) to
        // the client; adaptation simply skips such queries.
        let _ = engine.record_observation(q);
        let _ = engine.adapt_now(q, shared.maint_clock());
    }
    let retired = shared.publish(&mut engine);
    if let Some(j) = shared.journal() {
        // The realized cost of this pass: the maintenance clock's I/O
        // delta (rewrite reads + migration writes, off the hot path).
        let io_after = shared.maint_clock().snapshot();
        j.event(
            shared.journal_ts_us(),
            "adaptation-pass",
            vec![
                ("queries".into(), AttrValue::Int(queries.len() as i64)),
                ("reads".into(), AttrValue::Int((io_after.reads() - io_before.reads()) as i64)),
                ("writes".into(), AttrValue::Int((io_after.writes - io_before.writes) as i64)),
                ("retired_blocks".into(), AttrValue::Int(retired as i64)),
            ],
        );
    }
}

/// Delete the blocks of every collectible grace entry, strictly FIFO.
/// With `force` (shutdown, readers joined) collect everything. The
/// queue stays locked until the blocks are gone, so an empty queue
/// means nothing retired is left in the store.
fn collect(shared: &Shared, force: bool) {
    let mut grace = shared.grace().lock();
    while let Some(front) = grace.front() {
        let drained = force || front.guards.iter().all(|g| Arc::strong_count(g) == 1);
        if !drained {
            break;
        }
        let entry = grace.pop_front().expect("front exists");
        if let Some(j) = shared.journal() {
            if !entry.blocks.is_empty() {
                j.event(
                    shared.journal_ts_us(),
                    "gc",
                    vec![
                        ("blocks".into(), AttrValue::Int(entry.blocks.len() as i64)),
                        ("forced".into(), AttrValue::Int(i64::from(force))),
                    ],
                );
            }
        }
        for (table, block) in entry.blocks {
            // The block can only be missing if the engine re-migrated it
            // eagerly, which deferred mode never does; ignore regardless.
            let _ = shared.store().remove_block(&table, block);
        }
    }
}
