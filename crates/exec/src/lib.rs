//! # adaptdb-exec
//!
//! Query execution for the AdaptDB reproduction.
//!
//! The paper executes queries as Spark jobs over HDFS file splits (§6);
//! here the same operators run as multi-threaded tasks over the
//! simulated DFS, with every block access recorded on a
//! [`adaptdb_dfs::SimClock`]:
//!
//! * [`scan`] — Type-1 blocks: read, decode, filter ("a scan iterator
//!   which simply reads all records and filters out ones that cannot
//!   pass the predicates"),
//! * [`hash_table`] — build/probe hash tables keyed on join values (with
//!   a pass-through hasher over [`adaptdb_common::Value::stable_hash`]),
//! * [`mod@hyper_join`] — execute a [`adaptdb_join::HyperJoinPlan`]: per
//!   group, build hash tables over the build blocks and stream the
//!   overlapping probe blocks through them,
//! * [`shuffle_service`] — the multi-node shuffle service: map tasks
//!   spill per-reducer runs as real DFS blocks on their node, reducers
//!   fetch them with local/remote accounting,
//! * [`mod@shuffle_join`] — the baseline: read both sides, hash-partition
//!   every record through the shuffle service (paying shuffle writes +
//!   locality-classified fetch-backs, the `C_SJ = 3` pattern of Eq. 1),
//!   then join each partition,
//! * [`repartition`] — Type-2 blocks: scan *and* re-route rows into a new
//!   partitioning tree through a buffered writer, column-wise and
//!   without building rows,
//! * [`aggregate`] — the small aggregation layer used by examples and
//!   workloads,
//! * [`parallel`] — the process-wide worker pool shared by the operators.

#![warn(missing_docs)]

pub mod aggregate;
pub mod context;
pub mod hash_table;
pub mod hyper_join;
pub mod parallel;
pub mod repartition;
pub mod scan;
pub mod shuffle_join;
pub mod shuffle_service;
pub mod step_join;

pub use context::{ExecContext, ShuffleOptions, DEFAULT_MORSEL_ROWS};
pub use hash_table::JoinHashTable;
pub use hyper_join::{hyper_join, HyperJoinSpec};
pub use repartition::{
    repartition_blocks, repartition_blocks_with, RepartitionOutcome, RetireMode,
};
pub use scan::scan_blocks;
pub use shuffle_join::{
    hash_join_rows, reduce_partition, shuffle_join, shuffle_join_rows, ShuffleJoinSpec,
};
pub use shuffle_service::{ShuffleService, ShuffledSide};
pub use step_join::{hyper_step_join, StepGroup};
