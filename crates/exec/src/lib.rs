//! # adaptdb-exec
//!
//! Query execution for the AdaptDB reproduction.
//!
//! The paper executes queries as Spark jobs over HDFS file splits (§6);
//! here the same operators run over the simulated DFS, with every block
//! access recorded on a [`adaptdb_dfs::SimClock`]. The cluster's
//! parallelism lives in the cost model (`CostParams::parallelism`): a
//! query runs start to finish on the thread that executes it, in a
//! fixed order, and wall-clock parallelism comes from queries running
//! side by side.
//!
//! * [`scan`] — Type-1 blocks: read, decode, filter ("a scan iterator
//!   which simply reads all records and filters out ones that cannot
//!   pass the predicates"),
//! * [`hash_table`] — join hash tables from join keys to build-row ids,
//!   and the build side every hash join probes: a probe emits
//!   (probe id, build id) pairs, not rows,
//! * [`Joined`] — a join's result as those ids into its inputs' blocks
//!   and rows, carried between multi-way steps and built into rows
//!   once, at the final width, when the query returns,
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
//!   without building rows.

#![warn(missing_docs)]

pub mod context;
mod gather;
pub mod hash_table;
pub mod hyper_join;
mod joined;
pub mod repartition;
pub mod scan;
pub mod shuffle_join;
pub mod shuffle_service;
pub mod step_join;

pub use context::{ExecContext, ShuffleOptions};
pub use hash_table::JoinHashTable;
pub use hyper_join::{hyper_join, HyperJoinSpec};
pub use joined::{Joined, RowId};
pub use repartition::{
    repartition_blocks, repartition_blocks_with, RepartitionOutcome, RetireMode,
};
pub use scan::scan_blocks;
pub use shuffle_join::{
    hash_join_rows, reduce_partition, shuffle_join, shuffle_join_rows, ShuffleJoinSpec,
};
pub use shuffle_service::{ShuffleService, ShuffledSide};
pub use step_join::{hyper_step_join, StepGroup};
