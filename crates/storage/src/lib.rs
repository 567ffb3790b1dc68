//! # adaptdb-storage
//!
//! The block storage layer of the AdaptDB reproduction.
//!
//! AdaptDB (like Amoeba before it) stores each table as a collection of
//! fixed-budget **blocks** spread across a distributed filesystem; a
//! partitioning tree maps predicate space to blocks. This crate provides:
//!
//! * [`block::Block`] / [`block::BlockMeta`] — row containers plus the
//!   per-attribute min/max metadata (`Range_t`) that both tree pruning
//!   and hyper-join overlap computation consume,
//! * [`codec`] — a compact hand-rolled binary encoding for rows and
//!   blocks (blocks are stored encoded, so reads honestly pay
//!   serialization costs),
//! * [`store::BlockStore`] — the table-qualified block map layered over
//!   the simulated DFS, with read accounting through
//!   [`adaptdb_dfs::SimClock`],
//! * [`writer::PartitionedWriter`] — the buffered, partition-routed
//!   writer used by the upfront partitioner and the repartitioning
//!   iterator (§6: "the repartitioning iterator maintains a buffered
//!   writer ... once a buffer is full, the repartitioner flushes"),
//! * [`sample::Reservoir`] — reservoir sampling used to pick tree cut
//!   points (§3.1: "the system collects a sample from the data and uses
//!   it to choose the appropriate cut points"),
//! * [`fetch::FetchStream`] — the pipelined (async-style) fetch
//!   backend: batched block requests with an in-flight window,
//!   out-of-order completions, and overlapped-latency accounting,
//! * [`durable::FileJournal`] — the write-ahead manifest journal
//!   backing crash-consistent ingest: CRC-framed block/remove/drop
//!   records plus atomic catalog-commit records, replayed to the last
//!   committed snapshot on recovery.

#![warn(missing_docs)]

pub mod block;
pub mod codec;
pub mod durable;
pub mod fetch;
pub mod sample;
pub mod store;
pub mod writer;

pub use block::{Block, BlockMeta};
pub use codec::{ColDirectory, LazyBlock};
pub use durable::{FileJournal, JournalRecord};
pub use fetch::{FetchCompletion, FetchStream};
pub use sample::Reservoir;
pub use store::BlockStore;
pub use writer::PartitionedWriter;
