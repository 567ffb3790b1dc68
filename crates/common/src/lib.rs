//! # adaptdb-common
//!
//! Shared data model for the AdaptDB reproduction.
//!
//! This crate holds everything that more than one subsystem needs:
//!
//! * [`value::Value`] — the dynamically-typed cell values stored in rows,
//!   with a *total* order (doubles use IEEE `total_cmp`) so they can be
//!   used as partitioning cut points. String cells are [`value::Str`]s,
//!   which keep strings of up to 22 bytes inline.
//! * [`schema::Schema`] — table schemas; attributes are addressed by dense
//!   [`schema::AttrId`]s.
//! * [`row::Row`] — row-oriented tuples.
//! * [`predicate::Predicate`] — single-attribute comparison predicates and
//!   conjunctions thereof, the unit of "query" that Amoeba/AdaptDB adapt to.
//! * [`range::ValueRange`] — min/max intervals per attribute (the paper's
//!   `Ranget`), used both for tree pruning and for hyper-join overlap
//!   computation.
//! * [`bitset::BitSet`] — the fixed-width bit vectors `v_i` of §4.1.1.
//! * [`column::ColumnVec`] — typed column vectors, one cell type per
//!   column, with column-wise predicate evaluation into a selection
//!   [`bitset::BitSet`].
//! * [`query::JoinQuery`] — the query objects the storage manager plans.
//! * [`cost::CostParams`] — the I/O cost model of §4.2 (Eq. 1 and 2).
//! * [`stats`] — per-query execution statistics (block reads, shuffle
//!   volume, simulated seconds).
//!
//! * [`telemetry`] — span trees, log-bucketed histograms, the metrics
//!   registry, Chrome-trace export, and the maintenance event journal.
//!
//! Everything is deterministic: random choices in higher layers flow
//! from explicitly seeded RNGs (see [`rng`]).

#![warn(missing_docs)]

pub mod bitset;
pub mod column;
pub mod cost;
pub mod error;
pub mod predicate;
pub mod query;
pub mod range;
pub mod rng;
pub mod row;
pub mod schema;
pub mod stats;
pub mod telemetry;
pub mod value;

/// Identifier of a stored data block. Block ids are unique per table and
/// assigned densely by the storage layer; the simulated DFS tracks
/// placement per `(table, block)` via [`GlobalBlockId`].
pub type BlockId = u32;

/// A block id qualified by its table, unique across the whole database.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalBlockId {
    /// Owning table name.
    pub table: String,
    /// Block id within the table.
    pub block: BlockId,
}

impl GlobalBlockId {
    /// Construct a global block id.
    pub fn new(table: impl Into<String>, block: BlockId) -> Self {
        GlobalBlockId { table: table.into(), block }
    }
}

pub use bitset::BitSet;
pub use column::ColumnVec;
pub use cost::CostParams;
pub use error::{Error, Result};
pub use predicate::{CmpOp, Predicate, PredicateSet};
pub use query::{JoinQuery, JoinStep, Query, ScanQuery};
pub use range::ValueRange;
pub use row::Row;
pub use schema::{AttrId, Field, Schema};
#[allow(deprecated)]
pub use stats::CacheStats;
pub use stats::{IngestStats, IoStats, OverlapStats, QueryStats, ShuffleStats};
pub use telemetry::{
    chrome_trace_json, AttrValue, Histogram, Journal, JournalEvent, Span, SpanId, Trace, Tracer,
};
pub use value::{stable_hash_bytes, Str, Value, ValueType};
