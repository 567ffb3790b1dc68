//! # adaptdb-tree
//!
//! Partitioning trees — the metadata structure at the center of both
//! Amoeba and AdaptDB.
//!
//! A partitioning tree is a balanced binary tree over predicate space:
//! each internal node `A_p` routes records with `A ≤ p` left and the rest
//! right (§3.1); leaves are *buckets* that map to stored blocks. This
//! crate implements:
//!
//! * [`node::Node`] — tree nodes with safe predicate-pruned descent,
//! * [`tree::PartitionTree`] — routing, `lookup(T, q)`, statistics, and a
//!   binary serialization for catalog persistence,
//! * [`median`] — sample-based median/quantile cut-point selection,
//! * [`upfront::UpfrontPartitioner`] — Amoeba's workload-oblivious
//!   initial partitioning with heterogeneous branching (§3.1, Fig. 3),
//! * [`two_phase::TwoPhaseBuilder`] — AdaptDB's join-aware trees: top
//!   levels split the join attribute at medians, lower levels adapt to
//!   selection attributes (§5.1, Fig. 9),
//! * [`window::QueryWindow`] — the recent-query window driving adaptation
//!   (§3.2, §5.2),
//! * [`adapt::Adapter`] — Amoeba-style adaptive repartitioning for
//!   selection predicates: propose alternative trees via transformation
//!   rules, estimate benefit vs repartitioning cost, and emit a
//!   repartitioning plan (§3.2).

pub mod adapt;
pub mod median;
pub mod node;
pub mod tree;
pub mod two_phase;
pub mod upfront;
pub mod window;

pub use adapt::{AdaptConfig, Adapter, CandidateMemo, RepartitionPlan};
pub use node::Node;
pub use tree::PartitionTree;
pub use two_phase::TwoPhaseBuilder;
pub use upfront::UpfrontPartitioner;
pub use window::{QueryWindow, WindowEntry};
