//! Query model: join graphs, table sets, and selectivity estimation.
//!
//! The paper models a query as a set `Q` of tables to be joined (Section 3)
//! and sketches in Section 4.3 how predicates and richer SQL are handled by
//! decomposition into select-project-join blocks. This crate provides:
//!
//! * [`TableSet`] — a 64-bit bitset over the query's table positions with
//!   the subset/split enumeration the DP needs;
//! * [`JoinGraph`] — join edges with selectivities plus per-table filter
//!   selectivities (local predicates applied as early as possible);
//! * [`QuerySpec`] — a query bound to a catalog, with cardinality
//!   estimation for arbitrary table subsets;
//! * [`enumeration`] — the precomputed enumeration plane: connected
//!   subsets by cardinality with their valid ordered splits and a dense
//!   `TableSet → SubsetId` rank, built once per join-graph *shape*
//!   ([`ShapeKey`]) and shared across structurally similar queries;
//! * [`testkit`] — synthetic query generators (chain, star, cycle,
//!   clique, random) used in tests, examples, and benchmarks.

#![warn(missing_docs)]

pub mod enumeration;
pub mod graph;
pub mod spec;
pub mod tableset;
pub mod testkit;

pub use enumeration::{EnumerationPlan, ShapeKey, Split, SubsetId, SubsetInfo};
pub use graph::{JoinEdge, JoinGraph};
pub use spec::{InducedStats, QuerySpec};
pub use tableset::{k_subsets, SplitIter, SubsetIter, TableSet};
