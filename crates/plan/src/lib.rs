//! Physical query plans: operators, physical properties, and the plan arena.
//!
//! Section 5.2 of the paper assumes plans are represented in `O(1)` space:
//! a scan plan by the id of the table it scans, any other plan by the ids
//! of its two sub-plans. The [`PlanArena`] realizes exactly that — plans
//! are append-only arena entries addressed by [`PlanId`], and result plans
//! are never removed (the paper explicitly renounces discarding result
//! plans so sub-plan pointers stay valid across optimizer invocations).
//! A plan discarded the moment it was generated takes an id but no
//! entry, so the arena's space follows the plans it keeps.
//!
//! Operators cover the plan space of the paper's evaluation substrate:
//! full and sampled scans (sampling trades result precision for execution
//! time), and hash / sort-merge / nested-loop joins with configurable
//! degrees of parallelism (trading reserved cores for execution time).
//! Sort-merge joins produce an *interesting order* that the pruning logic
//! honors, per the Selinger extension discussed in Section 4.3.

#![warn(missing_docs)]

pub mod arena;
pub mod explain;
pub mod operator;
pub mod props;

pub use arena::{renumbering, PlanArena, PlanId, PlanNode};
pub use explain::explain;
pub use operator::{JoinAlgo, Operator, ScanMethod};
pub use props::{OrderKey, PhysicalProps};
