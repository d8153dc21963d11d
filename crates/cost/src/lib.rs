//! Multi-objective plan cost primitives for the IAMA reproduction.
//!
//! This crate implements the cost-space model of Section 3 of the paper:
//! cost vectors in `R^l_+`, (strict) dominance, approximate dominance with a
//! precision factor `alpha`, cost bounds, Pareto-set utilities, and the
//! resolution-level schedule `alpha_r = alpha_T + alpha_S * (rM - r) / rM`
//! used by the anytime loop.
//!
//! Everything here is independent of queries and plans; higher layers attach
//! these vectors to query plans.

#![warn(missing_docs)]

pub mod agg;
pub mod bounds;
pub mod dominance;
pub mod hash;
pub mod pareto;
pub mod schedule;
pub mod vector;

pub use agg::{AggFn, ChildCombine};
pub use bounds::Bounds;
pub use dominance::{dominates, dominates_scaled, strictly_dominates};
pub use hash::Fnv64;
pub use pareto::{
    coverage_factor, covers, covers_bounded, is_pareto_optimal, pareto_filter, ParetoAccumulator,
};
pub use schedule::ResolutionSchedule;
pub use vector::{CostVector, MAX_DIM};
