//! Plan-set indexes supporting (cost, resolution) range queries.
//!
//! IAMA indexes both result plans and candidate plans "by plan cost and by
//! resolution level", using "a data structure supporting multi-dimensional
//! range queries" (Section 4.1). The notation `S[0..b, 0..r]` selects the
//! entries whose cost vector is dominated by the bounds `b` and whose
//! resolution tag is at most `r`.
//!
//! The optimizer runs one index, [`CellGrid`]: the logarithmically
//! partitioned cell structure the paper recommends (citing Bentley &
//! Friedman). Cost space is split into cells along `floor(log2(1 + cost))`
//! per metric, so a range query can accept whole cells without per-entry
//! checks and reject out-of-range cells in `O(1)`. Under the paper's
//! uniformity assumptions retrieval of `F` entries is `O(F)`, and insertion
//! is `O(1)` (the paper's amortized analysis prioritizes retrieval over
//! insertion time, Section 4.1). It backs each subset's candidate set and
//! the result set of the full query, the two sets the optimizer
//! range-queries.
//!
//! [`LinearIndex`] — per-resolution flat vectors scanned with a bounds
//! filter — offers the same inherent methods. It is the reference the
//! cell grid is property-tested against, together with the scalar
//! witness search [`dominance_scan_scalar`].
//!
//! The crate also provides [`PairSet`], the hash structure behind the
//! `IsFresh` predicate ensuring no sub-plan pair is combined twice
//! (Lemma 6), and [`fxhash`], a small fast non-cryptographic hasher used
//! throughout the optimizer.

#![warn(missing_docs)]

pub mod cellgrid;
pub mod entry;
pub mod fxhash;
pub mod linear;
pub mod pairs;

pub use cellgrid::CellGrid;
pub use entry::Entry;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use linear::LinearIndex;
pub use pairs::PairSet;

use moqo_cost::{Bounds, CostVector};

/// Witness search over a cell grid's `S[0..b, 0..r]` (Algorithm 3
/// line 7's question, asked of an index): among the in-range entries for
/// which `accept(item)` holds, returns the minimal domination factor of
/// the entry's cost against `target` (`f64::INFINITY` if none is
/// accepted). The scan stops as soon as the running minimum reaches
/// `threshold`, returning the factor that crossed it; pass
/// `f64::NEG_INFINITY` to force a full scan (factors are never negative).
///
/// The optimizer does not prune through this function: its witness
/// search is one pass over the subset's flat active list (result sets
/// are small), while the grid serves candidate drains and the frontier
/// range scan. This scan is the oracle that pass is property-tested
/// against.
pub fn dominance_scan_scalar<T: Copy>(
    grid: &CellGrid<T>,
    bounds: &Bounds,
    max_level: u8,
    target: &CostVector,
    threshold: f64,
    mut accept: impl FnMut(T) -> bool,
) -> f64 {
    let mut best_factor = f64::INFINITY;
    grid.scan(bounds, max_level, |e| {
        if accept(e.item) {
            let f = e.cost.domination_factor(target);
            if f < best_factor {
                best_factor = f;
            }
            if best_factor <= threshold {
                return true;
            }
        }
        false
    });
    best_factor
}
