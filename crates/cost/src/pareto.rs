//! Pareto-set utilities.
//!
//! Section 3 of the paper defines Pareto-optimal plans, Pareto plan sets,
//! and `alpha`-approximate (`b`-bounded) Pareto plan sets. This module
//! provides the corresponding set-level operations on bare cost vectors:
//! filtering a set to its Pareto frontier, checking (approximate) coverage
//! of a reference frontier, and measuring the realized approximation factor
//! of a result set — the quantity that the formal guarantee
//! `alpha_r^n` (Theorem 2) upper-bounds.

use crate::bounds::Bounds;
use crate::vector::CostVector;

/// Returns the indices of the vectors in `costs` that are not strictly
/// dominated by any other vector (a Pareto plan set of minimal size, up to
/// duplicates: among equal vectors the first index is kept).
pub fn pareto_filter(costs: &[CostVector]) -> Vec<usize> {
    let mut keep = Vec::new();
    'outer: for (i, c) in costs.iter().enumerate() {
        for (j, other) in costs.iter().enumerate() {
            if i == j {
                continue;
            }
            if other.strictly_dominates(c) {
                continue 'outer;
            }
            // Tie-break exact duplicates by index so only one survives.
            if other == c && j < i {
                continue 'outer;
            }
        }
        keep.push(i);
    }
    keep
}

/// True if `costs[i]` is Pareto-optimal within `costs`.
pub fn is_pareto_optimal(costs: &[CostVector], i: usize) -> bool {
    let c = &costs[i];
    !costs
        .iter()
        .enumerate()
        .any(|(j, other)| j != i && other.strictly_dominates(c))
}

/// True if `set` is an `alpha`-approximate cover of `reference`: for every
/// `r` in `reference` there is an `s` in `set` with `s ⪯ alpha · r`.
pub fn covers(set: &[CostVector], reference: &[CostVector], alpha: f64) -> bool {
    reference
        .iter()
        .all(|r| set.iter().any(|s| s.dominates_scaled(r, alpha)))
}

/// True if `set` is an `alpha`-approximate *b-bounded* cover of `reference`:
/// for every `r` in `reference` with `alpha · r ⪯ b` there is an `s` in
/// `set` with `s ⪯ alpha · r` (the paper's bounded Pareto-set definition).
pub fn covers_bounded(
    set: &[CostVector],
    reference: &[CostVector],
    alpha: f64,
    bounds: &Bounds,
) -> bool {
    reference
        .iter()
        .filter(|r| bounds.respects(&r.scaled(alpha)))
        .all(|r| set.iter().any(|s| s.dominates_scaled(r, alpha)))
}

/// The smallest `alpha` such that `set` is an `alpha`-approximate cover of
/// `reference`, i.e. `max over r of (min over s of domination_factor(s, r))`.
///
/// Returns `1.0` when the set covers the reference exactly (or better) and
/// `f64::INFINITY` when some reference point cannot be covered by any finite
/// scaling (only possible with zero-cost components). An empty reference is
/// covered with factor `1.0`; an empty set cannot cover a non-empty
/// reference.
pub fn coverage_factor(set: &[CostVector], reference: &[CostVector]) -> f64 {
    let mut worst: f64 = 1.0;
    for r in reference {
        let best = set
            .iter()
            .map(|s| s.domination_factor(r))
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best);
    }
    worst
}

/// Incrementally maintains a minimal Pareto frontier under insertion.
///
/// Used by the exhaustive baseline (full-Pareto dynamic programming) where,
/// unlike IAMA's result sets, dominated entries *are* discarded eagerly.
/// `T` is an arbitrary payload (e.g. a plan identifier).
#[derive(Clone, Debug, Default)]
pub struct ParetoAccumulator<T> {
    entries: Vec<(CostVector, T)>,
}

impl<T> ParetoAccumulator<T> {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Inserts `(cost, payload)` unless it is dominated by an existing
    /// entry; evicts existing entries that the new one strictly dominates.
    /// Returns true if the entry was inserted.
    ///
    /// A new entry whose cost *equals* an existing entry's cost is rejected
    /// (the frontier keeps one representative per cost vector).
    pub fn insert(&mut self, cost: CostVector, payload: T) -> bool {
        for (c, _) in &self.entries {
            if c.dominates(&cost) {
                return false;
            }
        }
        self.entries.retain(|(c, _)| !cost.strictly_dominates(c));
        self.entries.push((cost, payload));
        true
    }

    /// Number of frontier entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(cost, payload)` entries.
    pub fn iter(&self) -> impl Iterator<Item = &(CostVector, T)> {
        self.entries.iter()
    }

    /// The frontier's cost vectors.
    pub fn costs(&self) -> Vec<CostVector> {
        self.entries.iter().map(|(c, _)| *c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[f64]) -> CostVector {
        CostVector::new(s)
    }

    #[test]
    fn pareto_filter_drops_dominated() {
        let costs = vec![
            v(&[1.0, 4.0]),
            v(&[2.0, 2.0]),
            v(&[3.0, 3.0]),
            v(&[4.0, 1.0]),
        ];
        let keep = pareto_filter(&costs);
        assert_eq!(keep, vec![0, 1, 3]);
    }

    #[test]
    fn pareto_filter_keeps_one_duplicate() {
        let costs = vec![v(&[1.0, 1.0]), v(&[1.0, 1.0]), v(&[2.0, 0.5])];
        let keep = pareto_filter(&costs);
        assert_eq!(keep, vec![0, 2]);
    }

    #[test]
    fn pareto_filter_empty() {
        assert!(pareto_filter(&[]).is_empty());
    }

    #[test]
    fn is_pareto_optimal_matches_filter() {
        let costs = vec![v(&[1.0, 4.0]), v(&[2.0, 5.0]), v(&[4.0, 1.0])];
        assert!(is_pareto_optimal(&costs, 0));
        assert!(!is_pareto_optimal(&costs, 1));
        assert!(is_pareto_optimal(&costs, 2));
    }

    #[test]
    fn coverage_exact_and_approximate() {
        let reference = vec![v(&[1.0, 4.0]), v(&[4.0, 1.0])];
        // A singleton within factor 4 of both reference points.
        let set = vec![v(&[4.0, 4.0])];
        assert!(!covers(&set, &reference, 1.0));
        assert!(covers(&set, &reference, 4.0));
        assert_eq!(coverage_factor(&set, &reference), 4.0);
        // The reference covers itself exactly.
        assert_eq!(coverage_factor(&reference, &reference), 1.0);
    }

    #[test]
    fn coverage_of_empty_reference_is_trivial() {
        assert!(covers(&[], &[], 1.0));
        assert_eq!(coverage_factor(&[], &[]), 1.0);
    }

    #[test]
    fn empty_set_cannot_cover() {
        let reference = vec![v(&[1.0])];
        assert!(!covers(&[], &reference, 100.0));
        assert_eq!(coverage_factor(&[], &reference), f64::INFINITY);
    }

    #[test]
    fn bounded_coverage_ignores_out_of_bounds_reference_points() {
        let reference = vec![v(&[1.0, 10.0]), v(&[100.0, 1.0])];
        let set = vec![v(&[1.0, 10.0])];
        let bounds = Bounds::from_slice(&[10.0, 10.0]);
        // The 100-cost point is outside alpha*b, so it need not be covered.
        assert!(covers_bounded(&set, &reference, 1.0, &bounds));
        assert!(!covers(&set, &reference, 1.0));
    }

    #[test]
    fn accumulator_maintains_minimal_frontier() {
        let mut acc = ParetoAccumulator::new();
        assert!(acc.insert(v(&[2.0, 2.0]), "a"));
        assert!(acc.insert(v(&[1.0, 3.0]), "b"));
        // Dominated by "a":
        assert!(!acc.insert(v(&[3.0, 3.0]), "c"));
        // Equal to "a": rejected.
        assert!(!acc.insert(v(&[2.0, 2.0]), "a2"));
        // Dominates "a": evicts it.
        assert!(acc.insert(v(&[1.5, 1.5]), "d"));
        let costs = acc.costs();
        assert_eq!(acc.len(), 2);
        assert!(costs.contains(&v(&[1.0, 3.0])));
        assert!(costs.contains(&v(&[1.5, 1.5])));
    }

    #[test]
    fn accumulator_result_is_pareto_set() {
        // Inserting a batch in any order yields exactly the Pareto filter.
        let costs = vec![
            v(&[5.0, 1.0]),
            v(&[1.0, 5.0]),
            v(&[3.0, 3.0]),
            v(&[4.0, 4.0]),
            v(&[2.0, 4.5]),
        ];
        let mut acc = ParetoAccumulator::new();
        for (i, c) in costs.iter().enumerate() {
            acc.insert(*c, i);
        }
        let expected: Vec<CostVector> = pareto_filter(&costs)
            .into_iter()
            .map(|i| costs[i])
            .collect();
        let mut got = acc.costs();
        got.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        let mut exp = expected;
        exp.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert_eq!(got.len(), exp.len());
        for (g, e) in got.iter().zip(&exp) {
            assert_eq!(g.as_slice(), e.as_slice());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn cost_vec(dim: usize) -> impl Strategy<Value = CostVector> {
        // Coarse grid so that dominance relations are common.
        proptest::collection::vec(0u32..20, dim)
            .prop_map(|v| CostVector::from_fn(v.len(), |i| v[i] as f64))
    }

    fn cost_set(dim: usize, max: usize) -> impl Strategy<Value = Vec<CostVector>> {
        proptest::collection::vec(cost_vec(dim), 0..max)
    }

    proptest! {
        /// The Pareto filter output covers the input with factor 1 and
        /// contains no strictly dominated entries.
        #[test]
        fn filter_sound_and_complete(costs in cost_set(3, 24)) {
            let keep = pareto_filter(&costs);
            let frontier: Vec<CostVector> = keep.iter().map(|&i| costs[i]).collect();
            // Complete: every input point is dominated by a kept point.
            prop_assert!(covers(&frontier, &costs, 1.0));
            // Sound: no kept point is strictly dominated by another kept point.
            for (a_idx, &i) in keep.iter().enumerate() {
                for (b_idx, &j) in keep.iter().enumerate() {
                    if a_idx != b_idx {
                        prop_assert!(!costs[j].strictly_dominates(&costs[i]));
                    }
                }
            }
        }

        /// The accumulator agrees with the batch filter on frontier size.
        #[test]
        fn accumulator_matches_filter(costs in cost_set(2, 24)) {
            let mut acc = ParetoAccumulator::new();
            for (i, c) in costs.iter().enumerate() {
                acc.insert(*c, i);
            }
            let keep = pareto_filter(&costs);
            prop_assert_eq!(acc.len(), keep.len());
        }

        /// coverage_factor is the threshold for covers().
        #[test]
        fn coverage_factor_is_threshold(set in cost_set(2, 10), reference in cost_set(2, 10)) {
            // Shift to strictly positive costs so factors stay finite.
            let shift = |v: &CostVector| CostVector::from_fn(v.dim(), |i| v[i] + 1.0);
            let set: Vec<_> = set.iter().map(shift).collect();
            let reference: Vec<_> = reference.iter().map(shift).collect();
            if set.is_empty() && !reference.is_empty() {
                prop_assert_eq!(coverage_factor(&set, &reference), f64::INFINITY);
            } else {
                let f = coverage_factor(&set, &reference);
                prop_assert!(covers(&set, &reference, f * (1.0 + 1e-12)));
                if f > 1.0 + 1e-9 {
                    prop_assert!(!covers(&set, &reference, f * (1.0 - 1e-9)));
                }
            }
        }
    }
}
