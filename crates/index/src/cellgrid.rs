//! Logarithmically partitioned cell grid.
//!
//! The paper suggests (Section 5.3, footnote 3) partitioning the cost space
//! into cells with *logarithmic* boundaries — the region a result plan
//! approximately dominates is its cost vector scaled by a constant factor,
//! so log-partitioning distributes plans more uniformly over cells.
//!
//! A cost vector `c` maps to the cell coordinate `floor(log2(1 + c_i))`
//! per metric. For a range query `[0, b]` the bound's coordinates split
//! the cells into three classes:
//!
//! * coordinate `< coord(b_i)` on every metric → the whole cell lies
//!   inside the range: its entries are accepted without per-entry checks;
//! * coordinate `> coord(b_i)` on some metric → the whole cell lies
//!   outside: rejected in `O(1)`;
//! * otherwise the cell straddles the boundary and entries are checked
//!   individually.
//!
//! Cells are kept in a hash map per resolution level, so insertion is
//! `O(1)` and queries only touch non-empty cells.
//!
//! Each cell stores its entries in struct-of-arrays layout ([`SoaCell`]):
//! one contiguous `f64` lane per metric plus parallel payload columns.
//! Range drains, batched scans, and the witness search
//! ([`PlanIndex::dominance_scan`]) run the lane kernels of
//! [`moqo_cost::lanes`] over whole 64-row blocks — branch-light,
//! auto-vectorizable, and bit-exact with the scalar visitor protocol,
//! which remains available (and identical in visit order) through
//! [`PlanIndex::scan`].

use crate::entry::Entry;
use crate::fxhash::FxHashMap;
use crate::soa::SoaCell;
use crate::{DominanceScan, EntryBatch, PlanIndex};
use moqo_cost::{lanes, Bounds, CostVector, MAX_DIM};

/// Cell coordinates: one log-bucket index per metric.
type CellKey = [u8; MAX_DIM];

const COORD_INF: u8 = u8::MAX;

#[inline]
fn coord(v: f64) -> u8 {
    if v.is_infinite() {
        return COORD_INF;
    }
    debug_assert!(v >= 0.0);
    // floor(log2(1 + v)), read directly off the IEEE-754 exponent field:
    // x = 1 + v >= 1.0 is always a normal number, so its unbiased
    // exponent e satisfies 2^e <= x < 2^(e+1) *exactly* — unlike
    // x.log2().floor(), which rounds 50 - epsilon up to 50.0 for x just
    // below a power of two and mis-buckets it.
    let x = 1.0 + v;
    let e = ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    e.clamp(0, (COORD_INF - 1) as i64) as u8
}

#[inline]
fn cell_key(c: &CostVector) -> CellKey {
    let mut key = [0u8; MAX_DIM];
    for (i, slot) in key.iter_mut().enumerate().take(c.dim()) {
        *slot = coord(c[i]);
    }
    key
}

/// Relationship of a cell to a query range.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
enum CellClass {
    Inside,
    Straddles,
    Outside,
}

#[inline]
fn classify(cell: &CellKey, bound: &CellKey, dim: usize) -> CellClass {
    let mut straddles = false;
    for i in 0..dim {
        if cell[i] > bound[i] {
            return CellClass::Outside;
        }
        if cell[i] == bound[i] && bound[i] != COORD_INF {
            straddles = true;
        }
    }
    if straddles {
        CellClass::Straddles
    } else {
        CellClass::Inside
    }
}

/// A [`PlanIndex`] backed by a logarithmic cell grid per resolution level,
/// with struct-of-arrays cell storage.
#[derive(Clone, Debug)]
pub struct CellGrid<T: Copy> {
    dim: usize,
    levels: Vec<FxHashMap<CellKey, SoaCell<T>>>,
    len: usize,
}

impl<T: Copy> CellGrid<T> {
    /// Creates an empty grid for `dim` metrics.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0 && dim <= MAX_DIM);
        Self {
            dim,
            levels: Vec::new(),
            len: 0,
        }
    }

    /// Number of non-empty cells (diagnostics / ablation reporting).
    pub fn cell_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Debug-build invariants: the cached `len` matches the sum of cell
    /// row counts, and no empty cell is retained in any level map (an
    /// empty cell would distort `cell_count` and waste classify work).
    #[cfg(debug_assertions)]
    fn check_consistency(&self) {
        let total: usize = self
            .levels
            .iter()
            .flat_map(|l| l.values())
            .map(|c| c.len())
            .sum();
        debug_assert_eq!(
            total, self.len,
            "cell grid len cache diverged from cell contents"
        );
        debug_assert!(
            self.levels
                .iter()
                .all(|l| l.values().all(|c| !c.is_empty())),
            "cell grid retained an empty cell"
        );
    }
}

impl<T: Copy> PlanIndex<T> for CellGrid<T> {
    fn insert(&mut self, entry: Entry<T>) {
        debug_assert_eq!(entry.cost.dim(), self.dim);
        let level = entry.level as usize;
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, FxHashMap::default);
        }
        let key = cell_key(&entry.cost);
        self.levels[level].entry(key).or_default().push(&entry);
        self.len += 1;
        #[cfg(debug_assertions)]
        self.check_consistency();
    }

    fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        visitor: &mut dyn FnMut(&Entry<T>) -> bool,
    ) -> bool {
        let bound_key = cell_key(bounds.limits());
        for level in self.levels.iter().take(max_level as usize + 1) {
            for (key, cell) in level {
                match classify(key, &bound_key, self.dim) {
                    CellClass::Outside => continue,
                    CellClass::Inside => {
                        for i in 0..cell.len() {
                            if visitor(&cell.entry(i, self.dim)) {
                                return true;
                            }
                        }
                    }
                    CellClass::Straddles => {
                        for i in 0..cell.len() {
                            let e = cell.entry(i, self.dim);
                            if bounds.respects(&e.cost) && visitor(&e) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        let bound_key = cell_key(bounds.limits());
        let dim = self.dim;
        let mut out = Vec::new();
        for level in self.levels.iter_mut().take(max_level as usize + 1) {
            level.retain(|key, cell| match classify(key, &bound_key, dim) {
                CellClass::Outside => true,
                CellClass::Inside => {
                    cell.drain_all_into(dim, &mut out);
                    false
                }
                CellClass::Straddles => {
                    cell.drain_respecting_into(dim, bounds, &mut out);
                    !cell.is_empty()
                }
            });
        }
        self.len -= out.len();
        #[cfg(debug_assertions)]
        self.check_consistency();
        out
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scan_batch(
        &self,
        bounds: &Bounds,
        max_level: u8,
        consumer: &mut dyn FnMut(&EntryBatch<'_, T>) -> bool,
    ) -> bool {
        let bound_key = cell_key(bounds.limits());
        for level in self.levels.iter().take(max_level as usize + 1) {
            for (key, cell) in level {
                let class = classify(key, &bound_key, self.dim);
                if class == CellClass::Outside {
                    continue;
                }
                let cols = cell.lane_slices();
                let n = cell.len();
                let mut start = 0usize;
                while start < n {
                    let blk = (n - start).min(lanes::BLOCK);
                    let mask = if class == CellClass::Inside {
                        lanes::full_mask(blk)
                    } else {
                        bounds.respects_lanes(&cols[..self.dim], start, blk)
                    };
                    if mask != 0 {
                        let end = start + blk;
                        let batch = EntryBatch {
                            items: &cell.items()[start..end],
                            levels: &cell.levels()[start..end],
                            invocations: &cell.invocations()[start..end],
                            lanes: std::array::from_fn(|m| {
                                if m < self.dim {
                                    &cols[m][start..end]
                                } else {
                                    &[][..]
                                }
                            }),
                            dim: self.dim,
                            mask,
                        };
                        if consumer(&batch) {
                            return true;
                        }
                    }
                    start += blk;
                }
            }
        }
        false
    }

    fn dominance_scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        target: &CostVector,
        threshold: f64,
        accept: &mut dyn FnMut(T) -> bool,
    ) -> DominanceScan {
        let bound_key = cell_key(bounds.limits());
        let tgt = target.as_slice();
        let mut best_factor = f64::INFINITY;
        let mut comparisons = 0u64;
        let mut factors = [0.0f64; lanes::BLOCK];
        for level in self.levels.iter().take(max_level as usize + 1) {
            for (key, cell) in level {
                let class = classify(key, &bound_key, self.dim);
                if class == CellClass::Outside {
                    continue;
                }
                let cols = cell.lane_slices();
                let cols = &cols[..self.dim];
                let n = cell.len();
                let mut start = 0usize;
                // Sub-block granularity: the factor kernel is division
                // heavy and the scan usually exits early (witness found
                // within a handful of rows), so charging 64 rows at a
                // time wastes most of the block. 16 rows keep the lanes
                // full (4 chunks) while bounding the overshoot past an
                // early exit. Granularity is decision-neutral: factors
                // are per-row pure and rows are still consumed in the
                // exact scalar order.
                const SUB: usize = 16;
                while start < n {
                    let blk = (n - start).min(SUB);
                    let mask = if class == CellClass::Inside {
                        lanes::full_mask(blk)
                    } else {
                        bounds.respects_lanes(cols, start, blk)
                    };
                    if mask != 0 {
                        comparisons += u64::from(mask.count_ones());
                        lanes::domination_factor_lanes(cols, tgt, start, blk, &mut factors);
                        // Rows are consumed in ascending order — the same
                        // order the scalar visitor sees them — so early
                        // exits fire at the identical entry with the
                        // identical running minimum.
                        let mut bits = mask;
                        while bits != 0 {
                            let j = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let f = factors[j];
                            // Skipping `accept` for non-improving rows
                            // cannot change the minimum: `accept` is pure.
                            if f < best_factor && accept(cell.item(start + j)) {
                                best_factor = f;
                                if best_factor <= threshold {
                                    return DominanceScan {
                                        best_factor,
                                        comparisons,
                                    };
                                }
                            }
                        }
                    }
                    start += blk;
                }
            }
        }
        DominanceScan {
            best_factor,
            comparisons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_is_logarithmic() {
        assert_eq!(coord(0.0), 0);
        assert_eq!(coord(0.9), 0);
        assert_eq!(coord(1.0), 1);
        assert_eq!(coord(2.9), 1);
        assert_eq!(coord(3.0), 2);
        assert_eq!(coord(7.1), 3);
        assert_eq!(coord(f64::INFINITY), COORD_INF);
        // Huge but finite values clamp below the infinity sentinel.
        assert_eq!(coord(f64::MAX), COORD_INF - 1);
    }

    #[test]
    fn coord_is_the_exact_exponent_over_a_value_sweep() {
        // The exponent-extraction coord must satisfy the defining
        // inequality 2^e <= 1 + v < 2^(e+1) exactly (below the clamp),
        // including for the values the old log2().floor() got wrong.
        let sweep: Vec<f64> = vec![
            0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            0.999_999_999,
            1.0,
            2.9,
            3.0,
            // Just below a power of two: 1 + v is the largest f64 < 2^50.
            // log2().floor() rounds its logarithm up to 50.0 and
            // mis-buckets; the exponent field cannot.
            f64::from_bits(((1u64 << 50) as f64).to_bits() - 1) - 1.0,
            (1u64 << 50) as f64 - 1.0,
            (1u64 << 50) as f64,
            1e300,
            f64::MAX,
        ];
        for &v in &sweep {
            let e = coord(v);
            assert!(e < COORD_INF, "finite value hit the infinity sentinel");
            let lo = 2f64.powi(e as i32);
            assert!(lo <= 1.0 + v, "coord({v}) = {e}: 2^e > 1 + v");
            if e < COORD_INF - 1 {
                let hi = 2f64.powi(e as i32 + 1);
                assert!(1.0 + v < hi, "coord({v}) = {e}: 1 + v >= 2^(e+1)");
            }
        }
        assert_eq!(coord(f64::INFINITY), COORD_INF);
    }

    #[test]
    fn classify_cells() {
        // dim 2, bound at coords [3, COORD_INF] (second metric unbounded).
        let bound = {
            let mut k = [0u8; MAX_DIM];
            k[0] = 3;
            k[1] = COORD_INF;
            k
        };
        let mk = |a: u8, b: u8| {
            let mut k = [0u8; MAX_DIM];
            k[0] = a;
            k[1] = b;
            k
        };
        assert_eq!(classify(&mk(2, 5), &bound, 2), CellClass::Inside);
        assert_eq!(classify(&mk(3, 5), &bound, 2), CellClass::Straddles);
        assert_eq!(classify(&mk(4, 0), &bound, 2), CellClass::Outside);
        // Unbounded metric never causes straddling.
        assert_eq!(
            classify(&mk(0, COORD_INF - 1), &bound, 2),
            CellClass::Inside
        );
    }

    #[test]
    fn insert_scan_drain_roundtrip() {
        let mut grid: CellGrid<u32> = CellGrid::new(2);
        for i in 0..20u32 {
            let c = CostVector::new(&[i as f64, (20 - i) as f64]);
            grid.insert(Entry::new(i, c, (i % 3) as u8, 0));
        }
        assert_eq!(PlanIndex::len(&grid), 20);
        assert!(grid.cell_count() > 1);

        // Unbounded query at max level sees everything.
        assert_eq!(grid.collect(&Bounds::unbounded(2), 2).len(), 20);
        // Level filter.
        let lvl0: Vec<u32> = grid
            .collect(&Bounds::unbounded(2), 0)
            .iter()
            .map(|e| e.item)
            .collect();
        assert!(lvl0.iter().all(|i| i % 3 == 0));

        // Bounds filter agrees with a manual check.
        let b = Bounds::from_slice(&[10.0, 15.0]);
        let got: std::collections::HashSet<u32> =
            grid.collect(&b, 2).iter().map(|e| e.item).collect();
        let expected: std::collections::HashSet<u32> = (0..20u32)
            .filter(|&i| (i as f64) <= 10.0 && ((20 - i) as f64) <= 15.0)
            .collect();
        assert_eq!(got, expected);

        // Drain removes exactly the matching entries.
        let drained = grid.drain(&b, 2);
        assert_eq!(drained.len(), expected.len());
        assert_eq!(PlanIndex::len(&grid), 20 - expected.len());
        assert!(grid.collect(&b, 2).is_empty());
        // Draining the rest empties the grid and drops every cell.
        let rest = grid.drain(&Bounds::unbounded(2), 2);
        assert_eq!(rest.len(), 20 - expected.len());
        assert!(PlanIndex::is_empty(&grid));
        assert_eq!(grid.cell_count(), 0);
    }

    #[test]
    fn drain_keeps_len_and_cells_consistent() {
        // Exercises the debug consistency assertion across a sequence of
        // straddling drains (partial-cell removal) and re-inserts, and
        // checks the observable counters agree with the contents.
        let mut grid: CellGrid<u32> = CellGrid::new(2);
        for i in 0..64u32 {
            let c = CostVector::new(&[(i % 16) as f64, (i / 4) as f64]);
            grid.insert(Entry::new(i, c, (i % 2) as u8, 0));
        }
        for limit in [3.0, 7.0, 11.0, 100.0] {
            let before = PlanIndex::len(&grid);
            let drained = grid.drain(&Bounds::from_slice(&[limit, limit]), 1);
            assert_eq!(PlanIndex::len(&grid), before - drained.len());
            let remaining = grid.collect(&Bounds::unbounded(2), 1);
            assert_eq!(remaining.len(), PlanIndex::len(&grid));
            // Re-insert half of the drained rows to churn the cells.
            for e in drained.iter().step_by(2) {
                grid.insert(*e);
            }
        }
        // Empty cells are never retained, so every cell contributes.
        assert!(grid.cell_count() <= PlanIndex::len(&grid));
    }

    #[test]
    fn scan_early_exit_counts_once() {
        let mut grid: CellGrid<u32> = CellGrid::new(1);
        for i in 0..50u32 {
            grid.insert(Entry::new(i, CostVector::new(&[i as f64]), 0, 0));
        }
        let mut seen = 0;
        let stopped = grid.scan(&Bounds::unbounded(1), 0, &mut |_| {
            seen += 1;
            true
        });
        assert!(stopped);
        assert_eq!(seen, 1);
    }

    #[test]
    fn scan_batch_visits_the_same_entries_as_scan() {
        let mut grid: CellGrid<u32> = CellGrid::new(2);
        for i in 0..150u32 {
            let c = CostVector::new(&[(i % 30) as f64 * 3.7, (i % 11) as f64 * 9.1]);
            grid.insert(Entry::new(i, c, (i % 3) as u8, i));
        }
        let b = Bounds::from_slice(&[60.0, 55.0]);
        let mut scalar = Vec::new();
        grid.scan(&b, 2, &mut |e| {
            scalar.push((e.item, e.level, e.invocation, e.cost));
            false
        });
        let mut batched = Vec::new();
        grid.scan_batch(&b, 2, &mut |batch| {
            for j in batch.selected() {
                batched.push((
                    batch.item(j),
                    batch.level(j),
                    batch.invocation(j),
                    batch.cost(j),
                ));
            }
            false
        });
        assert_eq!(scalar, batched);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::linear::LinearIndex;
    use proptest::prelude::*;

    proptest! {
        /// The cell grid agrees with the linear index on arbitrary
        /// workloads (same query results, same drain behaviour).
        #[test]
        fn grid_equivalent_to_linear(
            entries in proptest::collection::vec(
                ((0.0f64..1e5), (0.0f64..1e5), 0u8..4), 0..80),
            qb in (0.0f64..1.2e5, 0.0f64..1.2e5),
            qr in 0u8..4,
            unbounded in any::<bool>(),
        ) {
            let mut grid: CellGrid<u32> = CellGrid::new(2);
            let mut lin: LinearIndex<u32> = LinearIndex::new();
            for (i, (a, b, lvl)) in entries.iter().enumerate() {
                let e = Entry::new(i as u32, CostVector::new(&[*a, *b]), *lvl, 0);
                grid.insert(e);
                lin.insert(e);
            }
            let bounds = if unbounded {
                Bounds::unbounded(2)
            } else {
                Bounds::from_slice(&[qb.0, qb.1])
            };
            let norm = |mut v: Vec<Entry<u32>>| {
                v.sort_by_key(|e| e.item);
                v.iter().map(|e| e.item).collect::<Vec<_>>()
            };
            prop_assert_eq!(
                norm(grid.collect(&bounds, qr)),
                norm(lin.collect(&bounds, qr))
            );
            // Drain agreement and post-state agreement.
            let dg = norm(grid.drain(&bounds, qr));
            let dl = norm(lin.drain(&bounds, qr));
            prop_assert_eq!(dg, dl);
            prop_assert_eq!(PlanIndex::len(&grid), PlanIndex::len(&lin));
            let all = Bounds::unbounded(2);
            prop_assert_eq!(
                norm(grid.collect(&all, 4)),
                norm(lin.collect(&all, 4))
            );
        }
    }
}
