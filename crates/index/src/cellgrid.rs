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
//! `O(1)` and queries only touch non-empty cells. Each cell is a plain
//! `Vec<Entry<T>>` in insertion order, and every operation keeps that
//! order: scans visit a cell's entries front to back, and drains move
//! the matching entries out in order while the rest stay in order. The
//! optimizer re-prunes drained candidates in drain order, so the
//! frontier's bytes depend on it.

use crate::entry::Entry;
use crate::fxhash::FxHashMap;
use moqo_cost::{Bounds, CostVector, MAX_DIM};

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

/// A plan-set index backed by a logarithmic cell grid per resolution
/// level.
///
/// `T` is the payload (a plan identifier in the optimizer).
#[derive(Clone, Debug)]
pub struct CellGrid<T: Copy> {
    dim: usize,
    levels: Vec<FxHashMap<CellKey, Vec<Entry<T>>>>,
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

    /// Number of non-empty cells (diagnostics).
    pub fn cell_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Debug-build invariants: the cached `len` matches the sum of cell
    /// sizes, and no empty cell is retained in any level map (an empty
    /// cell would distort `cell_count` and waste classify work).
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

    /// Inserts an entry at the back of its cell.
    pub fn insert(&mut self, entry: Entry<T>) {
        debug_assert_eq!(entry.cost.dim(), self.dim);
        let level = entry.level as usize;
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, FxHashMap::default);
        }
        let key = cell_key(&entry.cost);
        self.levels[level].entry(key).or_default().push(entry);
        self.len += 1;
        #[cfg(debug_assertions)]
        self.check_consistency();
    }

    /// Visits every entry in `S[0..b, 0..r]` (cost dominated by `bounds`,
    /// level `<= max_level`). The visitor returns `true` to stop early;
    /// `scan` returns `true` if it was stopped early.
    ///
    /// Cells are visited in hash-map order, each cell's entries in
    /// insertion order.
    pub fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        mut visitor: impl FnMut(&Entry<T>) -> bool,
    ) -> bool {
        let bound_key = cell_key(bounds.limits());
        for level in self.levels.iter().take(max_level as usize + 1) {
            for (key, cell) in level {
                let stopped = match classify(key, &bound_key, self.dim) {
                    CellClass::Outside => false,
                    CellClass::Inside => cell.iter().any(&mut visitor),
                    CellClass::Straddles => {
                        cell.iter().any(|e| bounds.respects(&e.cost) && visitor(e))
                    }
                };
                if stopped {
                    return true;
                }
            }
        }
        false
    }

    /// Removes and returns every entry in `S[0..b, 0..r]`, cell by cell
    /// in [`CellGrid::scan`] order. Inside cells move out whole; a
    /// straddling cell is split by a stable partition, so both the
    /// drained and the remaining entries keep their insertion order.
    pub fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        let bound_key = cell_key(bounds.limits());
        let dim = self.dim;
        let mut out = Vec::new();
        for level in self.levels.iter_mut().take(max_level as usize + 1) {
            level.retain(|key, cell| match classify(key, &bound_key, dim) {
                CellClass::Outside => true,
                CellClass::Inside => {
                    out.append(cell);
                    false
                }
                CellClass::Straddles => {
                    cell.retain(|e| {
                        let inside = bounds.respects(&e.cost);
                        if inside {
                            out.push(*e);
                        }
                        !inside
                    });
                    !cell.is_empty()
                }
            });
        }
        self.len -= out.len();
        #[cfg(debug_assertions)]
        self.check_consistency();
        out
    }

    /// Rewrites every entry's payload through `f`, in place. Cells, their
    /// entry order and the level maps' layout stay exactly as they are, so
    /// later scans and drains visit the entries in the same order as
    /// before.
    pub fn map_items(&mut self, mut f: impl FnMut(T) -> T) {
        for level in &mut self.levels {
            for cell in level.values_mut() {
                for e in cell.iter_mut() {
                    e.item = f(e.item);
                }
            }
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Collects (copies of) all entries in `S[0..b, 0..r]`, in
    /// [`CellGrid::scan`] order.
    pub fn collect(&self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        self.scan(bounds, max_level, |e| {
            out.push(*e);
            false
        });
        out
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
        assert_eq!(grid.len(), 20);
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
        assert_eq!(grid.len(), 20 - expected.len());
        assert!(grid.collect(&b, 2).is_empty());
        // Draining the rest empties the grid and drops every cell.
        let rest = grid.drain(&Bounds::unbounded(2), 2);
        assert_eq!(rest.len(), 20 - expected.len());
        assert!(grid.is_empty());
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
            let before = grid.len();
            let drained = grid.drain(&Bounds::from_slice(&[limit, limit]), 1);
            assert_eq!(grid.len(), before - drained.len());
            let remaining = grid.collect(&Bounds::unbounded(2), 1);
            assert_eq!(remaining.len(), grid.len());
            // Re-insert half of the drained rows to churn the cells.
            for e in drained.iter().step_by(2) {
                grid.insert(*e);
            }
        }
        // Empty cells are never retained, so every cell contributes.
        assert!(grid.cell_count() <= grid.len());
    }

    #[test]
    fn scan_early_exit_counts_once() {
        let mut grid: CellGrid<u32> = CellGrid::new(1);
        for i in 0..50u32 {
            grid.insert(Entry::new(i, CostVector::new(&[i as f64]), 0, 0));
        }
        let mut seen = 0;
        let stopped = grid.scan(&Bounds::unbounded(1), 0, |_| {
            seen += 1;
            true
        });
        assert!(stopped);
        assert_eq!(seen, 1);
    }

    #[test]
    fn map_items_keeps_scan_and_drain_order() {
        let mut grid: CellGrid<u32> = CellGrid::new(2);
        let mut twin: CellGrid<u32> = CellGrid::new(2);
        for i in 0..40u32 {
            let e = Entry::new(i, CostVector::new(&[(i * 7 % 13) as f64, i as f64]), 0, 0);
            grid.insert(e);
            twin.insert(e);
        }
        grid.map_items(|i| i + 100);
        let items = |g: &CellGrid<u32>| -> Vec<u32> {
            g.collect(&Bounds::unbounded(2), 0)
                .iter()
                .map(|e| e.item)
                .collect()
        };
        let shifted: Vec<u32> = items(&twin).iter().map(|i| i + 100).collect();
        assert_eq!(items(&grid), shifted);
        let b = Bounds::from_slice(&[6.0, 30.0]);
        let drained: Vec<u32> = grid.drain(&b, 0).iter().map(|e| e.item).collect();
        let expected: Vec<u32> = twin.drain(&b, 0).iter().map(|e| e.item + 100).collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn drain_is_a_stable_partition_of_each_cell() {
        // Items 1, 3, 6 share a cell inside the bound (coords [0, 0]);
        // items 0, 2, 4, 5, 7 share a cell straddling it (coords [2, 2]).
        let mut grid: CellGrid<u32> = CellGrid::new(2);
        let costs = [
            [3.0, 3.0],
            [0.5, 0.5],
            [6.0, 6.0],
            [0.2, 0.9],
            [4.0, 4.0],
            [6.5, 3.0],
            [0.7, 0.1],
            [3.5, 5.0],
        ];
        for (i, c) in costs.iter().enumerate() {
            grid.insert(Entry::new(i as u32, CostVector::new(c), 0, i as u32));
        }
        let drained: Vec<u32> = grid
            .drain(&Bounds::from_slice(&[5.0, 5.0]), 0)
            .iter()
            .map(|e| e.item)
            .collect();
        // Each cell drains as one run in insertion order: the whole
        // inside cell, and the straddling cell's entries that respect
        // the bound. The runs follow the cell map's order.
        assert!(
            drained == [1, 3, 6, 0, 4, 7] || drained == [0, 4, 7, 1, 3, 6],
            "drain order {drained:?}"
        );
        // The straddling cell keeps the rest, still in insertion order.
        let left: Vec<u32> = grid
            .collect(&Bounds::unbounded(2), 0)
            .iter()
            .map(|e| e.item)
            .collect();
        assert_eq!(left, [2, 5]);
        assert_eq!(grid.cell_count(), 1);
        // Draining the rest empties the grid in the same order.
        let rest: Vec<u32> = grid
            .drain(&Bounds::unbounded(2), 0)
            .iter()
            .map(|e| e.item)
            .collect();
        assert_eq!(rest, [2, 5]);
        assert!(grid.is_empty());
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
            prop_assert_eq!(grid.len(), lin.len());
            let all = Bounds::unbounded(2);
            prop_assert_eq!(
                norm(grid.collect(&all, 4)),
                norm(lin.collect(&all, 4))
            );
        }
    }
}
