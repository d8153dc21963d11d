//! Plan-set indexes supporting (cost, resolution) range queries.
//!
//! IAMA indexes both result plans and candidate plans "by plan cost and by
//! resolution level", using "a data structure supporting multi-dimensional
//! range queries" (Section 4.1). The notation `S[0..b, 0..r]` selects the
//! entries whose cost vector is dominated by the bounds `b` and whose
//! resolution tag is at most `r`.
//!
//! Three interchangeable implementations are provided behind the
//! [`PlanIndex`] trait:
//!
//! * [`LinearIndex`] — per-resolution flat vectors, scanned with a bounds
//!   filter. Simple and cache-friendly; retrieval is `O(stored)`.
//! * [`CellGrid`] — the logarithmically partitioned cell structure the
//!   paper recommends (citing Bentley & Friedman): cost space is split
//!   into cells along `floor(log2(1 + cost))` per metric, so a range query
//!   can accept whole cells without per-entry checks and reject
//!   out-of-range cells in `O(1)`. Under the paper's uniformity
//!   assumptions retrieval of `F` entries is `O(F)`.
//! * [`KdTree`] — a classic k-d tree over the cost metrics, pruning whole
//!   subtrees during range queries; drains use tombstones with periodic
//!   compaction.
//!
//! The paper's amortized analysis prioritizes retrieval over insertion
//! time (Section 4.1); the grid and flat structures insert in `O(1)`, the
//! tree in `O(depth)`.
//!
//! The crate also provides [`PairSet`], the hash structure behind the
//! `IsFresh` predicate ensuring no sub-plan pair is combined twice
//! (Lemma 6), and [`fxhash`], a small fast non-cryptographic hasher used
//! throughout the optimizer.

#![warn(missing_docs)]

pub mod cellgrid;
pub mod entry;
pub mod fxhash;
pub mod kdtree;
pub mod linear;
pub mod pairs;
pub mod soa;

pub use cellgrid::CellGrid;
pub use entry::Entry;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use kdtree::KdTree;
pub use linear::LinearIndex;
pub use pairs::PairSet;
pub use soa::SoaCell;

use moqo_cost::{Bounds, CostVector, MAX_DIM};

/// Outcome of a [`PlanIndex::dominance_scan`] witness search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DominanceScan {
    /// The smallest domination factor among the accepted entries at the
    /// point the scan stopped (`f64::INFINITY` if none was accepted).
    /// When the scan ran to completion this is the exact minimum; when
    /// it stopped early it is the factor that crossed the threshold —
    /// in both cases bit-identical between the batched and scalar
    /// paths, because both visit entries in the same order.
    pub best_factor: f64,
    /// Cost-vector comparisons charged to the scan. The batched path
    /// charges whole lane blocks (that is what it evaluates), so this
    /// may exceed the scalar count by up to one block around an early
    /// exit; it is diagnostics, never part of the pruning decision.
    pub comparisons: u64,
}

/// A borrowed batch of index entries in struct-of-arrays layout, at
/// most [`moqo_cost::lanes::BLOCK`] rows, yielded by
/// [`PlanIndex::scan_batch`]. The `mask` selects the rows that are
/// inside the scanned range; unselected rows are present in the columns
/// but must be ignored.
pub struct EntryBatch<'a, T: Copy> {
    items: &'a [T],
    levels: &'a [u8],
    invocations: &'a [u32],
    lanes: [&'a [f64]; MAX_DIM],
    dim: usize,
    mask: u64,
}

impl<'a, T: Copy> EntryBatch<'a, T> {
    /// Rows in the batch (selected or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of cost metrics per row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hit mask of in-range rows (bit `j` = row `j`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Iterates the selected row indices in ascending order.
    #[inline]
    pub fn selected(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.mask;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(j)
            }
        })
    }

    /// The payload of row `i`.
    #[inline]
    pub fn item(&self, i: usize) -> T {
        self.items[i]
    }

    /// The resolution level of row `i`.
    #[inline]
    pub fn level(&self, i: usize) -> u8 {
        self.levels[i]
    }

    /// The insertion invocation of row `i`.
    #[inline]
    pub fn invocation(&self, i: usize) -> u32 {
        self.invocations[i]
    }

    /// The contiguous cost lane of metric `m`.
    #[inline]
    pub fn lane(&self, m: usize) -> &'a [f64] {
        self.lanes[m]
    }

    /// Reconstructs the cost vector of row `i`, bit-identical to the
    /// vector that was inserted.
    #[inline]
    pub fn cost(&self, i: usize) -> CostVector {
        CostVector::from_lanes(self.dim, |m| self.lanes[m][i])
    }

    /// Reconstructs the full entry of row `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry<T> {
        Entry::new(
            self.item(i),
            self.cost(i),
            self.level(i),
            self.invocation(i),
        )
    }
}

/// The scalar reference implementation of [`PlanIndex::dominance_scan`]:
/// a per-entry visitor scan computing the same minimum with the same
/// early exits. This is the default for indexes without native lane
/// storage and the baseline the batched kernels are verified against.
///
/// The optimizer does not prune through either function: its witness
/// search is one pass over the subset's flat active list (result sets
/// are small), while the index serves candidate drains and the frontier
/// range scan. Both index searches remain the test oracle that pass is
/// property-tested against.
pub fn dominance_scan_scalar<T, I>(
    index: &I,
    bounds: &Bounds,
    max_level: u8,
    target: &CostVector,
    threshold: f64,
    accept: &mut dyn FnMut(T) -> bool,
) -> DominanceScan
where
    T: Copy,
    I: PlanIndex<T> + ?Sized,
{
    let mut best_factor = f64::INFINITY;
    let mut comparisons = 0u64;
    index.scan(bounds, max_level, &mut |e| {
        comparisons += 1;
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
    DominanceScan {
        best_factor,
        comparisons,
    }
}

/// A plan-set index keyed by cost vector and resolution level.
///
/// `T` is the payload (a plan identifier in the optimizer).
pub trait PlanIndex<T: Copy> {
    /// Inserts an entry.
    fn insert(&mut self, entry: Entry<T>);

    /// Visits every entry in `S[0..b, 0..r]` (cost dominated by `bounds`,
    /// level `<= max_level`). The visitor returns `true` to stop early;
    /// `scan` returns `true` if it was stopped early.
    ///
    /// Visit order is unspecified.
    fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        visitor: &mut dyn FnMut(&Entry<T>) -> bool,
    ) -> bool;

    /// Removes and returns every entry in `S[0..b, 0..r]`.
    fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// True if no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects (copies of) all entries in `S[0..b, 0..r]`.
    fn collect(&self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        self.scan(bounds, max_level, &mut |e| {
            out.push(*e);
            false
        });
        out
    }

    /// True if some entry in `S[0..b, 0..r]` satisfies `pred`.
    fn any(&self, bounds: &Bounds, max_level: u8, pred: &mut dyn FnMut(&Entry<T>) -> bool) -> bool {
        self.scan(bounds, max_level, pred)
    }

    /// Batched variant of [`PlanIndex::scan`]: visits `S[0..b, 0..r]`
    /// as struct-of-arrays [`EntryBatch`]es (hit mask per block)
    /// instead of one `dyn` callback per entry. The consumer returns
    /// `true` to stop early; `scan_batch` returns `true` if stopped.
    ///
    /// Selected rows arrive in exactly the order [`PlanIndex::scan`]
    /// would visit them, so batched and scalar consumers observe the
    /// same entry sequence. The default implementation wraps the scalar
    /// scan in one-row batches; SoA-backed indexes override it to yield
    /// whole blocks borrowed straight from cell storage.
    fn scan_batch(
        &self,
        bounds: &Bounds,
        max_level: u8,
        consumer: &mut dyn FnMut(&EntryBatch<'_, T>) -> bool,
    ) -> bool {
        self.scan(bounds, max_level, &mut |e| {
            let items = [e.item];
            let levels = [e.level];
            let invocations = [e.invocation];
            let dim = e.cost.dim();
            let mut lane_store = [[0.0f64; 1]; MAX_DIM];
            for (m, slot) in lane_store.iter_mut().enumerate().take(dim) {
                slot[0] = e.cost[m];
            }
            let lanes: [&[f64]; MAX_DIM] = std::array::from_fn(|m| &lane_store[m][..]);
            consumer(&EntryBatch {
                items: &items,
                levels: &levels,
                invocations: &invocations,
                lanes,
                dim,
                mask: 1,
            })
        })
    }

    /// Witness search over `S[0..b, 0..r]` (Algorithm 3 line 7's
    /// question, asked of an index): among the in-range entries for which
    /// `accept(item)` holds, finds the minimal domination factor of the
    /// entry's cost against `target`, stopping early as soon as the
    /// running minimum reaches `threshold` (pass
    /// `f64::NEG_INFINITY` to force a full scan — factors are never
    /// negative).
    ///
    /// The default implementation is the scalar visitor scan
    /// ([`dominance_scan_scalar`]); SoA-backed indexes override it with
    /// the lane kernels of [`moqo_cost::lanes`]. Both visit entries in
    /// the same order and compute bit-identical factors, so every
    /// caller decision (`best_factor <= x`) — and therefore every
    /// downstream frontier byte — is path-independent; only
    /// [`DominanceScan::comparisons`] may differ (block granularity).
    fn dominance_scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        target: &CostVector,
        threshold: f64,
        accept: &mut dyn FnMut(T) -> bool,
    ) -> DominanceScan {
        dominance_scan_scalar(self, bounds, max_level, target, threshold, accept)
    }
}

/// Which index implementation to use (runtime-selectable for the ablation
/// benchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Flat per-resolution vectors.
    Linear,
    /// Logarithmic cell grid.
    CellGrid,
    /// k-d tree (cycling split axes, tombstoned drains).
    KdTree,
}

/// A [`PlanIndex`] implementation chosen at runtime.
pub enum DynIndex<T: Copy> {
    /// Flat index variant.
    Linear(LinearIndex<T>),
    /// Cell-grid variant.
    Grid(CellGrid<T>),
    /// k-d tree variant.
    Tree(KdTree<T>),
}

impl<T: Copy> DynIndex<T> {
    /// Creates an empty index of the requested kind for `dim` metrics.
    pub fn new(kind: IndexKind, dim: usize) -> Self {
        match kind {
            IndexKind::Linear => DynIndex::Linear(LinearIndex::new()),
            IndexKind::CellGrid => DynIndex::Grid(CellGrid::new(dim)),
            IndexKind::KdTree => DynIndex::Tree(KdTree::new(dim)),
        }
    }
}

impl<T: Copy> PlanIndex<T> for DynIndex<T> {
    fn insert(&mut self, entry: Entry<T>) {
        match self {
            DynIndex::Linear(i) => i.insert(entry),
            DynIndex::Grid(i) => i.insert(entry),
            DynIndex::Tree(i) => i.insert(entry),
        }
    }

    fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        visitor: &mut dyn FnMut(&Entry<T>) -> bool,
    ) -> bool {
        match self {
            DynIndex::Linear(i) => i.scan(bounds, max_level, visitor),
            DynIndex::Grid(i) => i.scan(bounds, max_level, visitor),
            DynIndex::Tree(i) => i.scan(bounds, max_level, visitor),
        }
    }

    fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        match self {
            DynIndex::Linear(i) => i.drain(bounds, max_level),
            DynIndex::Grid(i) => i.drain(bounds, max_level),
            DynIndex::Tree(i) => i.drain(bounds, max_level),
        }
    }

    fn len(&self) -> usize {
        match self {
            DynIndex::Linear(i) => PlanIndex::len(i),
            DynIndex::Grid(i) => PlanIndex::len(i),
            DynIndex::Tree(i) => PlanIndex::len(i),
        }
    }

    fn scan_batch(
        &self,
        bounds: &Bounds,
        max_level: u8,
        consumer: &mut dyn FnMut(&EntryBatch<'_, T>) -> bool,
    ) -> bool {
        match self {
            DynIndex::Linear(i) => i.scan_batch(bounds, max_level, consumer),
            DynIndex::Grid(i) => i.scan_batch(bounds, max_level, consumer),
            DynIndex::Tree(i) => i.scan_batch(bounds, max_level, consumer),
        }
    }

    fn dominance_scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        target: &CostVector,
        threshold: f64,
        accept: &mut dyn FnMut(T) -> bool,
    ) -> DominanceScan {
        match self {
            DynIndex::Linear(i) => i.dominance_scan(bounds, max_level, target, threshold, accept),
            DynIndex::Grid(i) => i.dominance_scan(bounds, max_level, target, threshold, accept),
            DynIndex::Tree(i) => i.dominance_scan(bounds, max_level, target, threshold, accept),
        }
    }
}

#[cfg(test)]
mod batch_proptests {
    use super::*;
    use proptest::prelude::*;

    fn fingerprint(e: &Entry<u32>) -> (u32, u8, u32, Vec<u64>) {
        (
            e.item,
            e.level,
            e.invocation,
            e.cost.as_slice().iter().map(|v| v.to_bits()).collect(),
        )
    }

    proptest! {
        /// The SoA batched scan and the scalar visitor scan accept the
        /// same entry sequence, and the batched witness search reports
        /// the same minimal domination factor bit for bit — across all
        /// index kinds (Linear/KdTree run the scalar default through
        /// the batch API, the cell grid runs the lane kernels).
        #[test]
        fn batched_scan_matches_scalar_across_kinds(
            entries in proptest::collection::vec(
                ((0.0f64..1e5), (0.0f64..1e5), (0.0f64..1e5), 0u8..4), 0..120),
            qb in (0.0f64..1.2e5, 0.0f64..1.2e5, 0.0f64..1.2e5),
            target in (1e-3f64..1e5, 1e-3f64..1e5, 1e-3f64..1e5),
            qr in 0u8..4,
            threshold in 0.9f64..4.0,
            unbounded in any::<bool>(),
        ) {
            for kind in [IndexKind::Linear, IndexKind::CellGrid, IndexKind::KdTree] {
                let mut idx: DynIndex<u32> = DynIndex::new(kind, 3);
                for (i, (a, b, c, lvl)) in entries.iter().enumerate() {
                    idx.insert(Entry::new(
                        i as u32,
                        CostVector::new(&[*a, *b, *c]),
                        *lvl,
                        i as u32,
                    ));
                }
                let bounds = if unbounded {
                    Bounds::unbounded(3)
                } else {
                    Bounds::from_slice(&[qb.0, qb.1, qb.2])
                };
                // Accepted entry sequence: identical, in order.
                let mut scalar_seq = Vec::new();
                idx.scan(&bounds, qr, &mut |e| {
                    scalar_seq.push(fingerprint(e));
                    false
                });
                let mut batch_seq = Vec::new();
                idx.scan_batch(&bounds, qr, &mut |batch| {
                    for j in batch.selected() {
                        batch_seq.push(fingerprint(&batch.entry(j)));
                    }
                    false
                });
                prop_assert_eq!(&scalar_seq, &batch_seq, "kind {:?}", kind);

                // Minimal domination factor: bit-identical, with and
                // without early-exit thresholds, with and without a
                // selective accept predicate.
                let t = CostVector::new(&[target.0, target.1, target.2]);
                for thr in [f64::NEG_INFINITY, threshold] {
                    let batched =
                        idx.dominance_scan(&bounds, qr, &t, thr, &mut |_| true);
                    let scalar = dominance_scan_scalar(
                        &idx, &bounds, qr, &t, thr, &mut |_| true);
                    prop_assert_eq!(
                        batched.best_factor.to_bits(),
                        scalar.best_factor.to_bits(),
                        "kind {:?} thr {}", kind, thr
                    );
                    let batched_odd = idx.dominance_scan(
                        &bounds, qr, &t, thr, &mut |item| item % 2 == 1);
                    let scalar_odd = dominance_scan_scalar(
                        &idx, &bounds, qr, &t, thr, &mut |item| item % 2 == 1);
                    prop_assert_eq!(
                        batched_odd.best_factor.to_bits(),
                        scalar_odd.best_factor.to_bits(),
                        "kind {:?} thr {} (selective)", kind, thr
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod dyn_tests {
    use super::*;
    use moqo_cost::CostVector;

    #[test]
    fn dyn_index_dispatches_both_kinds() {
        for kind in [IndexKind::Linear, IndexKind::CellGrid, IndexKind::KdTree] {
            let mut idx: DynIndex<u32> = DynIndex::new(kind, 2);
            idx.insert(Entry::new(7, CostVector::new(&[1.0, 2.0]), 0, 0));
            idx.insert(Entry::new(8, CostVector::new(&[5.0, 5.0]), 1, 0));
            assert_eq!(PlanIndex::len(&idx), 2);
            let all = idx.collect(&Bounds::unbounded(2), 1);
            assert_eq!(all.len(), 2);
            let low = idx.collect(&Bounds::from_slice(&[2.0, 2.0]), 1);
            assert_eq!(low.len(), 1);
            assert_eq!(low[0].item, 7);
            let lvl0 = idx.collect(&Bounds::unbounded(2), 0);
            assert_eq!(lvl0.len(), 1);
            let drained = idx.drain(&Bounds::unbounded(2), 1);
            assert_eq!(drained.len(), 2);
            assert!(PlanIndex::is_empty(&idx));
        }
    }
}
