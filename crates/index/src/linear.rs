//! Flat per-resolution index.

use crate::entry::Entry;
use moqo_cost::Bounds;

/// A plan-set index storing one flat vector of entries per resolution
/// level, with the same methods as [`crate::CellGrid`].
///
/// Range queries iterate levels `0..=r` and filter each entry against the
/// bounds. This is the reference the cell grid is property-tested
/// against.
#[derive(Clone, Debug, Default)]
pub struct LinearIndex<T: Copy> {
    levels: Vec<Vec<Entry<T>>>,
    len: usize,
}

impl<T: Copy> LinearIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            levels: Vec::new(),
            len: 0,
        }
    }

    /// Inserts an entry.
    pub fn insert(&mut self, entry: Entry<T>) {
        let level = entry.level as usize;
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(entry);
        self.len += 1;
    }

    /// Visits every entry in `S[0..b, 0..r]`; the visitor returns `true`
    /// to stop early, and `scan` returns `true` if it was stopped early.
    pub fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        mut visitor: impl FnMut(&Entry<T>) -> bool,
    ) -> bool {
        for level in self.levels.iter().take(max_level as usize + 1) {
            for e in level {
                if bounds.respects(&e.cost) && visitor(e) {
                    return true;
                }
            }
        }
        false
    }

    /// Removes and returns every entry in `S[0..b, 0..r]`.
    pub fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        for level in self.levels.iter_mut().take(max_level as usize + 1) {
            let mut i = 0;
            while i < level.len() {
                if bounds.respects(&level[i].cost) {
                    out.push(level.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.len -= out.len();
        out
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Collects (copies of) all entries in `S[0..b, 0..r]`.
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
    use moqo_cost::CostVector;

    fn entry(item: u32, cost: &[f64], level: u8) -> Entry<u32> {
        Entry::new(item, CostVector::new(cost), level, 0)
    }

    #[test]
    fn insert_and_range_query() {
        let mut idx = LinearIndex::new();
        idx.insert(entry(1, &[1.0, 1.0], 0));
        idx.insert(entry(2, &[3.0, 3.0], 0));
        idx.insert(entry(3, &[1.0, 1.0], 2));
        assert_eq!(idx.len(), 3);

        // Level cut-off.
        let lvl0 = idx.collect(&Bounds::unbounded(2), 0);
        assert_eq!(lvl0.len(), 2);
        // Bounds cut-off.
        let cheap = idx.collect(&Bounds::from_slice(&[2.0, 2.0]), 2);
        let items: Vec<u32> = cheap.iter().map(|e| e.item).collect();
        assert_eq!(cheap.len(), 2);
        assert!(items.contains(&1) && items.contains(&3));
    }

    #[test]
    fn scan_early_exit() {
        let mut idx = LinearIndex::new();
        for i in 0..10 {
            idx.insert(entry(i, &[1.0, 1.0], 0));
        }
        let mut seen = 0;
        let stopped = idx.scan(&Bounds::unbounded(2), 0, |_| {
            seen += 1;
            seen == 3
        });
        assert!(stopped);
        assert_eq!(seen, 3);
    }

    #[test]
    fn drain_removes_only_matching() {
        let mut idx = LinearIndex::new();
        idx.insert(entry(1, &[1.0], 0));
        idx.insert(entry(2, &[5.0], 0));
        idx.insert(entry(3, &[1.0], 3));
        let drained = idx.drain(&Bounds::from_slice(&[2.0]), 1);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].item, 1);
        assert_eq!(idx.len(), 2);
        // Draining everything empties the index.
        let rest = idx.drain(&Bounds::unbounded(1), 10);
        assert_eq!(rest.len(), 2);
        assert!(idx.is_empty());
    }
}
