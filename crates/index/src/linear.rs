//! Flat per-resolution index.

use crate::entry::Entry;
use crate::PlanIndex;
use moqo_cost::Bounds;

/// A [`PlanIndex`] storing one flat vector of entries per resolution level.
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
}

impl<T: Copy> PlanIndex<T> for LinearIndex<T> {
    fn insert(&mut self, entry: Entry<T>) {
        let level = entry.level as usize;
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(entry);
        self.len += 1;
    }

    fn scan(
        &self,
        bounds: &Bounds,
        max_level: u8,
        visitor: &mut dyn FnMut(&Entry<T>) -> bool,
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

    fn drain(&mut self, bounds: &Bounds, max_level: u8) -> Vec<Entry<T>> {
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

    fn len(&self) -> usize {
        self.len
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
        assert_eq!(PlanIndex::len(&idx), 3);

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
        let stopped = idx.scan(&Bounds::unbounded(2), 0, &mut |_| {
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
        assert_eq!(PlanIndex::len(&idx), 2);
        // Draining everything empties the index.
        let rest = idx.drain(&Bounds::unbounded(1), 10);
        assert_eq!(rest.len(), 2);
        assert!(PlanIndex::is_empty(&idx));
    }
}
