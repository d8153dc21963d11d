//! The plan arena: O(1)-space plan representation with stable ids.

use crate::operator::Operator;
use crate::props::PhysicalProps;
use moqo_cost::CostVector;
use moqo_query::TableSet;

/// Identifies a plan within a [`PlanArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub u32);

impl PlanId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena entry: operator, child ids, joined tables, cost, properties.
///
/// Mirrors the paper's O(1)-per-plan representation (Section 5.2): scan
/// plans carry no children; join plans carry exactly two child ids. Cost
/// vectors are cached so that combining plans evaluates the recursive cost
/// formulas in O(1) (Lemma 4).
#[derive(Clone, Copy, Debug)]
pub struct PlanNode {
    /// The operator at the root of this (sub-)plan.
    pub op: Operator,
    /// Children (empty for scans, two ids for joins).
    pub children: Option<(PlanId, PlanId)>,
    /// The set of query tables this plan joins.
    pub tables: TableSet,
    /// Cached cost vector.
    pub cost: CostVector,
    /// Physical properties of the output.
    pub props: PhysicalProps,
}

/// Append-only arena of plans for one query.
///
/// While a session is live, plans are never removed: the incremental
/// optimizer keeps result plans alive because earlier invocations may
/// have used them as sub-plans (Section 4.2's second design decision),
/// and a plan's id never changes under it. Ids are issued in creation
/// order, but not every id holds a plan: an id issued by
/// [`push_hole`](PlanArena::push_hole) (a join alternative the optimizer
/// discarded as soon as it was generated) names no node, so such a plan
/// costs four bytes of slot index instead of a node. Between sessions the
/// optimizer may [`retain_marked`](PlanArena::retain_marked) the plans a
/// resume can still reach: the survivors keep their creation order under
/// new, dense ids, and the arena has no hole left.
#[derive(Clone, Debug, Default)]
pub struct PlanArena {
    nodes: Vec<PlanNode>,
    /// Per issued id, the index of its node in `nodes`, or [`HOLE`].
    /// Empty while no id is a hole: ids are then node indices.
    slots: Vec<u32>,
}

/// The slot of an id that holds no node. No arena stores `u32::MAX`
/// nodes, so looking it up finds none.
const HOLE: u32 = u32::MAX;

impl PlanArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty arena with room for `cap` plans.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            slots: Vec::new(),
        }
    }

    /// Number of plans stored: ids issued, holes not counted.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no plan is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of ids issued, holes included: every id below it was
    /// handed out, and none at or above it was.
    #[inline]
    pub fn issued(&self) -> usize {
        if self.slots.is_empty() {
            self.nodes.len()
        } else {
            self.slots.len()
        }
    }

    /// Inserts a scan plan.
    pub fn push_scan(
        &mut self,
        op: Operator,
        position: usize,
        cost: CostVector,
        props: PhysicalProps,
    ) -> PlanId {
        debug_assert!(op.is_scan());
        self.push_node(PlanNode {
            op,
            children: None,
            tables: TableSet::singleton(position),
            cost,
            props,
        })
    }

    /// Inserts a join plan over two existing plans.
    ///
    /// # Panics
    /// Panics if a child holds no plan, and (in debug builds) if the
    /// children's table sets overlap.
    pub fn push_join(
        &mut self,
        op: Operator,
        left: PlanId,
        right: PlanId,
        cost: CostVector,
        props: PhysicalProps,
    ) -> PlanId {
        debug_assert!(op.is_join());
        let tables = {
            let l = self.node(left).tables;
            let r = self.node(right).tables;
            debug_assert!(l.is_disjoint(r), "join children overlap: {l:?} vs {r:?}");
            l.union(r)
        };
        self.push_node(PlanNode {
            op,
            children: Some((left, right)),
            tables,
            cost,
            props,
        })
    }

    /// Issues the next id without storing a plan under it: the id of a
    /// plan that was generated and discarded at once. Looking it up finds
    /// no node.
    pub fn push_hole(&mut self) -> PlanId {
        if self.slots.is_empty() {
            self.slots = (0..self.nodes.len() as u32).collect();
        }
        self.slots.push(HOLE);
        PlanId(self.slots.len() as u32 - 1)
    }

    fn push_node(&mut self, node: PlanNode) -> PlanId {
        let slot = self.nodes.len() as u32;
        self.nodes.push(node);
        if self.slots.is_empty() {
            return PlanId(slot);
        }
        self.slots.push(slot);
        PlanId(self.slots.len() as u32 - 1)
    }

    /// Keeps the plans marked in `keep` (indexed by id) and drops the
    /// rest. Survivors keep their creation order and are renumbered
    /// densely (see [`renumbering`]), and every kept join's children are
    /// rewritten to the new ids; the arena is left without holes. Returns
    /// the old→new id map, `None` for a dropped plan or a hole.
    ///
    /// # Panics
    /// Panics if `keep` does not cover the issued ids exactly, if it
    /// marks a hole, or if a kept join has a dropped child.
    pub fn retain_marked(&mut self, keep: &[bool]) -> Vec<Option<PlanId>> {
        assert_eq!(keep.len(), self.issued(), "mark covers the issued ids");
        let map = renumbering(keep);
        let remap = |id: PlanId| map[id.index()].expect("kept plan has a dropped child");
        // A fresh, exactly sized buffer: the dropped plans' memory goes back
        // to the allocator instead of staying behind as spare capacity.
        let mut nodes = Vec::with_capacity(map.iter().flatten().count());
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            let node = self.get(PlanId(i as u32)).expect("a hole cannot be kept");
            nodes.push(PlanNode {
                children: node.children.map(|(l, r)| (remap(l), remap(r))),
                ..*node
            });
        }
        self.nodes = nodes;
        self.slots = Vec::new();
        map
    }

    /// The node for `id`, or `None` if `id` is a hole or was never
    /// issued.
    #[inline]
    pub fn get(&self, id: PlanId) -> Option<&PlanNode> {
        let slot = if self.slots.is_empty() {
            id.0
        } else {
            *self.slots.get(id.index())?
        };
        self.nodes.get(slot as usize)
    }

    /// The node for `id`.
    ///
    /// # Panics
    /// Panics if `id` holds no plan.
    #[inline]
    pub fn node(&self, id: PlanId) -> &PlanNode {
        match self.get(id) {
            Some(node) => node,
            None => no_node(id),
        }
    }

    /// The cached cost of `id`.
    #[inline]
    pub fn cost(&self, id: PlanId) -> &CostVector {
        &self.node(id).cost
    }

    /// The table set joined by `id`.
    #[inline]
    pub fn tables(&self, id: PlanId) -> TableSet {
        self.node(id).tables
    }

    /// Iterates over the stored `(id, node)` pairs in creation order,
    /// skipping holes.
    pub fn iter(&self) -> impl Iterator<Item = (PlanId, &PlanNode)> {
        (0..self.issued() as u32).filter_map(|i| Some((PlanId(i), self.get(PlanId(i))?)))
    }

    /// The number of operator nodes in the tree rooted at `id` (counts
    /// shared sub-plans once per occurrence).
    pub fn tree_size(&self, id: PlanId) -> usize {
        match self.node(id).children {
            None => 1,
            Some((l, r)) => 1 + self.tree_size(l) + self.tree_size(r),
        }
    }

    /// Depth of the tree rooted at `id` (a scan has depth 1).
    pub fn depth(&self, id: PlanId) -> usize {
        match self.node(id).children {
            None => 1,
            Some((l, r)) => 1 + self.depth(l).max(self.depth(r)),
        }
    }
}

#[cold]
#[inline(never)]
fn no_node(id: PlanId) -> ! {
    panic!("plan {} holds no node", id.0)
}

/// The monotone renumbering that keeps the ids marked in `keep`: the
/// `k`-th marked id becomes `PlanId(k)`, an unmarked one maps to `None`.
pub fn renumbering(keep: &[bool]) -> Vec<Option<PlanId>> {
    let mut next = 0u32;
    keep.iter()
        .map(|&k| {
            k.then(|| {
                next += 1;
                PlanId(next - 1)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::JoinAlgo;

    fn cost(v: f64) -> CostVector {
        CostVector::new(&[v, v])
    }

    #[test]
    fn scan_and_join_construction() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(2.0), PhysicalProps::NONE);
        let j = arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s1,
            cost(5.0),
            PhysicalProps::NONE,
        );
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.tables(j), TableSet::from_positions([0, 1]));
        assert_eq!(arena.cost(j).as_slice(), &[5.0, 5.0]);
        assert_eq!(arena.node(j).children, Some((s0, s1)));
        assert_eq!(arena.tree_size(j), 3);
        assert_eq!(arena.depth(j), 2);
    }

    #[test]
    fn shared_subplans_are_counted_per_occurrence() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(1.0), PhysicalProps::NONE);
        let s2 = arena.push_scan(Operator::full_scan(2), 2, cost(1.0), PhysicalProps::NONE);
        let j01 = arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s1,
            cost(2.0),
            PhysicalProps::NONE,
        );
        let j012 = arena.push_join(
            Operator::join(JoinAlgo::SortMerge, 2),
            j01,
            s2,
            cost(3.0),
            PhysicalProps::NONE,
        );
        assert_eq!(arena.tree_size(j012), 5);
        assert_eq!(arena.depth(j012), 3);
        assert_eq!(arena.tables(j012), TableSet::full(3));
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut arena = PlanArena::new();
        let a = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let b = arena.push_scan(Operator::full_scan(1), 1, cost(1.0), PhysicalProps::NONE);
        let ids: Vec<PlanId> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn retain_marked_renumbers_survivors_in_creation_order() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let dead = arena.push_scan(Operator::full_scan(1), 1, cost(9.0), PhysicalProps::NONE);
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(2.0), PhysicalProps::NONE);
        let j = arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s1,
            cost(5.0),
            PhysicalProps::NONE,
        );
        let map = arena.retain_marked(&[true, false, true, true]);
        assert_eq!(
            map,
            vec![Some(PlanId(0)), None, Some(PlanId(1)), Some(PlanId(2))]
        );
        assert_eq!(map[dead.index()], None);
        assert_eq!(arena.len(), 3);
        let j = map[j.index()].unwrap();
        assert_eq!(arena.node(j).children, Some((PlanId(0), PlanId(1))));
        assert_eq!(arena.cost(PlanId(1)).as_slice(), &[2.0, 2.0]);
        assert_eq!(arena.tables(j), TableSet::from_positions([0, 1]));
    }

    #[test]
    fn a_hole_takes_an_id_but_holds_no_node() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let hole = arena.push_hole();
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(2.0), PhysicalProps::NONE);
        assert_eq!((s0, hole, s1), (PlanId(0), PlanId(1), PlanId(2)));
        assert!(arena.get(hole).is_none());
        assert!(arena.get(PlanId(3)).is_none(), "never issued");
        assert_eq!(arena.cost(s1).as_slice(), &[2.0, 2.0]);
        assert_eq!((arena.len(), arena.issued()), (2, 3));
        let ids: Vec<PlanId> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![s0, s1], "iter skips the hole");
        // A hole first, before any node.
        let mut arena = PlanArena::new();
        assert_eq!(arena.push_hole(), PlanId(0));
        assert_eq!((arena.len(), arena.issued()), (0, 1));
        assert_eq!(arena.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "holds no node")]
    fn a_hole_has_no_node_to_read() {
        let mut arena = PlanArena::new();
        let hole = arena.push_hole();
        arena.node(hole);
    }

    #[test]
    fn retain_marked_over_holes_renumbers_in_creation_order() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let h1 = arena.push_hole();
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(2.0), PhysicalProps::NONE);
        let h3 = arena.push_hole();
        let dead = arena.push_scan(Operator::full_scan(1), 1, cost(9.0), PhysicalProps::NONE);
        let j = arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s1,
            cost(5.0),
            PhysicalProps::NONE,
        );
        assert_eq!(j, PlanId(5));
        let map = arena.retain_marked(&[true, false, true, false, false, true]);
        assert_eq!(
            map,
            vec![
                Some(PlanId(0)),
                None,
                Some(PlanId(1)),
                None,
                None,
                Some(PlanId(2))
            ]
        );
        assert_eq!(
            (map[h1.index()], map[h3.index()], map[dead.index()]),
            (None, None, None)
        );
        assert_eq!((arena.len(), arena.issued()), (3, 3), "no hole is left");
        assert_eq!(arena.node(PlanId(2)).children, Some((PlanId(0), PlanId(1))));
        assert_eq!(arena.cost(PlanId(1)).as_slice(), &[2.0, 2.0]);
        let ids: Vec<PlanId> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![PlanId(0), PlanId(1), PlanId(2)]);
        // Ids issued after a compaction continue the dense numbering.
        assert_eq!(arena.push_hole(), PlanId(3));
        let s = arena.push_scan(Operator::full_scan(2), 2, cost(3.0), PhysicalProps::NONE);
        assert_eq!(s, PlanId(4));
        assert_eq!(arena.cost(s).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "hole cannot be kept")]
    fn retain_marked_refuses_to_keep_a_hole() {
        let mut arena = PlanArena::new();
        arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        arena.push_hole();
        arena.retain_marked(&[true, true]);
    }

    #[test]
    #[should_panic(expected = "dropped child")]
    fn retain_marked_refuses_to_orphan_a_join() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let s1 = arena.push_scan(Operator::full_scan(1), 1, cost(1.0), PhysicalProps::NONE);
        arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s1,
            cost(2.0),
            PhysicalProps::NONE,
        );
        arena.retain_marked(&[true, false, true]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "join children overlap")]
    fn join_rejects_overlapping_children() {
        let mut arena = PlanArena::new();
        let s0 = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        let s0b = arena.push_scan(Operator::full_scan(0), 0, cost(1.0), PhysicalProps::NONE);
        arena.push_join(
            Operator::join(JoinAlgo::Hash, 1),
            s0,
            s0b,
            cost(2.0),
            PhysicalProps::NONE,
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::operator::JoinAlgo;
    use proptest::prelude::*;

    /// Builds a random plan forest in the arena and returns the roots of
    /// complete binary trees over disjoint positions.
    fn random_tree(ops: Vec<(u8, u8)>) -> (PlanArena, Option<PlanId>) {
        let mut arena = PlanArena::new();
        // Leaves over positions 0..8.
        let leaves: Vec<PlanId> = (0..8)
            .map(|i| {
                arena.push_scan(
                    Operator::full_scan(i),
                    i,
                    CostVector::new(&[1.0, 1.0]),
                    crate::props::PhysicalProps::NONE,
                )
            })
            .collect();
        // Fold random pairs of disjoint roots into joins.
        let mut roots = leaves;
        for (a, b) in ops {
            if roots.len() < 2 {
                break;
            }
            let i = (a as usize) % roots.len();
            let l = roots.swap_remove(i);
            let j = (b as usize) % roots.len();
            let r = roots.swap_remove(j);
            let cost = arena.cost(l).add(arena.cost(r));
            let id = arena.push_join(
                Operator::join(JoinAlgo::Hash, 1),
                l,
                r,
                cost,
                crate::props::PhysicalProps::NONE,
            );
            roots.push(id);
        }
        let root = roots.last().copied();
        (arena, root)
    }

    proptest! {
        /// Structural invariants of arbitrary plan trees: the table set of
        /// a join is the disjoint union of its children's, tree size is
        /// odd (full binary tree), and depth <= size.
        #[test]
        fn arena_structural_invariants(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..7)) {
            let (arena, root) = random_tree(ops);
            for (id, node) in arena.iter() {
                if let Some((l, r)) = node.children {
                    let lt = arena.tables(l);
                    let rt = arena.tables(r);
                    prop_assert!(lt.is_disjoint(rt));
                    prop_assert_eq!(lt.union(rt), node.tables);
                    prop_assert!(l < id && r < id, "children precede parents");
                }
            }
            if let Some(root) = root {
                let size = arena.tree_size(root);
                prop_assert_eq!(size % 2, 1, "full binary trees have odd size");
                prop_assert!(arena.depth(root) <= size);
                prop_assert_eq!(
                    arena.tables(root).len(),
                    size.div_ceil(2),
                    "leaf count equals joined tables"
                );
            }
        }
    }
}
