//! The precomputed enumeration plane: connected subsets and their valid
//! splits, materialized once per join-graph *shape*. The plane never
//! considers cross products: like Moerkotte & Neumann's DPccp, it joins
//! only connected subsets along join edges.
//!
//! # Why precompute
//!
//! Algorithm 2 iterates "over table sets of increasing cardinality" and,
//! for each set, over all ordered two-way splits. Enumerating that space
//! from scratch on every invocation — as a literal reading of the
//! pseudo-code does — wastes the hot loop on three kinds of dead work:
//!
//! 1. **Disconnected subsets.** A table set whose induced join graph is
//!    disconnected can never receive a plan: its result set stays empty
//!    forever, yet every invocation re-visits all `2^k` of its splits.
//! 2. **Invalid splits.** A split with a disconnected half has an empty
//!    operand cross product. The connected-subgraph/complement
//!    construction of Moerkotte & Neumann's DPccp shows these can be
//!    excluded *structurally*, before the DP runs.
//! 3. **Hash traffic.** Looking up per-subset plan sets through a
//!    `TableSet → index` hash map costs a probe per subset per
//!    invocation; a dense `SubsetId` rank turns that into an array index.
//!
//! [`EnumerationPlan`] fixes all three: it stores, ordered by cardinality,
//! every connected subset together with a flat list of its valid ordered
//! splits, each split carrying the precomputed
//! [`SubsetId`]s of both operands. The optimizer then walks plain arrays.
//!
//! # Sharing across queries
//!
//! The plan depends only on the join graph's **shape** — table count and
//! which table pairs are joined. It is independent of selectivities,
//! cardinalities, filters, and names, so structurally similar queries
//! (same dashboard query against refreshed statistics, the same TPC-H
//! template at a different scale factor) share one
//! `Arc<EnumerationPlan>`. [`ShapeKey`] is the cache key for exactly
//! that sharing; `moqo-engine` keeps a plan cache keyed by it.
//!
//! # Relation to the paper
//!
//! Section 4.2 of the paper assumes "auxiliary data structures" make the
//! Δ-set evaluation in `Fresh` cheap. The enumeration plane is the
//! structural half of that assumption: the optimizer's per-split freshness
//! watermarks (see `moqo-core`) are addressed by the dense split ids
//! assigned here, which is what lets Lemma 6's "no pair combined twice"
//! be enforced by watermark position instead of a hash probe per pair.

use crate::graph::JoinGraph;
use crate::tableset::{k_subsets, TableSet};
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of a subset within one [`EnumerationPlan`].
///
/// Ids are assigned in enumeration order: subsets of smaller cardinality
/// first, ties broken by ascending bit pattern. They index directly into
/// per-subset state arrays (`Vec<SubsetState>` in the optimizer), which is
/// the point: no hashing on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubsetId(u32);

impl SubsetId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id for position `index` in a plan's subset order. Only
    /// meaningful for indexes below [`EnumerationPlan::len`] of the plan
    /// the id is used with.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        SubsetId(index as u32)
    }
}

impl fmt::Debug for SubsetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SubsetId({})", self.0)
    }
}

/// One ordered split `q = left ⋈ right` with both operands resolved to
/// their dense ids. Ordered means `(q1, q2)` and `(q2, q1)` are distinct
/// entries, mirroring the paper's enumeration of ordered splits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// Dense id of the left operand subset.
    pub left: SubsetId,
    /// Dense id of the right operand subset.
    pub right: SubsetId,
}

/// Per-subset record: the table set plus the `(offset, len)` window of its
/// valid splits in the plan's flat split array.
#[derive(Clone, Copy, Debug)]
pub struct SubsetInfo {
    /// The tables of this subset.
    pub tables: TableSet,
    /// Offset of the subset's first split in [`EnumerationPlan::splits`].
    pub split_offset: u32,
    /// Number of valid ordered splits of this subset.
    pub split_len: u32,
}

/// Canonical fingerprint of a join graph's *shape*: table count and the
/// set of joined table pairs (selectivities and statistics excluded).
///
/// Two queries with equal `ShapeKey`s have identical enumeration planes,
/// so a plan cache keyed by `ShapeKey` shares one [`EnumerationPlan`]
/// across structurally similar queries. This is the shape component of
/// the engine's `QueryFingerprint` (which additionally hashes statistics,
/// selectivities, and metrics for *frontier* reuse — frontiers depend on
/// costs, enumeration planes do not).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey(u64);

/// The canonical structure a [`ShapeKey`] digests: the sorted,
/// deduplicated `(left, right)` endpoint pairs of a graph's edges.
/// Parallel edges and selectivities are irrelevant to connectivity,
/// hence excluded.
fn canonical_edge_pairs(graph: &JoinGraph) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = graph.edges.iter().map(|e| (e.left, e.right)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

impl ShapeKey {
    /// Computes the shape key of a join graph.
    pub fn of(graph: &JoinGraph) -> Self {
        Self::digest(graph.n_tables(), canonical_edge_pairs(graph))
    }

    /// FNV-1a over a canonical encoding: `n`, a `0` word, then the
    /// canonical edge-pair list. The `0` is where a cross-product flag
    /// used to be hashed; keeping it keeps every shape key, and every
    /// fingerprint built on one, stable.
    fn digest(n: usize, pairs: Vec<(usize, usize)>) -> Self {
        let mut h = moqo_cost::Fnv64::new();
        h.u64(n as u64);
        h.u64(0);
        for (l, r) in pairs {
            h.u64(l as u64);
            h.u64(r as u64);
        }
        ShapeKey(h.finish())
    }

    /// The raw 64-bit value (diagnostics, logging, cache sharding).
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Computes the shape key of the subgraph induced by `set`, relabeled
    /// to local positions `0..set.len()` in ascending order of the
    /// original positions.
    ///
    /// The relabeling makes the key *position independent*: a subset of a
    /// larger query hashes equal to a standalone query of the same shape,
    /// which is what lets warm per-subset frontier state be keyed by the
    /// sub-shape and transplanted across enclosing queries. Restricting to
    /// the full set recovers [`ShapeKey::of`]:
    ///
    /// ```
    /// use moqo_query::{testkit, ShapeKey};
    ///
    /// let spec = testkit::chain_query(5, 10_000);
    /// let full = spec.all_tables();
    /// assert_eq!(
    ///     ShapeKey::of_subset(&spec.graph, full),
    ///     ShapeKey::of(&spec.graph),
    /// );
    /// ```
    pub fn of_subset(graph: &JoinGraph, set: TableSet) -> Self {
        // Map original position -> local index (ascending order).
        let mut local = vec![usize::MAX; graph.n_tables()];
        let mut k = 0usize;
        for pos in set.iter() {
            local[pos] = k;
            k += 1;
        }
        let mut pairs: Vec<(usize, usize)> = graph
            .edges
            .iter()
            .filter(|e| set.contains(e.left) && set.contains(e.right))
            .map(|e| (local[e.left], local[e.right]))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        Self::digest(k, pairs)
    }
}

/// The precomputed enumeration plane of one join-graph shape: all connected
/// subsets ordered by cardinality, each with its valid ordered splits
/// stored flat, plus a `TableSet → SubsetId` rank map.
///
/// See the [module docs](self) for motivation and sharing semantics.
///
/// ```
/// use moqo_query::{testkit, EnumerationPlan};
///
/// let spec = testkit::chain_query(4, 10_000);
/// let plan = EnumerationPlan::build(&spec.graph);
/// // A 4-chain has 4 + 3 + 2 + 1 = 10 connected subsets…
/// assert_eq!(plan.len(), 10);
/// // …and its full set splits into (prefix, suffix) pairs only: 3
/// // unordered cuts, 6 ordered splits.
/// let full = plan.subset_id(spec.all_tables()).unwrap();
/// assert_eq!(plan.splits_of(full).len(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct EnumerationPlan {
    n_tables: usize,
    shape: ShapeKey,
    /// Canonical edge pairs the plan was built from — the structural
    /// backstop behind [`EnumerationPlan::matches`], so a `ShapeKey`
    /// hash collision can never silently serve a wrong plan.
    edge_pairs: Vec<(usize, usize)>,
    subsets: Vec<SubsetInfo>,
    splits: Vec<Split>,
    /// `(bits, id)` sorted by bits — the rank map behind
    /// [`EnumerationPlan::subset_id`]. Binary search keeps the plan
    /// compact and cache-friendly; the optimizer only consults it off the
    /// hot path (split operands are pre-resolved ids).
    rank: Vec<(u64, SubsetId)>,
    /// Id of the full table set, when it is enumerable (it is not when
    /// the graph is disconnected — then no complete plan exists and the
    /// frontier is empty by construction).
    full: Option<SubsetId>,
}

impl EnumerationPlan {
    /// Builds the enumeration plane for a join graph. Cost is one-time
    /// `O(3^n)` in the worst case (a clique) and far lower on sparse
    /// graphs; the result is immutable and meant to be shared behind an
    /// `Arc`.
    pub fn build(graph: &JoinGraph) -> Self {
        let n = graph.n_tables();
        let shape = ShapeKey::of(graph);
        let mut subsets: Vec<SubsetInfo> = Vec::new();
        let mut splits: Vec<Split> = Vec::new();
        // Build-time rank; frozen into the sorted `rank` vec below.
        let mut ids: HashMap<u64, SubsetId> = HashMap::new();

        for k in 1..=n {
            for q in k_subsets(n, k) {
                if !graph.is_connected_set(q) {
                    continue;
                }
                let split_offset = splits.len() as u32;
                if k >= 2 {
                    for (q1, q2) in q.splits() {
                        // The paper enumerates ordered splits; emit both
                        // directions of each unordered cut, in the same
                        // order the exhaustive loop visits them.
                        for (a, b) in [(q1, q2), (q2, q1)] {
                            let (Some(&la), Some(&ra)) = (ids.get(&a.bits()), ids.get(&b.bits()))
                            else {
                                // An operand is disconnected: the split's
                                // cross product is provably empty forever.
                                continue;
                            };
                            // Two connected halves of a connected `q`
                            // always share a join edge.
                            debug_assert!(graph.connected(a, b));
                            splits.push(Split {
                                left: la,
                                right: ra,
                            });
                        }
                    }
                }
                let id = SubsetId(subsets.len() as u32);
                ids.insert(q.bits(), id);
                subsets.push(SubsetInfo {
                    tables: q,
                    split_offset,
                    split_len: splits.len() as u32 - split_offset,
                });
            }
        }
        let mut rank: Vec<(u64, SubsetId)> = ids.iter().map(|(&bits, &id)| (bits, id)).collect();
        rank.sort_unstable_by_key(|&(bits, _)| bits);
        let full = ids.get(&TableSet::full(n).bits()).copied();
        Self {
            n_tables: n,
            shape,
            edge_pairs: canonical_edge_pairs(graph),
            subsets,
            splits,
            rank,
            full,
        }
    }

    /// True if this plan was built for exactly `graph`'s shape — a full
    /// structural comparison, not a hash test.
    /// Callers sharing plans across sessions use this as the backstop
    /// behind [`ShapeKey`] equality: a 64-bit hash collision must surface
    /// as a rebuild or a panic, never as a silently wrong enumeration.
    pub fn matches(&self, graph: &JoinGraph) -> bool {
        self.n_tables == graph.n_tables() && self.edge_pairs == canonical_edge_pairs(graph)
    }

    /// Number of tables of the underlying shape.
    #[inline]
    pub fn n_tables(&self) -> usize {
        self.n_tables
    }

    /// The shape fingerprint this plan was built for.
    #[inline]
    pub fn shape(&self) -> ShapeKey {
        self.shape
    }

    /// Number of connected subsets.
    #[inline]
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// True if the plan contains no subsets (never for `n >= 1`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// Total number of valid ordered splits across all subsets — the
    /// per-invocation split-visit count of the exhaustive path, and the
    /// length of any per-split state array (freshness watermarks).
    #[inline]
    pub fn total_splits(&self) -> usize {
        self.splits.len()
    }

    /// All subsets, ordered by cardinality then ascending bit pattern.
    #[inline]
    pub fn subsets(&self) -> &[SubsetInfo] {
        &self.subsets
    }

    /// The subset record for `id`.
    #[inline]
    pub fn subset(&self, id: SubsetId) -> &SubsetInfo {
        &self.subsets[id.index()]
    }

    /// The tables of subset `id`.
    #[inline]
    pub fn tables(&self, id: SubsetId) -> TableSet {
        self.subsets[id.index()].tables
    }

    /// The valid ordered splits of subset `id` (empty for singletons).
    #[inline]
    pub fn splits_of(&self, id: SubsetId) -> &[Split] {
        let info = &self.subsets[id.index()];
        let start = info.split_offset as usize;
        &self.splits[start..start + info.split_len as usize]
    }

    /// The flat split array (aligned with per-split state such as the
    /// optimizer's freshness watermarks).
    #[inline]
    pub fn splits(&self) -> &[Split] {
        &self.splits
    }

    /// Rank lookup: the dense id of `set`, or `None` when the set is not
    /// enumerated (a disconnected subset).
    #[inline]
    pub fn subset_id(&self, set: TableSet) -> Option<SubsetId> {
        self.rank
            .binary_search_by_key(&set.bits(), |&(bits, _)| bits)
            .ok()
            .map(|i| self.rank[i].1)
    }

    /// The id of the full table set, when enumerable.
    #[inline]
    pub fn full_set(&self) -> Option<SubsetId> {
        self.full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn chain_plan_counts() {
        let spec = testkit::chain_query(5, 1000);
        let plan = EnumerationPlan::build(&spec.graph);
        // Connected subsets of a 5-chain: contiguous ranges = 15.
        assert_eq!(plan.len(), 15);
        // Each range [i, j] splits only at its j - i internal cut points,
        // both directions: sum over lengths 2..=5 of 2 * (len - 1) cuts.
        let expected: usize = (2..=5usize).map(|len| (5 - len + 1) * 2 * (len - 1)).sum();
        assert_eq!(plan.total_splits(), expected);
        assert!(plan.full_set().is_some());
    }

    #[test]
    fn subsets_are_ordered_by_cardinality() {
        let spec = testkit::random_query(6, 3);
        let plan = EnumerationPlan::build(&spec.graph);
        let lens: Vec<usize> = plan.subsets().iter().map(|s| s.tables.len()).collect();
        assert!(
            lens.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {lens:?}"
        );
        // Split operands always precede their parent (smaller cardinality).
        for (i, info) in plan.subsets().iter().enumerate() {
            for s in plan.splits_of(SubsetId(i as u32)) {
                assert!(s.left.index() < i && s.right.index() < i);
                assert_eq!(plan.tables(s.left).union(plan.tables(s.right)), info.tables);
                assert!(plan.tables(s.left).is_disjoint(plan.tables(s.right)));
            }
        }
    }

    #[test]
    fn rank_map_round_trips() {
        let spec = testkit::clique_query(5, 100);
        let plan = EnumerationPlan::build(&spec.graph);
        for (i, info) in plan.subsets().iter().enumerate() {
            assert_eq!(plan.subset_id(info.tables), Some(SubsetId(i as u32)));
        }
        assert_eq!(plan.subset_id(TableSet::from_positions([63])), None);
    }

    #[test]
    fn disconnected_graph_has_no_full_set() {
        use moqo_catalog::TableId;
        let g = crate::JoinGraph::new(vec![TableId(0), TableId(1)]);
        let plan = EnumerationPlan::build(&g);
        assert_eq!(plan.len(), 2); // singletons only
        assert_eq!(plan.total_splits(), 0);
        assert!(plan.full_set().is_none());
    }

    #[test]
    fn shape_key_ignores_statistics_but_not_structure() {
        let a = testkit::chain_query(4, 10_000);
        let b = testkit::chain_query(4, 999_999); // same shape, other stats
        let c = testkit::star_query(4, 10_000); // other shape
        assert_eq!(ShapeKey::of(&a.graph), ShapeKey::of(&b.graph));
        assert_ne!(ShapeKey::of(&a.graph), ShapeKey::of(&c.graph));
        let plan = EnumerationPlan::build(&a.graph);
        assert_eq!(plan.shape(), ShapeKey::of(&b.graph));
    }

    #[test]
    fn matches_is_structural() {
        let chain = testkit::chain_query(4, 1000);
        let star = testkit::star_query(4, 1000);
        let other_stats = testkit::chain_query(4, 999);
        let plan = EnumerationPlan::build(&chain.graph);
        assert!(plan.matches(&chain.graph));
        assert!(plan.matches(&other_stats.graph));
        assert!(!plan.matches(&star.graph));
        assert!(!plan.matches(&testkit::chain_query(5, 1000).graph));
    }

    #[test]
    fn selectivity_changes_keep_the_shape() {
        let mut a = testkit::chain_query(3, 5000);
        let key = ShapeKey::of(&a.graph);
        for e in &mut a.graph.edges {
            e.selectivity *= 0.5;
        }
        a.graph.set_filter(0, 0.25);
        assert_eq!(ShapeKey::of(&a.graph), key);
    }

    #[test]
    fn single_table_plan() {
        let spec = testkit::chain_query(1, 100);
        let plan = EnumerationPlan::build(&spec.graph);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.total_splits(), 0);
        assert_eq!(plan.full_set(), plan.subset_id(TableSet::singleton(0)));
    }
}

#[cfg(test)]
mod proptests {
    //! The exhaustive `k_subsets` × `TableSet::splits` loop — the seed
    //! optimizer's enumeration — retained as a *test oracle*: the
    //! precomputed plan must admit exactly the ordered splits whose
    //! operand cross products can ever be non-empty.

    use super::*;
    use crate::testkit;
    use crate::QuerySpec;
    use moqo_catalog::TableId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The ordered splits the exhaustive enumeration *admits*: every
    /// `(q, q1, q2)` the seed loop would visit whose operands can hold
    /// plans (inductively: connected sets) and whose halves share a join
    /// edge.
    fn oracle_splits(graph: &JoinGraph) -> BTreeSet<(TableSet, TableSet, TableSet)> {
        let n = graph.n_tables();
        let mut out = BTreeSet::new();
        for k in 2..=n {
            for q in k_subsets(n, k) {
                for (q1, q2) in q.splits() {
                    for (a, b) in [(q1, q2), (q2, q1)] {
                        if !graph.connected(a, b) {
                            continue; // the seed's cross-product skip
                        }
                        if !(graph.is_connected_set(a) && graph.is_connected_set(b)) {
                            continue; // empty operand: a no-op in the seed
                        }
                        out.insert((q, a, b));
                    }
                }
            }
        }
        out
    }

    fn plan_splits(plan: &EnumerationPlan) -> BTreeSet<(TableSet, TableSet, TableSet)> {
        let mut out = BTreeSet::new();
        for (i, info) in plan.subsets().iter().enumerate() {
            for s in plan.splits_of(SubsetId(i as u32)) {
                let inserted = out.insert((info.tables, plan.tables(s.left), plan.tables(s.right)));
                assert!(inserted, "duplicate split emitted");
            }
        }
        out
    }

    fn check_equivalence(graph: &JoinGraph) {
        let plan = EnumerationPlan::build(graph);
        assert_eq!(
            plan_splits(&plan),
            oracle_splits(graph),
            "plan/oracle split mismatch"
        );
        // Subsets must be exactly the connected ones.
        let expect_subsets: usize = (1..=graph.n_tables())
            .flat_map(|k| k_subsets(graph.n_tables(), k))
            .filter(|&s| graph.is_connected_set(s))
            .count();
        assert_eq!(plan.len(), expect_subsets);
    }

    /// A random graph over `n` tables that is *not* forced to be
    /// connected: each potential edge appears with probability ~1/2,
    /// driven by the bits of `mask`.
    fn arbitrary_graph(n: usize, mask: u64) -> JoinGraph {
        let mut g = JoinGraph::new((0..n as u32).map(TableId).collect());
        let mut bit = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if (mask >> (bit % 64)) & 1 == 1 {
                    g.add_edge(i, j, 0.1);
                }
                bit += 1;
            }
        }
        g
    }

    fn cycle_graph(n: usize) -> JoinGraph {
        let spec = testkit::cycle_query(n, 10_000);
        spec.graph.clone()
    }

    proptest! {
        #[test]
        fn random_graphs_match_the_oracle(n in 1usize..7, mask in 0u64..u64::MAX) {
            let g = arbitrary_graph(n, mask);
            check_equivalence(&g);
        }

        #[test]
        fn connected_random_queries_match_the_oracle(n in 1usize..7, seed in 0u64..500) {
            let spec = testkit::random_query(n, seed);
            check_equivalence(&spec.graph);
        }
    }

    #[test]
    fn canonical_topologies_match_the_oracle() {
        for n in 1usize..=7 {
            let specs: Vec<QuerySpec> = vec![
                testkit::chain_query(n, 10_000),
                testkit::star_query(n, 10_000),
                testkit::clique_query(n, 1000),
            ];
            for spec in &specs {
                check_equivalence(&spec.graph);
            }
            if n >= 3 {
                check_equivalence(&cycle_graph(n));
            }
        }
    }

    #[test]
    fn disconnected_graph_matches_the_oracle() {
        // Two components: {0,1} and {2,3}.
        let mut g = arbitrary_graph(4, 0);
        g.add_edge(0, 1, 0.5);
        g.add_edge(2, 3, 0.5);
        check_equivalence(&g);
    }
}
