//! Query specifications: a join graph bound to a catalog, with cardinality
//! estimation for arbitrary table subsets.

use crate::graph::JoinGraph;
use crate::tableset::TableSet;
use moqo_catalog::Catalog;
use std::sync::Arc;

/// The statistics a table subset induces: what a sub-frontier's plans and
/// costs depend on, independent of where the subset sits in its query.
///
/// Tables are relabeled to local indices `0..k` in ascending position
/// order. The warm-state keys hash these values, and a sub-frontier blob
/// carries them as its import guard, so all of them read this one
/// definition.
#[derive(Clone, Debug, PartialEq)]
pub struct InducedStats {
    /// `(cardinality, row width, filter selectivity)` per table, in local
    /// index order.
    pub tables: Vec<(u64, u32, f64)>,
    /// The join edges inside the subset as `(local left, local right,
    /// selectivity bits)`, sorted.
    pub edges: Vec<(u8, u8, u64)>,
}

/// A query ready for optimization: join graph plus catalog.
///
/// Cardinality estimation follows the classical System-R model: the
/// cardinality of joining a table set `q` is the product of the (filtered)
/// base cardinalities times the selectivities of all join edges inside `q`.
/// This makes intermediate-result estimates independent of the join order,
/// which is what dynamic programming over table *sets* requires.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Human-readable name (e.g. `"tpch-q5"` or `"chain-4"`).
    pub name: String,
    /// The join graph.
    pub graph: JoinGraph,
    /// The catalog the graph's tables refer to.
    pub catalog: Arc<Catalog>,
}

impl QuerySpec {
    /// Binds a join graph to a catalog.
    ///
    /// # Panics
    /// Panics if a graph table references a missing catalog table.
    pub fn new(name: impl Into<String>, graph: JoinGraph, catalog: Arc<Catalog>) -> Self {
        for tid in &graph.tables {
            assert!(
                tid.index() < catalog.len(),
                "join graph references table {tid:?} outside the catalog"
            );
        }
        Self {
            name: name.into(),
            graph,
            catalog,
        }
    }

    /// Number of tables (the paper's `n`).
    #[inline]
    pub fn n_tables(&self) -> usize {
        self.graph.n_tables()
    }

    /// The set of all table positions.
    #[inline]
    pub fn all_tables(&self) -> TableSet {
        self.graph.all_tables()
    }

    /// Effective cardinality of the base table at `pos` after local filters.
    pub fn base_cardinality(&self, pos: usize) -> f64 {
        let table = self.catalog.table(self.graph.tables[pos]);
        (table.cardinality as f64 * self.graph.filters[pos]).max(1.0)
    }

    /// Row width (bytes) of the base table at `pos`.
    pub fn base_row_width(&self, pos: usize) -> f64 {
        self.catalog.table(self.graph.tables[pos]).row_width as f64
    }

    /// Unfiltered cardinality of the base table at `pos` (what a scan must
    /// read before filtering).
    pub fn raw_cardinality(&self, pos: usize) -> f64 {
        self.catalog.table(self.graph.tables[pos]).cardinality as f64
    }

    /// Estimated cardinality of the join of all tables in `set`.
    ///
    /// Product of filtered base cardinalities times the selectivities of
    /// the join edges inside `set`; at least 1 row.
    pub fn cardinality(&self, set: TableSet) -> f64 {
        let mut card: f64 = 1.0;
        for pos in set.iter() {
            card *= self.base_cardinality(pos);
        }
        for e in &self.graph.edges {
            if e.within(set) {
                card *= e.selectivity;
            }
        }
        card.max(1.0)
    }

    /// The statistics the subset `tables` induces (see [`InducedStats`]).
    pub fn induced_stats(&self, tables: TableSet) -> InducedStats {
        let g = &self.graph;
        let mut local = vec![u8::MAX; g.n_tables()];
        let mut stats = Vec::with_capacity(tables.len());
        for (k, pos) in tables.iter().enumerate() {
            local[pos] = k as u8;
            let t = self.catalog.table(g.tables[pos]);
            stats.push((t.cardinality, t.row_width, g.filters[pos]));
        }
        let mut edges: Vec<(u8, u8, u64)> = g
            .edges
            .iter()
            .filter(|e| tables.contains(e.left) && tables.contains(e.right))
            .map(|e| (local[e.left], local[e.right], e.selectivity.to_bits()))
            .collect();
        edges.sort_unstable();
        InducedStats {
            tables: stats,
            edges,
        }
    }

    /// True if joining `a` and `b` would be a cross product.
    #[inline]
    pub fn is_cross_product(&self, a: TableSet, b: TableSet) -> bool {
        !self.graph.connected(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{CatalogBuilder, TableId};

    fn spec() -> QuerySpec {
        let catalog = Arc::new(
            CatalogBuilder::new()
                .table("a", 1000, 100, vec![])
                .table("b", 500, 50, vec![])
                .table("c", 2000, 80, vec![])
                .build(),
        );
        let mut g = JoinGraph::new(vec![TableId(0), TableId(1), TableId(2)]);
        g.add_edge(0, 1, 0.01).add_edge(1, 2, 0.001);
        g.set_filter(0, 0.5);
        QuerySpec::new("test", g, catalog)
    }

    #[test]
    fn base_cardinalities_apply_filters() {
        let s = spec();
        assert_eq!(s.base_cardinality(0), 500.0); // 1000 * 0.5
        assert_eq!(s.base_cardinality(1), 500.0);
        assert_eq!(s.raw_cardinality(0), 1000.0); // filter not applied
    }

    #[test]
    fn join_cardinality_is_order_independent() {
        let s = spec();
        let all = s.all_tables();
        // 500 * 500 * 2000 * 0.01 * 0.001 = 5000
        assert!((s.cardinality(all) - 5000.0).abs() < 1e-9);
        // Subset without internal edges: plain product.
        let ac = TableSet::from_positions([0, 2]);
        assert!((s.cardinality(ac) - 500.0 * 2000.0).abs() < 1e-9);
    }

    #[test]
    fn cardinality_never_below_one() {
        let s = spec();
        // Very selective subset still reports >= 1 row.
        let mut g = s.graph.clone();
        g.add_edge(0, 2, 1e-30);
        let tiny = QuerySpec::new("tiny", g, s.catalog.clone());
        assert!(tiny.cardinality(tiny.all_tables()) >= 1.0);
    }

    #[test]
    fn cross_product_detection() {
        let s = spec();
        assert!(s.is_cross_product(TableSet::singleton(0), TableSet::singleton(2)));
        assert!(!s.is_cross_product(TableSet::singleton(0), TableSet::singleton(1)));
    }

    #[test]
    #[should_panic(expected = "outside the catalog")]
    fn rejects_dangling_table_reference() {
        let catalog = Arc::new(CatalogBuilder::new().table("a", 1, 1, vec![]).build());
        let g = JoinGraph::new(vec![TableId(5)]);
        QuerySpec::new("bad", g, catalog);
    }
}
