//! Canonical query fingerprints.
//!
//! Two interactive sessions over "the same" query should share optimizer
//! state: a user re-running yesterday's dashboard query must not pay for
//! plan generation from resolution 0 again. The fingerprint captures
//! exactly the inputs the optimizer's plan sets depend on —
//!
//! * the **join-graph shape**: table count, join edges with their
//!   selectivities, and per-table local-filter selectivities;
//! * the **catalog statistics** of the referenced tables: cardinality and
//!   row width (what the cost formulas consume);
//! * the **cost model**: its metric layout *and* its
//!   [identity](moqo_costmodel::CostModel::identity) — two sessions over
//!   one query under differently parameterized models produce different
//!   frontiers, so their warm state must never cross —
//!
//! and deliberately ignores presentation-level identity such as the query
//! or table *names*: `chain-3` submitted twice under different labels is
//! one cache entry.

use moqo_costmodel::CostModel;
use moqo_query::{QuerySpec, ShapeKey, TableSet};

/// A 64-bit canonical fingerprint of (query shape, catalog stats, cost
/// model).
///
/// Computed with FNV-1a over a canonical byte encoding; collisions are
/// astronomically unlikely at serving-cache sizes, and a collision's worst
/// case is a warm start from an unrelated frontier — costs are recomputed
/// per plan, never trusted across specs, so results stay correct only if
/// the specs really were equivalent; treat the fingerprint as an equality
/// proxy for *equivalent* specs, which is how [`crate::WarmStore`]
/// uses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(u64);

impl QueryFingerprint {
    /// Fingerprints a query spec under a cost model (metric layout plus
    /// model identity).
    pub fn of<M: CostModel + ?Sized>(spec: &QuerySpec, model: &M) -> Self {
        let mut h = moqo_cost::Fnv64::new();
        h.u64(spec.n_tables() as u64);
        hash_state(&mut h, spec, spec.all_tables(), model, true);
        Self(h.finish())
    }

    /// The raw 64-bit value (diagnostics, logging, sharding).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw value (wire transport,
    /// snapshot file names). Only meaningful for values produced by
    /// [`QueryFingerprint::as_u64`]; an arbitrary value simply never
    /// matches any cached entry.
    pub const fn from_u64(v: u64) -> Self {
        Self(v)
    }
}

/// A cardinality-blind variant of [`QueryFingerprint`]: everything the
/// full fingerprint hashes *except* the per-table cardinalities.
///
/// Two specs share a `RebaseKey` exactly when they differ only in catalog
/// cardinalities — the hourly-stats-refresh near miss. A parked frontier
/// whose `RebaseKey` matches a cold submission is a **rebase donor**: its
/// plans can be re-admitted as level-0 candidates under the new stats
/// (re-costed at the door), which by Lemma 7 is cheaper than regenerating
/// them from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RebaseKey(u64);

impl RebaseKey {
    /// Computes the cardinality-blind key of a spec under a cost model.
    pub fn of<M: CostModel + ?Sized>(spec: &QuerySpec, model: &M) -> Self {
        let mut h = moqo_cost::Fnv64::new();
        h.u64(spec.n_tables() as u64);
        // Cardinality deliberately excluded: that is the drift the rebase
        // absorbs. Row widths and filters still discriminate.
        hash_state(&mut h, spec, spec.all_tables(), model, false);
        Self(h.finish())
    }

    /// The raw 64-bit value (diagnostics, logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Canonical fingerprint of one connected table subset's warm state: the
/// induced sub-shape (via [`ShapeKey::of_subset`], position independent),
/// the induced catalog statistics and join selectivities in local index
/// order, the metric layout, and the cost-model identity.
///
/// Two *different* queries whose induced subgraphs agree on all of the
/// above hash equal here, so a sub-frontier exported from one can seed
/// the other — the key of [`crate::SubFrontierCache`]. The exported blob
/// itself re-validates the statistics on import, so a hash collision can
/// never transplant wrong state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubsetFingerprint(u64);

impl SubsetFingerprint {
    /// Fingerprints the subset `tables` of a spec under a cost model.
    pub fn of<M: CostModel + ?Sized>(spec: &QuerySpec, tables: TableSet, model: &M) -> Self {
        let mut h = moqo_cost::Fnv64::new();
        // Sub-shape, relabeled to local indices.
        h.u64(ShapeKey::of_subset(&spec.graph, tables).as_u64());
        hash_state(&mut h, spec, tables, model, true);
        Self(h.finish())
    }

    /// The raw 64-bit value (diagnostics, logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Hashes what every warm-state key shares: the statistics `tables`
/// induces (per table, cardinality if `cardinality` is set, then row width
/// and filter; then the induced join edges), the model's metric layout
/// and the model's identity.
fn hash_state<M: CostModel + ?Sized>(
    h: &mut moqo_cost::Fnv64,
    spec: &QuerySpec,
    tables: TableSet,
    model: &M,
    cardinality: bool,
) {
    let induced = spec.induced_stats(tables);
    for (card, width, filter) in induced.tables {
        if cardinality {
            h.u64(card);
        }
        h.u64(width as u64);
        h.u64(filter.to_bits());
    }
    for (l, r, sel) in induced.edges {
        h.u64(l as u64);
        h.u64(r as u64);
        h.u64(sel);
    }
    let metrics = model.metrics();
    for i in 0..metrics.dim() {
        h.str(metrics.metric(i).name());
    }
    h.u64(model.identity());
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
    use moqo_query::testkit;

    fn model() -> StandardCostModel {
        StandardCostModel::paper_metrics()
    }

    #[test]
    fn equivalent_specs_share_a_fingerprint_despite_names() {
        let m = model();
        let a = testkit::chain_query(3, 100_000);
        let b = testkit::chain_query(3, 100_000);
        // testkit names tables identically, but even a renamed spec matches:
        // fingerprints ignore the spec's display name entirely.
        let mut c = testkit::chain_query(3, 100_000);
        c.name = "totally-different-label".into();
        assert_eq!(QueryFingerprint::of(&a, &m), QueryFingerprint::of(&b, &m));
        assert_eq!(QueryFingerprint::of(&a, &m), QueryFingerprint::of(&c, &m));
    }

    #[test]
    fn shape_stats_metrics_and_model_identity_all_discriminate() {
        let m = model();
        let base = QueryFingerprint::of(&testkit::chain_query(3, 100_000), &m);
        // Different join-graph shape.
        assert_ne!(
            base,
            QueryFingerprint::of(&testkit::star_query(3, 100_000), &m)
        );
        // Different catalog stats.
        assert_ne!(
            base,
            QueryFingerprint::of(&testkit::chain_query(3, 200_000), &m)
        );
        // Different metric set.
        let cloud = StandardCostModel::new(MetricSet::cloud(), StandardCostModelConfig::default());
        assert_ne!(
            base,
            QueryFingerprint::of(&testkit::chain_query(3, 100_000), &cloud)
        );
        // Same metric layout, different cost parameters: the model
        // identity keeps warm state from crossing models.
        let tweaked = StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 2],
                ..StandardCostModelConfig::default()
            },
        );
        assert_ne!(
            base,
            QueryFingerprint::of(&testkit::chain_query(3, 100_000), &tweaked)
        );
    }

    #[test]
    fn subset_fingerprints_cross_query_boundaries() {
        // testkit chains share their prefix: the first 3 tables and 2
        // edges of chain(5) are identical to chain(3). A subset
        // fingerprint is position-relabeled and induced-stat keyed, so
        // the {0, 1, 2} subset of the larger query hashes equal to the
        // full set of the smaller one — the hit that lets a sub-frontier
        // harvested from one query seed the other.
        let m = model();
        let small = testkit::chain_query(3, 100_000);
        let large = testkit::chain_query(5, 100_000);
        let prefix = TableSet::from_positions(0..3);
        assert_eq!(
            SubsetFingerprint::of(&small, small.all_tables(), &m),
            SubsetFingerprint::of(&large, prefix, &m),
        );
        // Drifted cardinalities miss (that near-miss is RebaseKey's job).
        let drifted = testkit::chain_query(5, 120_000);
        assert_ne!(
            SubsetFingerprint::of(&large, prefix, &m),
            SubsetFingerprint::of(&drifted, prefix, &m),
        );
        // Different induced shape misses.
        assert_ne!(
            SubsetFingerprint::of(&large, prefix, &m),
            SubsetFingerprint::of(&large, TableSet::from_positions(0..4), &m),
        );
    }

    #[test]
    fn rebase_key_is_blind_to_cardinality_and_nothing_else() {
        let m = model();
        let spec = testkit::chain_query(3, 100_000);
        let base = RebaseKey::of(&spec, &m);
        // The hourly stats refresh: same shape, new cardinalities. (The
        // exact fingerprint diverges on the same pair, of course.)
        let drifted = testkit::drift_cardinalities(&spec, 2.5);
        assert_eq!(base, RebaseKey::of(&drifted, &m));
        assert_ne!(
            QueryFingerprint::of(&spec, &m),
            QueryFingerprint::of(&drifted, &m)
        );
        // Changed selectivities (chain_query derives them from the base
        // cardinality) or shapes still discriminate.
        assert_ne!(base, RebaseKey::of(&testkit::chain_query(3, 250_000), &m));
        assert_ne!(base, RebaseKey::of(&testkit::star_query(3, 100_000), &m));
        assert_ne!(base, RebaseKey::of(&testkit::chain_query(4, 100_000), &m));
        // So does the model identity.
        let tweaked = StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 2],
                ..StandardCostModelConfig::default()
            },
        );
        assert_ne!(
            base,
            RebaseKey::of(&testkit::chain_query(3, 100_000), &tweaked)
        );
    }
}
