//! The [`CostModel`] trait: what every optimizer needs from the costing
//! substrate.

use crate::metrics::MetricSet;
use moqo_cost::CostVector;
use moqo_plan::{Operator, PhysicalProps};
use moqo_query::{QuerySpec, TableSet};
use std::sync::Arc;

/// A shared, thread-safe, type-erased cost model.
///
/// The optimizer core and the serving engine hold cost models through this
/// alias so that one model instance can back many concurrent sessions and
/// move freely across worker threads. [`CostModel`] is object-safe by
/// design — every concrete model converts with `Arc::new(model)` (plus the
/// implicit unsizing coercion at the call site).
pub type SharedCostModel = Arc<dyn CostModel + Send + Sync>;

/// What the cost model sees of a child plan when costing a join: its table
/// set, cached cost vector, and physical properties.
///
/// This is all the information the recursive cost formulas may consume —
/// the paper's Lemma 4 requires that combining two sub-plans costs `O(1)`,
/// which holds because the cost is computed "from the cached cost of the
/// sub-plans using recursive cost formulas".
#[derive(Clone, Copy, Debug)]
pub struct PlanInput {
    /// Tables joined by the child plan.
    pub tables: TableSet,
    /// Cached cost vector of the child plan.
    pub cost: CostVector,
    /// Physical properties of the child plan's output.
    pub props: PhysicalProps,
}

/// A multi-objective cost model: enumerates operator alternatives and costs
/// them with PONO-compliant recursive formulas.
pub trait CostModel {
    /// The metric layout of the produced cost vectors.
    fn metrics(&self) -> &MetricSet;

    /// A stable identity of this model's *cost semantics*.
    ///
    /// Two model instances that can cost the same plan differently must
    /// return different identities; instances that are behaviorally
    /// identical should return the same one (so warm state transfers
    /// between them). Serving layers embed the identity in the query
    /// fingerprint and in frontier snapshots, guaranteeing that cached or
    /// persisted warm frontiers are never resumed under a model that
    /// would have costed them differently. Hash every parameter the cost
    /// formulas consume — the metric layout alone is not enough once a
    /// model is tunable.
    fn identity(&self) -> u64;

    /// Number of cost metrics (the paper's `l`).
    fn dim(&self) -> usize {
        self.metrics().dim()
    }

    /// All scan alternatives for the query table at `position`:
    /// `(operator, cost, output properties)` triples.
    ///
    /// Multiple alternatives per table (e.g. sampled scans at different
    /// rates) are what make single-table Pareto sets non-trivial.
    fn scan_alternatives(
        &self,
        spec: &QuerySpec,
        position: usize,
    ) -> Vec<(Operator, CostVector, PhysicalProps)>;

    /// Appends every join alternative combining `left ⋈ right` to `out`
    /// as `(operator, cost, output properties)` triples, leaving what
    /// `out` already held in place.
    ///
    /// Implementations must only use the children's [`PlanInput`] data and
    /// per-table-set statistics from `spec`, keeping each alternative O(1)
    /// to cost.
    ///
    /// The optimizer costs the pairs of one table subset concurrently,
    /// on any thread of a shared helper pool, before it routes them in
    /// order. So the call may run on several threads at once, and it must
    /// append the same alternatives, in the same order and with the same
    /// bits, whenever it sees the same inputs: plan ids and frontiers must
    /// not depend on which thread costed a pair.
    fn join_alternatives(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
    );

    /// The cost and output properties of the one join alternative `op`
    /// over `left ⋈ right`, or `None` if the model does not offer `op`
    /// for them.
    ///
    /// The result must equal `op`'s entry in
    /// [`join_alternatives`](CostModel::join_alternatives) bit for bit.
    /// The default costs every alternative and keeps `op`'s; a model that
    /// can cost one operator alone should, since seed replay calls this
    /// once per replayed join.
    fn join_alternative(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        op: Operator,
    ) -> Option<(CostVector, PhysicalProps)> {
        let mut alts = Vec::new();
        self.join_alternatives(spec, left, right, &mut alts);
        alts.into_iter()
            .find(|&(alt, _, _)| alt == op)
            .map(|(_, cost, props)| (cost, props))
    }

    /// Appends a cost *floor* for every join alternative over
    /// `left ⋈ right` to `out`, as `(operator, floor, output properties)`
    /// triples, or nothing, which means "no floors: cost everything".
    ///
    /// A model that appends anything must append one triple for each
    /// alternative [`join_alternatives`](CostModel::join_alternatives)
    /// would append, in the same order, with the same operator and output
    /// properties. Each floor must be at most that alternative's cost in
    /// every metric, compared as raw `f64`, and must depend only on the
    /// children's costs and the operator, never on cardinalities or the
    /// operator's own work: it costs a floor-sized fraction of the
    /// alternative. Testing a floor costs a search of the result set, so
    /// a model whose costing is about that cheap should append nothing.
    ///
    /// The optimizer tests each floor against the subset's result set
    /// before it costs a pair. An alternative whose floor is already
    /// dominated so that `Prune` would discard it at this resolution is
    /// never costed: it takes a plan id but no arena node, since no
    /// result or candidate set refers to it. The same thread-safety and
    /// same-bits rules as for `join_alternatives` apply.
    fn join_floors(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
    ) {
        let _ = (spec, left, right, out);
    }
}

/// Resolves a cost-model [identity](CostModel::identity) back to a live
/// model.
///
/// Cost models are code, not data: a serialized session request (the
/// `moqo-wire` codec) or a persisted frontier snapshot carries only the
/// model's identity hash, and the receiving side must map it back to an
/// executable model. Serving deployments implement this with a model
/// registry (`moqo_engine::ModelRegistry`); a single default model is
/// itself a resolver for exactly its own identity.
pub trait ModelResolver {
    /// The registered model with this identity, if any.
    fn resolve_model(&self, identity: u64) -> Option<SharedCostModel>;
}

/// A lone [`SharedCostModel`] resolves exactly its own identity — the
/// degenerate single-model deployment.
impl ModelResolver for SharedCostModel {
    fn resolve_model(&self, identity: u64) -> Option<SharedCostModel> {
        (self.identity() == identity).then(|| self.clone())
    }
}

/// Delegating impls so references and smart pointers to a model are
/// themselves models: generic helpers taking `&M` keep working when the
/// caller holds an `Arc<ConcreteModel>` or a [`SharedCostModel`].
macro_rules! delegate_cost_model {
    ($($ty:ty),*) => {$(
        impl<M: CostModel + ?Sized> CostModel for $ty {
            fn metrics(&self) -> &MetricSet {
                (**self).metrics()
            }
            fn identity(&self) -> u64 {
                (**self).identity()
            }
            fn dim(&self) -> usize {
                (**self).dim()
            }
            fn scan_alternatives(
                &self,
                spec: &QuerySpec,
                position: usize,
            ) -> Vec<(Operator, CostVector, PhysicalProps)> {
                (**self).scan_alternatives(spec, position)
            }
            fn join_alternatives(
                &self,
                spec: &QuerySpec,
                left: &PlanInput,
                right: &PlanInput,
                out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
            ) {
                (**self).join_alternatives(spec, left, right, out)
            }
            fn join_alternative(
                &self,
                spec: &QuerySpec,
                left: &PlanInput,
                right: &PlanInput,
                op: Operator,
            ) -> Option<(CostVector, PhysicalProps)> {
                (**self).join_alternative(spec, left, right, op)
            }
            fn join_floors(
                &self,
                spec: &QuerySpec,
                left: &PlanInput,
                right: &PlanInput,
                out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
            ) {
                (**self).join_floors(spec, left, right, out)
            }
        }
    )*};
}

delegate_cost_model!(&M, Box<M>, Arc<M>);
