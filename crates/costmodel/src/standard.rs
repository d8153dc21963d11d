//! The standard cost model: textbook operator cost formulas over the
//! paper's three evaluation metrics (plus fees and energy).
//!
//! ## Formulas
//!
//! All time-like quantities are in abstract work units (1 unit ≈ touching
//! one 100-byte tuple). With `n_l`, `n_r` the estimated input cardinalities
//! and `n_out` the estimated output cardinality of a join:
//!
//! * Full scan of a table with `N` raw rows of width `w` bytes:
//!   `time = N · w/100`.
//! * Sampled scan at fraction `f`: `time = f · N · w/100`, `error = 1 − f`.
//!   Sampling is only offered for tables with at least
//!   `sampling_min_rows` rows, and larger tables offer more rates — this
//!   mirrors the paper's footnote 4 (the 8-table TPC-H query touches many
//!   small tables "for which less sampling strategies are considered").
//! * Hash join: `work = c_build·n_r + c_probe·n_l + n_out + K_hash`.
//! * Sort-merge join: `work = c_sort·(n_l·log n_l + n_r·log n_r) + n_l +
//!   n_r + n_out + K_sort`; a child already sorted on the join key skips
//!   its sort term. Output is sorted on the join key (interesting order).
//! * Nested-loop join: `work = c_nl·n_l·n_r + n_out` (no setup cost — the
//!   winner for tiny inputs).
//! * Parallelism: a join with degree-of-parallelism `d` has
//!   `op_time = work / speedup(d)` with `speedup(d) = 1 + 0.85·(d−1)`
//!   (sub-linear). With `d > 1` the children execute concurrently, so
//!   their times combine with `max` and their core reservations add;
//!   with `d = 1` execution is sequential (`+` for time, `max` for cores).
//! * Fees: core-seconds, `op_fee = work/speedup(d) · d · price`; sum over
//!   the plan.
//! * Energy: proportional to total work (parallelism does not reduce it),
//!   plus a per-operator constant; sum over the plan.
//! * Floors ([`CostModel::join_floors`]): each join formula above with the
//!   operator's own terms dropped, so only the children's costs and the
//!   operator's degree of parallelism remain. Time is `l + r` for `d = 1`
//!   and `max(l, r)` for `d > 1`; fees and energy are `l + r`; memory is
//!   `max(l, r)` for `d = 1` and `l + r` for `d > 1`; cores and error are
//!   exact. A dropped term is never negative and IEEE addition and `max`
//!   are monotone, so every floor is at most its alternative's cost, and
//!   it is quantized like the cost, which `quantize`'s monotonicity keeps
//!   that way. Floors are offered only when `eval_spin` is at least
//!   [`FLOOR_MIN_SPIN`]: a cheaper costing costs about what testing its
//!   floor does, so the tests would cost more than the costings they save.
//!
//! Join operator terms are computed from *statistical* per-table-set
//! cardinalities (`QuerySpec::cardinality`), deliberately not discounted by
//! upstream sampling: this keeps every aggregation inside the strict PONO
//! class (sum/max/min/constant-scale of child components), so Theorems 1–2
//! hold exactly. The time-vs-error tradeoff remains: scan time dominates
//! the costs of large TPC-H tables.

use crate::metrics::{prob_sum, Metric, MetricSet};
use crate::model::{CostModel, PlanInput};
use moqo_cost::CostVector;
#[cfg(test)]
use moqo_plan::ScanMethod;
use moqo_plan::{JoinAlgo, Operator, OrderKey, PhysicalProps};
use moqo_query::{QuerySpec, TableSet};

/// Tunable parameters of [`StandardCostModel`].
#[derive(Clone, Debug)]
pub struct StandardCostModelConfig {
    /// Degrees of parallelism offered for join operators.
    pub dops: Vec<u16>,
    /// Sampling rates (per-mille) offered for scans of large tables.
    pub sampling_rates_pm: Vec<u16>,
    /// Minimum raw cardinality for a table to support sampling at all.
    pub sampling_min_rows: u64,
    /// Join algorithms considered.
    pub join_algos: Vec<JoinAlgo>,
    /// Fees per core per time unit: an operator's fees are its time
    /// times its degree of parallelism times this price.
    pub price_per_core_unit: f64,
    /// Energy per work unit.
    pub energy_per_unit: f64,
    /// Constant per-operator energy overhead.
    pub energy_op_overhead: f64,
    /// Simulated per-alternative costing effort: iterations of a short
    /// deterministic floating-point recurrence executed for every produced
    /// plan alternative. The paper's substrate (extended Postgres 9.2)
    /// spends tens of microseconds of catalog lookups and cost-formula
    /// evaluation per path; our closed-form model costs ~100ns, which
    /// would let index/bookkeeping noise dominate the relative timings the
    /// figures compare. The spin restores a realistic generation-to-
    /// bookkeeping cost ratio; set to 0 for raw algorithmic timing (see
    /// DESIGN.md's substitution table). From [`FLOOR_MIN_SPIN`] on, the
    /// model also offers join cost floors.
    pub eval_spin: u32,
    /// Multiplicative quantization grid for the continuous metrics (time,
    /// fees, energy): values are snapped to the nearest power of the grid
    /// factor (e.g. `Some(1.01)` = 1 % steps, matching Postgres's fuzzy
    /// cost comparison `STD_FUZZ_FACTOR`). Real optimizer cost spaces are
    /// effectively coarse at sub-percent scales, which makes Pareto sets
    /// *saturate* at fine resolutions — the regime the paper's Figures 3-5
    /// measure. `None` (the default) keeps costs exact, preserving the
    /// strict PONO property the formal tests verify; quantization weakens
    /// PONO by at most the square of the grid factor.
    pub quantize_grid: Option<f64>,
}

impl Default for StandardCostModelConfig {
    fn default() -> Self {
        Self {
            dops: vec![1, 2, 4, 8],
            sampling_rates_pm: vec![10, 50, 100, 250, 500],
            sampling_min_rows: 10_000,
            join_algos: JoinAlgo::ALL.to_vec(),
            price_per_core_unit: 1e-3,
            energy_per_unit: 1.0,
            energy_op_overhead: 50.0,
            eval_spin: 150,
            quantize_grid: None,
        }
    }
}

/// The standard, PONO-compliant multi-metric cost model.
#[derive(Clone, Debug)]
pub struct StandardCostModel {
    metrics: MetricSet,
    config: StandardCostModelConfig,
}

// Work-unit constants.
/// The least [`StandardCostModelConfig::eval_spin`] at which the model
/// offers [`CostModel::join_floors`]. On a 2-vCPU host, 20-level Fig. 4
/// ladders over TPC-H q03, q05, q08, q09 and q10 (median of 11
/// alternating pairs, floors against costing everything) ran 0.99–1.50×
/// as long with floors at `eval_spin: 0`, broke even between 50 and 75,
/// and ran 0.58–0.98× as long from 100 on.
pub const FLOOR_MIN_SPIN: u32 = 100;

const WIDTH_UNIT: f64 = 100.0; // bytes per work unit of scanning
const C_BUILD: f64 = 1.5;
const C_PROBE: f64 = 1.0;
const K_HASH: f64 = 1_000.0;
const C_SORT: f64 = 0.2;
const K_SORT: f64 = 2_000.0;
const C_NL: f64 = 0.01;
const TIME_SCALE: f64 = 1e-4; // work units -> reported time units
const ROW_BYTES: f64 = 100.0; // assumed intermediate-row width for buffers
const SCAN_BUFFER: f64 = 8_192.0; // page buffer per scan
const NL_BUFFER: f64 = 65_536.0; // block buffer for nested-loop joins

impl StandardCostModel {
    /// A model with the given metric layout and configuration.
    pub fn new(metrics: MetricSet, config: StandardCostModelConfig) -> Self {
        Self { metrics, config }
    }

    /// The paper's evaluation setup: time, reserved cores, result error.
    pub fn paper_metrics() -> Self {
        Self::new(MetricSet::paper(), StandardCostModelConfig::default())
    }

    /// Example 1's cloud setup: time and monetary fees.
    pub fn cloud_metrics() -> Self {
        Self::new(MetricSet::cloud(), StandardCostModelConfig::default())
    }

    /// Access the configuration.
    pub fn config(&self) -> &StandardCostModelConfig {
        &self.config
    }

    /// Sampling rates offered for a table with `raw_rows` rows: none below
    /// `sampling_min_rows`, then progressively more for each order of
    /// magnitude (footnote 4 behaviour).
    fn sampling_rates_for(&self, raw_rows: f64) -> &[u16] {
        if raw_rows < self.config.sampling_min_rows as f64 {
            return &[];
        }
        // One extra rate per order of magnitude above the threshold.
        let magnitude = (raw_rows / self.config.sampling_min_rows as f64)
            .log10()
            .floor() as usize
            + 1;
        let n = magnitude.min(self.config.sampling_rates_pm.len());
        &self.config.sampling_rates_pm[..n]
    }

    fn speedup(dop: u16) -> f64 {
        1.0 + 0.85 * (dop as f64 - 1.0)
    }

    /// Snaps continuous-metric values to the configured multiplicative
    /// grid (identity when quantization is off or the value is zero).
    #[inline]
    fn quantize(&self, metric: Metric, v: f64) -> f64 {
        let grid = match self.config.quantize_grid {
            Some(g) => g,
            None => return v,
        };
        match metric {
            Metric::Time | Metric::Fees | Metric::Energy if v > 0.0 => {
                let step = grid.ln();
                (step * (v.ln() / step).round()).exp()
            }
            _ => v,
        }
    }

    /// Burns the configured simulated costing effort (see
    /// [`StandardCostModelConfig::eval_spin`]).
    #[inline]
    fn costing_effort(&self) {
        let mut x = 1.000_000_1f64;
        for _ in 0..self.config.eval_spin {
            x = x * 1.000_000_1 + 1.0;
        }
        std::hint::black_box(x);
    }

    /// Assembles a cost vector for a scan.
    fn scan_cost(&self, raw_rows: f64, width: f64, fraction: f64) -> CostVector {
        let work = raw_rows * fraction * (width / WIDTH_UNIT);
        CostVector::from_fn(self.metrics.dim(), |i| {
            let metric = self.metrics.metric(i);
            let v = match metric {
                Metric::Time => work * TIME_SCALE,
                Metric::Cores => 1.0,
                Metric::Error => 1.0 - fraction,
                Metric::Fees => work * TIME_SCALE * self.config.price_per_core_unit,
                Metric::Energy => work * TIME_SCALE * self.config.energy_per_unit,
                Metric::Memory => SCAN_BUFFER,
            };
            self.quantize(metric, v)
        })
    }

    /// Assembles a cost vector for a join with operator work `work`,
    /// operator buffer footprint `op_mem` (bytes), and degree of
    /// parallelism `dop`, given the two child vectors.
    fn join_cost(
        &self,
        left: &CostVector,
        right: &CostVector,
        work: f64,
        op_mem: f64,
        dop: u16,
    ) -> CostVector {
        let parallel = dop > 1;
        let op_time = work * TIME_SCALE / Self::speedup(dop);
        CostVector::from_fn(self.metrics.dim(), |i| {
            let metric = self.metrics.metric(i);
            let children = children(metric, left[i], right[i], parallel);
            let v = match metric {
                Metric::Time => children + op_time,
                Metric::Cores => children.max(dop as f64),
                Metric::Error => children,
                Metric::Fees => children + op_time * dop as f64 * self.config.price_per_core_unit,
                Metric::Energy => {
                    children
                        + work * TIME_SCALE * self.config.energy_per_unit
                        + self.config.energy_op_overhead * TIME_SCALE
                }
                Metric::Memory => children.max(op_mem),
            };
            self.quantize(metric, v)
        })
    }

    /// The floor under every join alternative of degree of parallelism
    /// `dop` over children costing `left` and `right`: [`Self::join_cost`]
    /// with the operator's own work and buffer terms dropped (see the
    /// module's Formulas).
    fn join_floor(&self, left: &CostVector, right: &CostVector, dop: u16) -> CostVector {
        CostVector::from_fn(self.metrics.dim(), |i| {
            let metric = self.metrics.metric(i);
            let children = children(metric, left[i], right[i], dop > 1);
            let v = match metric {
                Metric::Cores => children.max(dop as f64),
                _ => children,
            };
            self.quantize(metric, v)
        })
    }

    /// The order key for the join connecting `a` and `b`: the index of the
    /// lowest join-graph edge between them (None for a cross product).
    fn join_order_key(spec: &QuerySpec, a: TableSet, b: TableSet) -> Option<OrderKey> {
        spec.graph
            .edges
            .iter()
            .position(|e| e.connects(a, b))
            .map(|i| OrderKey(i as u16))
    }
}

impl CostModel for StandardCostModel {
    fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    fn identity(&self) -> u64 {
        // FNV-1a over the metric layout and every config parameter the
        // cost formulas consume; two StandardCostModels agree iff they
        // cost every plan identically.
        let mut h = moqo_cost::Fnv64::new();
        h.str("StandardCostModel");
        for i in 0..self.metrics.dim() {
            h.str(self.metrics.metric(i).name());
        }
        let c = &self.config;
        h.u64(c.dops.len() as u64);
        for &d in &c.dops {
            h.u64(d as u64);
        }
        h.u64(c.sampling_rates_pm.len() as u64);
        for &r in &c.sampling_rates_pm {
            h.u64(r as u64);
        }
        h.u64(c.sampling_min_rows);
        h.u64(c.join_algos.len() as u64);
        for &a in &c.join_algos {
            h.u64(a as u64);
        }
        h.u64(c.price_per_core_unit.to_bits());
        h.u64(c.energy_per_unit.to_bits());
        h.u64(c.energy_op_overhead.to_bits());
        // Hash the Option discriminant separately: `None` must not
        // collide with `Some(0.0)` (whose bits are also zero).
        h.u64(c.quantize_grid.is_some() as u64);
        h.u64(c.quantize_grid.map_or(0, |g| g.to_bits()));
        h.finish()
    }

    fn scan_alternatives(
        &self,
        spec: &QuerySpec,
        position: usize,
    ) -> Vec<(Operator, CostVector, PhysicalProps)> {
        let raw = spec.raw_cardinality(position);
        let width = spec.base_row_width(position);
        let mut out = Vec::with_capacity(1 + self.config.sampling_rates_pm.len());
        self.costing_effort();
        out.push((
            Operator::full_scan(position),
            self.scan_cost(raw, width, 1.0),
            PhysicalProps::NONE,
        ));
        for &rate_pm in self.sampling_rates_for(raw) {
            let f = rate_pm as f64 / 1000.0;
            self.costing_effort();
            out.push((
                Operator::sampled_scan(position, rate_pm),
                self.scan_cost(raw, width, f),
                PhysicalProps::NONE,
            ));
        }
        out
    }

    fn join_alternatives(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
    ) {
        let join = JoinInputs::of(spec, left, right);
        out.reserve(self.config.join_algos.len() * self.config.dops.len());
        for &algo in &self.config.join_algos {
            let (work, op_mem, props) = join.terms(algo);
            for &dop in &self.config.dops {
                self.costing_effort();
                out.push((
                    Operator::join(algo, dop),
                    self.join_cost(&left.cost, &right.cost, work, op_mem, dop),
                    props,
                ));
            }
        }
    }

    fn join_alternative(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        op: Operator,
    ) -> Option<(CostVector, PhysicalProps)> {
        let Operator::Join { algo, dop } = op else {
            return None;
        };
        if !self.config.join_algos.contains(&algo) || !self.config.dops.contains(&dop) {
            return None;
        }
        let (work, op_mem, props) = JoinInputs::of(spec, left, right).terms(algo);
        self.costing_effort();
        Some((
            self.join_cost(&left.cost, &right.cost, work, op_mem, dop),
            props,
        ))
    }

    fn join_floors(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
    ) {
        if self.config.eval_spin < FLOOR_MIN_SPIN {
            return;
        }
        let order_key = Self::join_order_key(spec, left.tables, right.tables);
        let dops = &self.config.dops;
        out.reserve(self.config.join_algos.len() * dops.len());
        let first = out.len();
        for (a, &algo) in self.config.join_algos.iter().enumerate() {
            let props = output_props(algo, order_key);
            for (d, &dop) in dops.iter().enumerate() {
                // A floor depends on the degree of parallelism only.
                let floor = match a {
                    0 => self.join_floor(&left.cost, &right.cost, dop),
                    _ => out[first + d].1,
                };
                out.push((Operator::join(algo, dop), floor, props));
            }
        }
    }
}

/// What a join's children contribute to `metric`, unquantized, over
/// children costing `l` and `r`: the join's cost without the operator's
/// own terms. [`StandardCostModel::join_cost`] adds those terms, and
/// [`StandardCostModel::join_floor`] keeps it as the floor.
fn children(metric: Metric, l: f64, r: f64, parallel: bool) -> f64 {
    match metric {
        // Parallel joins run children concurrently.
        Metric::Time if parallel => l.max(r),
        Metric::Time => l + r,
        // Concurrent children reserve cores and hold buffers
        // simultaneously; sequential pipelines release child buffers
        // stage by stage.
        Metric::Cores | Metric::Memory if parallel => l + r,
        Metric::Cores | Metric::Memory => l.max(r),
        Metric::Error => prob_sum(l, r),
        Metric::Fees | Metric::Energy => l + r,
    }
}

/// The output properties of a join by `algo` whose order key is
/// `order_key`: sort-merge leaves its output sorted on the key.
fn output_props(algo: JoinAlgo, order_key: Option<OrderKey>) -> PhysicalProps {
    match (algo, order_key) {
        (JoinAlgo::SortMerge, Some(k)) => PhysicalProps::sorted(k),
        _ => PhysicalProps::NONE,
    }
}

/// What every join alternative over one pair of children shares: the
/// input and output cardinalities, the children's orders and the join's
/// order key.
struct JoinInputs {
    n_l: f64,
    n_r: f64,
    n_out: f64,
    left_order: Option<OrderKey>,
    right_order: Option<OrderKey>,
    order_key: Option<OrderKey>,
}

impl JoinInputs {
    fn of(spec: &QuerySpec, left: &PlanInput, right: &PlanInput) -> Self {
        Self {
            n_l: spec.cardinality(left.tables),
            n_r: spec.cardinality(right.tables),
            n_out: spec.cardinality(left.tables.union(right.tables)),
            left_order: left.props.order,
            right_order: right.props.order,
            order_key: StandardCostModel::join_order_key(spec, left.tables, right.tables),
        }
    }

    /// Operator work, buffer footprint (bytes) and output properties of
    /// `algo`, the same for every degree of parallelism.
    fn terms(&self, algo: JoinAlgo) -> (f64, f64, PhysicalProps) {
        let Self {
            n_l,
            n_r,
            n_out,
            left_order,
            right_order,
            order_key,
        } = *self;
        match algo {
            JoinAlgo::Hash => (
                C_BUILD * n_r + C_PROBE * n_l + n_out + K_HASH,
                n_r * ROW_BYTES, // in-memory build side
                output_props(algo, order_key),
            ),
            JoinAlgo::SortMerge => {
                // A child already sorted on this join's key skips its
                // sort term.
                let sort_l = if order_key.is_some() && left_order == order_key {
                    0.0
                } else {
                    C_SORT * n_l * n_l.max(2.0).log2()
                };
                let sort_r = if order_key.is_some() && right_order == order_key {
                    0.0
                } else {
                    C_SORT * n_r * n_r.max(2.0).log2()
                };
                (
                    sort_l + sort_r + n_l + n_r + n_out + K_SORT,
                    (n_l + n_r) * ROW_BYTES, // sort runs for both inputs
                    output_props(algo, order_key),
                )
            }
            JoinAlgo::NestedLoop => (
                C_NL * n_l * n_r + n_out,
                NL_BUFFER,
                output_props(algo, order_key),
            ),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use moqo_query::testkit;

    /// Every join alternative of `l ⋈ r`, in a fresh buffer.
    pub(crate) fn join_alts(
        model: &impl CostModel,
        spec: &QuerySpec,
        l: &PlanInput,
        r: &PlanInput,
    ) -> Vec<(Operator, CostVector, PhysicalProps)> {
        let mut out = Vec::new();
        model.join_alternatives(spec, l, r, &mut out);
        out
    }

    fn inputs(spec: &QuerySpec, model: &StandardCostModel) -> (PlanInput, PlanInput) {
        let l = model.scan_alternatives(spec, 0).remove(0);
        let r = model.scan_alternatives(spec, 1).remove(0);
        (
            PlanInput {
                tables: TableSet::singleton(0),
                cost: l.1,
                props: l.2,
            },
            PlanInput {
                tables: TableSet::singleton(1),
                cost: r.1,
                props: r.2,
            },
        )
    }

    #[test]
    fn scan_alternatives_include_sampling_for_large_tables() {
        let spec = testkit::chain_query(2, 1_000_000);
        let model = StandardCostModel::paper_metrics();
        let alts = model.scan_alternatives(&spec, 0);
        assert!(alts.len() > 1, "large table should offer sampled scans");
        // Full scan has zero error; sampled scans have positive error and
        // lower time.
        let metrics = model.metrics();
        let full = &alts[0];
        assert_eq!(metrics.get(&full.1, Metric::Error), Some(0.0));
        for alt in &alts[1..] {
            let t_full = metrics.get(&full.1, Metric::Time).unwrap();
            let t_alt = metrics.get(&alt.1, Metric::Time).unwrap();
            let e_alt = metrics.get(&alt.1, Metric::Error).unwrap();
            assert!(t_alt < t_full);
            assert!(e_alt > 0.0 && e_alt < 1.0);
        }
    }

    #[test]
    fn small_tables_offer_no_sampling() {
        let spec = testkit::chain_query(2, 100); // tiny tables
        let model = StandardCostModel::paper_metrics();
        assert_eq!(model.scan_alternatives(&spec, 0).len(), 1);
    }

    #[test]
    fn sampling_strategy_count_grows_with_table_size() {
        let model = StandardCostModel::paper_metrics();
        let small = model.sampling_rates_for(10_000.0).len();
        let large = model.sampling_rates_for(10_000_000.0).len();
        assert!(small >= 1);
        assert!(
            large > small,
            "footnote-4 behaviour: more strategies for bigger tables"
        );
    }

    #[test]
    fn join_alternatives_cover_algos_and_dops() {
        let spec = testkit::chain_query(2, 100_000);
        let model = StandardCostModel::paper_metrics();
        let (l, r) = inputs(&spec, &model);
        let alts = join_alts(&model, &spec, &l, &r);
        assert_eq!(alts.len(), JoinAlgo::ALL.len() * model.config().dops.len());
    }

    #[test]
    fn join_alternatives_append_and_one_operator_costs_alone() {
        let spec = testkit::chain_query(2, 100_000);
        let model = StandardCostModel::paper_metrics();
        let (l, r) = inputs(&spec, &model);
        let sorted_left = PlanInput {
            props: PhysicalProps::sorted(OrderKey(0)),
            ..l
        };
        for left in [l, sorted_left] {
            let alts = join_alts(&model, &spec, &left, &r);
            // A second call appends behind what the buffer holds.
            let mut twice = alts.clone();
            model.join_alternatives(&spec, &left, &r, &mut twice);
            assert_eq!(twice.len(), 2 * alts.len());
            assert!(twice[alts.len()..] == alts[..]);
            for &(op, cost, props) in &alts {
                let (one, one_props) = model.join_alternative(&spec, &left, &r, op).unwrap();
                assert_eq!(bits(&one), bits(&cost), "{op:?} costs differently alone");
                assert_eq!(one_props, props);
                // The trait's default (filter the buffer) agrees.
                let default = Filtered(&model).join_alternative(&spec, &left, &r, op);
                assert!(default.is_some_and(|(c, p)| bits(&c) == bits(&cost) && p == props));
            }
        }
        let not_offered = [Operator::join(JoinAlgo::Hash, 3), Operator::full_scan(0)];
        for op in not_offered {
            assert!(model.join_alternative(&spec, &l, &r, op).is_none());
            assert!(Filtered(&model)
                .join_alternative(&spec, &l, &r, op)
                .is_none());
        }
    }

    fn bits(cost: &CostVector) -> Vec<u64> {
        cost.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The standard model behind the trait's default single-operator
    /// costing.
    struct Filtered<'a>(&'a StandardCostModel);

    impl CostModel for Filtered<'_> {
        fn metrics(&self) -> &MetricSet {
            self.0.metrics()
        }
        fn identity(&self) -> u64 {
            self.0.identity()
        }
        fn scan_alternatives(
            &self,
            spec: &QuerySpec,
            position: usize,
        ) -> Vec<(Operator, CostVector, PhysicalProps)> {
            self.0.scan_alternatives(spec, position)
        }
        fn join_alternatives(
            &self,
            spec: &QuerySpec,
            left: &PlanInput,
            right: &PlanInput,
            out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
        ) {
            self.0.join_alternatives(spec, left, right, out)
        }
    }

    #[test]
    fn parallel_joins_trade_cores_for_time() {
        let spec = testkit::chain_query(2, 1_000_000);
        let model = StandardCostModel::paper_metrics();
        let (l, r) = inputs(&spec, &model);
        let alts = join_alts(&model, &spec, &l, &r);
        let metrics = model.metrics();
        let hash1 = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::Hash,
                        dop: 1
                    }
                )
            })
            .unwrap();
        let hash8 = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::Hash,
                        dop: 8
                    }
                )
            })
            .unwrap();
        assert!(
            metrics.get(&hash8.1, Metric::Time) < metrics.get(&hash1.1, Metric::Time),
            "more cores must reduce time"
        );
        assert!(
            metrics.get(&hash8.1, Metric::Cores) > metrics.get(&hash1.1, Metric::Cores),
            "more cores must increase the core reservation"
        );
    }

    #[test]
    fn sort_merge_produces_interesting_order_and_reuses_it() {
        let spec = testkit::chain_query(2, 100_000);
        let model = StandardCostModel::paper_metrics();
        let (l, r) = inputs(&spec, &model);
        let alts = join_alts(&model, &spec, &l, &r);
        let smj = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::SortMerge,
                        dop: 1
                    }
                )
            })
            .unwrap();
        let key = smj.2.order.expect("SMJ output must be sorted");
        // Feed a pre-sorted left child: the SMJ gets cheaper.
        let sorted_left = PlanInput {
            props: PhysicalProps::sorted(key),
            ..l
        };
        let alts2 = join_alts(&model, &spec, &sorted_left, &r);
        let smj2 = alts2
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::SortMerge,
                        dop: 1
                    }
                )
            })
            .unwrap();
        let metrics = model.metrics();
        assert!(
            metrics.get(&smj2.1, Metric::Time) < metrics.get(&smj.1, Metric::Time),
            "pre-sorted input must make sort-merge cheaper"
        );
    }

    #[test]
    fn monotone_cost_aggregation() {
        // Section 5.1 assumption: a join costs at least as much as each
        // child on every metric.
        let spec = testkit::chain_query(2, 500_000);
        let model = StandardCostModel::paper_metrics();
        let (l, r) = inputs(&spec, &model);
        for (_, cost, _) in join_alts(&model, &spec, &l, &r) {
            for i in 0..model.dim() {
                assert!(
                    cost[i] >= l.cost[i] - 1e-12 && cost[i] >= r.cost[i] - 1e-12,
                    "metric {i} not monotone: {cost:?} vs children"
                );
            }
        }
    }

    #[test]
    fn error_metric_uses_probabilistic_sum() {
        let spec = testkit::chain_query(2, 1_000_000);
        let model = StandardCostModel::paper_metrics();
        let metrics = model.metrics();
        let err_pos = metrics.position(Metric::Error).unwrap();
        let mut l = model.scan_alternatives(&spec, 0).remove(1); // sampled
        let mut r = model.scan_alternatives(&spec, 1).remove(1); // sampled
        let (el, er) = (l.1[err_pos], r.1[err_pos]);
        let li = PlanInput {
            tables: TableSet::singleton(0),
            cost: std::mem::replace(&mut l.1, CostVector::zeros(3)),
            props: l.2,
        };
        let ri = PlanInput {
            tables: TableSet::singleton(1),
            cost: std::mem::replace(&mut r.1, CostVector::zeros(3)),
            props: r.2,
        };
        let alts = join_alts(&model, &spec, &li, &ri);
        for (_, cost, _) in alts {
            assert!((cost[err_pos] - prob_sum(el, er)).abs() < 1e-12);
        }
    }

    #[test]
    fn cloud_metrics_trade_fees_for_time() {
        let spec = testkit::chain_query(2, 1_000_000);
        let model = StandardCostModel::cloud_metrics();
        let metrics = model.metrics();
        let (l, r) = inputs(&spec, &model);
        let alts = join_alts(&model, &spec, &l, &r);
        let h1 = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::Hash,
                        dop: 1
                    }
                )
            })
            .unwrap();
        let h8 = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::Hash,
                        dop: 8
                    }
                )
            })
            .unwrap();
        assert!(metrics.get(&h8.1, Metric::Time) < metrics.get(&h1.1, Metric::Time));
        assert!(
            metrics.get(&h8.1, Metric::Fees) > metrics.get(&h1.1, Metric::Fees),
            "parallel speedup is sub-linear, so fees (core-seconds) grow with dop"
        );
    }

    #[test]
    fn nested_loop_wins_on_tiny_inputs_hash_on_large() {
        let model = StandardCostModel::paper_metrics();
        let metrics = model.metrics();
        let pick_best = |spec: &QuerySpec| {
            let (l, r) = inputs(spec, &model);
            let alts = join_alts(&model, spec, &l, &r);
            alts.into_iter()
                .filter(|(op, _, _)| matches!(op, Operator::Join { dop: 1, .. }))
                .min_by(|a, b| {
                    metrics
                        .get(&a.1, Metric::Time)
                        .partial_cmp(&metrics.get(&b.1, Metric::Time))
                        .unwrap()
                })
                .unwrap()
        };
        let tiny = testkit::chain_query(2, 20);
        let (op, _, _) = pick_best(&tiny);
        assert!(matches!(
            op,
            Operator::Join {
                algo: JoinAlgo::NestedLoop,
                ..
            }
        ));
        let big = testkit::chain_query(2, 1_000_000);
        let (op, _, _) = pick_best(&big);
        assert!(matches!(
            op,
            Operator::Join {
                algo: JoinAlgo::Hash,
                ..
            }
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::join_alts;
    use super::*;
    use moqo_query::testkit;
    use proptest::prelude::*;

    proptest! {
        /// PONO end-to-end on the standard model: inflating both child cost
        /// vectors by factors <= alpha inflates every join alternative's
        /// cost by at most alpha.
        #[test]
        fn join_costs_satisfy_pono(
            card_exp in 3.0f64..6.0,
            alpha in 1.0f64..2.0,
            fl in 0.0f64..1.0,
            fr in 0.0f64..1.0,
        ) {
            let spec = testkit::chain_query(2, 10f64.powf(card_exp) as u64);
            let model = StandardCostModel::paper_metrics();
            let l0 = model.scan_alternatives(&spec, 0).remove(0);
            let r0 = model.scan_alternatives(&spec, 1).remove(0);
            let al = 1.0 + fl * (alpha - 1.0);
            let ar = 1.0 + fr * (alpha - 1.0);
            let mk = |tables, cost, props| PlanInput { tables, cost, props };
            let base_l = mk(TableSet::singleton(0), l0.1, l0.2);
            let base_r = mk(TableSet::singleton(1), r0.1, r0.2);
            // Clamp inflated error back into [0,1] (a valid cost vector).
            let err_pos = model.metrics().position(Metric::Error).unwrap();
            let clamp = |c: CostVector| {
                CostVector::from_fn(c.dim(), |i| if i == err_pos { c[i].min(1.0) } else { c[i] })
            };
            let infl_l = mk(TableSet::singleton(0), clamp(l0.1.scaled(al)), l0.2);
            let infl_r = mk(TableSet::singleton(1), clamp(r0.1.scaled(ar)), r0.2);
            let base = join_alts(&model, &spec, &base_l, &base_r);
            let infl = join_alts(&model, &spec, &infl_l, &infl_r);
            for ((_, cb, _), (_, ci, _)) in base.iter().zip(&infl) {
                for k in 0..model.dim() {
                    prop_assert!(
                        ci[k] <= alpha * cb[k] + 1e-9,
                        "metric {} violates PONO: {} > {} * {}", k, ci[k], alpha, cb[k]
                    );
                }
            }
        }

        /// The floor contract on the standard model, for every metric set,
        /// with and without quantization, over sorted and unsorted
        /// children and a cross-product pair: `join_floors` lists the
        /// operators and output properties of `join_alternatives` in the
        /// same order, and every floor is at most its alternative's cost
        /// in every metric, compared as raw `f64`. Below
        /// [`FLOOR_MIN_SPIN`] the model offers no floors.
        #[test]
        fn join_floors_lie_under_every_alternative(
            card_exp in 1.0f64..7.0,
            cross in any::<bool>(),
            sorted in (any::<bool>(), any::<bool>()),
            child_draws in proptest::collection::vec(0.0f64..1.0, 12),
        ) {
            let spec = testkit::chain_query(3, 10f64.powf(card_exp) as u64);
            // Tables 0 and 2 share no edge: a cross product, order key `None`.
            let (lt, rt) = if cross { (0, 2) } else { (0, 1) };
            let sets = [
                MetricSet::paper(),
                MetricSet::cloud(),
                MetricSet::energy(),
                MetricSet::all(),
            ];
            for metrics in sets {
                for quantize_grid in [None, Some(1.02)] {
                    let model = StandardCostModel::new(
                        metrics.clone(),
                        StandardCostModelConfig {
                            quantize_grid,
                            eval_spin: FLOOR_MIN_SPIN,
                            ..StandardCostModelConfig::default()
                        },
                    );
                    prop_assert_eq!(&model.config().dops, &vec![1, 2, 4, 8]);
                    // A child cost drawn per metric, over many magnitudes.
                    let child = |draws: &[f64]| {
                        CostVector::from_fn(metrics.dim(), |i| {
                            let u = draws[i];
                            match metrics.metric(i) {
                                Metric::Time | Metric::Fees | Metric::Energy => {
                                    10f64.powf(-4.0 + 10.0 * u)
                                }
                                Metric::Cores => 1.0 + (u * 16.0).floor(),
                                Metric::Error => u,
                                Metric::Memory => 10f64.powf(3.0 + 6.0 * u),
                            }
                        })
                    };
                    let props = |s: bool| {
                        if s { PhysicalProps::sorted(OrderKey(0)) } else { PhysicalProps::NONE }
                    };
                    let left = PlanInput {
                        tables: TableSet::singleton(lt),
                        cost: child(&child_draws[..6]),
                        props: props(sorted.0),
                    };
                    let right = PlanInput {
                        tables: TableSet::singleton(rt),
                        cost: child(&child_draws[6..]),
                        props: props(sorted.1),
                    };
                    let alts = join_alts(&model, &spec, &left, &right);
                    let mut floors = Vec::new();
                    model.join_floors(&spec, &left, &right, &mut floors);
                    prop_assert_eq!(floors.len(), alts.len());
                    // Below the cut the same model offers no floors.
                    let cheap = StandardCostModel::new(
                        metrics.clone(),
                        StandardCostModelConfig {
                            eval_spin: FLOOR_MIN_SPIN - 1,
                            ..model.config().clone()
                        },
                    );
                    let mut none = Vec::new();
                    cheap.join_floors(&spec, &left, &right, &mut none);
                    prop_assert!(none.is_empty());
                    for ((op, floor, fp), (alt_op, cost, props)) in floors.iter().zip(&alts) {
                        prop_assert_eq!(op, alt_op);
                        prop_assert_eq!(fp, props);
                        for k in 0..metrics.dim() {
                            prop_assert!(
                                floor[k] <= cost[k],
                                "{:?} {:?} grid {:?}: floor {} above cost {} in metric {}",
                                metrics, op, quantize_grid, floor[k], cost[k], k
                            );
                        }
                    }
                }
            }
        }

        /// Scan costs scale monotonically with sampling fraction.
        #[test]
        fn sampled_scans_monotone_in_rate(card_exp in 4.0f64..7.0) {
            let spec = testkit::chain_query(2, 10f64.powf(card_exp) as u64);
            let model = StandardCostModel::paper_metrics();
            let alts = model.scan_alternatives(&spec, 0);
            let metrics = model.metrics();
            // Sort by sampling fraction ascending; time must ascend, error descend.
            let mut sampled: Vec<_> = alts
                .iter()
                .filter_map(|(op, c, _)| match op {
                    Operator::Scan { method: ScanMethod::Sampled { rate_pm }, .. } =>
                        Some((*rate_pm, *c)),
                    _ => None,
                })
                .collect();
            sampled.sort_by_key(|(r, _)| *r);
            for w in sampled.windows(2) {
                prop_assert!(metrics.get(&w[0].1, Metric::Time)
                    <= metrics.get(&w[1].1, Metric::Time));
                prop_assert!(metrics.get(&w[0].1, Metric::Error)
                    >= metrics.get(&w[1].1, Metric::Error));
            }
        }
    }
}
