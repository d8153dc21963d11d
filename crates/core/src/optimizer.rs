//! The incremental optimizer — Algorithms 2 and 3 of the paper — on top of
//! the precomputed enumeration plane.
//!
//! # Dense subset state
//!
//! The optimizer's per-table-set bookkeeping (candidate index and active
//! list) lives in a flat `Vec<SubsetState>` indexed by the
//! [`EnumerationPlan`]'s dense [`SubsetId`]s — no `TableSet → …` hash
//! probes on the hot path, and the `O(2^k)` split spaces of irrelevant
//! (disconnected) subsets are never visited at all.
//!
//! # Watermarks instead of pair hashing
//!
//! Lemma 6 ("no sub-plan pair is combined twice") is enforced positionally:
//! active lists are append-only (shadowed entries are tombstoned, never
//! removed), so every split carries a watermark rectangle `(wl, wr)`
//! meaning *all pairs of entries below those positions are settled* —
//! combined earlier, or shadowed and never needed. A monotone invocation
//! series (the paper's Section 4.2 Δ-set regime) advances the rectangles
//! in lock-step with the lists and never touches a hash. Only *churn*
//! epochs — bounds loosened, resolution reset, entries excluded by
//! tighter bounds — fall back to the `IsFresh` [`PairSet`] for the pairs
//! the rectangle cannot certify; every combined pair stays covered by
//! `rectangle ∪ hash` at all times, which is the invariant the Lemma 5/6
//! tests verify under chaotic bound changes.

use crate::config::{IamaConfig, MAX_SEEDS_PER_SLICE};
use crate::costing::{CostWindow, SelectedPair};
use crate::frontier::{FrontierPoint, FrontierSnapshot};
use crate::report::InvocationReport;
use crate::stats::OptimizerStats;
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{PlanInput, SharedCostModel};
use moqo_index::{CellGrid, Entry, PairSet};
use moqo_plan::{PhysicalProps, PlanArena, PlanId, PlanNode};
use moqo_query::{EnumerationPlan, QuerySpec, SubsetId};
use std::sync::Arc;
use std::time::Instant;

/// One result plan in a subset's active list.
///
/// The list *is* the subset's result set `Res^q`, in insertion order: the
/// combination operands of phase 2 and the flat witness set that pruning
/// scans. It is strictly append-only: plans shadowed by a plainly
/// dominating, order-compatible alternative are tombstoned in place (see
/// [`IamaConfig::shadow_dominated`]), so list *positions* are stable and
/// the per-split watermark rectangles remain meaningful forever.
#[derive(Clone, Copy)]
pub(crate) struct ActiveEntry {
    pub(crate) plan: PlanId,
    pub(crate) cost: CostVector,
    pub(crate) props: PhysicalProps,
    /// Invocation at which the entry was appended; non-decreasing along
    /// the list, so entries of the current invocation form a suffix.
    pub(crate) invocation: u32,
    pub(crate) level: u8,
    /// Tombstone: excluded from all future combinations, kept for
    /// positional stability and as a pruning witness.
    pub(crate) shadowed: bool,
}

/// A collected combination operand: a live, in-context active entry plus
/// its stable list position (for watermark tests).
#[derive(Clone, Copy)]
struct Operand {
    idx: u32,
    plan: PlanId,
    cost: CostVector,
    props: PhysicalProps,
    fresh: bool,
}

/// All per-subset optimizer state, indexed densely by [`SubsetId`].
pub(crate) struct SubsetState {
    /// Candidate plans `Cand^q`, indexed by cost and resolution for the
    /// phase-1 drains. Lazily created: untouched subsets cost one
    /// `Option` each.
    pub(crate) cand: Option<CellGrid<PlanId>>,
    /// The result set `Res^q`, append-only and tombstoned in place: the
    /// combination operands (the Δ-list of the current invocation is its
    /// suffix with `invocation == current`) and the pruning witnesses.
    pub(crate) active: Vec<ActiveEntry>,
    /// Memoized combination view of `active` under the current
    /// invocation's `(bounds, r)` context, valid while `operands_inv`
    /// equals the current invocation: a subset feeding many splits is
    /// filtered once per invocation, and the buffer is reused forever —
    /// phase 2 allocates nothing in steady state.
    operands: Vec<Operand>,
    /// Whether every non-tombstoned `active` entry made it into
    /// `operands` (the watermark-advance precondition).
    operands_clean: bool,
    /// Invocation `operands` was collected for. `u32::MAX` = never.
    operands_inv: u32,
}

impl SubsetState {
    pub(crate) fn new() -> Self {
        Self {
            cand: None,
            active: Vec::new(),
            operands: Vec::new(),
            operands_clean: false,
            operands_inv: u32::MAX,
        }
    }

    /// Releases the operand scratch; the next invocation refills it.
    pub(crate) fn release_operands(&mut self) {
        self.operands = Vec::new();
        self.operands_inv = u32::MAX;
    }
}

/// Per-split freshness watermark: every operand pair with positions below
/// `(left, right)` is settled (combined once, or tombstoned).
#[derive(Clone, Copy, Default)]
pub(crate) struct Watermark {
    pub(crate) left: u32,
    pub(crate) right: u32,
}

/// The Incremental Anytime MOQO optimizer (IAMA).
///
/// Holds all state that persists across invocations for one query: the
/// plan arena and, per enumerated subset, the result set (the active
/// combination list) and the candidate set (indexed by cost and
/// resolution), plus the full query's result set indexed by cost and
/// resolution for the frontier scan. Invoke [`IamaOptimizer::optimize`]
/// with bounds and a resolution level (Algorithm 2), or
/// [`IamaOptimizer::run_invocation`] to let the optimizer advance the
/// resolution the way Algorithm 1's main loop does.
///
/// The optimizer *owns* its query and cost model behind `Arc`s, so a
/// session can be stored in a service map, handed between worker threads,
/// or parked in a frontier cache and revived later — nothing borrows from
/// a caller's stack frame. The [`EnumerationPlan`] is likewise shared:
/// construct with [`IamaOptimizer::with_plan`] to reuse one plan across
/// all concurrent sessions of the same join-graph shape.
///
/// ```
/// use moqo_core::IamaOptimizer;
/// use moqo_cost::{Bounds, ResolutionSchedule};
/// use moqo_costmodel::{CostModel, StandardCostModel};
/// use moqo_query::testkit;
/// use std::sync::Arc;
///
/// let spec = Arc::new(testkit::chain_query(3, 50_000));
/// let model = Arc::new(StandardCostModel::paper_metrics());
/// let bounds = Bounds::unbounded(model.dim());
/// let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
/// let mut opt = IamaOptimizer::new(spec, model, schedule);
///
/// // Anytime refinement: coarse to fine.
/// for r in 0..=opt.schedule().r_max() {
///     let report = opt.optimize(&bounds, r);
///     assert!(report.frontier_size > 0);
/// }
/// // Incrementality: a repeated invocation does no plan work.
/// let again = opt.optimize(&bounds, opt.schedule().r_max());
/// assert_eq!(again.plans_generated, 0);
/// ```
pub struct IamaOptimizer {
    pub(crate) spec: Arc<QuerySpec>,
    pub(crate) model: SharedCostModel,
    pub(crate) schedule: ResolutionSchedule,
    pub(crate) config: IamaConfig,
    pub(crate) plan: Arc<EnumerationPlan>,
    pub(crate) arena: PlanArena,
    /// Dense per-subset state, aligned with `plan.subsets()`.
    pub(crate) states: Vec<SubsetState>,
    /// `Res^Q` of the full query indexed by cost and resolution: the one
    /// result set a range query reads ([`IamaOptimizer::frontier`]). It
    /// receives the full set's active entries in list order.
    pub(crate) full_res: CellGrid<PlanId>,
    /// Per-split watermark rectangles, aligned with `plan.splits()`.
    pub(crate) watermarks: Vec<Watermark>,
    /// `IsFresh` fallback for pairs the watermarks cannot certify
    /// (combined during churn epochs). Empty over monotone series.
    pub(crate) pairs: PairSet,
    /// Tag for entries inserted during the current (or next) invocation.
    pub(crate) invocation: u32,
    /// Bounds and resolution of the most recent invocation.
    pub(crate) last_ctx: Option<(Bounds, usize)>,
    pub(crate) stats: OptimizerStats,
    /// Warm-start seeds (rebased/transplanted plans, already replayed
    /// into the arena and re-costed) waiting for candidate admission.
    /// Drained FIFO, at most [`MAX_SEEDS_PER_SLICE`] per
    /// invocation, so a very warm donor cannot stall the first frontier
    /// behind one giant candidate drain. Not serialized in snapshots:
    /// seeds are an accelerant, and a parked optimizer that ran its
    /// ladder has long admitted them all.
    pub(crate) pending_seeds: std::collections::VecDeque<(SubsetId, PlanId)>,
    /// Bumped whenever `Res`, `Cand`, the arena or the pending seeds
    /// change; see [`IamaOptimizer::generation`].
    pub(crate) generation: u64,
    /// The generation the last [`IamaOptimizer::compact`] left behind;
    /// `None` until the first compaction.
    pub(crate) compacted_at: Option<u64>,
    /// Phase 2's selected pairs of the subset being combined, waiting to
    /// be costed and routed (see [`crate::costing`]). Empty and closed
    /// between subsets; [`IamaOptimizer::compact`] releases its scratch.
    pub(crate) window: CostWindow,
}

impl IamaOptimizer {
    /// Creates an optimizer with the default configuration.
    pub fn new(spec: Arc<QuerySpec>, model: SharedCostModel, schedule: ResolutionSchedule) -> Self {
        Self::with_config(spec, model, schedule, IamaConfig::default())
    }

    /// Creates an optimizer with an explicit configuration, building a
    /// private enumeration plan for the query's shape.
    pub fn with_config(
        spec: Arc<QuerySpec>,
        model: SharedCostModel,
        schedule: ResolutionSchedule,
        config: IamaConfig,
    ) -> Self {
        let plan = Arc::new(EnumerationPlan::build(&spec.graph));
        Self::with_plan(spec, model, schedule, config, plan)
    }

    /// Creates an optimizer over a shared, precomputed enumeration plan.
    ///
    /// This is the serving-layer constructor: `moqo-engine` caches plans
    /// by [`moqo_query::ShapeKey`] so all concurrent sessions over structurally
    /// similar queries walk one immutable plan.
    ///
    /// # Panics
    /// Panics if the query joins no table, or if `plan` was built for a
    /// different join-graph shape.
    pub fn with_plan(
        spec: Arc<QuerySpec>,
        model: SharedCostModel,
        schedule: ResolutionSchedule,
        config: IamaConfig,
        plan: Arc<EnumerationPlan>,
    ) -> Self {
        assert!(spec.n_tables() >= 1, "query must join at least one table");
        // Full structural check, not just the 64-bit ShapeKey: a hash
        // collision in a shared plan cache must panic here rather than
        // silently optimize over a wrong enumeration.
        assert!(
            plan.matches(&spec.graph),
            "enumeration plan does not match the query's shape"
        );
        let states = (0..plan.len()).map(|_| SubsetState::new()).collect();
        let watermarks = vec![Watermark::default(); plan.total_splits()];
        let full_res = CellGrid::new(model.dim());
        Self {
            spec,
            model,
            schedule,
            config,
            plan,
            arena: PlanArena::new(),
            states,
            full_res,
            watermarks,
            pairs: PairSet::new(),
            invocation: 0,
            last_ctx: None,
            stats: OptimizerStats::default(),
            pending_seeds: std::collections::VecDeque::new(),
            generation: 0,
            compacted_at: None,
            window: CostWindow::default(),
        }
    }

    /// The resolution schedule in use.
    pub fn schedule(&self) -> &ResolutionSchedule {
        &self.schedule
    }

    /// The query being optimized.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Shared handle to the cost model.
    pub fn model(&self) -> SharedCostModel {
        Arc::clone(&self.model)
    }

    /// Number of cost metrics of the underlying model.
    pub fn model_dim(&self) -> usize {
        self.model.dim()
    }

    /// The plan arena (for `explain`-style rendering of frontier plans).
    ///
    /// A join alternative `Prune` discarded, costed or not (see
    /// [`OptimizerStats::costings_skipped`]), took a plan id but holds no
    /// node: [`PlanArena::get`] returns `None` for it. No result or
    /// candidate set refers to it, and [`IamaOptimizer::compact`] closes
    /// the holes.
    pub fn arena(&self) -> &PlanArena {
        &self.arena
    }

    /// The (possibly shared) enumeration plan driving phase 2.
    pub fn enumeration(&self) -> &Arc<EnumerationPlan> {
        &self.plan
    }

    /// Cumulative instrumentation counters.
    pub fn stats(&self) -> &OptimizerStats {
        &self.stats
    }

    /// Warm-start seed plans still waiting for candidate admission (the
    /// surplus beyond [`MAX_SEEDS_PER_SLICE`] per invocation;
    /// see [`IamaOptimizer::seeder`]).
    pub fn pending_seeds(&self) -> usize {
        self.pending_seeds.len()
    }

    /// A monotone counter that changes whenever the result sets, the
    /// candidate sets, the plan arena or the pending seeds change: in an
    /// invocation that generated, routed or retrieved any plan, and in
    /// every [`Seeder::import`](crate::Seeder::import) that passes its
    /// checks.
    ///
    /// Equal generations of one optimizer mean equal sub-frontier exports
    /// ([`IamaOptimizer::export_subset`]), so a serving layer that parks
    /// the same optimizer again can reuse the blobs it harvested before.
    /// [`IamaOptimizer::compact`] leaves the generation alone: blobs are
    /// free of plan ids, so renumbering cannot change them.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Resolution level the next [`IamaOptimizer::run_invocation`] will
    /// use for the given bounds (Algorithm 1's update rule).
    pub fn next_resolution(&self, bounds: &Bounds) -> usize {
        match &self.last_ctx {
            Some((lb, lr)) if lb == bounds => (lr + 1).min(self.schedule.r_max()),
            _ => 0,
        }
    }

    /// Runs one invocation, advancing the resolution like Algorithm 1's
    /// main loop: level 0 for new bounds, otherwise one level finer than
    /// the previous invocation (saturating at `rM`).
    pub fn run_invocation(&mut self, bounds: Bounds) -> InvocationReport {
        let r = self.next_resolution(&bounds);
        self.optimize(&bounds, r)
    }

    /// One invocation of the `Optimize` procedure (Algorithm 2) with
    /// explicit bounds and resolution.
    ///
    /// Afterwards, for every table subset `q` with `|q| = k`, the result
    /// set `Res^q[0..b, 0..r]` contains an `alpha_r^k`-approximate
    /// `b`-bounded Pareto plan set (Theorem 2).
    pub fn optimize(&mut self, bounds: &Bounds, r: usize) -> InvocationReport {
        assert!(
            r <= self.schedule.r_max(),
            "resolution {r} exceeds rM={}",
            self.schedule.r_max()
        );
        assert_eq!(
            bounds.dim(),
            self.model.dim(),
            "bounds dimension must match the cost model"
        );
        let start = Instant::now();
        let plans0 = self.stats.plans_generated;
        let cands0 = self.stats.candidate_retrievals;
        let pairs0 = self.stats.pairs_generated;
        let res0 = self.stats.result_insertions;
        let cins0 = self.stats.candidate_insertions;
        let subs0 = self.stats.subsets_visited;
        let sv0 = self.stats.splits_visited;
        let ss0 = self.stats.splits_skipped;

        // Scan plans are generated once per query, before the main loop
        // (Algorithm 1 lines 7-10); lazily on the first invocation here.
        if self.invocation == 0 {
            self.init_scans(bounds, r);
        }

        // Admit up to one slice's worth of warm-start seeds as level-0
        // candidates; phase 1 below drains and re-prunes them like any
        // re-queued candidate (Lemma 7). The surplus stays pending, so
        // the drain of a very warm donor amortizes across the ladder.
        for _ in 0..MAX_SEEDS_PER_SLICE {
            let Some((q, plan)) = self.pending_seeds.pop_front() else {
                break;
            };
            let cost = *self.arena.cost(plan);
            self.insert_candidate(q, plan, cost, 0);
        }

        // Δ-set filtering is sound when every plan now in
        // `Res[0..b, 0..r]` that was inserted *before* this invocation was
        // already pair-combined: bounds at most as permissive as last time
        // and resolution not coarser (see Section 4.2's discussion of
        // invocation series).
        let use_delta = self.config.use_delta
            && match &self.last_ctx {
                None => true, // first invocation: all plans are fresh anyway
                Some((lb, lr)) => lb.contains(bounds) && r >= *lr,
            };

        // Phase 1 (Algorithm 2 lines 6-12): reconsider candidate plans,
        // in dense subset order (ascending cardinality).
        for ix in 0..self.states.len() {
            let drained = match self.states[ix].cand.as_mut() {
                Some(idx) if !idx.is_empty() => idx.drain(bounds, r as u8),
                _ => continue,
            };
            let q = SubsetId::from_index(ix);
            for e in drained {
                self.stats.candidate_retrievals += 1;
                if self.config.track_invariants {
                    *self
                        .stats
                        .candidate_retrieval_counts
                        .entry(e.item.0)
                        .or_insert(0) += 1;
                }
                self.prune(q, e.item, bounds, r);
            }
        }

        // Phase 2 (lines 13-22): generate plans from fresh combinations.
        // The enumeration plan already fixed the visit order (subsets by
        // increasing cardinality) and pre-resolved every valid ordered
        // split, so this is a flat walk over two arrays. Each subset
        // first selects the fresh pairs of all its splits, then costs
        // them (on the cost pool when that pays) and routes their plans
        // in selection order: routing touches only `q`'s own sets, and
        // selection reads only its operands' lists, watermarks and pair
        // marks, so the split-by-split result is unchanged.
        for ix in 0..self.states.len() {
            let info = self.plan.subsets()[ix];
            if info.split_len == 0 {
                continue;
            }
            self.stats.subsets_visited += 1;
            let q = SubsetId::from_index(ix);
            for off in 0..info.split_len as usize {
                self.combine_split(q, info.split_offset as usize + off, bounds, r, use_delta);
            }
            if self.window.is_open() {
                // `q` selected a pair: route what is left of it, and let
                // the next subset size the window for itself.
                if !self.window.is_empty() {
                    self.flush_window(q, bounds, r);
                }
                self.window.close();
            }
        }

        // Any plan generated, routed or retrieved changes what a parked
        // optimizer holds (see `generation`).
        if (plans0, cands0, res0, cins0)
            != (
                self.stats.plans_generated,
                self.stats.candidate_retrievals,
                self.stats.result_insertions,
                self.stats.candidate_insertions,
            )
        {
            self.generation += 1;
        }
        let report = InvocationReport {
            invocation: self.invocation,
            resolution: r,
            alpha: self.schedule.factor(r),
            duration: start.elapsed(),
            frontier_size: self.frontier_size(bounds, r),
            plans_generated: self.stats.plans_generated - plans0,
            candidates_retrieved: self.stats.candidate_retrievals - cands0,
            pairs_generated: self.stats.pairs_generated - pairs0,
            result_insertions: self.stats.result_insertions - res0,
            candidate_insertions: self.stats.candidate_insertions - cins0,
            subsets_visited: self.stats.subsets_visited - subs0,
            splits_visited: self.stats.splits_visited - sv0,
            splits_skipped: self.stats.splits_skipped - ss0,
            used_delta: use_delta,
        };
        self.invocation += 1;
        self.last_ctx = Some((*bounds, r));
        report
    }

    /// The completed-plan tradeoffs `Res^Q[0..b, 0..r]` that `Visualize`
    /// would render (Algorithm 1 line 16).
    pub fn frontier(&self, bounds: &Bounds, r: usize) -> FrontierSnapshot {
        let mut points = Vec::new();
        self.full_res.scan(bounds, r as u8, |e| {
            points.push(FrontierPoint {
                plan: e.item,
                cost: e.cost,
            });
            false
        });
        FrontierSnapshot::new(points)
    }

    /// `self.frontier(bounds, r).len()`, counted off the same range scan
    /// without building the snapshot.
    fn frontier_size(&self, bounds: &Bounds, r: usize) -> usize {
        let mut n = 0;
        self.full_res.scan(bounds, r as u8, |_| {
            n += 1;
            false
        });
        n
    }

    /// Total result-set entries across all table sets (diagnostics).
    pub fn result_set_size(&self) -> usize {
        self.states.iter().map(|s| s.active.len()).sum()
    }

    /// Total candidate-set entries across all table sets (diagnostics).
    pub fn candidate_set_size(&self) -> usize {
        self.states
            .iter()
            .filter_map(|s| s.cand.as_ref())
            .map(|i| i.len())
            .sum()
    }

    /// Generates and prunes all scan plans (Algorithm 1 lines 7-10).
    fn init_scans(&mut self, bounds: &Bounds, r: usize) {
        for pos in 0..self.spec.n_tables() {
            let q = self
                .plan
                .subset_id(moqo_query::TableSet::singleton(pos))
                .expect("singletons are always enumerated");
            for (op, cost, props) in self.model.scan_alternatives(&self.spec, pos) {
                let pid = self.arena.push_scan(op, pos, cost, props);
                self.stats.plans_generated += 1;
                if self.config.track_invariants {
                    *self
                        .stats
                        .plan_generations
                        .entry((op, u32::MAX, u32::MAX))
                        .or_insert(0) += 1;
                }
                self.prune(q, pid, bounds, r);
            }
        }
    }

    /// `Fresh` (Algorithm 3 lines 26-39) for one precomputed ordered split
    /// of `q`: appends its fresh pairs to the window, which `q`'s first
    /// pair sizes, and which is costed and routed whenever it fills and
    /// once `q`'s last split is selected.
    ///
    /// The fast path never hashes: the split's watermark rectangle settles
    /// repeat pairs positionally, the last entry of each operand's active
    /// list settles the empty-Δ case, and a rectangle equal to both list
    /// lengths skips the split without touching a single entry.
    fn combine_split(
        &mut self,
        q: SubsetId,
        split_pos: usize,
        bounds: &Bounds,
        r: usize,
        use_delta: bool,
    ) {
        let cur = self.invocation;
        let split = self.plan.splits()[split_pos];
        let (la, rb) = (split.left.index(), split.right.index());
        let na = self.states[la].active.len() as u32;
        let nb = self.states[rb].active.len() as u32;
        if na == 0 || nb == 0 {
            self.stats.splits_skipped += 1;
            return;
        }
        let wm = self.watermarks[split_pos];
        if wm.left == na && wm.right == nb {
            // The rectangle covers the whole cross product: nothing was
            // appended to either operand since the split last combined.
            self.stats.splits_skipped += 1;
            return;
        }
        // Active lists are append-only in invocation order, so the last
        // entry tells whether a list grew this invocation: the auxiliary
        // index the paper mentions for evaluating `ΔS` cheaply (Section
        // 4.2).
        let grew = |x: usize| {
            self.states[x]
                .active
                .last()
                .is_some_and(|e| e.invocation == cur)
        };
        if use_delta && !grew(la) && !grew(rb) {
            // Empty-Δ short-circuit (the paper's empty-operand check):
            // neither side received a result plan this invocation.
            self.stats.splits_skipped += 1;
            return;
        }

        // Operand views are collected once per subset per invocation (a
        // subset feeding S splits is filtered once, not S times): by the
        // time any split references it, its active list is final for this
        // invocation — phase-1 drains precede phase 2, and a split's
        // operands always carry a smaller dense id than its parent.
        self.refresh_operands(la, bounds, r, cur);
        self.refresh_operands(rb, bounds, r, cur);
        // Take the cached views out of `self` for the duration of the
        // pair loop (prune only ever touches `q`'s state, which is
        // disjoint from both operands); restored untouched below.
        let left = std::mem::take(&mut self.states[la].operands);
        let right = std::mem::take(&mut self.states[rb].operands);
        let restore = |s: &mut Self, left: Vec<Operand>, right: Vec<Operand>| {
            s.states[la].operands = left;
            s.states[rb].operands = right;
        };
        if left.is_empty() || right.is_empty() {
            self.stats.splits_skipped += 1;
            restore(self, left, right);
            return;
        }
        self.stats.splits_visited += 1;
        let hw = left.len() + right.len();
        if hw > self.stats.scratch_high_water {
            self.stats.scratch_high_water = hw;
        }
        let (clean_l, clean_r) = (
            self.states[la].operands_clean,
            self.states[rb].operands_clean,
        );

        // May the rectangle advance to (na, nb) after this pass? Every
        // pair below it must end up settled: `clean` guarantees excluded
        // entries are tombstones (never needed again), and under Δ
        // filtering the old×old block — skipped below — must already lie
        // inside the rectangle.
        let advance = if use_delta {
            let old_l = old_prefix(&self.states[la].active, cur);
            let old_r = old_prefix(&self.states[rb].active, cur);
            clean_l && clean_r && wm.left >= old_l && wm.right >= old_r
        } else {
            clean_l && clean_r
        };

        // Fresh operands form a suffix (append-only lists, invocation
        // order): under Δ filtering an old left operand pairs only with
        // that suffix, so the old×old block is never iterated at all —
        // the pass is O(Δ work), not O(cross product). Jumping to the
        // suffix preserves the lexicographic (left, right) combination
        // order of the full loop.
        let fresh_r = right.partition_point(|o| !o.fresh);
        let q1 = self.plan.tables(split.left);
        let q2 = self.plan.tables(split.right);
        for e1 in &left {
            let skip_to = if use_delta && !e1.fresh { fresh_r } else { 0 };
            for e2 in &right[skip_to..] {
                if use_delta {
                    // Δ rule: at least one side inserted this invocation.
                    // Sound without any lookup — a pair involving an entry
                    // appended now cannot have been combined before, and
                    // old×old pairs within bounds were combined in the
                    // monotone series that made `use_delta` true.
                    if !advance {
                        // The rectangle will not cover this pair: record
                        // it for future churn epochs.
                        self.pairs.mark(e1.plan.0, e2.plan.0);
                    }
                } else {
                    // Full recombine (churn epoch): rectangle first, hash
                    // for the remainder.
                    if e1.idx < wm.left && e2.idx < wm.right {
                        self.stats.pairs_skipped_watermark += 1;
                        continue;
                    }
                    let settled = if advance {
                        !self.pairs.is_fresh(e1.plan.0, e2.plan.0)
                    } else {
                        !self.pairs.mark(e1.plan.0, e2.plan.0)
                    };
                    if settled {
                        self.stats.stale_pairs_skipped += 1;
                        continue;
                    }
                }
                self.stats.pairs_generated += 1;
                if self.config.track_invariants {
                    *self
                        .stats
                        .pair_generations
                        .entry((e1.plan.0, e2.plan.0))
                        .or_insert(0) += 1;
                }
                if !self.window.is_open() {
                    // `q`'s first pair this invocation: with no result to
                    // test floors against yet, start small (see
                    // [`crate::costing`]).
                    let seeded = !self.states[q.index()].active.is_empty();
                    self.window.open(seeded);
                }
                self.window.push(SelectedPair {
                    left: e1.plan,
                    right: e2.plan,
                    left_in: PlanInput {
                        tables: q1,
                        cost: e1.cost,
                        props: e1.props,
                    },
                    right_in: PlanInput {
                        tables: q2,
                        cost: e2.cost,
                        props: e2.props,
                    },
                });
                if self.window.is_full() {
                    // Routing only touches `q`, never this split's
                    // operands or watermark, so selection resumes as if
                    // nothing had happened.
                    self.flush_window(q, bounds, r);
                }
            }
        }
        if advance {
            self.watermarks[split_pos] = Watermark {
                left: na,
                right: nb,
            };
        }
        restore(self, left, right);
    }

    /// Costs the pairs waiting in the window, then routes every
    /// alternative in `(pair, alternative)` selection order, storing only
    /// those `Prune` puts into `Res^q` or `Cand^q`.
    ///
    /// While the window is costed, `Res^q` is frozen, and an alternative
    /// whose floor it already dominates so that `Prune` discards it is
    /// not costed (see [`crate::costing`]). Every alternative takes the
    /// next plan id and counts as generated, so plan ids, result and
    /// candidate sets and `plans_generated` are those of costing
    /// everything: a witness found for the floor lies in the region of
    /// the real cost too, with a factor no larger, and is still in
    /// `Res^q` at routing time, because active lists only grow. A
    /// discarded alternative, skipped or costed, leaves a hole in the
    /// arena: no set refers to it, and only `Res` entries combine, so
    /// nothing ever reads its node.
    fn flush_window(&mut self, q: SubsetId, bounds: &Bounds, r: usize) {
        let mut window = std::mem::take(&mut self.window);
        let witnesses = self.witnesses(q, bounds, r);
        let skip = witnesses.can_discard().then_some(&witnesses);
        let work = window.cost(&*self.model, &self.spec, skip);
        self.stats.prune_comparisons += work.examined;
        self.stats.prune_nanos += work.nanos;
        window.drain(|pair, alts, skipped| {
            for (&(op, cost, props), &skipped) in alts.iter().zip(skipped) {
                self.stats.plans_generated += 1;
                if self.config.track_invariants {
                    *self
                        .stats
                        .plan_generations
                        .entry((op, pair.left.0, pair.right.0))
                        .or_insert(0) += 1;
                }
                let verdict = if skipped {
                    self.stats.costings_skipped += 1;
                    Verdict::Discard
                } else {
                    self.verdict(q, &cost, &props, bounds, r)
                };
                let plan = match verdict {
                    Verdict::Discard => self.arena.push_hole(),
                    _ => self.arena.push_join(op, pair.left, pair.right, cost, props),
                };
                self.place(q, plan, cost, props, verdict);
            }
        });
        self.window = window;
    }

    /// `Prune`'s witness test against `Res^q` under `(bounds, r)`.
    fn witnesses<'a>(&'a self, q: SubsetId, bounds: &'a Bounds, r: usize) -> Witnesses<'a> {
        Witnesses {
            active: &self.states[q.index()].active,
            bounds,
            schedule: &self.schedule,
            r,
            eager: self.config.eager_level_skip,
            timed: self.config.time_pruning,
        }
    }

    /// Refills subset `x`'s cached operand view if it is stale for the
    /// current invocation. The buffer is reused across invocations, so
    /// phase 2 performs no allocations in steady state.
    fn refresh_operands(&mut self, x: usize, bounds: &Bounds, r: usize, cur: u32) {
        let state = &mut self.states[x];
        if state.operands_inv == cur {
            return;
        }
        let mut buf = std::mem::take(&mut state.operands);
        buf.clear();
        state.operands_clean = collect_operands(&state.active, bounds, r, cur, &mut buf);
        state.operands = buf;
        state.operands_inv = cur;
    }

    /// `Prune` (Algorithm 3 lines 5-22): route a stored plan into the
    /// result set, the candidate set, or (at maximal resolution) discard
    /// it.
    fn prune(&mut self, q: SubsetId, plan: PlanId, bounds: &Bounds, r: usize) {
        let PlanNode { cost, props, .. } = *self.arena.node(plan);
        let verdict = self.verdict(q, &cost, &props, bounds, r);
        self.place(q, plan, cost, props, verdict);
    }

    /// `Prune`'s decision for a plan of cost `cost` and output properties
    /// `props`: one witness search against `Res^q`.
    fn verdict(
        &mut self,
        q: SubsetId,
        cost: &CostVector,
        props: &PhysicalProps,
        bounds: &Bounds,
        r: usize,
    ) -> Verdict {
        let mut work = SearchWork::default();
        let dominated = {
            let witnesses = self.witnesses(q, bounds, r);
            witnesses.dominated(witnesses.best(cost, props, &mut work))
        };
        self.stats.prune_comparisons += work.examined;
        self.stats.prune_nanos += work.nanos;
        match dominated {
            // Keep as candidate for finer resolutions (lines 9-12), or
            // discard it when no finer level needs it.
            Some(verdict) => verdict,
            // Keep as candidate for different bounds (lines 13-16).
            None if bounds.exceeds(cost) => Verdict::Candidate(r as u8),
            // Immediately relevant (lines 17-20).
            None => Verdict::Result(r as u8),
        }
    }

    /// Carries out `verdict` for `plan`.
    fn place(
        &mut self,
        q: SubsetId,
        plan: PlanId,
        cost: CostVector,
        props: PhysicalProps,
        verdict: Verdict,
    ) {
        match verdict {
            Verdict::Result(level) => self.insert_result(q, plan, cost, props, level),
            Verdict::Candidate(level) => self.insert_candidate(q, plan, cost, level),
            Verdict::Discard => self.stats.candidates_discarded += 1,
        }
    }

    fn insert_result(
        &mut self,
        q: SubsetId,
        plan: PlanId,
        cost: CostVector,
        props: PhysicalProps,
        level: u8,
    ) {
        let invocation = self.invocation;
        let shadow = self.config.shadow_dominated;
        if self.plan.full_set() == Some(q) {
            self.full_res
                .insert(Entry::new(plan, cost, level, invocation));
        }
        let state = &mut self.states[q.index()];
        if shadow {
            // Shadow plainly dominated, order-substitutable plans: they
            // stop combining but stay in the list as tombstones — pruning
            // witnesses at stable positions.
            for e in state.active.iter_mut() {
                if !e.shadowed && props.satisfies(&e.props) && cost.dominates(&e.cost) {
                    e.shadowed = true;
                }
            }
        }
        state.active.push(ActiveEntry {
            plan,
            cost,
            props,
            invocation,
            level,
            shadowed: false,
        });
        self.stats.result_insertions += 1;
    }

    pub(crate) fn insert_candidate(
        &mut self,
        q: SubsetId,
        plan: PlanId,
        cost: CostVector,
        level: u8,
    ) {
        let dim = self.model.dim();
        let invocation = self.invocation;
        self.states[q.index()]
            .cand
            .get_or_insert_with(|| CellGrid::new(dim))
            .insert(Entry::new(plan, cost, level, invocation));
        self.stats.candidate_insertions += 1;
    }
}

/// `Prune`'s witness test (Algorithm 3 line 7) against one subset's result
/// set `Res^q` under one invocation's `(bounds, r)`: the one discard
/// predicate that routing and the cost step's skip share.
pub(crate) struct Witnesses<'a> {
    active: &'a [ActiveEntry],
    bounds: &'a Bounds,
    schedule: &'a ResolutionSchedule,
    r: usize,
    eager: bool,
    /// Time each search ([`crate::IamaConfig::time_pruning`]).
    timed: bool,
}

/// What witness searches cost: active-list entries examined, and the
/// nanoseconds the searches took when timed (summed over threads).
#[derive(Clone, Copy, Default)]
pub(crate) struct SearchWork {
    pub(crate) examined: u64,
    pub(crate) nanos: u64,
}

impl SearchWork {
    pub(crate) fn add(&mut self, other: SearchWork) {
        self.examined += other.examined;
        self.nanos += other.nanos;
    }
}

/// Where `Prune` routes a plan.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// Into `Res^q`, at this level.
    Result(u8),
    /// Into `Cand^q`, at this level.
    Candidate(u8),
    /// Dropped: a witness dominates it, and no finer level needs it.
    Discard,
}

impl Witnesses<'_> {
    /// The smallest domination factor of a witness for a plan of cost
    /// `cost` and output properties `props`, and the entries examined.
    ///
    /// Is there a result plan (within bounds, at resolution `<= r`, with
    /// compatible physical properties) that approximately dominates the
    /// plan? Any such plan has cost dominated by `α_r · cost`, so the
    /// search is narrowed to the intersection of the user bounds with that
    /// region. The witnesses are exactly `Res^q`, the subset's active list
    /// (tombstones included), so one flat pass over it answers the range
    /// query: result sets are small, and walking them beats probing a
    /// cell grid's per-level hash maps. The pass tracks the *best*
    /// (smallest) domination factor so eager re-indexing can skip
    /// resolution levels at which the same witness would dominate again,
    /// and stops once the minimum reaches the decision threshold: without
    /// eager re-indexing the first witness within `α_r` decides; with it,
    /// a witness within the *target* factor means the plan is discarded
    /// at every remaining level. Either way [`Witnesses::dominated`] does
    /// not depend on the order of the pass. The search's cost is added to
    /// `work`.
    fn best(&self, cost: &CostVector, props: &PhysicalProps, work: &mut SearchWork) -> f64 {
        if self.active.is_empty() {
            return f64::INFINITY;
        }
        let alpha = self.schedule.factor(self.r);
        let region = self.bounds.intersect(&Bounds::new(cost.scaled(alpha)));
        let threshold = if self.eager {
            self.schedule.target_factor()
        } else {
            alpha
        };
        let timer = self.timed.then(Instant::now);
        let (best, examined) = witness_search(self.active, &region, self.r, cost, props, threshold);
        if let Some(t) = timer {
            work.nanos += t.elapsed().as_nanos() as u64;
        }
        work.examined += examined;
        best
    }

    /// How `Prune` routes a plan whose best witness factor is `best`:
    /// re-queued as a candidate at a finer level, or discarded; `None` if
    /// no witness dominates it within `α_r`.
    fn dominated(&self, best: f64) -> Option<Verdict> {
        (best <= self.schedule.factor(self.r)).then(|| {
            match requeue_level(self.schedule, self.r, best, self.eager) {
                Some(level) => Verdict::Candidate(level as u8),
                None => Verdict::Discard,
            }
        })
    }

    /// Whether `Prune` can discard any plan here: `Res^q` holds a witness
    /// to find, and even a witness of factor 0 leaves no finer level to
    /// re-queue at (without eager re-indexing, only at `rM`).
    pub(crate) fn can_discard(&self) -> bool {
        !self.active.is_empty() && self.dominated(0.0) == Some(Verdict::Discard)
    }

    /// Whether `Prune` discards every plan with output properties `props`
    /// whose cost is at least `floor` in every metric, adding the search's
    /// cost to `work`. Sound because IEEE multiplication and division are
    /// monotone: a witness in `bounds ∩ α_r·floor` lies in
    /// `bounds ∩ α_r·cost`, and its factor against `cost` is no larger
    /// than against `floor`.
    pub(crate) fn discards(
        &self,
        floor: &CostVector,
        props: &PhysicalProps,
        work: &mut SearchWork,
    ) -> bool {
        self.dominated(self.best(floor, props, work)) == Some(Verdict::Discard)
    }
}

/// The witness search of `Prune` (Algorithm 3 line 7) over a subset's
/// active list: among the entries at level `<= r` whose cost respects
/// `region` and whose properties satisfy `props`, the smallest domination
/// factor against `target`, stopping as soon as it reaches `threshold`.
/// Returns that factor (`f64::INFINITY` if no entry qualified) and the
/// number of entries examined.
fn witness_search(
    active: &[ActiveEntry],
    region: &Bounds,
    r: usize,
    target: &CostVector,
    props: &PhysicalProps,
    threshold: f64,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    for (i, e) in active.iter().enumerate() {
        if e.level as usize > r || !region.respects(&e.cost) {
            continue;
        }
        let f = e.cost.domination_factor(target);
        // Props are checked only for improving entries: the check is
        // pure, so skipping it for the rest cannot change the minimum.
        if f < best && e.props.satisfies(props) {
            best = f;
            if best <= threshold {
                return (best, i as u64 + 1);
            }
        }
    }
    (best, active.len() as u64)
}

/// The level a plan dominated at level `r` by a witness with domination
/// factor `best_factor` is re-indexed at as a candidate, or `None` if it
/// is discarded: `r + 1` (Algorithm 3 lines 9-12), or with `eager` the
/// first finer level whose factor drops below `best_factor`.
fn requeue_level(
    schedule: &ResolutionSchedule,
    r: usize,
    best_factor: f64,
    eager: bool,
) -> Option<usize> {
    if eager {
        ((r + 1)..=schedule.r_max()).find(|&r2| schedule.factor(r2) < best_factor)
    } else {
        (r < schedule.r_max()).then_some(r + 1)
    }
}

/// Copies the live, in-context entries of an active list into `out`,
/// tagging each with its stable position and Δ-freshness. Returns `true`
/// if the list is *clean*: every non-tombstoned entry made it into `out`,
/// i.e. the excluded remainder is settled forever and a watermark may
/// advance across it.
fn collect_operands(
    active: &[ActiveEntry],
    bounds: &Bounds,
    r: usize,
    cur: u32,
    out: &mut Vec<Operand>,
) -> bool {
    let mut clean = true;
    for (i, e) in active.iter().enumerate() {
        if e.shadowed {
            continue;
        }
        if e.level as usize <= r && bounds.respects(&e.cost) {
            out.push(Operand {
                idx: i as u32,
                plan: e.plan,
                cost: e.cost,
                props: e.props,
                fresh: e.invocation == cur,
            });
        } else {
            clean = false;
        }
    }
    clean
}

/// Number of leading entries inserted before invocation `cur` (entries
/// are appended in invocation order, so the old block is a prefix).
fn old_prefix(active: &[ActiveEntry], cur: u32) -> u32 {
    active.partition_point(|e| e.invocation < cur) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::coverage_factor;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;

    fn schedule() -> ResolutionSchedule {
        ResolutionSchedule::linear(4, 1.05, 0.5)
    }

    #[test]
    fn single_invocation_produces_a_frontier() {
        let spec = Arc::new(testkit::chain_query(3, 100_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let b = Bounds::unbounded(3);
        let report = opt.optimize(&b, 0);
        assert!(report.frontier_size > 0, "no complete plans found");
        assert!(report.plans_generated > 0);
        assert_eq!(report.resolution, 0);
        let frontier = opt.frontier(&b, 0);
        assert_eq!(frontier.len(), report.frontier_size);
        // Every frontier plan joins all tables.
        for p in &frontier.points {
            assert_eq!(opt.arena().tables(p.plan), spec.all_tables());
        }
    }

    #[test]
    fn refining_resolution_grows_the_frontier() {
        let spec = Arc::new(testkit::chain_query(3, 500_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let b = Bounds::unbounded(3);
        let mut sizes = Vec::new();
        for r in 0..=opt.schedule().r_max() {
            opt.optimize(&b, r);
            sizes.push(opt.frontier(&b, r).len());
        }
        assert!(
            sizes.last().unwrap() >= sizes.first().unwrap(),
            "finer resolution should not shrink the frontier: {sizes:?}"
        );
    }

    #[test]
    fn run_invocation_follows_main_loop_resolution_rule() {
        let spec = Arc::new(testkit::chain_query(2, 100_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(
            spec.clone(),
            model.clone(),
            ResolutionSchedule::linear(2, 1.05, 0.5),
        );
        let b = Bounds::unbounded(3);
        assert_eq!(opt.run_invocation(b).resolution, 0);
        assert_eq!(opt.run_invocation(b).resolution, 1);
        assert_eq!(opt.run_invocation(b).resolution, 2);
        // Saturates at rM.
        assert_eq!(opt.run_invocation(b).resolution, 2);
        // Bound change resets to 0.
        let tight = b.with_limit(0, 1e9);
        assert_eq!(opt.run_invocation(tight).resolution, 0);
    }

    #[test]
    fn incremental_invariants_hold_over_a_series() {
        let spec = Arc::new(testkit::chain_query(4, 200_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let sched = schedule();
        let r_max = sched.r_max();
        let mut opt =
            IamaOptimizer::with_config(spec.clone(), model.clone(), sched, IamaConfig::tracked());
        let b = Bounds::unbounded(3);
        for r in 0..=r_max {
            opt.optimize(&b, r);
        }
        let stats = opt.stats();
        // Lemma 5: each plan generated at most once.
        assert!(
            stats.max_plan_generations() <= 1,
            "a plan was generated twice"
        );
        // Lemma 6: each ordered pair combined at most once.
        assert!(
            stats.max_pair_generations() <= 1,
            "a sub-plan pair was combined twice"
        );
        // Lemma 7: each plan retrieved at most rM + 1 times as candidate.
        assert!(
            stats.max_candidate_retrievals() as usize <= r_max + 1,
            "candidate retrieved too often: {}",
            stats.max_candidate_retrievals()
        );
    }

    #[test]
    fn repeated_invocations_at_max_resolution_do_no_work() {
        let spec = Arc::new(testkit::chain_query(3, 100_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let b = Bounds::unbounded(3);
        for r in 0..=opt.schedule().r_max() {
            opt.optimize(&b, r);
        }
        let report = opt.optimize(&b, opt.schedule().r_max());
        assert_eq!(
            report.plans_generated, 0,
            "steady state must generate nothing"
        );
        assert_eq!(report.pairs_generated, 0);
        assert_eq!(report.candidates_retrieved, 0);
        // The watermarks settle every split without a single pair visit.
        assert_eq!(report.splits_visited, 0, "watermarks failed to settle");
    }

    #[test]
    fn a_steady_state_repeat_touches_neither_the_pool_nor_the_window() {
        use moqo_costmodel::{CostModel, MetricSet};
        use moqo_plan::Operator;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// The standard model, counting join costings.
        struct Counting(StandardCostModel, AtomicU64);

        impl CostModel for Counting {
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
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.join_alternatives(spec, left, right, out)
            }
        }

        let spec = Arc::new(testkit::chain_query(4, 150_000));
        let model = Arc::new(Counting(
            StandardCostModel::paper_metrics(),
            AtomicU64::new(0),
        ));
        let mut opt = IamaOptimizer::new(spec, model.clone(), schedule());
        let b = Bounds::unbounded(3);
        let r_max = opt.schedule().r_max();
        for r in 0..=r_max {
            opt.optimize(&b, r);
        }
        let joins = model.1.load(Ordering::Relaxed);
        assert_eq!(joins, opt.stats().pairs_generated);
        assert!(opt.window.capacity() > 0 && opt.window.is_empty());
        // Parking releases the window; a repeat selects no pair, so it
        // costs nothing, offers nothing to the pool and allocates no
        // window.
        opt.compact();
        assert_eq!(opt.window.capacity(), 0);
        let report = opt.optimize(&b, r_max);
        assert_eq!(report.pairs_generated, 0);
        assert_eq!(model.1.load(Ordering::Relaxed), joins);
        assert_eq!(opt.window.capacity(), 0);
    }

    /// `moqo_bench::workload::bench_model()`, which offers floors.
    fn bench_model() -> Arc<StandardCostModel> {
        use moqo_costmodel::{MetricSet, StandardCostModelConfig};
        Arc::new(StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                quantize_grid: Some(1.02),
                dops: vec![1, 4],
                sampling_rates_pm: vec![500],
                eval_spin: 400,
                ..StandardCostModelConfig::default()
            },
        ))
    }

    /// The Fig. 4 ladder: 20 levels, alpha_T = 1.005, alpha_S = 0.5.
    fn fig4_ladder() -> ResolutionSchedule {
        ResolutionSchedule::linear(19, 1.005, 0.5)
    }

    #[test]
    fn the_arena_stores_only_scans_and_placed_alternatives() {
        use moqo_costmodel::CostModel;
        // Over half the Fig. 4 ladder and a tighten/drag/loosen storm, every
        // generated plan takes an id, and the arena stores exactly the
        // scans and the join alternatives `Prune` put into `Res` or
        // `Cand` (no seeds here). Phase 2 is the only step that issues
        // ids after the scans, and nothing leaves a set in the invocation
        // that placed it, so an invocation's new ids hold a node exactly
        // when they sit in a result or candidate set afterwards.
        let model = bench_model();
        let ladder = fig4_ladder();
        let unb = Bounds::unbounded(3);
        for query in ["q05", "q08"] {
            let spec = Arc::new(moqo_tpch::query_block(query, 1.0).expect("a TPC-H block"));
            let scans: usize = (0..spec.n_tables())
                .map(|pos| model.scan_alternatives(&spec, pos).len())
                .sum();
            let mut opt = IamaOptimizer::new(spec, model.clone(), ladder.clone());
            let (mut placed, mut discarded) = (0, 0);
            let mut run = |opt: &mut IamaOptimizer, b: &Bounds, r: usize| {
                let first = if opt.invocation == 0 {
                    scans
                } else {
                    opt.arena.issued()
                };
                opt.optimize(b, r);
                let unbounded = Bounds::unbounded(3);
                let mut in_sets = vec![false; opt.arena.issued()];
                for state in &opt.states {
                    for e in &state.active {
                        in_sets[e.plan.index()] = true;
                    }
                    for e in state
                        .cand
                        .iter()
                        .flat_map(|c| c.collect(&unbounded, u8::MAX))
                    {
                        in_sets[e.item.index()] = true;
                    }
                }
                for (id, &set) in in_sets.iter().enumerate().skip(first) {
                    let stored = opt.arena.get(PlanId(id as u32)).is_some();
                    assert_eq!(stored, set, "{query}: plan {id} at r{r}");
                    placed += usize::from(set);
                    discarded += usize::from(!set);
                }
            };
            // Half the ladder, so the storm still generates plans.
            let half = ladder.r_max() / 2;
            for r in 0..=half {
                run(&mut opt, &unb, r);
            }
            let mut ts: Vec<f64> = opt
                .frontier(&unb, half)
                .costs()
                .iter()
                .map(|c| c[0])
                .collect();
            ts.sort_by(f64::total_cmp);
            for t in [ts[ts.len() / 4], ts[ts.len() / 2], f64::INFINITY] {
                for r in 0..=ladder.r_max() {
                    run(&mut opt, &unb.with_limit(0, t), r);
                }
            }
            assert_eq!(opt.arena.len(), scans + placed, "{query}: stored plans");
            assert_eq!(opt.arena.issued() as u64, opt.stats.plans_generated);
            assert!(discarded > placed, "{query}: {discarded} vs {placed}");
        }
    }

    #[test]
    fn a_subset_without_results_costs_its_first_pairs_in_growing_windows() {
        use crate::costing::WINDOW_PAIRS;

        let model = bench_model();
        let ladder = fig4_ladder();
        let b = Bounds::unbounded(3);
        // Costings skipped by the first invocation; a first window of
        // 256 pairs, frozen against an empty `Res^q`, skipped none.
        for (query, skipped) in [("q03", 139), ("q10", 706)] {
            let spec = Arc::new(moqo_tpch::query_block(query, 1.0).expect("a TPC-H block"));
            let mut opt = IamaOptimizer::new(spec, model.clone(), ladder.clone());
            opt.optimize(&b, 0);
            assert_eq!(opt.stats().costings_skipped, skipped, "{query}");
            // At r0 every subset starts empty: windows of 1, 2, 4 … 256
            // pairs, the last one holding what is left.
            assert!(!opt.window.log.is_empty());
            for (seeded, sizes) in &opt.window.log {
                assert!(!seeded, "{query}: a subset held results at r0");
                let (last, full) = sizes.split_last().expect("an opened window is costed");
                for (i, &n) in full.iter().enumerate() {
                    assert_eq!(n, (1 << i).min(WINDOW_PAIRS), "{query}: {sizes:?}");
                }
                assert!((1..=(1 << full.len()).min(WINDOW_PAIRS)).contains(last));
            }
            // A refinement's subsets already hold results: their first
            // window takes all 256 pairs, or every pair if they are fewer.
            opt.window.log.clear();
            for r in 1..=ladder.r_max() {
                opt.optimize(&b, r);
            }
            let seeded: Vec<&Vec<usize>> = opt
                .window
                .log
                .iter()
                .filter_map(|(seeded, sizes)| seeded.then_some(sizes))
                .collect();
            assert!(!seeded.is_empty(), "{query}: no refinement selected a pair");
            for sizes in seeded {
                let total = sizes.iter().sum::<usize>();
                assert_eq!(sizes[0], total.min(WINDOW_PAIRS), "{query}: {sizes:?}");
            }
        }
    }

    #[test]
    fn steady_state_skips_splits_by_watermark_not_hash() {
        // The monotone regime must never populate the IsFresh fallback:
        // Lemma 6 is enforced purely by watermark position.
        let spec = Arc::new(testkit::chain_query(4, 150_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let b = Bounds::unbounded(3);
        for r in 0..=opt.schedule().r_max() {
            opt.optimize(&b, r);
        }
        opt.optimize(&b, opt.schedule().r_max());
        assert!(
            opt.pairs.is_empty(),
            "monotone series must not touch the pair hash"
        );
        assert!(opt.stats().splits_skipped > 0);
    }

    #[test]
    fn frontier_respects_bounds() {
        let spec = Arc::new(testkit::chain_query(3, 200_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let unb = Bounds::unbounded(3);
        let r_max = opt.schedule().r_max();
        for r in 0..=r_max {
            opt.optimize(&unb, r);
        }
        let full = opt.frontier(&unb, r_max);
        assert!(!full.is_empty());
        // Constrain time to the median frontier time: fewer plans visible,
        // all within bounds.
        let mut times: Vec<f64> = full.points.iter().map(|p| p.cost[0]).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        let bounded = Bounds::unbounded(3).with_limit(0, median);
        let shown = opt.frontier(&bounded, r_max);
        assert!(shown.len() <= full.len());
        assert!(shown.points.iter().all(|p| bounded.respects(&p.cost)));
    }

    #[test]
    fn bound_change_reuses_candidates_not_regeneration() {
        let spec = Arc::new(testkit::chain_query(3, 200_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::with_config(
            spec.clone(),
            model.clone(),
            schedule(),
            IamaConfig::tracked(),
        );
        // Start with tight time bounds.
        let r_max = opt.schedule().r_max();
        let unb = Bounds::unbounded(3);
        opt.optimize(&unb, 0);
        let t_min = opt
            .frontier(&unb, 0)
            .min_by_metric(0)
            .map(|p| p.cost[0])
            .unwrap();
        let tight = Bounds::unbounded(3).with_limit(0, t_min * 1.5);
        for r in 0..=r_max {
            opt.optimize(&tight, r);
        }
        let plans_before = opt.stats().plans_generated;
        // Loosen the bounds: candidates stored as out-of-bounds re-enter.
        for r in 0..=r_max {
            opt.optimize(&unb, r);
        }
        let stats = opt.stats();
        assert!(
            stats.max_plan_generations() <= 1,
            "bound change caused plan regeneration"
        );
        assert!(stats.max_pair_generations() <= 1);
        // New plans may be generated (pairs that were never within tight
        // bounds), but the frontier must now be at least as large.
        assert!(stats.plans_generated >= plans_before);
        assert!(!opt.frontier(&unb, r_max).is_empty());
    }

    #[test]
    fn final_result_is_within_alpha_n_of_level_specific_runs() {
        // Coverage sanity: running all levels and querying at rM covers
        // the coarse frontier within the coarse factor.
        let spec = Arc::new(testkit::chain_query(3, 100_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let sched = schedule();
        let r_max = sched.r_max();
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), sched);
        let b = Bounds::unbounded(3);
        let mut coarse_costs = Vec::new();
        for r in 0..=r_max {
            opt.optimize(&b, r);
            if r == 0 {
                coarse_costs = opt.frontier(&b, 0).costs();
            }
        }
        let fine = opt.frontier(&b, r_max).costs();
        // The fine frontier must cover the coarse one at factor 1 (coarse
        // plans remain result plans — nothing is ever discarded).
        assert!(coverage_factor(&fine, &coarse_costs) <= 1.0 + 1e-9);
    }

    #[test]
    fn single_table_query_works() {
        let spec = Arc::new(testkit::chain_query(1, 100_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let b = Bounds::unbounded(3);
        let report = opt.optimize(&b, 0);
        assert!(report.frontier_size >= 1);
        assert_eq!(report.pairs_generated, 0);
    }

    #[test]
    fn shared_plan_reuse_across_similar_queries() {
        // One enumeration plan drives two structurally identical queries
        // with different statistics — the cross-session sharing shape.
        let a = Arc::new(testkit::chain_query(4, 100_000));
        let z = Arc::new(testkit::chain_query(4, 7_777));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let plan = Arc::new(EnumerationPlan::build(&a.graph));
        let b = Bounds::unbounded(3);
        for spec in [a, z] {
            let mut opt = IamaOptimizer::with_plan(
                spec,
                model.clone(),
                schedule(),
                IamaConfig::default(),
                Arc::clone(&plan),
            );
            let report = opt.optimize(&b, 0);
            assert!(report.frontier_size > 0);
        }
        assert_eq!(Arc::strong_count(&plan), 1, "optimizers dropped the plan");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_enumeration_plan() {
        let chain = Arc::new(testkit::chain_query(3, 1000));
        let star = testkit::star_query(3, 1000);
        let model = Arc::new(StandardCostModel::paper_metrics());
        let wrong = Arc::new(EnumerationPlan::build(&star.graph));
        IamaOptimizer::with_plan(chain, model, schedule(), IamaConfig::default(), wrong);
    }

    #[test]
    fn disconnected_query_yields_empty_frontier_without_cross_products() {
        use moqo_catalog::CatalogBuilder;
        let mut cb = CatalogBuilder::new();
        let t0 = cb.add_table("iso_a", 1000, 50, vec![]);
        let t1 = cb.add_table("iso_b", 2000, 50, vec![]);
        let g = moqo_query::JoinGraph::new(vec![t0, t1]);
        let spec = Arc::new(QuerySpec::new("disconnected", g, Arc::new(cb.build())));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let b = Bounds::unbounded(3);
        let mut opt = IamaOptimizer::new(spec, model, schedule());
        let report = opt.optimize(&b, 0);
        assert_eq!(report.frontier_size, 0);
        assert_eq!(report.pairs_generated, 0);
        assert!(opt.enumeration().full_set().is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds rM")]
    fn rejects_out_of_schedule_resolution() {
        let spec = Arc::new(testkit::chain_query(2, 1000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(
            spec.clone(),
            model.clone(),
            ResolutionSchedule::linear(1, 1.1, 0.5),
        );
        opt.optimize(&Bounds::unbounded(3), 5);
    }

    mod witness_oracle {
        use super::*;
        use moqo_index::{dominance_scan_scalar, CellGrid};
        use moqo_plan::OrderKey;
        use proptest::prelude::*;

        /// How `prune` routes a plan given its witness factor: `None` if
        /// it is not dominated, else its re-index level.
        fn route(
            best: f64,
            r: usize,
            eager: bool,
            sched: &ResolutionSchedule,
        ) -> Option<Option<usize>> {
            (best <= sched.factor(r)).then(|| requeue_level(sched, r, best, eager))
        }

        fn metric() -> impl Strategy<Value = f64> {
            prop_oneof![1 => Just(0.0), 4 => 0.0f64..1e5]
        }

        fn props() -> impl Strategy<Value = PhysicalProps> {
            prop_oneof![
                2 => Just(PhysicalProps::NONE),
                1 => (0u16..2).prop_map(|k| PhysicalProps::sorted(OrderKey(k))),
            ]
        }

        fn limit() -> impl Strategy<Value = f64> {
            prop_oneof![1 => Just(f64::INFINITY), 2 => 0.0f64..1.2e5]
        }

        proptest! {
            /// The active-list witness search routes every plan exactly
            /// as the scalar cell-grid scan does over the same entries:
            /// same `best <= alpha` decision and same eager next level,
            /// whatever the scan order, and the same minimum bit for bit
            /// when no early exit fires.
            #[test]
            fn witness_search_routes_like_the_index_scans(
                entries in proptest::collection::vec(
                    ((metric(), metric(), metric()), 0u8..5, props(), any::<bool>()),
                    0..80,
                ),
                limits in (limit(), limit(), limit()),
                target in (metric(), metric(), metric()),
                target_props in props(),
                r in 0usize..5,
            ) {
                let sched = ResolutionSchedule::linear(4, 1.05, 0.5);
                let mut grid = CellGrid::new(3);
                let mut active = Vec::new();
                for (i, ((a, b, c), level, p, shadowed)) in entries.iter().enumerate() {
                    let cost = CostVector::new(&[*a, *b, *c]);
                    grid.insert(Entry::new(i as u32, cost, *level, 0));
                    active.push(ActiveEntry {
                        plan: PlanId(i as u32),
                        cost,
                        props: *p,
                        invocation: 0,
                        level: *level,
                        shadowed: *shadowed,
                    });
                }
                let accept = |i: u32| entries[i as usize].2.satisfies(&target_props);
                let target = CostVector::new(&[target.0, target.1, target.2]);
                let alpha = sched.factor(r);
                let region = Bounds::from_slice(&[limits.0, limits.1, limits.2])
                    .intersect(&Bounds::new(target.scaled(alpha)));
                for eager in [true, false] {
                    let threshold = if eager { sched.target_factor() } else { alpha };
                    let (best, _) =
                        witness_search(&active, &region, r, &target, &target_props, threshold);
                    let scalar =
                        dominance_scan_scalar(&grid, &region, r as u8, &target, threshold, accept);
                    prop_assert_eq!(route(best, r, eager, &sched), route(scalar, r, eager, &sched));
                }
                let (full, examined) = witness_search(
                    &active, &region, r, &target, &target_props, f64::NEG_INFINITY);
                prop_assert_eq!(examined, active.len() as u64);
                let scalar = dominance_scan_scalar(
                    &grid, &region, r as u8, &target, f64::NEG_INFINITY, accept);
                prop_assert_eq!(full.to_bits(), scalar.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn rejects_mismatched_bounds_dimension() {
        let spec = Arc::new(testkit::chain_query(2, 1000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        opt.optimize(&Bounds::unbounded(2), 0);
    }
}
