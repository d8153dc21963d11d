//! The incremental optimizer — Algorithms 2 and 3 of the paper — on top of
//! the precomputed enumeration plane.
//!
//! # Dense subset state
//!
//! The optimizer's per-table-set bookkeeping (candidate index, active
//! list, last-insertion watermark) lives in a flat `Vec<SubsetState>`
//! indexed by the [`EnumerationPlan`]'s dense [`SubsetId`]s — no
//! `TableSet → …` hash probes on the hot path, and the `O(2^k)` split
//! spaces of irrelevant (disconnected) subsets are never visited at all.
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

use crate::config::IamaConfig;
use crate::frontier::{FrontierPoint, FrontierSnapshot};
use crate::report::InvocationReport;
use crate::stats::OptimizerStats;
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{PlanInput, SharedCostModel};
use moqo_index::{CellGrid, Entry, PairSet, PlanIndex};
use moqo_plan::{PhysicalProps, PlanArena, PlanId};
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
    /// Invocation of the most recent result insertion — the auxiliary
    /// index the paper mentions for evaluating `ΔS` cheaply (Section
    /// 4.2): a split whose operands both saw no insertion this invocation
    /// has an empty Δ cross product. `u32::MAX` = never.
    pub(crate) last_res_insert: u32,
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
            last_res_insert: u32::MAX,
            operands: Vec::new(),
            operands_clean: false,
            operands_inv: u32::MAX,
        }
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
    pub(crate) scans_done: bool,
    pub(crate) stats: OptimizerStats,
    /// Warm-start seeds (rebased/transplanted plans, already replayed
    /// into the arena and re-costed) waiting for candidate admission.
    /// Drained FIFO, at most [`IamaConfig::max_seeds_per_slice`] per
    /// invocation, so a very warm donor cannot stall the first frontier
    /// behind one giant candidate drain. Not serialized in snapshots:
    /// seeds are an accelerant, and a parked optimizer that ran its
    /// ladder has long admitted them all.
    pub(crate) pending_seeds: std::collections::VecDeque<(SubsetId, PlanId, CostVector)>,
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
        let plan = Arc::new(EnumerationPlan::build(
            &spec.graph,
            config.allow_cross_products,
        ));
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
    /// different join-graph shape or cross-product policy.
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
            plan.matches(&spec.graph, config.allow_cross_products),
            "enumeration plan does not match the query's shape/policy"
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
            scans_done: false,
            stats: OptimizerStats::default(),
            pending_seeds: std::collections::VecDeque::new(),
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

    /// Shared handle to the query being optimized.
    pub fn spec_arc(&self) -> Arc<QuerySpec> {
        Arc::clone(&self.spec)
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

    /// Number of completed invocations.
    pub fn invocations(&self) -> u32 {
        self.stats.invocations
    }

    /// Warm-start seed plans still waiting for candidate admission (the
    /// surplus beyond [`IamaConfig::max_seeds_per_slice`] per invocation;
    /// see [`IamaOptimizer::rebase_from`] / [`IamaOptimizer::import_subset`]).
    pub fn pending_seeds(&self) -> usize {
        self.pending_seeds.len()
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
        if !self.scans_done {
            self.init_scans(bounds, r);
            self.scans_done = true;
        }

        // Admit up to one slice's worth of warm-start seeds as level-0
        // candidates; phase 1 below drains and re-prunes them like any
        // re-queued candidate (Lemma 7). The surplus stays pending, so
        // the drain of a very warm donor amortizes across the ladder.
        for _ in 0..self.config.max_seeds_per_slice {
            let Some((q, plan, cost)) = self.pending_seeds.pop_front() else {
                break;
            };
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
        // split, so this is a flat walk over two arrays.
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
        }

        self.stats.invocations += 1;
        if use_delta {
            self.stats.delta_invocations += 1;
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
        // Batched range scan: whole struct-of-arrays blocks per callback.
        // Selected rows arrive in `scan` order, so the snapshot is
        // bit-identical to the scalar visitor's.
        self.full_res.scan_batch(bounds, r as u8, &mut |batch| {
            for j in batch.selected() {
                points.push(FrontierPoint {
                    plan: batch.item(j),
                    cost: batch.cost(j),
                });
            }
            false
        });
        FrontierSnapshot::new(points)
    }

    /// `self.frontier(bounds, r).len()`, counted off the same range scan
    /// without building the snapshot.
    fn frontier_size(&self, bounds: &Bounds, r: usize) -> usize {
        let mut n = 0;
        self.full_res.scan_batch(bounds, r as u8, &mut |batch| {
            n += batch.mask().count_ones() as usize;
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

    /// `Fresh` (Algorithm 3 lines 26-39) followed by pruning of each fresh
    /// plan, for one precomputed ordered split of `q`.
    ///
    /// The fast path never hashes: the split's watermark rectangle settles
    /// repeat pairs positionally, the subset's `last_res_insert` settles
    /// the empty-Δ case, and a rectangle equal to both list lengths skips
    /// the split without touching a single entry.
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
        if use_delta
            && self.states[la].last_res_insert != cur
            && self.states[rb].last_res_insert != cur
        {
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
                let left_in = PlanInput {
                    tables: q1,
                    cost: e1.cost,
                    props: e1.props,
                };
                let right_in = PlanInput {
                    tables: q2,
                    cost: e2.cost,
                    props: e2.props,
                };
                for (op, cost, props) in self
                    .model
                    .join_alternatives(&self.spec, &left_in, &right_in)
                {
                    let pid = self.arena.push_join(op, e1.plan, e2.plan, cost, props);
                    self.stats.plans_generated += 1;
                    if self.config.track_invariants {
                        *self
                            .stats
                            .plan_generations
                            .entry((op, e1.plan.0, e2.plan.0))
                            .or_insert(0) += 1;
                    }
                    self.prune(q, pid, bounds, r);
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

    /// `Prune` (Algorithm 3 lines 5-22): route a plan into the result set,
    /// the candidate set, or (at maximal resolution) discard it.
    fn prune(&mut self, q: SubsetId, plan: PlanId, bounds: &Bounds, r: usize) {
        let (cost, props) = {
            let node = self.arena.node(plan);
            (node.cost, node.props)
        };
        let alpha = self.schedule.factor(r);

        // Line 7: is there an alternative result plan (within bounds, at
        // resolution <= r, with compatible physical properties) that
        // approximately dominates the new plan? Any such plan has cost
        // dominated by `alpha * c(p)`, so the search is narrowed to the
        // intersection of the user bounds with that region. The witnesses
        // are exactly `Res^q`, the subset's active list (tombstones
        // included), so one flat pass over it answers the range query:
        // result sets are small, and walking them beats probing a cell
        // grid's per-level hash maps. The pass tracks the *best* (smallest)
        // domination factor so eager re-indexing can skip resolution
        // levels at which the same witness would dominate again, and
        // stops once the minimum reaches the decision threshold: without
        // eager re-indexing the first witness within `alpha` decides; with
        // it, a witness within the *target* factor means the plan is
        // discarded at every remaining level. Either way the routing
        // decision below does not depend on the order of the pass.
        let mut best_factor = f64::INFINITY;
        let active = &self.states[q.index()].active;
        if !active.is_empty() {
            let region = bounds.intersect(&Bounds::new(cost.scaled(alpha)));
            let threshold = if self.config.eager_level_skip {
                self.schedule.target_factor()
            } else {
                alpha
            };
            let timer = self.config.time_pruning.then(Instant::now);
            let (best, examined) = witness_search(active, &region, r, &cost, &props, threshold);
            if let Some(t) = timer {
                self.stats.prune_nanos += t.elapsed().as_nanos() as u64;
            }
            self.stats.prune_comparisons += examined;
            best_factor = best;
        }
        let dominated = best_factor <= alpha;

        if dominated {
            // Keep as candidate for finer resolutions (lines 9-12). With
            // eager re-indexing, jump straight to the first level whose
            // precision factor drops below the witness's domination
            // factor; the plan provably stays dominated by the same
            // witness at every level in between.
            let eager = self.config.eager_level_skip;
            match requeue_level(&self.schedule, r, best_factor, eager) {
                Some(level) => self.insert_candidate(q, plan, cost, level as u8),
                None => self.stats.candidates_discarded += 1,
            }
        } else if bounds.exceeds(&cost) {
            // Keep as candidate for different bounds (lines 13-16).
            self.insert_candidate(q, plan, cost, r as u8);
        } else {
            // Immediately relevant (lines 17-20).
            self.insert_result(q, plan, cost, r as u8);
        }
    }

    fn insert_result(&mut self, q: SubsetId, plan: PlanId, cost: CostVector, level: u8) {
        let invocation = self.invocation;
        let props = self.arena.node(plan).props;
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
        state.last_res_insert = invocation;
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
        let plan = Arc::new(EnumerationPlan::build(&a.graph, false));
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
        let wrong = Arc::new(EnumerationPlan::build(&star.graph, false));
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
        let mut opt = IamaOptimizer::new(spec.clone(), model.clone(), schedule());
        let report = opt.optimize(&b, 0);
        assert_eq!(report.frontier_size, 0);
        assert_eq!(report.pairs_generated, 0);
        // With cross products allowed the same query completes.
        let mut cp = IamaOptimizer::with_config(
            spec,
            model,
            schedule(),
            IamaConfig {
                allow_cross_products: true,
                ..IamaConfig::default()
            },
        );
        assert!(cp.optimize(&b, 0).frontier_size > 0);
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
            /// as the cell grid's lane kernels and the scalar index scan
            /// do over the same entries: same `best <= alpha` decision
            /// and same eager next level, whatever the scan order, and
            /// the same minimum bit for bit when no early exit fires.
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
                let accept = &mut |i: u32| entries[i as usize].2.satisfies(&target_props);
                let target = CostVector::new(&[target.0, target.1, target.2]);
                let alpha = sched.factor(r);
                let region = Bounds::from_slice(&[limits.0, limits.1, limits.2])
                    .intersect(&Bounds::new(target.scaled(alpha)));
                for eager in [true, false] {
                    let threshold = if eager { sched.target_factor() } else { alpha };
                    let (best, _) =
                        witness_search(&active, &region, r, &target, &target_props, threshold);
                    let lanes = grid.dominance_scan(&region, r as u8, &target, threshold, accept);
                    let scalar =
                        dominance_scan_scalar(&grid, &region, r as u8, &target, threshold, accept);
                    let want = route(best, r, eager, &sched);
                    prop_assert_eq!(want, route(lanes.best_factor, r, eager, &sched));
                    prop_assert_eq!(want, route(scalar.best_factor, r, eager, &sched));
                }
                let (full, examined) = witness_search(
                    &active, &region, r, &target, &target_props, f64::NEG_INFINITY);
                prop_assert_eq!(examined, active.len() as u64);
                let lanes = grid.dominance_scan(
                    &region, r as u8, &target, f64::NEG_INFINITY, accept);
                let scalar = dominance_scan_scalar(
                    &grid, &region, r as u8, &target, f64::NEG_INFINITY, accept);
                prop_assert_eq!(full.to_bits(), lanes.best_factor.to_bits());
                prop_assert_eq!(full.to_bits(), scalar.best_factor.to_bits());
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
