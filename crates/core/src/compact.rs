//! Compaction: what a parked optimizer keeps.
//!
//! While a session runs, the plan arena issues an id to every plan the
//! session generates but stores only the scans, the seeds and the join
//! alternatives `Prune` put into a result or candidate set; a discarded
//! alternative leaves a hole. Some stored plans still die: a candidate a
//! later drain discards, a scan or seed `Prune` discarded. Parking keeps
//! only the plans a later resume can reach and closes the holes
//! (Theorem 3's space bound counts result plans; none of those is ever
//! dropped here). A snapshot of a live optimizer is written through the
//! same renumbering, so it holds what a compacted twin would.

use crate::optimizer::IamaOptimizer;
use moqo_cost::Bounds;
use moqo_plan::{renumbering, PlanId};

impl IamaOptimizer {
    /// Drops every arena plan a resume cannot reach and renumbers the
    /// survivors in creation order — the step that parks an optimizer.
    ///
    /// A resume reaches exactly the closure, under children, of the
    /// active lists (tombstones included), the candidate entries and the
    /// pending seeds: phase 2 combines only active entries, so every child
    /// of a result is itself a result, and watermarks are positions, not
    /// ids. Everything else was generated and pruned away for good. The
    /// renumbering is monotone, so every `PlanId` order the optimizer
    /// relies on survives; the candidate grids and the full query's result
    /// index are rewritten in place, so drain and frontier order stay
    /// byte-identical, and later invocations route every plan exactly as
    /// they would have without the compaction. The Lemma 5–7 tracking maps
    /// keep the counts of surviving plans and pairs; a dropped plan can
    /// never be generated or retrieved again.
    ///
    /// Plan ids are visible to clients only within one session stream,
    /// and a resumed session opens a new stream whose first delta is a
    /// reset, so no client ever sees two numberings at once. Costs `O(1)`
    /// when nothing changed since the last compaction.
    pub fn compact(&mut self) {
        if self.compacted_at == Some(self.generation) {
            return;
        }
        let map = Renumbering(self.arena.retain_marked(&self.reachable()));
        for state in &mut self.states {
            for e in &mut state.active {
                e.plan = map.plan(e.plan);
            }
            if let Some(cand) = &mut state.cand {
                cand.map_items(|p| map.plan(p));
            }
            state.release_operands();
        }
        self.window = Default::default();
        self.full_res.map_items(|p| map.plan(p));
        for (_, plan) in &mut self.pending_seeds {
            *plan = map.plan(*plan);
        }
        let pairs = std::mem::take(&mut self.pairs);
        for key in pairs.keys().filter_map(|key| map.pair(key)) {
            self.pairs.insert_key(key);
        }
        let stats = &mut self.stats;
        stats.plan_generations = std::mem::take(&mut stats.plan_generations)
            .into_iter()
            .filter_map(|((op, l, r), n)| {
                // Scans are keyed without children.
                let key = if op.is_scan() {
                    (op, l, r)
                } else {
                    (op, map.raw(l)?, map.raw(r)?)
                };
                Some((key, n))
            })
            .collect();
        stats.pair_generations = std::mem::take(&mut stats.pair_generations)
            .into_iter()
            .filter_map(|((a, b), n)| Some(((map.raw(a)?, map.raw(b)?), n)))
            .collect();
        stats.candidate_retrieval_counts = std::mem::take(&mut stats.candidate_retrieval_counts)
            .into_iter()
            .filter_map(|(p, n)| Some((map.raw(p)?, n)))
            .collect();
        self.compacted_at = Some(self.generation);
    }

    /// Number of arena plans a resume can reach (the plans
    /// [`IamaOptimizer::compact`] keeps); equals both `arena().len()` and
    /// `arena().issued()` right after a compaction.
    pub fn reachable_plans(&self) -> usize {
        self.reachable().into_iter().filter(|&live| live).count()
    }

    /// The renumbering [`IamaOptimizer::compact`] would apply now, for a
    /// view of the optimizer as compacted without changing it
    /// ([`IamaOptimizer::export_frontier`]).
    pub(crate) fn renumbering(&self) -> Renumbering {
        Renumbering(renumbering(&self.reachable()))
    }

    /// Marks, by plan id, the closure under children of the active lists,
    /// the candidate entries and the pending seeds. Holes are never
    /// marked: no set refers to one.
    fn reachable(&self) -> Vec<bool> {
        let mut live = vec![false; self.arena.issued()];
        let unbounded = Bounds::unbounded(self.model.dim());
        for state in &self.states {
            for e in &state.active {
                live[e.plan.index()] = true;
            }
            if let Some(cand) = &state.cand {
                cand.scan(&unbounded, u8::MAX, |e| {
                    live[e.item.index()] = true;
                    false
                });
            }
        }
        for (_, plan) in &self.pending_seeds {
            live[plan.index()] = true;
        }
        // Children precede their parents, so one descending pass closes
        // the set.
        for i in (0..live.len()).rev() {
            if live[i] {
                if let Some((l, r)) = self.arena.node(PlanId(i as u32)).children {
                    live[l.index()] = true;
                    live[r.index()] = true;
                }
            }
        }
        live
    }
}

/// The old→new plan ids of a compaction: dense and monotone over the
/// plans a resume can reach, `None` for every other id.
pub(crate) struct Renumbering(Vec<Option<PlanId>>);

impl Renumbering {
    /// Number of plans kept.
    pub(crate) fn kept(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// The new id of a plan a resume reaches.
    pub(crate) fn plan(&self, p: PlanId) -> PlanId {
        self.0[p.index()].expect("a root survives compaction")
    }

    /// The new raw id of `raw`, if it survives.
    pub(crate) fn raw(&self, raw: u32) -> Option<u32> {
        self.0.get(raw as usize).copied().flatten().map(|p| p.0)
    }

    /// An `IsFresh` pair key under the new ids, if both plans survive.
    pub(crate) fn pair(&self, key: u64) -> Option<u64> {
        Some((u64::from(self.raw((key >> 32) as u32)?) << 32) | u64::from(self.raw(key as u32)?))
    }
}

#[cfg(test)]
mod tests {
    use crate::{IamaConfig, IamaOptimizer, InvocationReport};
    use moqo_cost::{Bounds, ResolutionSchedule};
    use moqo_costmodel::{SharedCostModel, StandardCostModel};
    use moqo_plan::PlanId;
    use moqo_query::{testkit, QuerySpec, TableSet};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn model() -> SharedCostModel {
        Arc::new(StandardCostModel::paper_metrics())
    }

    fn schedule() -> ResolutionSchedule {
        ResolutionSchedule::linear(4, 1.05, 0.5)
    }

    fn tracked(spec: &Arc<QuerySpec>) -> IamaOptimizer {
        IamaOptimizer::with_config(spec.clone(), model(), schedule(), IamaConfig::tracked())
    }

    /// Every counter of a report except its wall time.
    fn counters(r: &InvocationReport) -> (u32, usize, u64, [u64; 9], bool) {
        let counts = [
            r.frontier_size as u64,
            r.plans_generated,
            r.candidates_retrieved,
            r.pairs_generated,
            r.result_insertions,
            r.candidate_insertions,
            r.subsets_visited,
            r.splits_visited,
            r.splits_skipped,
        ];
        (
            r.invocation,
            r.resolution,
            r.alpha.to_bits(),
            counts,
            r.used_delta,
        )
    }

    /// The cumulative counters, the invariant maps aside.
    fn totals(o: &IamaOptimizer) -> [u64; 12] {
        let s = o.stats();
        [
            s.plans_generated,
            s.pairs_generated,
            s.candidate_retrievals,
            s.prune_comparisons,
            s.result_insertions,
            s.candidate_insertions,
            s.candidates_discarded,
            s.stale_pairs_skipped,
            s.pairs_skipped_watermark,
            s.subsets_visited,
            s.splits_visited,
            s.splits_skipped,
        ]
    }

    /// The reachable closure, walked from the outside state without the
    /// optimizer's own marking pass.
    fn closure(o: &IamaOptimizer) -> usize {
        let unbounded = Bounds::unbounded(o.model_dim());
        let mut stack: Vec<PlanId> = o.pending_seeds.iter().map(|&(_, p)| p).collect();
        for state in &o.states {
            stack.extend(state.active.iter().map(|e| e.plan));
            if let Some(cand) = &state.cand {
                stack.extend(cand.collect(&unbounded, u8::MAX).iter().map(|e| e.item));
            }
        }
        let mut seen = HashSet::new();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                if let Some((l, r)) = o.arena().node(p).children {
                    stack.extend([l, r]);
                }
            }
        }
        seen.len()
    }

    /// The operator tree under `id` with every node's cost bits, id-free.
    fn tree(o: &IamaOptimizer, id: PlanId) -> Vec<(String, Vec<u64>)> {
        let node = o.arena().node(id);
        let bits = node.cost.as_slice().iter().map(|c| c.to_bits()).collect();
        let mut out = vec![(format!("{:?}", node.op), bits)];
        if let Some((l, r)) = node.children {
            out.extend(tree(o, l));
            out.extend(tree(o, r));
        }
        out
    }

    /// The twins list the same points in the same order, bit for bit,
    /// with ids related by a monotone map and equal plan trees.
    fn assert_same_frontier(plain: &IamaOptimizer, compact: &IamaOptimizer, b: &Bounds, r: usize) {
        let (fp, fc) = (plain.frontier(b, r), compact.frontier(b, r));
        assert_eq!(fp.len(), fc.len(), "frontier sizes differ");
        let mut ids = Vec::new();
        for (p, c) in fp.points.iter().zip(&fc.points) {
            let bits = |v: &moqo_cost::CostVector| -> Vec<u64> {
                v.as_slice().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&p.cost), bits(&c.cost), "cost bits or order differ");
            assert_eq!(
                tree(plain, p.plan),
                tree(compact, c.plan),
                "plan trees differ"
            );
            ids.push((p.plan, c.plan));
        }
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0].1 < w[1].1 || w[0] == w[1]),
            "renumbering is not monotone"
        );
    }

    /// Compacts `o` and checks it kept exactly the reachable closure, and
    /// that a second compaction is a no-op.
    fn compact_and_check(o: &mut IamaOptimizer) {
        let generation = o.generation();
        o.compact();
        assert_eq!(
            o.generation(),
            generation,
            "compaction bumped the generation"
        );
        assert_eq!(
            o.arena().len(),
            closure(o),
            "kept more or less than the closure"
        );
        assert_eq!(o.reachable_plans(), o.arena().len());
        assert_eq!(o.arena().issued(), o.arena().len(), "a hole survived");
        let (len, frontier) = (o.arena().len(), o.frontier(&Bounds::unbounded(3), 4));
        o.compact();
        assert_eq!(o.arena().len(), len, "second compaction changed the arena");
        assert!(o.frontier(&Bounds::unbounded(3), 4).bits_eq(&frontier));
    }

    /// Drives the twins through `steps`, compacting `compact` before each
    /// step `i` with `when(i)`, and checks they stay indistinguishable.
    fn drive(
        plain: &mut IamaOptimizer,
        compact: &mut IamaOptimizer,
        steps: &[(Bounds, usize)],
        when: impl Fn(usize) -> bool,
    ) {
        let r_max = schedule().r_max();
        let unbounded = Bounds::unbounded(3);
        for (i, (b, r)) in steps.iter().enumerate() {
            if when(i) {
                compact_and_check(compact);
            }
            let (rp, rc) = (plain.optimize(b, *r), compact.optimize(b, *r));
            assert_eq!(counters(&rp), counters(&rc), "step {i}: reports differ");
            assert_eq!(totals(plain), totals(compact), "step {i}: counters differ");
            assert_eq!(plain.generation(), compact.generation());
            assert_eq!(plain.pending_seeds(), compact.pending_seeds());
            assert_same_frontier(plain, compact, b, *r);
            assert_same_frontier(plain, compact, &unbounded, r_max);
            let s = compact.stats();
            assert!(s.max_plan_generations() <= 1, "step {i}: Lemma 5");
            assert!(s.max_pair_generations() <= 1, "step {i}: Lemma 6");
            assert!(
                s.max_candidate_retrievals() as usize <= r_max + 1,
                "step {i}: Lemma 7"
            );
        }
        for tables in plain.spec().all_tables().subsets() {
            if tables.len() >= 2 {
                assert_eq!(plain.export_subset(tables), compact.export_subset(tables));
            }
        }
        compact_and_check(compact);
    }

    fn ladder() -> Vec<(Bounds, usize)> {
        let b = Bounds::unbounded(3);
        (0..=schedule().r_max())
            .chain([4, 4])
            .map(|r| (b, r))
            .collect()
    }

    #[test]
    fn compaction_is_invisible_over_a_ladder() {
        let spec = Arc::new(testkit::chain_query(4, 200_000));
        let (mut plain, mut compact) = (tracked(&spec), tracked(&spec));
        drive(&mut plain, &mut compact, &ladder(), |_| true);
        assert!(
            compact.arena().len() < plain.arena().len(),
            "nothing was dropped"
        );
    }

    /// The tighten/drag/loosen series of the Lemma 5–7 churn test.
    fn churn(spec: &Arc<QuerySpec>) -> Vec<(Bounds, usize)> {
        let mut probe = tracked(spec);
        let unb = Bounds::unbounded(3);
        probe.optimize(&unb, 0);
        let t_min = probe.frontier(&unb, 0).min_by_metric(0).unwrap().cost[0];
        vec![
            (unb, 0),
            (unb.with_limit(0, t_min * 3.0), 1),
            (unb.with_limit(0, t_min * 1.2), 0),
            (unb, 2),
            (unb.with_limit(1, 2.0), 0),
            (unb.with_limit(0, t_min * 10.0), 3),
            (unb, 4),
            (unb, 4),
        ]
    }

    #[test]
    fn compaction_is_invisible_under_bound_churn() {
        let spec = Arc::new(testkit::chain_query(4, 200_000));
        let steps = churn(&spec);
        for every in [1, 2, 3] {
            let (mut plain, mut compact) = (tracked(&spec), tracked(&spec));
            drive(&mut plain, &mut compact, &steps, |i| i % every == 1 % every);
        }
    }

    #[test]
    fn a_live_export_is_its_compacted_twins_export() {
        // Mid-storm, a live arena holds holes and plans no resume reaches.
        // Its snapshot is written through compaction's renumbering, so it
        // is byte for byte the snapshot of a twin that ran the same script
        // and was then compacted.
        for spec in [
            Arc::new(testkit::chain_query(4, 200_000)),
            Arc::new(testkit::star_query(4, 120_000)),
        ] {
            let (mut live, mut twin) = (tracked(&spec), tracked(&spec));
            let mut holes = false;
            for (i, (b, r)) in churn(&spec).into_iter().chain(ladder()).enumerate() {
                live.optimize(&b, r);
                twin.optimize(&b, r);
                holes |= live.arena().issued() > live.arena().len();
                twin.compact();
                assert!(
                    live.export_frontier() == twin.export_frontier(),
                    "{}: step {i}: the live export differs",
                    spec.name
                );
            }
            assert!(holes, "{}: no alternative was discarded", spec.name);
            assert!(live.arena().len() > live.reachable_plans(), "nothing died");
        }
    }

    #[test]
    fn compaction_keeps_pending_seeds_and_their_subtrees() {
        // chain(4) is the 4-table prefix of chain(5): its harvested
        // sub-frontiers seed the recipient twins. The first compaction
        // runs right after the import, before any invocation admits the
        // seeds, so it must keep every pending seed and its subtree.
        let donor_spec = Arc::new(testkit::chain_query(4, 150_000));
        let mut donor = tracked(&donor_spec);
        for (b, r) in ladder() {
            donor.optimize(&b, r);
        }
        let spec = Arc::new(testkit::chain_query(5, 150_000));
        let (mut plain, mut compact) = (tracked(&spec), tracked(&spec));
        for tables in TableSet::full(4).subsets().filter(|t| t.len() >= 2) {
            if let Some(blob) = donor.export_subset(tables) {
                plain
                    .seeder(crate::SeedTier::Transplant)
                    .import(tables, &blob)
                    .unwrap();
                compact
                    .seeder(crate::SeedTier::Transplant)
                    .import(tables, &blob)
                    .unwrap();
            }
        }
        let pending = compact.pending_seeds();
        assert!(pending > 0, "nothing was seeded");
        compact_and_check(&mut compact);
        assert_eq!(compact.pending_seeds(), pending, "compaction lost seeds");
        drive(&mut plain, &mut compact, &ladder(), |_| true);
    }

    #[test]
    fn parked_twin_survives_a_snapshot_round_trip() {
        let spec = Arc::new(testkit::chain_query(4, 200_000));
        let (mut plain, mut compact) = (tracked(&spec), tracked(&spec));
        drive(&mut plain, &mut compact, &ladder(), |i| i == 2);
        let mut revived =
            IamaOptimizer::import_frontier(model(), &compact.export_frontier()).unwrap();
        assert_eq!(revived.arena().len(), compact.arena().len());
        let b = Bounds::unbounded(3);
        assert!(revived.frontier(&b, 4).bits_eq(&compact.frontier(&b, 4)));
        assert_eq!(revived.optimize(&b, 4).plans_generated, 0);
    }

    fn step() -> impl Strategy<Value = (Option<(usize, f64)>, usize)> {
        let limit = prop_oneof![1 => Just(None), 2 => (0usize..3, 1.0f64..20.0).prop_map(Some)];
        (limit, 0usize..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Arbitrary bound and resolution series, compacted at arbitrary
        /// points, stay indistinguishable from the uncompacted twin.
        #[test]
        fn compaction_is_invisible_under_any_series(
            steps in proptest::collection::vec(step(), 1..9),
            mask in any::<u16>(),
        ) {
            let spec = Arc::new(testkit::star_query(4, 120_000));
            let (mut plain, mut compact) = (tracked(&spec), tracked(&spec));
            let unb = Bounds::unbounded(3);
            let t_min = {
                let mut probe = tracked(&spec);
                probe.optimize(&unb, 0);
                probe.frontier(&unb, 0).min_by_metric(0).unwrap().cost.as_slice().to_vec()
            };
            let steps: Vec<(Bounds, usize)> = steps
                .into_iter()
                .map(|(limit, r)| match limit {
                    None => (unb, r),
                    Some((m, f)) => (unb.with_limit(m, t_min[m].max(1.0) * f), r),
                })
                .collect();
            drive(&mut plain, &mut compact, &steps, |i| mask >> (i % 16) & 1 == 1);
        }
    }
}
