//! Instrumentation counters for the incremental invariants (Lemmas 5–7).

use moqo_index::FxHashMap;
use moqo_plan::Operator;

/// Aggregate and (optionally) per-plan counters maintained by the
/// optimizer. The per-plan maps are only filled when
/// [`crate::IamaConfig::track_invariants`] is set.
#[derive(Clone, Debug, Default)]
pub struct OptimizerStats {
    /// Plans ever constructed (scan + join alternatives), each with its
    /// own plan id; the arena stores only those that were kept.
    pub plans_generated: u64,
    /// Ordered sub-plan pairs combined in `Fresh`.
    pub pairs_generated: u64,
    /// Candidate entries retrieved (drained) in phase 1.
    pub candidate_retrievals: u64,
    /// Active-list entries examined by the pruning witness search: every
    /// entry the pass walked before it stopped, in range or not. Includes
    /// the searches that test cost floors before costing (see
    /// `costings_skipped`).
    pub prune_comparisons: u64,
    /// Wall-clock nanoseconds spent in the pruning witness search, the
    /// floor tests included; a floor test on a cost-pool helper counts
    /// its own thread's time. Accumulated only when
    /// [`crate::IamaConfig::time_pruning`] is set; otherwise stays 0.
    pub prune_nanos: u64,
    /// Insertions into result sets.
    pub result_insertions: u64,
    /// Insertions into candidate sets.
    pub candidate_insertions: u64,
    /// Candidates discarded at the maximal resolution.
    pub candidates_discarded: u64,
    /// Join alternatives `Prune` would discard that were never costed:
    /// their floor ([`moqo_costmodel::CostModel::join_floors`]) was
    /// already dominated. Each also counts in `plans_generated` and
    /// `candidates_discarded`. Session-local: not serialized into full
    /// frontier snapshots nor reported per invocation, so after an
    /// import it counts only the skips since.
    pub costings_skipped: u64,
    /// Pairs skipped by the `IsFresh` hash fallback (combined during an
    /// earlier churn epoch and not yet covered by a watermark rectangle).
    pub stale_pairs_skipped: u64,
    /// Pairs skipped positionally by a split's watermark rectangle during
    /// a full (non-Δ) recombine — the hash-free fast path for Lemma 6.
    pub pairs_skipped_watermark: u64,
    /// Enumerated subsets visited in phase 2 (those owning at least one
    /// valid split; singletons and irrelevant subsets are never walked).
    pub subsets_visited: u64,
    /// Splits whose operand pair loop actually ran.
    pub splits_visited: u64,
    /// Splits settled without touching a single entry: empty operand,
    /// watermark rectangle covering the whole cross product, or the
    /// empty-Δ short-circuit.
    pub splits_skipped: u64,
    /// High-water mark of the reusable per-subset operand buffers (left
    /// plus right view of the largest combination), the peak transient
    /// footprint of phase 2.
    pub scratch_high_water: usize,
    /// Plans re-admitted as level-0 candidates from a transplanted
    /// sub-frontier blob ([`crate::SeedTier::Transplant`]). These plans
    /// were *not* generated by this optimizer — they arrive re-costed under the live
    /// model and re-enter through pruning like any candidate, so they are
    /// deliberately excluded from `plans_generated` and the Lemma 5 map.
    /// Session-local: not serialized into full frontier snapshots.
    pub transplanted_candidates: u64,
    /// Plans re-admitted as level-0 candidates by a stats-drift rebase
    /// from a parked donor optimizer's harvested blobs
    /// ([`crate::SeedTier::Rebase`]). Session-local: not serialized into
    /// full frontier snapshots.
    pub rebased_candidates: u64,

    /// Per-plan-signature generation counts (Lemma 5), keyed by
    /// `(operator, left child, right child)`. Tracked only on demand.
    pub plan_generations: FxHashMap<(Operator, u32, u32), u32>,
    /// Per-ordered-pair generation counts (Lemma 6). Tracked only on
    /// demand; `IsFresh` should keep every count at 1.
    pub pair_generations: FxHashMap<(u32, u32), u32>,
    /// Per-plan candidate retrieval counts (Lemma 7).
    pub candidate_retrieval_counts: FxHashMap<u32, u32>,
}

impl OptimizerStats {
    /// The maximum number of times any single plan signature was
    /// generated. Lemma 5 requires this to be at most 1.
    pub fn max_plan_generations(&self) -> u32 {
        self.plan_generations.values().copied().max().unwrap_or(0)
    }

    /// The maximum number of times any ordered sub-plan pair was
    /// generated. Lemma 6 requires this to be at most 1.
    pub fn max_pair_generations(&self) -> u32 {
        self.pair_generations.values().copied().max().unwrap_or(0)
    }

    /// The maximum number of times any plan was retrieved from a
    /// candidate set. Lemma 7 requires this to be at most `rM + 1`.
    pub fn max_candidate_retrievals(&self) -> u32 {
        self.candidate_retrieval_counts
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxima_over_empty_maps_are_zero() {
        let s = OptimizerStats::default();
        assert_eq!(s.max_plan_generations(), 0);
        assert_eq!(s.max_pair_generations(), 0);
        assert_eq!(s.max_candidate_retrievals(), 0);
    }

    #[test]
    fn maxima_pick_the_largest_count() {
        let mut s = OptimizerStats::default();
        s.pair_generations.insert((1, 2), 1);
        s.pair_generations.insert((3, 4), 5);
        assert_eq!(s.max_pair_generations(), 5);
        s.candidate_retrieval_counts.insert(9, 3);
        assert_eq!(s.max_candidate_retrievals(), 3);
    }
}
