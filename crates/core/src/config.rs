//! Optimizer configuration.

/// Tunables of [`crate::IamaOptimizer`].
#[derive(Clone, Debug)]
pub struct IamaConfig {
    /// Enable Δ-set filtering in `Fresh`: when an invocation series allows
    /// it, only combine sub-plan pairs involving a plan inserted in the
    /// current invocation. Disabling falls back to `ΔS = S` always — every
    /// invocation re-walks the full cross products, with duplicate pairs
    /// suppressed positionally by the per-split watermark rectangles and,
    /// for pairs combined during churn epochs, by the `IsFresh` hash
    /// fallback; `repro ablations` measures it as `no_delta`.
    pub use_delta: bool,
    /// Consider cross-product joins even when the join graph connects the
    /// two operands nowhere. Off by default (Postgres behaviour).
    pub allow_cross_products: bool,
    /// Track per-plan/per-pair generation and retrieval counts so tests
    /// can verify Lemmas 5–7. Small constant overhead per operation.
    pub track_invariants: bool,
    /// Eager candidate re-indexing: when a plan is approximately dominated
    /// at resolution `r`, compute the *first* level whose precision factor
    /// falls below the best dominator's domination factor and register the
    /// candidate directly there (or discard it if even `alpha_rM` keeps it
    /// dominated). The paper re-indexes dominated candidates at `r + 1`
    /// and re-examines them once per level (Lemma 7's `rM + 1` bound);
    /// skipping levels strengthens the same idea — "the knowledge gained
    /// in the current invocation ... is not lost" — and preserves the
    /// Theorem 1/2 guarantees because the dominating witness stays in the
    /// result set forever. Disable for strict pseudo-code behaviour
    /// (`repro ablations` measures it as `no_eager_requeue`).
    pub eager_level_skip: bool,
    /// Shadow strictly-dominated result plans: when a new result plan
    /// plainly dominates an existing one (and can substitute for it
    /// order-wise), the old plan stops participating in *future* sub-plan
    /// combinations. The paper keeps dominated result plans combinable
    /// because "discarding a result plan would require to discard at the
    /// same time all plans that use it as sub-plan" — but with an
    /// append-only arena nothing needs physical removal: the shadowed
    /// plan's node, its active-list entry (a tombstone that remains a
    /// valid pruning witness), and all plans built on it stay intact.
    /// Every coverage witness the Theorem 1/2 induction needs re-routes
    /// through the dominating plan, so the approximation guarantee is
    /// unaffected (the integration tests verify it in both modes).
    /// Without shadowing, synthetic cost spaces inflate result sets
    /// several-fold, which quadratically inflates pair generation
    /// (`repro ablations` measures it as `no_shadowing`).
    pub shadow_dominated: bool,
    /// Accumulate the wall-clock nanoseconds spent in the pruning
    /// witness search into `OptimizerStats::prune_nanos`. Off by
    /// default: two clock reads per generated plan are measurable
    /// against sub-microsecond scans. `repro pruning` switches it on to
    /// report the prune-path share of invocation time. Not serialized
    /// in snapshots (pure diagnostics).
    pub time_pruning: bool,
    /// Upper bound on warm-start **seed** candidates (rebased or
    /// transplanted plans, see [`crate::IamaOptimizer::rebase_from`] and
    /// [`crate::IamaOptimizer::import_subset`]) admitted into the
    /// candidate sets per invocation. Seeds beyond the cap wait in a
    /// plain pending queue — already replayed and re-costed, but not yet
    /// indexed — and are admitted in FIFO order at the start of later
    /// invocations, amortizing the drain of a very warm donor across the
    /// refinement ladder instead of paying it all in the first
    /// invocation's candidate phase. Seeding is an accelerant, never a
    /// correctness input, so deferral (or even loss, when a session ends
    /// before its queue empties) cannot weaken Theorem 2: native
    /// enumeration still covers every plan. The default is generous
    /// enough that typical donors are admitted in one slice; not
    /// serialized in snapshots (imports run with the default).
    pub max_seeds_per_slice: usize,
}

impl Default for IamaConfig {
    fn default() -> Self {
        Self {
            use_delta: true,
            allow_cross_products: false,
            track_invariants: false,
            eager_level_skip: true,
            shadow_dominated: true,
            time_pruning: false,
            max_seeds_per_slice: 4096,
        }
    }
}

impl IamaConfig {
    /// Default configuration with invariant tracking enabled (for tests).
    pub fn tracked() -> Self {
        Self {
            track_invariants: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = IamaConfig::default();
        assert!(c.use_delta);
        assert!(!c.allow_cross_products);
        assert!(!c.track_invariants);
        assert!(c.eager_level_skip);
        assert!(c.shadow_dominated);
        assert!(!c.time_pruning);
        assert_eq!(c.max_seeds_per_slice, 4096);
        assert!(IamaConfig::tracked().track_invariants);
    }
}
