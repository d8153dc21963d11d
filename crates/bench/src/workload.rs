//! Shared experiment configuration.

use moqo_cost::ResolutionSchedule;
use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};

/// A tiny deterministic xorshift generator so benchmark inputs are
/// reproducible without external crates in library code. Shared by the
/// traffic-replay and churn experiments.
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (`seed | 1`, so zero seeds still cycle).
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The cost model used for figure reproduction: the paper's three metrics
/// (time, cores, error) over the full operator space, with Postgres-style
/// fuzzy cost granularity (1 % multiplicative grid, cf. Postgres's
/// `STD_FUZZ_FACTOR`) so that Pareto sets saturate at fine resolutions the
/// way real optimizer cost spaces do.
pub fn bench_model() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            quantize_grid: Some(1.02),
            dops: vec![1, 4],
            sampling_rates_pm: vec![500],
            eval_spin: 400,
            ..StandardCostModelConfig::default()
        },
    )
}

/// A reduced operator space (fewer parallel degrees and sampling rates)
/// for experiments that need an exhaustive ground truth.
pub fn bench_model_small() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            ..StandardCostModelConfig::default()
        },
    )
}

/// Parameters of one figure-reproduction run.
#[derive(Clone, Debug)]
pub struct ExperimentSetup {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Target precision `alpha_T`.
    pub alpha_t: f64,
    /// Precision step `alpha_S`.
    pub alpha_s: f64,
    /// Numbers of resolution levels to compare (the paper uses 1, 5, 20).
    pub level_counts: Vec<usize>,
}

impl ExperimentSetup {
    /// Figure 3 setup: moderate target precision.
    pub fn fig3() -> Self {
        Self {
            sf: 1.0,
            alpha_t: 1.01,
            alpha_s: 0.05,
            level_counts: vec![1, 5, 20],
        }
    }

    /// Figure 4/5 setup: fine target precision.
    pub fn fig4() -> Self {
        Self {
            sf: 1.0,
            alpha_t: 1.005,
            alpha_s: 0.5,
            level_counts: vec![1, 5, 20],
        }
    }

    /// The schedule for a given number of resolution levels.
    pub fn schedule(&self, levels: usize) -> ResolutionSchedule {
        assert!(levels >= 1);
        ResolutionSchedule::linear(levels - 1, self.alpha_t, self.alpha_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_setups_match_the_paper() {
        let f3 = ExperimentSetup::fig3();
        assert_eq!(f3.alpha_t, 1.01);
        assert_eq!(f3.alpha_s, 0.05);
        let f4 = ExperimentSetup::fig4();
        assert_eq!(f4.alpha_t, 1.005);
        assert_eq!(f4.alpha_s, 0.5);
        assert_eq!(f3.level_counts, vec![1, 5, 20]);
    }

    #[test]
    fn schedule_has_requested_levels() {
        let s = ExperimentSetup::fig3().schedule(5);
        assert_eq!(s.levels(), 5);
        assert!((s.target_factor() - 1.01).abs() < 1e-12);
        let one = ExperimentSetup::fig3().schedule(1);
        assert_eq!(one.levels(), 1);
    }
}
