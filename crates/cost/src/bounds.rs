//! User cost bounds.
//!
//! The paper models bounds as a cost vector `b`; a plan `p` *respects* the
//! bounds when `c(p) ⪯ b` and *exceeds* them otherwise (Section 3). An
//! unbounded metric is represented by `+∞`, matching the evaluation setup
//! where "the cost bounds are initially fixed to ∞".

use crate::vector::CostVector;
use std::fmt;

/// Upper cost bounds `b` restricting the area of interest in cost space.
#[derive(Clone, Copy, PartialEq)]
pub struct Bounds {
    limits: CostVector,
}

impl Bounds {
    /// Bounds from explicit per-metric limits (use `f64::INFINITY` for
    /// unconstrained metrics).
    #[inline]
    pub fn new(limits: CostVector) -> Self {
        Self { limits }
    }

    /// Completely unconstrained bounds for `dim` metrics.
    #[inline]
    pub fn unbounded(dim: usize) -> Self {
        Self {
            limits: CostVector::from_fn(dim, |_| f64::INFINITY),
        }
    }

    /// Bounds from a slice of limits.
    #[inline]
    pub fn from_slice(limits: &[f64]) -> Self {
        Self {
            limits: CostVector::new(limits),
        }
    }

    /// Number of metrics.
    #[inline]
    pub fn dim(&self) -> usize {
        self.limits.dim()
    }

    /// The underlying limit vector.
    #[inline]
    pub fn limits(&self) -> &CostVector {
        &self.limits
    }

    /// True if a plan with cost `c` respects these bounds (`c ⪯ b`).
    #[inline]
    pub fn respects(&self, c: &CostVector) -> bool {
        c.dominates(&self.limits)
    }

    /// True if a plan with cost `c` exceeds these bounds.
    #[inline]
    pub fn exceeds(&self, c: &CostVector) -> bool {
        !self.respects(c)
    }

    /// True if no metric is constrained.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.limits.as_slice().iter().all(|v| v.is_infinite())
    }

    /// True if `self` is at least as permissive as `other` on every metric
    /// (`other.limits ⪯ self.limits`): every plan respecting `other` also
    /// respects `self`.
    #[inline]
    pub fn contains(&self, other: &Bounds) -> bool {
        other.limits.dominates(&self.limits)
    }

    /// Returns a copy with the limit for `metric` replaced by `limit`.
    #[inline]
    #[must_use]
    pub fn with_limit(&self, metric: usize, limit: f64) -> Self {
        assert!(metric < self.dim(), "metric index out of range");
        Self {
            limits: CostVector::from_fn(self.dim(), |i| {
                if i == metric {
                    limit
                } else {
                    self.limits[i]
                }
            }),
        }
    }

    /// Component-wise intersection (tightest of both bounds per metric).
    #[inline]
    #[must_use]
    pub fn intersect(&self, other: &Bounds) -> Self {
        Self {
            limits: self.limits.min(&other.limits),
        }
    }
}

impl fmt::Debug for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bounds{:?}", self.limits)
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.limits.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if v.is_infinite() {
                write!(f, "∞")?;
            } else {
                write!(f, "{v:.3}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_accepts_everything_finite() {
        let b = Bounds::unbounded(3);
        assert!(b.is_unbounded());
        assert!(b.respects(&CostVector::new(&[1e300, 0.0, 42.0])));
    }

    #[test]
    fn respects_and_exceeds_are_complements() {
        let b = Bounds::from_slice(&[10.0, 5.0]);
        let inside = CostVector::new(&[10.0, 5.0]);
        let outside = CostVector::new(&[10.0, 5.1]);
        assert!(b.respects(&inside));
        assert!(!b.exceeds(&inside));
        assert!(b.exceeds(&outside));
        assert!(!b.respects(&outside));
    }

    #[test]
    fn with_limit_replaces_single_metric() {
        let b = Bounds::unbounded(2).with_limit(1, 7.0);
        assert!(b.respects(&CostVector::new(&[1e9, 7.0])));
        assert!(b.exceeds(&CostVector::new(&[0.0, 7.5])));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_limit_rejects_bad_metric() {
        let _ = Bounds::unbounded(2).with_limit(2, 1.0);
    }

    #[test]
    fn containment() {
        let loose = Bounds::from_slice(&[10.0, 10.0]);
        let tight = Bounds::from_slice(&[5.0, 10.0]);
        assert!(loose.contains(&tight));
        assert!(!tight.contains(&loose));
        assert!(Bounds::unbounded(2).contains(&tight));
        assert!(loose.contains(&loose));
    }

    #[test]
    fn intersect_takes_tightest_limits() {
        let a = Bounds::from_slice(&[10.0, 3.0]);
        let b = Bounds::from_slice(&[4.0, 8.0]);
        let i = a.intersect(&b);
        assert_eq!(i.limits().as_slice(), &[4.0, 3.0]);
        assert!(a.contains(&i) && b.contains(&i));
    }

    #[test]
    fn display_renders_infinity() {
        let b = Bounds::unbounded(2).with_limit(0, 2.0);
        assert_eq!(format!("{b}"), "[2.000, ∞]");
    }
}
