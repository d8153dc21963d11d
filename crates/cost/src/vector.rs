//! Fixed-capacity cost vectors.
//!
//! The paper treats the number of cost metrics `l` as a small constant
//! (Section 3); the evaluation uses `l = 3`. We therefore store cost vectors
//! inline in a fixed array of [`MAX_DIM`] lanes, which keeps them `Copy` and
//! avoids a heap allocation per plan — plans are created millions of times
//! during dynamic programming.

use std::fmt;
use std::ops::Index;

/// Maximum supported number of cost metrics.
///
/// The paper's generic approximation schemes were evaluated with up to six
/// metrics; eight lanes leave headroom without bloating the per-plan
/// footprint (64 bytes of cost payload).
pub const MAX_DIM: usize = 8;

/// A plan cost vector `c(p)` in `R^l_+` (component-wise non-negative).
///
/// Lower values are better for every metric. Metrics where "more is better"
/// (e.g. result precision) must be encoded as a loss (e.g. `1 - precision`)
/// before entering the optimizer; `moqo-costmodel` does this.
#[derive(Clone, Copy, PartialEq)]
pub struct CostVector {
    vals: [f64; MAX_DIM],
    dim: u8,
}

impl CostVector {
    /// Creates a cost vector from a slice of per-metric values.
    ///
    /// # Panics
    /// Panics if `values.len() > MAX_DIM`, if any value is negative, or if
    /// any value is NaN. Infinite components are allowed (used for bounds).
    #[inline]
    pub fn new(values: &[f64]) -> Self {
        assert!(
            values.len() <= MAX_DIM,
            "cost vector dimension {} exceeds MAX_DIM {}",
            values.len(),
            MAX_DIM
        );
        let mut vals = [0.0; MAX_DIM];
        for (i, &v) in values.iter().enumerate() {
            assert!(!v.is_nan(), "cost component {i} is NaN");
            assert!(v >= 0.0, "cost component {i} is negative: {v}");
            vals[i] = v;
        }
        Self {
            vals,
            dim: values.len() as u8,
        }
    }

    /// The zero vector with `dim` components.
    #[inline]
    pub fn zeros(dim: usize) -> Self {
        assert!(dim <= MAX_DIM);
        Self {
            vals: [0.0; MAX_DIM],
            dim: dim as u8,
        }
    }

    /// Builds a vector by evaluating `f` for each metric index.
    ///
    /// # Panics
    /// Panics under the same component rules as [`CostVector::new`]: NaN
    /// and negative values are rejected in all build profiles (a NaN that
    /// slipped through here would silently poison every dominance test it
    /// ever participates in), infinite values are allowed.
    #[inline]
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        assert!(dim <= MAX_DIM);
        let mut vals = [0.0; MAX_DIM];
        for (i, slot) in vals.iter_mut().enumerate().take(dim) {
            let v = f(i);
            assert!(!v.is_nan(), "cost component {i} is NaN");
            assert!(v >= 0.0, "cost component {i} is negative: {v}");
            *slot = v;
        }
        Self {
            vals,
            dim: dim as u8,
        }
    }

    /// Number of cost metrics.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The per-metric values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.dim as usize]
    }

    /// Component-wise scaling by a non-negative factor (`alpha * c`).
    ///
    /// Used for approximate-dominance tests: scaling a cost vector by a
    /// factor greater than one makes the plan look worse than it is, which
    /// relaxes the Pareto-set requirement (Section 3).
    #[inline]
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0);
        let mut out = *self;
        for v in out.vals[..self.dim as usize].iter_mut() {
            *v *= factor;
        }
        out
    }

    /// Component-wise sum.
    #[inline]
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// Component-wise maximum.
    #[inline]
    #[must_use]
    pub fn max(&self, other: &Self) -> Self {
        self.zip_with(other, f64::max)
    }

    /// Component-wise minimum.
    #[inline]
    #[must_use]
    pub fn min(&self, other: &Self) -> Self {
        self.zip_with(other, f64::min)
    }

    /// Component-wise combination with an arbitrary operator.
    #[inline]
    #[must_use]
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        assert_eq!(self.dim, other.dim, "cost vector dimension mismatch");
        let mut out = *self;
        for (v, o) in out.vals[..self.dim as usize]
            .iter_mut()
            .zip(other.vals[..other.dim as usize].iter())
        {
            *v = f(*v, *o);
        }
        out
    }

    /// `self` dominates `other`: `self[i] <= other[i]` for every metric.
    ///
    /// This is the paper's `c(p1) <= c(p2)` relation ("p1 is at least as
    /// good as p2").
    #[inline]
    pub fn dominates(&self, other: &Self) -> bool {
        assert_eq!(self.dim, other.dim, "cost vector dimension mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a <= b)
    }

    /// `self` strictly dominates `other`: dominates and is strictly better
    /// on at least one metric.
    #[inline]
    pub fn strictly_dominates(&self, other: &Self) -> bool {
        self.dominates(other) && self.as_slice() != other.as_slice()
    }

    /// Approximate dominance: `self <= factor * other` component-wise.
    ///
    /// Avoids materializing the scaled vector.
    #[inline]
    pub fn dominates_scaled(&self, other: &Self, factor: f64) -> bool {
        assert_eq!(self.dim, other.dim, "cost vector dimension mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| *a <= factor * *b)
    }

    /// The smallest factor `alpha` such that `self <= alpha * other`
    /// component-wise, or `f64::INFINITY` if no finite factor works (a
    /// component of `other` is zero while `self`'s is positive).
    #[inline]
    pub fn domination_factor(&self, other: &Self) -> f64 {
        assert_eq!(self.dim, other.dim, "cost vector dimension mismatch");
        let mut factor: f64 = 0.0;
        for (a, b) in self.as_slice().iter().zip(other.as_slice()) {
            if *a <= 0.0 {
                continue; // zero cost is covered by any factor
            }
            if *b <= 0.0 {
                return f64::INFINITY;
            }
            factor = factor.max(a / b);
        }
        factor
    }

    /// True if every component is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }

    /// The maximum component value.
    #[inline]
    pub fn max_component(&self) -> f64 {
        self.as_slice().iter().copied().fold(0.0, f64::max)
    }
}

impl Index<usize> for CostVector {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl fmt::Debug for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cost")?;
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let c = CostVector::new(&[1.0, 2.0, 3.0]);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c[1], 2.0);
    }

    #[test]
    fn zeros_is_all_zero() {
        let z = CostVector::zeros(4);
        assert_eq!(z.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn from_fn_builds_components() {
        let c = CostVector::from_fn(3, |i| (i * i) as f64);
        assert_eq!(c.as_slice(), &[0.0, 1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_components() {
        CostVector::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_components() {
        CostVector::new(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn from_fn_rejects_negative_components() {
        CostVector::from_fn(2, |i| if i == 1 { -1.0 } else { 0.0 });
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn from_fn_rejects_nan_components() {
        CostVector::from_fn(1, |_| f64::NAN);
    }

    #[test]
    fn from_fn_allows_infinite_components() {
        let c = CostVector::from_fn(2, |_| f64::INFINITY);
        assert!(!c.is_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIM")]
    fn rejects_oversized_vectors() {
        CostVector::new(&[0.0; MAX_DIM + 1]);
    }

    #[test]
    fn scaling() {
        let c = CostVector::new(&[1.0, 2.0]);
        assert_eq!(c.scaled(1.5).as_slice(), &[1.5, 3.0]);
        assert_eq!(c.scaled(0.0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = CostVector::new(&[1.0, 5.0]);
        let b = CostVector::new(&[2.0, 3.0]);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 8.0]);
        assert_eq!(a.max(&b).as_slice(), &[2.0, 5.0]);
        assert_eq!(a.min(&b).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn dominance_basic() {
        let a = CostVector::new(&[1.0, 2.0]);
        let b = CostVector::new(&[1.0, 3.0]);
        assert!(a.dominates(&b));
        assert!(a.strictly_dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
        assert!(!a.strictly_dominates(&a));
    }

    #[test]
    fn dominance_incomparable() {
        let a = CostVector::new(&[1.0, 4.0]);
        let b = CostVector::new(&[2.0, 3.0]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn scaled_dominance() {
        let a = CostVector::new(&[2.0, 2.0]);
        let b = CostVector::new(&[1.5, 1.5]);
        // a does not dominate b, but a <= 1.5 * b.
        assert!(!a.dominates(&b));
        assert!(a.dominates_scaled(&b, 1.5));
        assert!(!a.dominates_scaled(&b, 1.2));
    }

    #[test]
    fn domination_factor_matches_scaled_test() {
        let a = CostVector::new(&[2.0, 6.0]);
        let b = CostVector::new(&[1.0, 2.0]);
        let f = a.domination_factor(&b);
        assert_eq!(f, 3.0);
        assert!(a.dominates_scaled(&b, f));
        assert!(!a.dominates_scaled(&b, f * 0.999));
    }

    #[test]
    fn domination_factor_zero_handling() {
        let a = CostVector::new(&[0.0, 0.0]);
        let b = CostVector::new(&[0.0, 1.0]);
        assert_eq!(a.domination_factor(&b), 0.0);
        let c = CostVector::new(&[1.0, 0.0]);
        let d = CostVector::new(&[0.0, 1.0]);
        assert_eq!(c.domination_factor(&d), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dominance_requires_matching_dims() {
        let a = CostVector::new(&[1.0]);
        let b = CostVector::new(&[1.0, 2.0]);
        let _ = a.dominates(&b);
    }

    #[test]
    fn display_formats_components() {
        let c = CostVector::new(&[1.0, 2.5]);
        assert_eq!(format!("{c}"), "(1.000, 2.500)");
    }

    #[test]
    fn max_component_and_finiteness() {
        let c = CostVector::new(&[1.0, 7.0, 2.0]);
        assert_eq!(c.max_component(), 7.0);
        assert!(c.is_finite());
        let b = CostVector::new(&[f64::INFINITY]);
        assert!(!b.is_finite());
    }
}
