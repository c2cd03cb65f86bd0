//! Integer index-space vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point in the 3-D integer index space (AMReX `IntVect`).
///
/// Components are `i64` so that coarse-domain extents for the largest Summit
/// weak-scaling case (4.19e10 equivalent grid points) and any shifted ghost
/// indices are representable without overflow anywhere in box arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntVect(pub [i64; 3]);

impl IntVect {
    /// The zero vector.
    pub const ZERO: IntVect = IntVect([0, 0, 0]);
    /// The all-ones vector.
    pub const ONE: IntVect = IntVect([1, 1, 1]);

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(i: i64, j: i64, k: i64) -> Self {
        IntVect([i, j, k])
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: i64) -> Self {
        IntVect([v, v, v])
    }

    /// Creates a unit vector along direction `dir` (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn unit(dir: usize) -> Self {
        let mut v = [0; 3];
        v[dir] = 1;
        IntVect(v)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        IntVect([
            self.0[0].min(other.0[0]),
            self.0[1].min(other.0[1]),
            self.0[2].min(other.0[2]),
        ])
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        IntVect([
            self.0[0].max(other.0[0]),
            self.0[1].max(other.0[1]),
            self.0[2].max(other.0[2]),
        ])
    }

    /// `true` if every component of `self` is `<=` the matching component of `other`.
    #[inline]
    pub fn all_le(self, other: Self) -> bool {
        (0..3).all(|d| self.0[d] <= other.0[d])
    }

    /// `true` if every component of `self` is `<` the matching component of `other`.
    #[inline]
    pub fn all_lt(self, other: Self) -> bool {
        (0..3).all(|d| self.0[d] < other.0[d])
    }

    /// Floor division by a (positive) refinement ratio, component-wise.
    ///
    /// This is the coarsening map of AMReX: it rounds *toward negative
    /// infinity* so that cells with negative indices coarsen consistently.
    #[inline]
    pub fn coarsen(self, ratio: IntVect) -> Self {
        let cf = |x: i64, r: i64| {
            debug_assert!(r > 0);
            x.div_euclid(r)
        };
        IntVect([
            cf(self.0[0], ratio.0[0]),
            cf(self.0[1], ratio.0[1]),
            cf(self.0[2], ratio.0[2]),
        ])
    }

    /// Component-wise multiplication by a refinement ratio.
    #[inline]
    pub fn refine(self, ratio: IntVect) -> Self {
        IntVect([
            self.0[0] * ratio.0[0],
            self.0[1] * ratio.0[1],
            self.0[2] * ratio.0[2],
        ])
    }

    /// Sum of components.
    #[inline]
    pub fn sum(self) -> i64 {
        self.0[0] + self.0[1] + self.0[2]
    }

    /// Product of components (as i128 to avoid overflow on huge domains).
    #[inline]
    pub fn prod(self) -> i128 {
        self.0[0] as i128 * self.0[1] as i128 * self.0[2] as i128
    }

    /// Largest component value.
    #[inline]
    pub fn max_component(self) -> i64 {
        self.0[0].max(self.0[1]).max(self.0[2])
    }

    /// Smallest component value.
    #[inline]
    pub fn min_component(self) -> i64 {
        self.0[0].min(self.0[1]).min(self.0[2])
    }

    /// The direction (0, 1, or 2) holding the largest component; ties resolve
    /// to the lowest direction index.
    #[inline]
    pub fn argmax(self) -> usize {
        let mut best = 0;
        for d in 1..3 {
            if self.0[d] > self.0[best] {
                best = d;
            }
        }
        best
    }
}

impl fmt::Debug for IntVect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.0[0], self.0[1], self.0[2])
    }
}

impl fmt::Display for IntVect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Index<usize> for IntVect {
    type Output = i64;
    #[inline]
    fn index(&self, d: usize) -> &i64 {
        &self.0[d]
    }
}

impl IndexMut<usize> for IntVect {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut i64 {
        &mut self.0[d]
    }
}

impl Add for IntVect {
    type Output = IntVect;
    #[inline]
    fn add(self, rhs: IntVect) -> IntVect {
        IntVect([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
        ])
    }
}

impl AddAssign for IntVect {
    #[inline]
    fn add_assign(&mut self, rhs: IntVect) {
        *self = *self + rhs;
    }
}

impl Sub for IntVect {
    type Output = IntVect;
    #[inline]
    fn sub(self, rhs: IntVect) -> IntVect {
        IntVect([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
        ])
    }
}

impl SubAssign for IntVect {
    #[inline]
    fn sub_assign(&mut self, rhs: IntVect) {
        *self = *self - rhs;
    }
}

impl Neg for IntVect {
    type Output = IntVect;
    #[inline]
    fn neg(self) -> IntVect {
        IntVect([-self.0[0], -self.0[1], -self.0[2]])
    }
}

impl Mul<i64> for IntVect {
    type Output = IntVect;
    #[inline]
    fn mul(self, s: i64) -> IntVect {
        IntVect([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl Div<i64> for IntVect {
    type Output = IntVect;
    /// Floor division by a positive scalar (consistent with [`IntVect::coarsen`]).
    #[inline]
    fn div(self, s: i64) -> IntVect {
        self.coarsen(IntVect::splat(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = IntVect::new(1, -2, 3);
        let b = IntVect::new(4, 5, -6);
        assert_eq!(a + b - b, a);
        assert_eq!(-(-a), a);
        assert_eq!(a * 2, IntVect::new(2, -4, 6));
    }

    #[test]
    fn coarsen_rounds_toward_negative_infinity() {
        let r = IntVect::splat(2);
        assert_eq!(IntVect::new(-1, 0, 1).coarsen(r), IntVect::new(-1, 0, 0));
        assert_eq!(IntVect::new(-2, 2, 3).coarsen(r), IntVect::new(-1, 1, 1));
        assert_eq!(IntVect::new(-3, -4, 5).coarsen(r), IntVect::new(-2, -2, 2));
    }

    #[test]
    fn refine_then_coarsen_is_identity() {
        let r = IntVect::new(2, 4, 2);
        for i in -5..5 {
            let v = IntVect::new(i, i + 1, i - 1);
            assert_eq!(v.refine(r).coarsen(r), v);
        }
    }

    #[test]
    fn min_max_component_queries() {
        let v = IntVect::new(3, 9, -1);
        assert_eq!(v.max_component(), 9);
        assert_eq!(v.min_component(), -1);
        assert_eq!(v.argmax(), 1);
        assert_eq!(v.sum(), 11);
        assert_eq!(v.prod(), -27);
    }

    #[test]
    fn unit_vectors() {
        assert_eq!(IntVect::unit(0), IntVect::new(1, 0, 0));
        assert_eq!(IntVect::unit(1), IntVect::new(0, 1, 0));
        assert_eq!(IntVect::unit(2), IntVect::new(0, 0, 1));
    }

    #[test]
    fn ordering_comparisons() {
        let a = IntVect::new(0, 5, 0);
        let b = IntVect::new(1, 5, 2);
        assert!(a.all_le(b));
        assert!(!a.all_lt(b)); // y components are equal
        assert!(IntVect::ZERO.all_lt(IntVect::ONE));
    }
}
