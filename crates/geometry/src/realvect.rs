//! Physical-space vectors.

use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A point (or displacement) in physical `(x, y, z)` space.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct RealVect(pub [f64; 3]);

impl RealVect {
    /// The origin.
    pub const ZERO: RealVect = RealVect([0.0, 0.0, 0.0]);

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        RealVect([x, y, z])
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        RealVect([v, v, v])
    }

    /// Euclidean dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f64 {
        self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Self) -> Self {
        RealVect([
            self.0[1] * o.0[2] - self.0[2] * o.0[1],
            self.0[2] * o.0[0] - self.0[0] * o.0[2],
            self.0[0] * o.0[1] - self.0[1] * o.0[0],
        ])
    }

    /// Component-wise product.
    #[inline]
    pub fn hadamard(self, o: Self) -> Self {
        RealVect([self.0[0] * o.0[0], self.0[1] * o.0[1], self.0[2] * o.0[2]])
    }

    /// Largest absolute component.
    #[inline]
    pub fn linf(self) -> f64 {
        self.0[0].abs().max(self.0[1].abs()).max(self.0[2].abs())
    }
}

impl fmt::Debug for RealVect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6e},{:.6e},{:.6e})", self.0[0], self.0[1], self.0[2])
    }
}

impl Index<usize> for RealVect {
    type Output = f64;
    #[inline]
    fn index(&self, d: usize) -> &f64 {
        &self.0[d]
    }
}

impl IndexMut<usize> for RealVect {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut f64 {
        &mut self.0[d]
    }
}

impl Add for RealVect {
    type Output = RealVect;
    #[inline]
    fn add(self, o: RealVect) -> RealVect {
        RealVect([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl Sub for RealVect {
    type Output = RealVect;
    #[inline]
    fn sub(self, o: RealVect) -> RealVect {
        RealVect([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl Neg for RealVect {
    type Output = RealVect;
    #[inline]
    fn neg(self) -> RealVect {
        RealVect([-self.0[0], -self.0[1], -self.0[2]])
    }
}

impl Mul<f64> for RealVect {
    type Output = RealVect;
    #[inline]
    fn mul(self, s: f64) -> RealVect {
        RealVect([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl Div<f64> for RealVect {
    type Output = RealVect;
    #[inline]
    fn div(self, s: f64) -> RealVect {
        RealVect([self.0[0] / s, self.0[1] / s, self.0[2] / s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let v = RealVect::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(RealVect::new(1.0, 1.0, 1.0)), 7.0);
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = RealVect::new(1.0, 2.0, 3.0);
        let b = RealVect::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-14);
        assert!(c.dot(b).abs() < 1e-14);
    }

    #[test]
    fn arithmetic() {
        let a = RealVect::new(1.0, 2.0, 3.0);
        assert_eq!((a + a) / 2.0, a);
        assert_eq!(a - a, RealVect::ZERO);
        assert_eq!(a * 0.0, RealVect::ZERO);
        assert_eq!((-a).linf(), 3.0);
        assert_eq!(a.hadamard(a), RealVect::new(1.0, 4.0, 9.0));
    }
}
