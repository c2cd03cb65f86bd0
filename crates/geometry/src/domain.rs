//! The problem domain: coarse-level index box plus periodicity.

use crate::ibox::IndexBox;
use crate::intvect::IntVect;

/// The computational domain at one AMR level: the covering index box and the
/// periodicity of each direction.
///
/// The DMR problem of the paper is periodic along the span (z) and
/// non-periodic in x and y, where physical boundary conditions are applied by
/// `BC_Fill`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemDomain {
    /// Index box covering the whole domain at this level.
    pub bx: IndexBox,
    /// Per-direction periodicity flags.
    pub periodic: [bool; 3],
}

impl ProblemDomain {
    /// Creates a domain from its box and periodicity flags.
    pub fn new(bx: IndexBox, periodic: [bool; 3]) -> Self {
        ProblemDomain { bx, periodic }
    }

    /// A fully non-periodic domain.
    pub fn non_periodic(bx: IndexBox) -> Self {
        ProblemDomain::new(bx, [false; 3])
    }

    /// A fully periodic domain.
    pub fn fully_periodic(bx: IndexBox) -> Self {
        ProblemDomain::new(bx, [true; 3])
    }

    /// The domain refined by `ratio` (periodicity is inherited).
    pub fn refine(&self, ratio: IntVect) -> Self {
        ProblemDomain::new(self.bx.refine(ratio), self.periodic)
    }

    /// The domain coarsened by `ratio` (periodicity is inherited).
    pub fn coarsen(&self, ratio: IntVect) -> Self {
        ProblemDomain::new(self.bx.coarsen(ratio), self.periodic)
    }

    /// All periodic images of `bx` (including the identity shift) that might
    /// intersect the domain's ghost-extended neighborhood. For each periodic
    /// direction the shift takes values in {-L, 0, +L}.
    pub fn periodic_shifts(&self) -> Vec<IntVect> {
        let ext = self.bx.size();
        let mut shifts = vec![IntVect::ZERO];
        for dir in 0..3 {
            if !self.periodic[dir] {
                continue;
            }
            let l = ext[dir];
            let mut next = Vec::with_capacity(shifts.len() * 3);
            for &s in &shifts {
                next.push(s);
                next.push(s + IntVect::unit(dir) * l);
                next.push(s - IntVect::unit(dir) * l);
            }
            shifts = next;
        }
        shifts
    }

    /// `true` if `p`, possibly after periodic wrapping, lies inside the domain.
    pub fn contains_wrapped(&self, p: IntVect) -> bool {
        let mut q = p;
        for dir in 0..3 {
            if self.periodic[dir] {
                let l = self.bx.size()[dir];
                let lo = self.bx.lo()[dir];
                q[dir] = (q[dir] - lo).rem_euclid(l) + lo;
            }
        }
        self.bx.contains(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> ProblemDomain {
        ProblemDomain::new(IndexBox::from_extents(8, 8, 4), [false, false, true])
    }

    #[test]
    fn periodic_shift_enumeration() {
        let d = dom();
        let shifts = d.periodic_shifts();
        assert_eq!(shifts.len(), 3); // identity, +z, -z
        assert!(shifts.contains(&IntVect::ZERO));
        assert!(shifts.contains(&IntVect::new(0, 0, 4)));
        assert!(shifts.contains(&IntVect::new(0, 0, -4)));

        let full = ProblemDomain::fully_periodic(IndexBox::from_extents(4, 4, 4));
        assert_eq!(full.periodic_shifts().len(), 27);
    }

    #[test]
    fn wrapped_containment() {
        let d = dom();
        assert!(d.contains_wrapped(IntVect::new(0, 0, 5))); // wraps to z=1
        assert!(d.contains_wrapped(IntVect::new(0, 0, -1))); // wraps to z=3
        assert!(!d.contains_wrapped(IntVect::new(-1, 0, 0))); // x not periodic
        assert!(!d.contains_wrapped(IntVect::new(0, 8, 0))); // y not periodic
    }

    #[test]
    fn refine_coarsen_inherit_periodicity() {
        let d = dom();
        let r = d.refine(IntVect::splat(2));
        assert_eq!(r.periodic, d.periodic);
        assert_eq!(r.bx.num_points(), d.bx.num_points() * 8);
        assert_eq!(r.coarsen(IntVect::splat(2)).bx, d.bx);
    }
}
