//! Logically rectangular index-space regions (AMReX `Box`).

use crate::intvect::IntVect;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A cell-centered, logically rectangular region of index space, described by
/// inclusive lower and upper corners.
///
/// This is the AMReX `Box` concept the paper builds on: every AMR patch, every
/// ghost region, and every communication intersection in CRoCCo is an
/// `IndexBox`. An `IndexBox` with any `hi` component strictly below the
/// matching `lo` component is *empty*.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexBox {
    lo: IntVect,
    hi: IntVect,
}

impl IndexBox {
    /// Creates a box from inclusive corners. Empty boxes are permitted.
    #[inline]
    pub const fn new(lo: IntVect, hi: IntVect) -> Self {
        IndexBox { lo, hi }
    }

    /// Creates the box `[0, n) × [0, m) × [0, p)` from per-direction extents.
    ///
    /// # Panics
    /// Panics if any extent is zero or negative.
    pub fn from_extents(n: i64, m: i64, p: i64) -> Self {
        assert!(n > 0 && m > 0 && p > 0, "extents must be positive");
        IndexBox::new(IntVect::ZERO, IntVect::new(n - 1, m - 1, p - 1))
    }

    /// A canonical empty box.
    pub const EMPTY: IndexBox = IndexBox {
        lo: IntVect([0, 0, 0]),
        hi: IntVect([-1, -1, -1]),
    };

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> IntVect {
        self.lo
    }

    /// Inclusive upper corner.
    #[inline]
    pub fn hi(&self) -> IntVect {
        self.hi
    }

    /// `true` if the box contains no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !(self.lo.all_le(self.hi))
    }

    /// Number of cells along each direction (zero if empty in that direction).
    #[inline]
    pub fn size(&self) -> IntVect {
        IntVect([
            (self.hi[0] - self.lo[0] + 1).max(0),
            (self.hi[1] - self.lo[1] + 1).max(0),
            (self.hi[2] - self.lo[2] + 1).max(0),
        ])
    }

    /// Extent along one direction.
    #[inline]
    pub fn length(&self, dir: usize) -> i64 {
        (self.hi[dir] - self.lo[dir] + 1).max(0)
    }

    /// Total number of cells. Uses 128-bit arithmetic internally so the
    /// 4.19e10-point Summit configurations are exactly representable.
    #[inline]
    pub fn num_points(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            let s = self.size();
            (s.prod()) as u64
        }
    }

    /// `true` if `p` lies inside the box.
    #[inline]
    pub fn contains(&self, p: IntVect) -> bool {
        self.lo.all_le(p) && p.all_le(self.hi)
    }

    /// `true` if `other` lies entirely inside `self` (empty boxes are
    /// contained in everything).
    #[inline]
    pub fn contains_box(&self, other: &IndexBox) -> bool {
        other.is_empty() || (self.lo.all_le(other.lo) && other.hi.all_le(self.hi))
    }

    /// `true` if the two boxes share at least one cell.
    #[inline]
    pub fn intersects(&self, other: &IndexBox) -> bool {
        !self.intersection(other).is_empty()
    }

    /// The (possibly empty) intersection of two boxes.
    #[inline]
    pub fn intersection(&self, other: &IndexBox) -> IndexBox {
        IndexBox::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// The smallest box containing both operands (the "bounding hull").
    #[inline]
    pub fn hull(&self, other: &IndexBox) -> IndexBox {
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            IndexBox::new(self.lo.min(other.lo), self.hi.max(other.hi))
        }
    }

    /// Grows the box by `n` cells on every face (negative `n` shrinks).
    #[inline]
    pub fn grow(&self, n: i64) -> IndexBox {
        self.grow_vect(IntVect::splat(n))
    }

    /// Grows by a per-direction number of cells on both faces of each direction.
    #[inline]
    pub fn grow_vect(&self, n: IntVect) -> IndexBox {
        IndexBox::new(self.lo - n, self.hi + n)
    }

    /// Grows only the low face of direction `dir` by `n` cells.
    #[inline]
    pub fn grow_lo(&self, dir: usize, n: i64) -> IndexBox {
        let mut lo = self.lo;
        lo[dir] -= n;
        IndexBox::new(lo, self.hi)
    }

    /// Grows only the high face of direction `dir` by `n` cells.
    #[inline]
    pub fn grow_hi(&self, dir: usize, n: i64) -> IndexBox {
        let mut hi = self.hi;
        hi[dir] += n;
        IndexBox::new(self.lo, hi)
    }

    /// Translates the box by `shift`.
    #[inline]
    pub fn shift(&self, shift: IntVect) -> IndexBox {
        IndexBox::new(self.lo + shift, self.hi + shift)
    }

    /// Refines the box by `ratio`: each cell becomes a `ratio`-sized block of
    /// fine cells, exactly as AMReX `Box::refine`.
    #[inline]
    pub fn refine(&self, ratio: IntVect) -> IndexBox {
        if self.is_empty() {
            return *self;
        }
        IndexBox::new(
            self.lo.refine(ratio),
            (self.hi + IntVect::ONE).refine(ratio) - IntVect::ONE,
        )
    }

    /// Coarsens the box by `ratio` (covering coarsen: the result contains
    /// every coarse cell touched by any fine cell of `self`).
    #[inline]
    pub fn coarsen(&self, ratio: IntVect) -> IndexBox {
        if self.is_empty() {
            return *self;
        }
        IndexBox::new(self.lo.coarsen(ratio), self.hi.coarsen(ratio))
    }

    /// `true` if the box can be coarsened by `ratio` and refined back to give
    /// exactly itself (i.e. it is aligned to `ratio`-sized tiles).
    pub fn is_coarsenable(&self, ratio: IntVect) -> bool {
        !self.is_empty() && self.coarsen(ratio).refine(ratio) == *self
    }

    /// `true` if the box's corners and extents are multiples of
    /// `blocking_factor` in every direction — the AMReX blocking-factor
    /// constraint discussed in §III-B of the paper.
    pub fn is_blocked(&self, blocking_factor: i64) -> bool {
        self.is_coarsenable(IntVect::splat(blocking_factor))
    }

    /// Splits the box into two at index `pos` along direction `dir`. The
    /// first part keeps cells `< pos`, the second keeps cells `>= pos`.
    ///
    /// # Panics
    /// Panics if `pos` is not strictly inside the box along `dir`.
    pub fn chop(&self, dir: usize, pos: i64) -> (IndexBox, IndexBox) {
        assert!(
            self.lo[dir] < pos && pos <= self.hi[dir],
            "chop position {pos} outside box interior along dir {dir}"
        );
        let mut left_hi = self.hi;
        left_hi[dir] = pos - 1;
        let mut right_lo = self.lo;
        right_lo[dir] = pos;
        (
            IndexBox::new(self.lo, left_hi),
            IndexBox::new(right_lo, self.hi),
        )
    }

    /// Iterates over every cell of the box in Fortran order (x fastest), which
    /// matches the memory layout of the field containers in `crocco-fab`.
    pub fn cells(&self) -> CellIter {
        CellIter {
            b: *self,
            cur: self.lo,
            done: self.is_empty(),
        }
    }

    /// The first cell of every x-row of the box, in [`cells`](Self::cells)
    /// order (y, then z). A row is `size()[0]` cells that are contiguous in
    /// the field containers of `crocco-fab`, so copies and fills walk rows,
    /// not cells.
    pub fn rows(&self) -> impl Iterator<Item = IntVect> {
        let (lo, hi) = (self.lo, self.hi);
        let k_hi = if self.is_empty() { lo[2] - 1 } else { hi[2] };
        (lo[2]..=k_hi).flat_map(move |k| (lo[1]..=hi[1]).map(move |j| IntVect::new(lo[0], j, k)))
    }

    /// The faces of this box as boxes of thickness `width` just *outside* the
    /// box, one per (direction, side) pair. Used to build ghost regions.
    pub fn boundary_shells(&self, width: i64) -> Vec<(usize, Side, IndexBox)> {
        let mut out = Vec::with_capacity(6);
        for dir in 0..3 {
            let mut lo = self.lo;
            let mut hi = self.hi;
            hi[dir] = self.lo[dir] - 1;
            lo[dir] = self.lo[dir] - width;
            out.push((dir, Side::Lo, IndexBox::new(lo, hi)));

            let mut lo = self.lo;
            let mut hi = self.hi;
            lo[dir] = self.hi[dir] + 1;
            hi[dir] = self.hi[dir] + width;
            out.push((dir, Side::Hi, IndexBox::new(lo, hi)));
        }
        out
    }
}

/// Which side of a box face.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The low-index side.
    Lo,
    /// The high-index side.
    Hi,
}

impl fmt::Debug for IndexBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}..{:?}]", self.lo, self.hi)
    }
}

impl fmt::Display for IndexBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the cells of an [`IndexBox`] in Fortran (x-fastest) order.
pub struct CellIter {
    b: IndexBox,
    cur: IntVect,
    done: bool,
}

impl Iterator for CellIter {
    type Item = IntVect;

    fn next(&mut self) -> Option<IntVect> {
        if self.done {
            return None;
        }
        let out = self.cur;
        self.cur[0] += 1;
        if self.cur[0] > self.b.hi[0] {
            self.cur[0] = self.b.lo[0];
            self.cur[1] += 1;
            if self.cur[1] > self.b.hi[1] {
                self.cur[1] = self.b.lo[1];
                self.cur[2] += 1;
                if self.cur[2] > self.b.hi[2] {
                    self.done = true;
                }
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Cheap overestimate: full box size (exact at start of iteration).
        let n = self.b.num_points() as usize;
        (0, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> IndexBox {
        IndexBox::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn sizes_and_emptiness() {
        let x = b([0, 0, 0], [3, 1, 0]);
        assert_eq!(x.num_points(), 8);
        assert_eq!(x.size(), IntVect::new(4, 2, 1));
        assert!(!x.is_empty());
        assert!(IndexBox::EMPTY.is_empty());
        assert_eq!(IndexBox::EMPTY.num_points(), 0);
    }

    #[test]
    fn rows_are_the_x_runs_of_cells_in_order() {
        let x = b([-1, 2, 5], [2, 3, 6]);
        let from_cells: Vec<IntVect> = x.cells().filter(|p| p[0] == -1).collect();
        assert_eq!(x.rows().collect::<Vec<_>>(), from_cells);
        assert_eq!(x.rows().count() as i64 * x.size()[0], x.num_points() as i64);
        assert_eq!(IndexBox::EMPTY.rows().count(), 0);
        // Empty in x only: still no rows.
        assert_eq!(b([3, 0, 0], [2, 4, 4]).rows().count(), 0);
    }

    #[test]
    fn intersection_basic() {
        let a = b([0, 0, 0], [7, 7, 7]);
        let c = b([4, 4, 4], [12, 12, 12]);
        let i = a.intersection(&c);
        assert_eq!(i, b([4, 4, 4], [7, 7, 7]));
        assert!(a.intersects(&c));
        let d = b([8, 0, 0], [9, 7, 7]);
        assert!(!a.intersects(&d));
        assert!(a.intersection(&d).is_empty());
    }

    #[test]
    fn hull_contains_both() {
        let a = b([0, 0, 0], [1, 1, 1]);
        let c = b([5, -3, 2], [6, -2, 3]);
        let h = a.hull(&c);
        assert!(h.contains_box(&a));
        assert!(h.contains_box(&c));
        assert_eq!(h, b([0, -3, 0], [6, 1, 3]));
    }

    #[test]
    fn grow_and_shrink() {
        let a = b([0, 0, 0], [3, 3, 3]);
        assert_eq!(a.grow(2), b([-2, -2, -2], [5, 5, 5]));
        assert_eq!(a.grow(2).grow(-2), a);
        assert_eq!(a.grow_lo(1, 3), b([0, -3, 0], [3, 3, 3]));
        assert_eq!(a.grow_hi(2, 1), b([0, 0, 0], [3, 3, 4]));
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let a = b([1, 2, 3], [4, 5, 6]);
        let r = IntVect::splat(2);
        let fine = a.refine(r);
        assert_eq!(fine, b([2, 4, 6], [9, 11, 13]));
        assert_eq!(fine.coarsen(r), a);
        assert!(fine.is_coarsenable(r));
        // A box not aligned to the ratio is not coarsenable.
        assert!(!b([1, 0, 0], [4, 1, 1]).is_coarsenable(r));
    }

    #[test]
    fn coarsen_covers_fine_cells_with_negative_indices() {
        let a = b([-3, -3, -3], [-1, -1, -1]);
        let c = a.coarsen(IntVect::splat(2));
        assert_eq!(c, b([-2, -2, -2], [-1, -1, -1]));
        // Every fine cell must map into the coarse box.
        for cell in a.cells() {
            assert!(c.contains(cell.coarsen(IntVect::splat(2))));
        }
    }

    #[test]
    fn chop_partitions_cells() {
        let a = b([0, 0, 0], [7, 3, 3]);
        let (l, r) = a.chop(0, 3);
        assert_eq!(l.num_points() + r.num_points(), a.num_points());
        assert_eq!(l, b([0, 0, 0], [2, 3, 3]));
        assert_eq!(r, b([3, 0, 0], [7, 3, 3]));
        assert!(!l.intersects(&r));
    }

    #[test]
    #[should_panic]
    fn chop_outside_interior_panics() {
        b([0, 0, 0], [7, 3, 3]).chop(0, 0);
    }

    #[test]
    fn cell_iteration_order_and_count() {
        let a = b([0, 0, 0], [1, 1, 1]);
        let cells: Vec<_> = a.cells().collect();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0], IntVect::new(0, 0, 0));
        assert_eq!(cells[1], IntVect::new(1, 0, 0)); // x fastest
        assert_eq!(cells[2], IntVect::new(0, 1, 0));
        assert_eq!(cells[7], IntVect::new(1, 1, 1));
    }

    #[test]
    fn blocking_factor_check() {
        assert!(b([0, 0, 0], [7, 7, 7]).is_blocked(8));
        assert!(b([8, 16, 24], [15, 23, 31]).is_blocked(8));
        assert!(!b([0, 0, 0], [6, 7, 7]).is_blocked(8));
        assert!(!b([1, 0, 0], [8, 7, 7]).is_blocked(8));
    }

    #[test]
    fn boundary_shells_surround_box() {
        let a = b([0, 0, 0], [3, 3, 3]);
        let shells = a.boundary_shells(2);
        assert_eq!(shells.len(), 6);
        let total: u64 = shells.iter().map(|(_, _, s)| s.num_points()).sum();
        // 2-wide slabs on each face, 6 faces, no corners: 6 * (2*16) = 192.
        assert_eq!(total, 192);
        for (_, _, s) in &shells {
            assert!(!s.intersects(&a));
            assert!(a.grow(2).contains_box(s));
        }
    }
}
