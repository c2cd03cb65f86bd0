//! `FArrayBox`: the per-patch multi-component field array.

use crocco_geometry::{IndexBox, IntVect};
use std::fmt;

/// A multi-component, double-precision field over one index box — the AMReX
/// `FArrayBox` that every CRoCCo kernel reads and writes.
///
/// Storage is struct-of-arrays, Fortran order within each component: `x`
/// varies fastest, then `y`, then `z`, and components are outermost. This is
/// the AMReX layout the paper's kernels assume, and it makes per-component
/// slices contiguous (good for the WENO sweeps).
#[derive(Clone, PartialEq)]
pub struct FArrayBox {
    bx: IndexBox,
    ncomp: usize,
    data: Vec<f64>,
}

impl FArrayBox {
    /// Allocates a zero-initialized fab over `bx` with `ncomp` components.
    ///
    /// # Panics
    /// Panics if `bx` is empty or `ncomp` is zero.
    pub fn new(bx: IndexBox, ncomp: usize) -> Self {
        assert!(!bx.is_empty(), "cannot allocate a fab over an empty box");
        assert!(ncomp > 0, "fab needs at least one component");
        let n = bx.num_points() as usize * ncomp;
        FArrayBox {
            bx,
            ncomp,
            data: vec![0.0; n],
        }
    }

    /// Allocates and fills every component with `value`.
    pub fn filled(bx: IndexBox, ncomp: usize, value: f64) -> Self {
        let mut f = FArrayBox::new(bx, ncomp);
        f.data.fill(value);
        f
    }

    /// A metadata-only placeholder: carries a real box and component count but
    /// holds no data. Owned-data `MultiFab`s use this for patches assigned to
    /// other ranks, so box geometry stays queryable everywhere while storage
    /// is O(owned cells) per rank. Any `get`/`set` on an unallocated fab
    /// panics (slice index out of bounds).
    ///
    /// # Panics
    /// Panics if `bx` is empty or `ncomp` is zero.
    pub fn unallocated(bx: IndexBox, ncomp: usize) -> Self {
        assert!(!bx.is_empty(), "cannot describe a fab over an empty box");
        assert!(ncomp > 0, "fab needs at least one component");
        FArrayBox {
            bx,
            ncomp,
            data: Vec::new(),
        }
    }

    /// `false` for metadata-only placeholders built by
    /// [`FArrayBox::unallocated`]; `true` for every fab that owns storage.
    #[inline]
    pub fn is_allocated(&self) -> bool {
        !self.data.is_empty()
    }

    /// The valid-plus-ghost box this fab covers.
    #[inline]
    pub fn bx(&self) -> IndexBox {
        self.bx
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Raw data slice (all components).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (all components).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat offset of `(p, comp)`.
    ///
    /// Hot path for every kernel: kept branch-free; bounds are debug-asserted
    /// and the final slice index is checked by Rust as usual.
    #[inline]
    pub fn offset(&self, p: IntVect, comp: usize) -> usize {
        debug_assert!(self.bx.contains(p), "{p:?} outside fab box {:?}", self.bx);
        debug_assert!(comp < self.ncomp);
        let lo = self.bx.lo();
        let s = self.bx.size();
        let (nx, ny) = (s[0] as usize, s[1] as usize);
        let i = (p[0] - lo[0]) as usize;
        let j = (p[1] - lo[1]) as usize;
        let k = (p[2] - lo[2]) as usize;
        ((comp * s[2] as usize + k) * ny + j) * nx + i
    }

    /// Reads one value.
    #[inline]
    pub fn get(&self, p: IntVect, comp: usize) -> f64 {
        self.data[self.offset(p, comp)]
    }

    /// Writes one value.
    #[inline]
    pub fn set(&mut self, p: IntVect, comp: usize, v: f64) {
        let o = self.offset(p, comp);
        self.data[o] = v;
    }

    /// Adds `v` to one value.
    #[inline]
    pub fn add(&mut self, p: IntVect, comp: usize, v: f64) {
        let o = self.offset(p, comp);
        self.data[o] += v;
    }

    /// Contiguous x-row of `len` values starting at `p` in component `comp`.
    /// Rows are the unit of flat iteration: x varies fastest, so a row is one
    /// `memcpy`/vectorizable span.
    #[inline]
    pub fn row(&self, p: IntVect, comp: usize, len: usize) -> &[f64] {
        debug_assert!(p[0] + len as i64 - 1 <= self.bx.hi()[0], "row leaves box");
        let o = self.offset(p, comp);
        &self.data[o..o + len]
    }

    /// Mutable contiguous x-row (see [`FArrayBox::row`]).
    #[inline]
    pub fn row_mut(&mut self, p: IntVect, comp: usize, len: usize) -> &mut [f64] {
        debug_assert!(p[0] + len as i64 - 1 <= self.bx.hi()[0], "row leaves box");
        let o = self.offset(p, comp);
        &mut self.data[o..o + len]
    }

    /// Contiguous slice of one component.
    pub fn comp(&self, comp: usize) -> &[f64] {
        let n = self.bx.num_points() as usize;
        &self.data[comp * n..(comp + 1) * n]
    }

    /// Mutable contiguous slice of one component.
    pub fn comp_mut(&mut self, comp: usize) -> &mut [f64] {
        let n = self.bx.num_points() as usize;
        &mut self.data[comp * n..(comp + 1) * n]
    }

    /// Fills every component with `value` over the whole fab box.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Copies `ncomp` components starting at (`src_comp` → `dst_comp`) from
    /// `src` over `region`, which must be contained in both fabs' boxes.
    pub fn copy_from(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        src_comp: usize,
        dst_comp: usize,
        ncomp: usize,
    ) {
        debug_assert!(src.bx.contains_box(&region));
        debug_assert!(self.bx.contains_box(&region));
        let nx = region.size()[0] as usize;
        for c in 0..ncomp {
            for p in region.rows() {
                self.row_mut(p, dst_comp + c, nx)
                    .copy_from_slice(src.row(p, src_comp + c, nx));
            }
        }
    }

    /// Copies from `src` shifted by `shift`: `self[p] = src[p - shift]` over
    /// `region` (in destination index space). Used for periodic ghost fills.
    pub fn copy_shifted_from(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        shift: IntVect,
        ncomp: usize,
    ) {
        if region.is_empty() {
            return;
        }
        debug_assert!(self.bx.contains_box(&region));
        debug_assert!(src.bx.contains_box(&region.shift(-shift)));
        // Row-wise: both layouts are x-fastest, so each (j, k) row is one
        // contiguous span on both sides.
        let nx = region.size()[0] as usize;
        for c in 0..ncomp {
            for k in region.lo()[2]..=region.hi()[2] {
                for j in region.lo()[1]..=region.hi()[1] {
                    let dp = IntVect::new(region.lo()[0], j, k);
                    let srow = src.offset(dp - shift, c);
                    let drow = self.offset(dp, c);
                    self.data[drow..drow + nx]
                        .copy_from_slice(&src.data[srow..srow + nx]);
                }
            }
        }
    }

    /// `self = a·self + b·other` over the intersection of both boxes, for all
    /// components. This is the low-storage RK update primitive.
    pub fn lincomb(&mut self, a: f64, b: f64, other: &FArrayBox) {
        debug_assert_eq!(self.ncomp, other.ncomp);
        if self.bx == other.bx {
            for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
                *x = a * *x + b * *y;
            }
            return;
        }
        let region = self.bx.intersection(&other.bx);
        if region.is_empty() {
            return;
        }
        let nx = region.size()[0] as usize;
        for c in 0..self.ncomp {
            for k in region.lo()[2]..=region.hi()[2] {
                for j in region.lo()[1]..=region.hi()[1] {
                    let p = IntVect::new(region.lo()[0], j, k);
                    let srow = other.offset(p, c);
                    let drow = self.offset(p, c);
                    for (x, y) in self.data[drow..drow + nx]
                        .iter_mut()
                        .zip(&other.data[srow..srow + nx])
                    {
                        *x = a * *x + b * *y;
                    }
                }
            }
        }
    }

    /// Sum of `comp` over `region ∩ self.bx()`.
    pub fn sum_region(&self, region: IndexBox, comp: usize) -> f64 {
        let r = self.bx.intersection(&region);
        r.cells().map(|p| self.get(p, comp)).sum()
    }

    /// Max of `comp` over `region ∩ self.bx()` (−∞ when empty).
    pub fn max_region(&self, region: IndexBox, comp: usize) -> f64 {
        let r = self.bx.intersection(&region);
        r.cells()
            .map(|p| self.get(p, comp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Min of `comp` over `region ∩ self.bx()` (+∞ when empty).
    pub fn min_region(&self, region: IndexBox, comp: usize) -> f64 {
        let r = self.bx.intersection(&region);
        r.cells()
            .map(|p| self.get(p, comp))
            .fold(f64::INFINITY, f64::min)
    }

    /// Squared L2 norm of `comp` over `region ∩ self.bx()`.
    pub fn norm2_sq_region(&self, region: IndexBox, comp: usize) -> f64 {
        let r = self.bx.intersection(&region);
        r.cells().map(|p| self.get(p, comp).powi(2)).sum()
    }

    /// `true` if any value in `region` is NaN or infinite — the validation
    /// hook used by the driver's correctness checks (§IV-C).
    pub fn has_nonfinite(&self, region: IndexBox) -> bool {
        let r = self.bx.intersection(&region);
        for c in 0..self.ncomp {
            for p in r.cells() {
                if !self.get(p, c).is_finite() {
                    return true;
                }
            }
        }
        false
    }
}

impl fmt::Debug for FArrayBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FArrayBox{{{:?} x{}}}", self.bx, self.ncomp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(nx: i64, ny: i64, nz: i64) -> IndexBox {
        IndexBox::from_extents(nx, ny, nz)
    }

    #[test]
    fn layout_is_x_fastest_component_outermost() {
        let f = FArrayBox::new(bx(4, 3, 2), 2);
        assert_eq!(f.offset(IntVect::new(0, 0, 0), 0), 0);
        assert_eq!(f.offset(IntVect::new(1, 0, 0), 0), 1);
        assert_eq!(f.offset(IntVect::new(0, 1, 0), 0), 4);
        assert_eq!(f.offset(IntVect::new(0, 0, 1), 0), 12);
        assert_eq!(f.offset(IntVect::new(0, 0, 0), 1), 24);
    }

    #[test]
    fn get_set_roundtrip_with_offset_box() {
        let b = IndexBox::new(IntVect::new(-2, 5, 1), IntVect::new(1, 7, 3));
        let mut f = FArrayBox::new(b, 3);
        let mut v = 0.0;
        for c in 0..3 {
            for p in b.cells() {
                f.set(p, c, v);
                v += 1.0;
            }
        }
        let mut expect = 0.0;
        for c in 0..3 {
            for p in b.cells() {
                assert_eq!(f.get(p, c), expect);
                expect += 1.0;
            }
        }
    }

    #[test]
    fn component_slices_are_disjoint_views() {
        let mut f = FArrayBox::new(bx(2, 2, 2), 2);
        f.comp_mut(1).fill(7.0);
        assert!(f.comp(0).iter().all(|&v| v == 0.0));
        assert!(f.comp(1).iter().all(|&v| v == 7.0));
    }

    #[test]
    fn copy_from_respects_region_and_comps() {
        let b = bx(4, 4, 4);
        let src = FArrayBox::filled(b, 2, 3.5);
        let mut dst = FArrayBox::new(b, 3);
        let region = IndexBox::new(IntVect::new(1, 1, 1), IntVect::new(2, 2, 2));
        dst.copy_from(&src, region, 1, 2, 1);
        assert_eq!(dst.get(IntVect::new(1, 1, 1), 2), 3.5);
        assert_eq!(dst.get(IntVect::new(0, 0, 0), 2), 0.0);
        assert_eq!(dst.get(IntVect::new(1, 1, 1), 0), 0.0);
    }

    #[test]
    fn copy_shifted_implements_periodic_wrap() {
        let b = bx(4, 1, 1);
        let mut src = FArrayBox::new(b, 1);
        for (i, p) in b.cells().enumerate() {
            src.set(p, 0, i as f64);
        }
        // Ghost region to the right of the box, filled from the left edge.
        let ghost = IndexBox::new(IntVect::new(4, 0, 0), IntVect::new(5, 0, 0));
        let mut dst = FArrayBox::new(b.grow_hi(0, 2), 1);
        dst.copy_shifted_from(&src, ghost, IntVect::new(4, 0, 0), 1);
        assert_eq!(dst.get(IntVect::new(4, 0, 0), 0), 0.0);
        assert_eq!(dst.get(IntVect::new(5, 0, 0), 0), 1.0);
    }

    #[test]
    fn lincomb_fast_and_slow_paths_agree() {
        let b = bx(3, 3, 3);
        let mut a1 = FArrayBox::filled(b, 2, 2.0);
        let other = FArrayBox::filled(b, 2, 4.0);
        a1.lincomb(0.5, 0.25, &other);
        assert!(a1.data().iter().all(|&v| v == 2.0));

        // Slow path: different (overlapping) boxes.
        let b2 = IndexBox::new(IntVect::new(1, 1, 1), IntVect::new(3, 3, 3));
        let mut a2 = FArrayBox::filled(b, 2, 2.0);
        let other2 = FArrayBox::filled(b2, 2, 4.0);
        a2.lincomb(0.5, 0.25, &other2);
        assert_eq!(a2.get(IntVect::new(0, 0, 0), 0), 2.0); // untouched
        assert_eq!(a2.get(IntVect::new(1, 1, 1), 0), 2.0); // 0.5*2+0.25*4
        assert_eq!(a2.get(IntVect::new(2, 2, 2), 1), 2.0);
    }

    #[test]
    fn reductions() {
        let b = bx(2, 2, 1);
        let mut f = FArrayBox::new(b, 1);
        for (i, p) in b.cells().enumerate() {
            f.set(p, 0, i as f64 - 1.0); // -1, 0, 1, 2
        }
        assert_eq!(f.sum_region(b, 0), 2.0);
        assert_eq!(f.max_region(b, 0), 2.0);
        assert_eq!(f.min_region(b, 0), -1.0);
        assert_eq!(f.norm2_sq_region(b, 0), 1.0 + 0.0 + 1.0 + 4.0);
    }

    #[test]
    fn nonfinite_detection() {
        let b = bx(2, 2, 2);
        let mut f = FArrayBox::new(b, 1);
        assert!(!f.has_nonfinite(b));
        f.set(IntVect::new(1, 1, 1), 0, f64::NAN);
        assert!(f.has_nonfinite(b));
        // Outside the probed region it is not reported.
        let small = IndexBox::new(IntVect::ZERO, IntVect::ZERO);
        assert!(!f.has_nonfinite(small));
    }

    #[test]
    #[should_panic]
    fn empty_box_rejected() {
        FArrayBox::new(IndexBox::EMPTY, 1);
    }

    #[test]
    fn unallocated_keeps_metadata_but_no_storage() {
        let b = bx(4, 3, 2);
        let f = FArrayBox::unallocated(b, 5);
        assert_eq!(f.bx(), b);
        assert_eq!(f.ncomp(), 5);
        assert!(!f.is_allocated());
        assert!(f.data().is_empty());
        assert!(FArrayBox::new(b, 5).is_allocated());
    }

    #[test]
    #[should_panic]
    fn unallocated_read_panics() {
        let f = FArrayBox::unallocated(bx(2, 2, 2), 1);
        f.get(IntVect::ZERO, 0);
    }
}
