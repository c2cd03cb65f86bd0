//! Read and read-write per-fab views for task-graph execution.
//!
//! During a barrier-free RK stage (see [`crate::dist_overlap`]) several tasks
//! touch *disjoint cells* of the same [`FArrayBox`] concurrently: one task
//! writes a patch's ghost shell while another reads its valid cells. A
//! `&`/`&mut FArrayBox` would assert immutability/exclusivity over the whole
//! allocation and make that undefined behaviour, so — exactly like the
//! grouped plan executor in [`crate::multifab`] — all concurrent access goes
//! through raw-pointer views:
//!
//! * [`FabView`] — the read interface kernels are generic over, implemented
//!   by `&FArrayBox` (probes, tests, whole-level loops) and [`FabRd`] (the
//!   stage executor's tasks);
//! * [`FabRd`] — a read-only raw view of one fab;
//! * [`FabRw`] — a read-write raw view, handed to boundary-condition fills
//!   and coarse→fine interpolation inside halo tasks.
//!
//! Safety rests on the same invariant as the plan executor: the task graph's
//! dependency edges order every pair of conflicting accesses, and within one
//! unordered set of tasks the touched cells are disjoint (ghost writes vs
//! valid reads). The unsafe constructors (`FabRd::from_raw`,
//! `FabRw::from_raw`) carry that proof obligation; everything downstream
//! is bounds-checked in debug builds through `RawFab::offset`.

// The raw-view modules are the allowlisted unsafe surface of the workspace
// (`cargo xtask lint`, DESIGN.md §4d).
#![allow(unsafe_code)]

use crate::fab::FArrayBox;
use crate::multifab::RawFab;
use crocco_geometry::{IndexBox, IntVect};
use crocco_runtime::taskcheck::record_access;
use std::marker::PhantomData;

/// Runs `f` with a read-write view of `fab` and returns its result — the
/// safe entry point for code outside the raw-view modules (rule 6 of
/// `cargo xtask lint` confines direct `FabRd`/`FabRw`/`RawFab` construction
/// to this crate's view/overlap modules).
pub fn with_rw<R>(fab: &mut FArrayBox, f: impl FnOnce(&mut FabRw<'_>) -> R) -> R {
    let mut rw = FabRw::from_mut(fab);
    f(&mut rw)
}

/// Read access to one fab's cells — the interface the solver kernels are
/// generic over, so the same kernel source serves `&FArrayBox` and the
/// stage executor's [`FabRd`] views.
pub trait FabView {
    /// The fab's full (valid + ghost) box.
    fn bx(&self) -> IndexBox;
    /// Number of components.
    fn ncomp(&self) -> usize;
    /// Value at cell `p`, component `c`.
    fn get(&self, p: IntVect, c: usize) -> f64;
    /// Copies the contiguous x-row of `out.len()` cells starting at `p`,
    /// component `c`, into `out`.
    ///
    /// Pencil-sweeping kernels use this to load a whole stencil row in one
    /// call instead of per-cell `get`s — for the SIMD-lane backend that one
    /// slice copy replaces the per-cell index arithmetic that otherwise
    /// dominates the gather. The default falls back to `get` so wrapper
    /// views (e.g. sanitizer instrumentation) still observe every access;
    /// the dense views below override it with a single slice copy.
    fn read_row(&self, p: IntVect, c: usize, out: &mut [f64]) {
        let mut q = p;
        for o in out.iter_mut() {
            *o = self.get(q, c);
            q[0] += 1;
        }
    }
}

impl FabView for FArrayBox {
    #[inline]
    fn bx(&self) -> IndexBox {
        FArrayBox::bx(self)
    }

    #[inline]
    fn ncomp(&self) -> usize {
        FArrayBox::ncomp(self)
    }

    #[inline]
    fn get(&self, p: IntVect, c: usize) -> f64 {
        FArrayBox::get(self, p, c)
    }

    #[inline]
    fn read_row(&self, p: IntVect, c: usize, out: &mut [f64]) {
        out.copy_from_slice(self.row(p, c, out.len()));
    }
}

/// A read-only raw view of one [`FArrayBox`].
///
/// Unlike `&FArrayBox`, holding a `FabRd` asserts nothing about cells it
/// never reads — a concurrent task may write *other* cells of the same fab
/// (its ghost shell) while this view reads valid cells.
#[derive(Clone, Copy)]
pub struct FabRd<'a> {
    raw: RawFab,
    _life: PhantomData<&'a FArrayBox>,
}

impl<'a> FabRd<'a> {
    /// Read view of `fab`. Safe: the shared borrow rules out any concurrent
    /// writer for `'a`.
    pub fn new(fab: &'a FArrayBox) -> Self {
        FabRd {
            raw: RawFab::capture_const(fab),
            _life: PhantomData,
        }
    }

    /// Read view from a raw capture.
    ///
    /// # Safety
    /// For the chosen lifetime `'a` the underlying allocation must stay
    /// live, and no thread may write any cell this view reads without a
    /// happens-before edge (in the task graph: a dependency path) separating
    /// the write from the read.
    // SAFETY: an unsafe fn — the constructor itself only stores the capture;
    // callers uphold the liveness and ordering contract documented above.
    pub(crate) unsafe fn from_raw(raw: RawFab) -> Self {
        FabRd {
            raw,
            _life: PhantomData,
        }
    }
}

impl FabView for FabRd<'_> {
    #[inline]
    fn bx(&self) -> IndexBox {
        self.raw.bx
    }

    #[inline]
    fn ncomp(&self) -> usize {
        self.raw.ncomp()
    }

    #[inline]
    fn get(&self, p: IntVect, c: usize) -> f64 {
        record_access(self.raw.ptr as usize as u64, false, IndexBox::new(p, p));
        // SAFETY: `offset` debug-asserts `p` inside the fab box; the
        // constructor's contract guarantees the allocation is live and no
        // unordered writer touches the cells this view reads.
        unsafe { *self.raw.ptr.add(self.raw.offset(p, c)) }
    }

    #[inline]
    fn read_row(&self, p: IntVect, c: usize, out: &mut [f64]) {
        debug_assert!(
            p[0] + out.len() as i64 - 1 <= self.raw.bx.hi()[0],
            "row leaves box"
        );
        let mut row_end = p;
        row_end[0] += out.len() as i64 - 1;
        record_access(
            self.raw.ptr as usize as u64,
            false,
            IndexBox::new(p, row_end),
        );
        // SAFETY: x-rows are contiguous in fab storage; `offset` debug-asserts
        // `p` inside the fab box and the assert above keeps the row end in
        // bounds. The constructor's contract guarantees the allocation is live
        // and no unordered writer touches the cells this view reads.
        let src = unsafe {
            std::slice::from_raw_parts(self.raw.ptr.add(self.raw.offset(p, c)), out.len())
        };
        out.copy_from_slice(src);
    }
}

/// A read-write raw view of one [`FArrayBox`], used by halo tasks to fill
/// ghost cells (physical BCs, coarse-fine interpolation) while other
/// tasks concurrently read the same fab's valid cells.
pub struct FabRw<'a> {
    raw: RawFab,
    _life: PhantomData<&'a mut FArrayBox>,
}

impl<'a> FabRw<'a> {
    /// Read-write view of `fab`. Safe: the exclusive borrow rules out any
    /// concurrent access for `'a`.
    pub fn from_mut(fab: &'a mut FArrayBox) -> Self {
        FabRw {
            raw: RawFab::capture(fab),
            _life: PhantomData,
        }
    }

    /// Read-write view from a raw capture.
    ///
    /// # Safety
    /// For the chosen lifetime `'a` the underlying allocation must stay
    /// live; no thread may access (read or write) any cell this view
    /// *writes*, nor write any cell it *reads*, without a happens-before
    /// edge separating the accesses. In the RK-stage graph this holds
    /// because a halo task writes only its own patch's ghost cells while
    /// unordered tasks read only valid cells.
    // SAFETY: an unsafe fn — the constructor itself only stores the capture;
    // callers uphold the liveness and ordering contract documented above.
    pub(crate) unsafe fn from_raw(raw: RawFab) -> Self {
        FabRw {
            raw,
            _life: PhantomData,
        }
    }

    /// The fab's full (valid + ghost) box.
    #[inline]
    pub fn bx(&self) -> IndexBox {
        self.raw.bx
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.raw.ncomp()
    }

    /// Value at cell `p`, component `c`.
    #[inline]
    pub fn get(&self, p: IntVect, c: usize) -> f64 {
        record_access(self.raw.ptr as usize as u64, false, IndexBox::new(p, p));
        // SAFETY: bounds debug-asserted by `offset`; the constructor's
        // contract orders this read against any writer of the cell.
        unsafe { *self.raw.ptr.add(self.raw.offset(p, c)) }
    }

    /// Stores `v` at cell `p`, component `c`.
    #[inline]
    pub fn set(&mut self, p: IntVect, c: usize, v: f64) {
        record_access(self.raw.ptr as usize as u64, true, IndexBox::new(p, p));
        // SAFETY: bounds debug-asserted by `offset`; the constructor's
        // contract gives this view exclusive access to the cells it writes.
        unsafe { *self.raw.ptr.add(self.raw.offset(p, c)) = v };
    }

    /// The contiguous x-row of `len` cells starting at `p`, component `c`,
    /// for writing — what the coarse→fine interpolators fill a ghost region
    /// through, one slice per row instead of one `set` per cell.
    #[inline]
    pub fn row_mut(&mut self, p: IntVect, c: usize, len: usize) -> &mut [f64] {
        let mut row_end = p;
        row_end[0] += len as i64 - 1;
        let row = IndexBox::new(p, row_end);
        assert!(
            len > 0 && c < self.raw.ncomp() && self.raw.bx.contains_box(&row),
            "row leaves box"
        );
        record_access(self.raw.ptr as usize as u64, true, row);
        // SAFETY: x-rows are contiguous in fab storage and the assert above
        // keeps the whole row inside the fab box and `c` inside its
        // components. The constructor's contract gives this view exclusive
        // access to the cells it writes, and the returned slice borrows
        // `self` mutably, so no second row can be alive beside it.
        unsafe { std::slice::from_raw_parts_mut(self.raw.ptr.add(self.raw.offset(p, c)), len) }
    }
}

impl FabView for FabRw<'_> {
    #[inline]
    fn bx(&self) -> IndexBox {
        self.raw.bx
    }

    #[inline]
    fn ncomp(&self) -> usize {
        self.raw.ncomp()
    }

    #[inline]
    fn get(&self, p: IntVect, c: usize) -> f64 {
        FabRw::get(self, p, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fab() -> FArrayBox {
        let bx = IndexBox::from_extents(4, 3, 2);
        let mut f = FArrayBox::new(bx, 2);
        for c in 0..2 {
            for p in bx.cells() {
                f.set(p, c, (c * 100) as f64 + p[0] as f64 + 10.0 * p[1] as f64);
            }
        }
        f
    }

    #[test]
    fn read_views_agree_with_the_fab() {
        let f = fab();
        let rd = FabRd::new(&f);
        assert_eq!(FabView::bx(&rd), f.bx());
        assert_eq!(FabView::ncomp(&rd), 2);
        for c in 0..2 {
            for p in f.bx().cells() {
                assert_eq!(rd.get(p, c).to_bits(), f.get(p, c).to_bits());
            }
        }
    }

    #[test]
    fn rw_view_writes_through() {
        let mut f = fab();
        let mut rw = FabRw::from_mut(&mut f);
        let p = IntVect::new(1, 2, 0);
        rw.set(p, 1, -7.5);
        assert_eq!(rw.get(p, 1), -7.5);
        assert_eq!(f.get(p, 1), -7.5);
    }

    #[test]
    fn row_mut_lands_exactly_the_row() {
        let mut dst = fab();
        let before = dst.clone();
        let p0 = IntVect::new(1, 2, 1);
        FabRw::from_mut(&mut dst)
            .row_mut(p0, 1, 3)
            .copy_from_slice(&[42.0, 43.0, 44.0]);
        for c in 0..2 {
            for p in dst.bx().cells() {
                let in_row = c == 1 && p[1] == 2 && p[2] == 1 && (1..=3).contains(&p[0]);
                if in_row {
                    assert_eq!(dst.get(p, c), 41.0 + p[0] as f64);
                } else {
                    assert_eq!(dst.get(p, c).to_bits(), before.get(p, c).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row leaves box")]
    fn row_mut_rejects_a_row_past_the_box() {
        let mut dst = fab();
        FabRw::from_mut(&mut dst).row_mut(IntVect::new(2, 0, 0), 0, 3);
    }
}
