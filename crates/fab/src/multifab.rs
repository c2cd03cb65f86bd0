//! `MultiFab`: the distributed multi-patch field container.
//!
//! This is the workspace's only module allowed to contain `unsafe` code (the
//! raw per-fab views behind parallel plan execution); the allowlist is
//! enforced by `cargo xtask lint`, and the aliasing assumptions the unsafe
//! blocks rely on are proven at every execution in the `check` build
//! ([`crate::fabcheck`]), which also allocates solver fabs as signaling
//! NaNs ([`MultiFab::new_owned_poisoned`]).
#![allow(unsafe_code)]

use crate::boxarray::BoxArray;
use crate::distribution::DistributionMapping;
use crate::fab::FArrayBox;
#[cfg(feature = "check")]
use crate::fabcheck;
use crate::plan::{fill_boundary_plan, parallel_copy_plan, CopyPlan};
use crate::plan_cache::{CachedPlan, PlanCache};
use crocco_geometry::{IndexBox, IntVect, ProblemDomain};
use crocco_runtime::parallel_for;
use std::sync::Arc;

/// A multi-component field distributed over the patches of one AMR level
/// (AMReX `MultiFab`).
///
/// The paper stores four of these per level for the curvilinear solver: the
/// conserved state, the 5-component `dU` update, the 3-component physical
/// coordinates, and the grid metrics (§III-C "Data management": 27
/// components there, 10 stored by this solver).
///
/// This reproduction executes single-process: every patch's data lives here,
/// while the [`DistributionMapping`] still records which *simulated rank*
/// owns each patch so communication plans can be priced on the Summit model.
#[derive(Clone, Debug)]
pub struct MultiFab {
    ba: Arc<BoxArray>,
    dm: Arc<DistributionMapping>,
    ncomp: usize,
    nghost: i64,
    fabs: Vec<FArrayBox>,
    /// Sanitizer bookkeeping (ghost-freshness epochs, master switch); see
    /// [`crate::fabcheck::CheckState`] for the freshness model.
    #[cfg(feature = "check")]
    check: fabcheck::CheckState,
}

impl MultiFab {
    /// Allocates a zero-initialized MultiFab: one fab per box, each grown by
    /// `nghost` ghost cells.
    pub fn new(ba: Arc<BoxArray>, dm: Arc<DistributionMapping>, ncomp: usize, nghost: i64) -> Self {
        assert_eq!(ba.len(), dm.owners().len(), "BoxArray/DistributionMapping size mismatch");
        let fabs = ba
            .boxes()
            .iter()
            .map(|b| FArrayBox::new(b.grow(nghost), ncomp))
            .collect();
        MultiFab {
            ba,
            dm,
            ncomp,
            nghost,
            fabs,
            #[cfg(feature = "check")]
            check: fabcheck::CheckState::default(),
        }
    }

    /// Allocates an *owned-data* MultiFab: metadata (boxes, owners) for every
    /// patch, but storage only for the patches `dm` assigns to `rank` — the
    /// other entries are [`FArrayBox::unallocated`] placeholders. This is the
    /// scalable construction of the owned-data distributed path: memory per
    /// rank is O(owned cells + ghosts), not O(global cells).
    ///
    /// Whole-level operations that touch every patch (`set_val`, the global
    /// reductions, `fill_boundary`, `parallel_copy_from`) must not be used on
    /// an owned MultiFab; the owned step path routes all cross-rank motion
    /// through `dist_overlap`/`owned` exchanges instead, and panics on an
    /// unallocated dereference make accidental whole-level use loud.
    pub fn new_owned(
        ba: Arc<BoxArray>,
        dm: Arc<DistributionMapping>,
        ncomp: usize,
        nghost: i64,
        rank: usize,
    ) -> Self {
        let owners = dm.clone();
        Self::new_where(ba, dm, ncomp, nghost, |i| owners.owner(i) == rank)
    }

    /// [`MultiFab::new_owned`] with the storage decision left to the caller:
    /// patch `i` is allocated iff `alloc(i)`, a placeholder otherwise. The
    /// regrid uses it to leave out the patches whose grid data it moves over
    /// from the previous generation instead of recomputing
    /// (docs/ARCHITECTURE.md, Regrid).
    pub fn new_where(
        ba: Arc<BoxArray>,
        dm: Arc<DistributionMapping>,
        ncomp: usize,
        nghost: i64,
        alloc: impl Fn(usize) -> bool,
    ) -> Self {
        assert_eq!(ba.len(), dm.owners().len(), "BoxArray/DistributionMapping size mismatch");
        let fabs = ba
            .boxes()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                if alloc(i) {
                    FArrayBox::new(b.grow(nghost), ncomp)
                } else {
                    FArrayBox::unallocated(b.grow(nghost), ncomp)
                }
            })
            .collect();
        MultiFab {
            ba,
            dm,
            ncomp,
            nghost,
            fabs,
            #[cfg(feature = "check")]
            check: fabcheck::CheckState::default(),
        }
    }

    /// [`MultiFab::new_owned`], but in the `check` build every owned cell
    /// is a signaling NaN ([`crate::fabcheck::SNAN`]) instead of zero, so a
    /// kernel consuming a never-written value propagates NaN into the
    /// solver's post-stage finite sweep (the AMReX `fab.initval`
    /// discipline). Outside the `check` build this is exactly `new_owned`,
    /// so callers use it unconditionally.
    pub fn new_owned_poisoned(
        ba: Arc<BoxArray>,
        dm: Arc<DistributionMapping>,
        ncomp: usize,
        nghost: i64,
        rank: usize,
    ) -> Self {
        #[allow(unused_mut)]
        let mut mf = Self::new_owned(ba, dm, ncomp, nghost, rank);
        #[cfg(feature = "check")]
        for f in &mut mf.fabs {
            if f.is_allocated() {
                f.fill(fabcheck::SNAN);
            }
        }
        mf
    }

    /// `true` when patch `i` has storage on this rank (always `true` for
    /// replicated MultiFabs built with [`MultiFab::new`]; owner-gated for
    /// [`MultiFab::new_owned`] ones).
    #[inline]
    pub fn is_allocated(&self, i: usize) -> bool {
        self.fabs[i].is_allocated()
    }

    /// Bytes of fab storage actually allocated in this MultiFab — the
    /// memory-per-rank observable the owned-data tests assert on
    /// (O(owned cells + ghosts), not O(global)).
    pub fn local_data_bytes(&self) -> usize {
        self.fabs
            .iter()
            .map(|f| std::mem::size_of_val(f.data()))
            .sum()
    }

    /// The box array.
    #[inline]
    pub fn boxarray(&self) -> &Arc<BoxArray> {
        &self.ba
    }

    /// The distribution mapping.
    #[inline]
    pub fn distribution(&self) -> &Arc<DistributionMapping> {
        &self.dm
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Ghost width.
    #[inline]
    pub fn nghost(&self) -> i64 {
        self.nghost
    }

    /// Number of local patches.
    #[inline]
    pub fn nfabs(&self) -> usize {
        self.fabs.len()
    }

    /// The valid (ghost-free) box of patch `i`.
    #[inline]
    pub fn valid_box(&self, i: usize) -> IndexBox {
        self.ba.get(i)
    }

    /// Patch `i`'s fab (valid + ghost data).
    #[inline]
    pub fn fab(&self, i: usize) -> &FArrayBox {
        &self.fabs[i]
    }

    /// Patch `i`'s fab, mutably.
    #[inline]
    pub fn fab_mut(&mut self, i: usize) -> &mut FArrayBox {
        self.note_data_mutation();
        &mut self.fabs[i]
    }

    /// Split-borrow: mutable access to fab `i` plus shared access to all fabs,
    /// for neighbor-reading updates. (Returns `(dst, all_others)` where
    /// `all_others[i]` must not be used.)
    pub fn fabs_mut(&mut self) -> &mut [FArrayBox] {
        self.note_data_mutation();
        &mut self.fabs
    }

    /// Declares the ghost regions coherent with the current valid data.
    /// `fill_boundary` calls this itself; fill-patch sequences that apply
    /// physical BCs through `fabs_mut` afterwards must call it once the whole
    /// ghost shell is in its final state. No-op outside the `check` build.
    pub fn mark_ghosts_filled(&mut self) {
        #[cfg(feature = "check")]
        {
            self.check.ghost_epoch = Some(self.check.data_epoch);
        }
    }

    /// Traps a stale-ghost read: panics (in the `check` build) if
    /// valid data changed since the last ghost fill, or if ghosts
    /// were never filled at all. Kernels that consume ghost cells call this
    /// on entry; `_label` names the call site in the panic message.
    pub fn assert_ghosts_fresh(&self, _label: &str) {
        #[cfg(feature = "check")]
        {
            assert!(
                self.check.ghosts_fresh(),
                "fabcheck: stale ghost read in {_label}: data epoch {}, ghosts filled at {:?} \
                 (None = never) — a fill_boundary/fill_patch is missing",
                self.check.data_epoch,
                self.check.ghost_epoch
            );
        }
    }

    /// `true` when ghosts are coherent with the valid data. Always `true`
    /// outside the `check` build (no bookkeeping to consult).
    pub fn ghosts_fresh(&self) -> bool {
        #[cfg(feature = "check")]
        {
            self.check.ghosts_fresh()
        }
        #[cfg(not(feature = "check"))]
        {
            true
        }
    }

    #[inline]
    fn note_data_mutation(&mut self) {
        #[cfg(feature = "check")]
        {
            self.check.data_epoch += 1;
        }
    }

    #[inline]
    pub(crate) fn check_plan_gated(&self, _plan: &CopyPlan, _in_place: bool) {
        #[cfg(feature = "check")]
        fabcheck::check_plan(_plan, _in_place);
    }

    /// Iterator over `(patch_id, valid_box)` pairs — the MFIter analog.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, IndexBox)> + '_ {
        (0..self.fabs.len()).map(|i| (i, self.ba.get(i)))
    }

    /// Sets every component of every patch (including ghosts) to `v`.
    pub fn set_val(&mut self, v: f64) {
        for f in &mut self.fabs {
            f.fill(v);
        }
        // Ghosts were written too: the whole fab is coherent.
        self.note_data_mutation();
        self.mark_ghosts_filled();
    }

    /// Fills ghost cells of every patch from same-level neighbors (and
    /// periodic images): the `FillBoundary` operation. Returns the executed
    /// [`CopyPlan`] so callers can price it on the network model.
    ///
    /// Builds a fresh plan every call; steady-state loops should use
    /// [`MultiFab::fill_boundary_cached`] instead.
    pub fn fill_boundary(&mut self, domain: &ProblemDomain) -> CopyPlan {
        let plan = fill_boundary_plan(&self.ba, &self.dm, domain, self.nghost, self.ncomp);
        let groups = plan.dst_groups();
        self.check_plan_gated(&plan, true);
        execute_grouped(&mut self.fabs, None, &plan, &groups, 1);
        self.mark_ghosts_filled();
        plan
    }

    /// [`MultiFab::fill_boundary`] with a memoized plan and parallel
    /// execution: the plan is looked up in (or built into) `cache`, then its
    /// destination groups fan out over up to `threads` workers.
    pub fn fill_boundary_cached(
        &mut self,
        domain: &ProblemDomain,
        cache: &PlanCache,
        threads: usize,
    ) -> Arc<CachedPlan> {
        let cp = cache.fill_boundary(&self.ba, &self.dm, domain, self.nghost, self.ncomp);
        self.check_plan_gated(&cp.plan, true);
        execute_grouped(&mut self.fabs, None, &cp.plan, &cp.groups, threads);
        self.mark_ghosts_filled();
        cp
    }

    /// Copies data from `src` (a MultiFab over a *different* BoxArray) into
    /// this MultiFab's valid+ghost regions wherever they overlap: the
    /// `ParallelCopy` operation. Returns the executed plan.
    pub fn parallel_copy_from(&mut self, src: &MultiFab, domain: &ProblemDomain) -> CopyPlan {
        assert_eq!(self.ncomp, src.ncomp, "ParallelCopy component mismatch");
        let plan = parallel_copy_plan(
            &src.ba,
            &src.dm,
            &self.ba,
            &self.dm,
            domain,
            self.nghost,
            self.ncomp,
        );
        let groups = plan.dst_groups();
        self.check_plan_gated(&plan, false);
        execute_grouped(&mut self.fabs, Some(&src.fabs), &plan, &groups, 1);
        self.note_data_mutation();
        plan
    }

    /// Executes a caller-supplied *in-place* plan over this MultiFab (each
    /// chunk copies `region - shift` → `region` between this MultiFab's own
    /// fabs). A testing/tooling hook: the cached execution paths build their
    /// plans internally, but seeded-fault tests and future plan surgeries
    /// need to run a hand-built plan through the same grouped executor —
    /// under `fabcheck` the plan is proven alias-free first, so a seeded
    /// aliasing bug panics here instead of corrupting data.
    pub fn execute_plan(&mut self, plan: &CopyPlan, threads: usize) {
        self.check_plan_gated(plan, true);
        let groups = plan.dst_groups();
        execute_grouped(&mut self.fabs, None, plan, &groups, threads);
        self.note_data_mutation();
    }

    /// [`MultiFab::parallel_copy_from`] with a memoized plan and parallel
    /// execution.
    pub fn parallel_copy_from_cached(
        &mut self,
        src: &MultiFab,
        domain: &ProblemDomain,
        cache: &PlanCache,
        threads: usize,
    ) -> Arc<CachedPlan> {
        assert_eq!(self.ncomp, src.ncomp, "ParallelCopy component mismatch");
        let cp = cache.parallel_copy(
            &src.ba,
            &src.dm,
            &self.ba,
            &self.dm,
            domain,
            self.nghost,
            self.ncomp,
        );
        self.check_plan_gated(&cp.plan, false);
        execute_grouped(&mut self.fabs, Some(&src.fabs), &cp.plan, &cp.groups, threads);
        self.note_data_mutation();
        cp
    }

    /// Global minimum of `comp` over valid regions.
    pub fn min(&self, comp: usize) -> f64 {
        self.iter_valid()
            .map(|(i, b)| self.fabs[i].min_region(b, comp))
            .fold(f64::INFINITY, f64::min)
    }

    /// Global maximum of `comp` over valid regions.
    pub fn max(&self, comp: usize) -> f64 {
        self.iter_valid()
            .map(|(i, b)| self.fabs[i].max_region(b, comp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Global sum of `comp` over valid regions.
    pub fn sum(&self, comp: usize) -> f64 {
        self.iter_valid()
            .map(|(i, b)| self.fabs[i].sum_region(b, comp))
            .sum()
    }

    /// Global L2 norm of `comp` over valid regions.
    pub fn norm2(&self, comp: usize) -> f64 {
        self.iter_valid()
            .map(|(i, b)| self.fabs[i].norm2_sq_region(b, comp))
            .sum::<f64>()
            .sqrt()
    }

    /// L2 norm of the difference of one component between two compatible
    /// MultiFabs — the validation metric of §IV-A/§IV-C.
    pub fn l2_diff(&self, other: &MultiFab, comp: usize) -> f64 {
        assert_eq!(self.ba.boxes(), other.ba.boxes(), "incompatible BoxArrays");
        let mut acc = 0.0;
        let mut n = 0u64;
        for (i, b) in self.iter_valid() {
            for p in b.cells() {
                let d = self.fabs[i].get(p, comp) - other.fabs[i].get(p, comp);
                acc += d * d;
                n += 1;
            }
        }
        (acc / n.max(1) as f64).sqrt()
    }

    /// `true` if any valid-region value is NaN/∞. Unallocated placeholders
    /// of an owned-data MultiFab hold no values and are skipped.
    pub fn has_nonfinite(&self) -> bool {
        self.iter_valid()
            .any(|(i, b)| self.fabs[i].is_allocated() && self.fabs[i].has_nonfinite(b))
    }
}

/// Raw view of one fab: box geometry plus the data base pointer. Plan
/// execution works through these instead of `&`/`&mut FArrayBox` so that a
/// thread writing ghost cells of fab X never materializes a `&mut` that
/// aliases another thread's `&` into X's valid cells.
#[derive(Clone, Copy)]
pub(crate) struct RawFab {
    /// The fab's full (valid + ghost) box, kept for index-bounds
    /// `debug_assert`s on every chunk — raw-view construction must not rely
    /// on caller discipline alone even with `fabcheck` off.
    pub(crate) bx: IndexBox,
    lo: IntVect,
    nx: usize,
    ny: usize,
    nz: usize,
    /// Allocation length in `f64`s (`nx·ny·nz·ncomp`).
    pub(crate) len: usize,
    pub(crate) ptr: *mut f64,
}

impl RawFab {
    pub(crate) fn capture(f: &mut FArrayBox) -> Self {
        let bx = f.bx();
        let s = bx.size();
        let len = f.data().len();
        RawFab {
            bx,
            lo: bx.lo(),
            nx: s[0] as usize,
            ny: s[1] as usize,
            nz: s[2] as usize,
            len,
            ptr: f.data_mut().as_mut_ptr(),
        }
    }

    /// Read-only capture (the pointer is only ever read through).
    pub(crate) fn capture_const(f: &FArrayBox) -> Self {
        let bx = f.bx();
        let s = bx.size();
        let len = f.data().len();
        RawFab {
            bx,
            lo: bx.lo(),
            nx: s[0] as usize,
            ny: s[1] as usize,
            nz: s[2] as usize,
            len,
            ptr: f.data().as_ptr() as *mut f64,
        }
    }

    /// Number of components in the underlying allocation.
    #[inline]
    pub(crate) fn ncomp(&self) -> usize {
        self.len / (self.nx * self.ny * self.nz)
    }

    /// Flat offset of `(p, comp)` — mirrors [`FArrayBox::offset`].
    #[inline]
    pub(crate) fn offset(&self, p: IntVect, comp: usize) -> usize {
        debug_assert!(
            self.bx.contains(p),
            "raw-view index {p:?} outside fab box {:?}",
            self.bx
        );
        let i = (p[0] - self.lo[0]) as usize;
        let j = (p[1] - self.lo[1]) as usize;
        let k = (p[2] - self.lo[2]) as usize;
        ((comp * self.nz + k) * self.ny + j) * self.nx + i
    }
}

/// `&[RawFab]` wrapper asserting cross-thread shareability. Safe because the
/// executor's access pattern is disjoint (see [`execute_grouped`]).
struct RawFabs<'a>(&'a [RawFab]);
// SAFETY: the raw pointers inside are only dereferenced by `copy_chunk_raw`
// on chunk regions proven disjoint per destination group (see the safety
// argument on `execute_grouped`), so handing the view to another thread
// cannot create a data race.
unsafe impl Send for RawFabs<'_> {}
// SAFETY: shared references to `RawFabs` only expose `Copy` geometry data and
// raw pointers; all mutation goes through `copy_chunk_raw` under the same
// disjointness argument as `Send` above.
unsafe impl Sync for RawFabs<'_> {}

impl RawFabs<'_> {
    // Accessor (rather than direct `.0[i]` indexing in the worker closure) so
    // the closure captures the whole `Sync` wrapper, not the raw inner slice.
    #[inline]
    fn get(&self, i: usize) -> &RawFab {
        &self.0[i]
    }
}

/// Executes `plan` over `dst` (reading from `src`, or from `dst` itself when
/// `None`), fanning the destination groups out over up to `threads` workers.
///
/// # Safety argument
/// Writes go only to chunk regions of the group's own destination fab, and
/// each destination appears in exactly one group ([`CopyPlan::dst_groups`]
/// falls back to a single serial group otherwise), so no two threads write
/// the same fab. Reads target source regions (`region - shift`):
/// * `FillBoundary` plans read only *valid* cells and write only *ghost*
///   cells, which are disjoint sets within every fab — a concurrent read of
///   fab X's valid data and write of X's ghosts never touch the same `f64`.
/// * `ParallelCopy` plans read a different MultiFab entirely.
///
/// All access is through raw pointers (never `&mut`), so the disjointness of
/// the touched *cells* is the only requirement.
fn execute_grouped(
    dst: &mut [FArrayBox],
    src: Option<&[FArrayBox]>,
    plan: &CopyPlan,
    groups: &[(usize, usize)],
    threads: usize,
) {
    let ncomp = plan.ncomp;
    let dst_raw: Vec<RawFab> = dst.iter_mut().map(RawFab::capture).collect();
    let src_raw: Vec<RawFab> = match src {
        Some(s) => s.iter().map(RawFab::capture_const).collect(),
        None => dst_raw.clone(),
    };
    let d = RawFabs(&dst_raw);
    let s = RawFabs(&src_raw);
    parallel_for(groups.len(), threads, |g| {
        let (start, end) = groups[g];
        for c in &plan.chunks[start..end] {
            debug_assert!(
                c.region.is_empty() || d.get(c.dst_id).bx.contains_box(&c.region),
                "chunk writes {:?}, outside destination fab {} box {:?}",
                c.region,
                c.dst_id,
                d.get(c.dst_id).bx
            );
            debug_assert!(
                c.region.is_empty()
                    || s.get(c.src_id).bx.contains_box(&c.region.shift(-c.shift)),
                "chunk reads {:?}, outside source fab {} box {:?}",
                c.region.shift(-c.shift),
                c.src_id,
                s.get(c.src_id).bx
            );
            // SAFETY: the region lies in the destination fab's box and the
            // shifted region in the source fab's box (asserted above in debug
            // builds, guaranteed by the plan builders), and no other thread
            // touches these cells — each destination fab belongs to exactly
            // one group, and in-place reads target valid cells while writes
            // target ghost cells (see the function-level safety argument;
            // dynamically proven per-execution under `fabcheck`).
            unsafe { copy_chunk_raw(d.get(c.dst_id), s.get(c.src_id), c.region, c.shift, ncomp) };
        }
    });
}

/// Copies one chunk row-by-row through raw pointers: for every destination
/// cell `p` in `region`, `dst[p] = src[p - shift]`.
///
/// # Safety
/// `region` must lie in `dst`'s box and `region - shift` in `src`'s box, and
/// no other thread may concurrently access the touched cells (guaranteed by
/// [`execute_grouped`]'s grouping). Source and destination rows never
/// overlap: either the fabs differ, or (periodic self-copy) the source rows
/// lie in valid cells and the destination rows in ghost cells.
// SAFETY: an unsafe fn — every dereference below is bounds-checked in debug
// builds against the captured allocation length, and callers uphold the
// contract documented above.
pub(crate) unsafe fn copy_chunk_raw(
    dst: &RawFab,
    src: &RawFab,
    region: IndexBox,
    shift: IntVect,
    ncomp: usize,
) {
    if region.is_empty() {
        return;
    }
    crocco_runtime::taskcheck::record_access(dst.ptr as usize as u64, true, region);
    crocco_runtime::taskcheck::record_access(
        src.ptr as usize as u64,
        false,
        region.shift(-shift),
    );
    let nx = region.size()[0] as usize;
    for c in 0..ncomp {
        for k in region.lo()[2]..=region.hi()[2] {
            for j in region.lo()[1]..=region.hi()[1] {
                let dp = IntVect::new(region.lo()[0], j, k);
                let soff = src.offset(dp - shift, c);
                let doff = dst.offset(dp, c);
                debug_assert!(soff + nx <= src.len, "source row overruns allocation");
                debug_assert!(doff + nx <= dst.len, "destination row overruns allocation");
                let srow = src.ptr.add(soff);
                let drow = dst.ptr.add(doff);
                std::ptr::copy_nonoverlapping(srow, drow, nx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crocco_geometry::{decompose::ChopParams, IntVect};

    fn setup(nghost: i64) -> (MultiFab, ProblemDomain) {
        let domain_box = IndexBox::from_extents(16, 16, 8);
        let ba = Arc::new(BoxArray::decompose(domain_box, ChopParams::new(4, 8)));
        let dm = Arc::new(DistributionMapping::new(
            &ba,
            3,
            DistributionStrategy::MortonSfc,
        ));
        let mf = MultiFab::new(ba, dm, 2, nghost);
        let domain = ProblemDomain::new(domain_box, [false, false, true]);
        (mf, domain)
    }

    /// Fill valid regions with a global linear function of the index.
    fn fill_linear(mf: &mut MultiFab) {
        for i in 0..mf.nfabs() {
            let b = mf.valid_box(i);
            for p in b.cells() {
                let v0 = p[0] as f64 + 100.0 * p[1] as f64 + 10_000.0 * p[2] as f64;
                mf.fab_mut(i).set(p, 0, v0);
                mf.fab_mut(i).set(p, 1, -v0);
            }
        }
    }

    #[test]
    fn fill_boundary_reproduces_interior_values() {
        let (mut mf, domain) = setup(2);
        fill_linear(&mut mf);
        mf.fill_boundary(&domain);
        // Every ghost cell that maps into the domain interior must equal the
        // linear function there.
        for i in 0..mf.nfabs() {
            let valid = mf.valid_box(i);
            for p in valid.grow(2).cells() {
                if valid.contains(p) {
                    continue;
                }
                if !domain.bx.contains(p) {
                    continue; // physical boundary ghost, untouched
                }
                let expect = p[0] as f64 + 100.0 * p[1] as f64 + 10_000.0 * p[2] as f64;
                assert_eq!(mf.fab(i).get(p, 0), expect, "patch {i} cell {p:?}");
                assert_eq!(mf.fab(i).get(p, 1), -expect);
            }
        }
    }

    #[test]
    fn fill_boundary_periodic_wraps_in_z() {
        let (mut mf, domain) = setup(2);
        fill_linear(&mut mf);
        mf.fill_boundary(&domain);
        // A ghost cell below z=0 must hold the value from z wrapped to 7.
        let i = (0..mf.nfabs())
            .find(|&i| mf.valid_box(i).lo() == IntVect::new(0, 0, 0))
            .unwrap();
        let ghost = IntVect::new(0, 0, -1);
        let wrapped = IntVect::new(0, 0, 7);
        let expect = wrapped[0] as f64 + 100.0 * wrapped[1] as f64 + 10_000.0 * wrapped[2] as f64;
        assert_eq!(mf.fab(i).get(ghost, 0), expect);
    }

    #[test]
    fn parallel_copy_moves_across_boxarrays() {
        let (mut src, domain) = setup(0);
        fill_linear(&mut src);
        // Destination: a single box straddling several source patches.
        let dst_ba = Arc::new(BoxArray::new(vec![IndexBox::new(
            IntVect::new(2, 2, 2),
            IntVect::new(13, 13, 5),
        )]));
        let dst_dm = Arc::new(DistributionMapping::all_on_root(&dst_ba));
        let mut dst = MultiFab::new(dst_ba, dst_dm, 2, 1);
        let plan = dst.parallel_copy_from(&src, &domain);
        assert!(!plan.chunks.is_empty());
        for p in dst.valid_box(0).grow(1).cells() {
            let expect = p[0] as f64 + 100.0 * p[1] as f64 + 10_000.0 * p[2] as f64;
            assert_eq!(dst.fab(0).get(p, 0), expect);
        }
    }

    #[test]
    fn reductions_match_closed_forms() {
        let (mut mf, _domain) = setup(1);
        mf.set_val(3.0);
        let n = mf.boxarray().num_points() as f64;
        assert_eq!(mf.sum(0), 3.0 * n);
        assert_eq!(mf.min(0), 3.0);
        assert_eq!(mf.max(1), 3.0);
        assert!((mf.norm2(0) - 3.0 * n.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn l2_diff_is_zero_for_identical_and_positive_otherwise() {
        let (mut a, _d) = setup(0);
        fill_linear(&mut a);
        let b = a.clone();
        assert_eq!(a.l2_diff(&b, 0), 0.0);
        let lo = a.valid_box(0).lo();
        a.fab_mut(0).add(lo, 0, 1e-6);
        let d = a.l2_diff(&b, 0);
        assert!(d > 0.0 && d < 1e-6);
    }

    #[test]
    fn ghost_cells_not_counted_in_reductions() {
        let (mut mf, domain) = setup(2);
        mf.set_val(0.0);
        fill_linear(&mut mf);
        let sum_before = mf.sum(0);
        mf.fill_boundary(&domain); // populates ghosts
        assert_eq!(mf.sum(0), sum_before);
    }

    #[test]
    fn cached_fill_boundary_bitwise_matches_uncached() {
        let (mut a, domain) = setup(2);
        fill_linear(&mut a);
        let mut b = a.clone();
        let plan = a.fill_boundary(&domain);
        let cache = crate::plan_cache::PlanCache::new();
        let cp = b.fill_boundary_cached(&domain, &cache, 4);
        assert_eq!(cp.plan.chunks, plan.chunks);
        for i in 0..a.nfabs() {
            assert_eq!(a.fab(i).data(), b.fab(i).data(), "patch {i} differs");
        }
        // Second call hits the cache and leaves the data fixed-point.
        b.fill_boundary_cached(&domain, &cache, 4);
        assert_eq!(cache.hits(), 1);
        for i in 0..a.nfabs() {
            assert_eq!(a.fab(i).data(), b.fab(i).data());
        }
    }

    #[test]
    fn parallel_execution_matches_serial_for_all_thread_counts() {
        let (reference, domain) = {
            let (mut mf, domain) = setup(3);
            fill_linear(&mut mf);
            mf.fill_boundary(&domain);
            (mf, domain)
        };
        for threads in [1usize, 2, 3, 8, 32] {
            let (mut mf, _) = setup(3);
            fill_linear(&mut mf);
            let cache = crate::plan_cache::PlanCache::new();
            mf.fill_boundary_cached(&domain, &cache, threads);
            for i in 0..mf.nfabs() {
                assert_eq!(
                    mf.fab(i).data(),
                    reference.fab(i).data(),
                    "threads={threads} patch {i}"
                );
            }
        }
    }

    /// Tentpole acceptance: a deliberately-overlapping hand-built plan must
    /// be rejected before the unsafe executor ever runs it.
    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "plan aliasing")]
    fn seeded_overlapping_plan_is_caught() {
        use crate::plan::CopyChunk;
        let (mut mf, _domain) = setup(2);
        fill_linear(&mut mf);
        let valid = mf.valid_box(0);
        // Two chunks whose write regions overlap by one cell row.
        let r1 = IndexBox::new(valid.lo(), valid.lo() + IntVect::new(2, 1, 0));
        let r2 = r1.shift(IntVect::new(1, 0, 0));
        let chunks = [r1, r2]
            .into_iter()
            .map(|region| CopyChunk {
                src_id: 0,
                dst_id: 0,
                src_rank: 0,
                dst_rank: 0,
                region,
                shift: IntVect::new(0, 0, 2),
            })
            .collect();
        let plan = CopyPlan { chunks, ncomp: 2 };
        mf.execute_plan(&plan, 1);
    }

    /// Tentpole acceptance: reading ghosts after the valid data changed
    /// (i.e. a skipped `fill_boundary`) must trap.
    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "stale ghost read")]
    fn stale_ghosts_after_mutation_trap() {
        let (mut mf, domain) = setup(2);
        fill_linear(&mut mf);
        mf.fill_boundary(&domain);
        mf.assert_ghosts_fresh("first kernel"); // fresh: must not panic
        let lo = mf.valid_box(0).lo();
        mf.fab_mut(0).add(lo, 0, 1.0); // valid data changes…
        mf.assert_ghosts_fresh("second kernel"); // …ghosts now stale: traps
    }

    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "never")]
    fn never_filled_ghosts_trap() {
        let (mf, _domain) = setup(2);
        mf.assert_ghosts_fresh("kernel before any fill");
    }

    #[test]
    fn new_poisoned_without_feature_is_plain_new() {
        // Outside the `check` build a poisoned allocation must be the plain
        // zeroed one (bitwise-invisible); in it, poisoning is the point, and
        // a write clears it.
        let (mf, _domain) = setup(1);
        let mut p = MultiFab::new_owned_poisoned(
            mf.boxarray().clone(),
            mf.distribution().clone(),
            2,
            1,
            0,
        );
        let i = (0..p.nfabs()).find(|&i| p.is_allocated(i)).unwrap();
        let lo = p.valid_box(i).lo();
        if cfg!(feature = "check") {
            assert!(p.fab(i).get(lo, 0).is_nan());
        } else {
            assert_eq!(p.fab(i).get(lo, 0), 0.0);
        }
        p.fab_mut(i).fill(0.0);
        assert!(!p.fab(i).has_nonfinite(p.valid_box(i)));
    }

    #[test]
    fn owned_multifab_allocates_only_owned_patches() {
        let (mf, _domain) = setup(2);
        let ba = mf.boxarray().clone();
        let dm = mf.distribution().clone();
        let nranks = 3;
        let mut total_owned = 0usize;
        let mut full = 0usize;
        for rank in 0..nranks {
            let o = MultiFab::new_owned(ba.clone(), dm.clone(), 2, 2, rank);
            for i in 0..o.nfabs() {
                assert_eq!(o.is_allocated(i), dm.owner(i) == rank, "patch {i} rank {rank}");
                // Metadata is intact even for placeholders.
                assert_eq!(o.fab(i).bx(), ba.get(i).grow(2));
                assert_eq!(o.fab(i).ncomp(), 2);
            }
            total_owned += o.local_data_bytes();
            full = MultiFab::new(ba.clone(), dm.clone(), 2, 2).local_data_bytes();
            assert!(o.local_data_bytes() < full, "rank {rank} holds the full level");
        }
        // The ranks' owned allocations partition the replicated allocation.
        assert_eq!(total_owned, full);
    }

    #[cfg(feature = "check")]
    #[test]
    fn owned_poisoned_poisons_only_owned_patches() {
        let (mf, _domain) = setup(1);
        let dm = mf.distribution().clone();
        let rank = 1;
        let p = MultiFab::new_owned_poisoned(mf.boxarray().clone(), dm.clone(), 2, 1, rank);
        let i = (0..p.nfabs()).find(|&i| dm.owner(i) == rank).unwrap();
        let lo = p.valid_box(i).lo();
        assert!(p.fab(i).get(lo, 0).is_nan());
        let j = (0..p.nfabs()).find(|&i| dm.owner(i) != rank).unwrap();
        assert!(!p.is_allocated(j));
    }

    #[test]
    fn cached_parallel_copy_matches_uncached() {
        let (mut src, domain) = setup(0);
        fill_linear(&mut src);
        let dst_ba = Arc::new(BoxArray::new(vec![IndexBox::new(
            IntVect::new(2, 2, 2),
            IntVect::new(13, 13, 5),
        )]));
        let dst_dm = Arc::new(DistributionMapping::all_on_root(&dst_ba));
        let mut d1 = MultiFab::new(dst_ba.clone(), dst_dm.clone(), 2, 1);
        let mut d2 = d1.clone();
        d1.parallel_copy_from(&src, &domain);
        let cache = crate::plan_cache::PlanCache::new();
        d2.parallel_copy_from_cached(&src, &domain, &cache, 4);
        assert_eq!(d1.fab(0).data(), d2.fab(0).data());
    }
}
