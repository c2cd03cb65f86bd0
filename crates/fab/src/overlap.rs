//! The vocabulary the RK-stage executor ([`crate::dist_overlap`]) shares with
//! the physics closures the solver hands it: which fabs a stage touches
//! ([`StageFabs`]), which part of a patch one sweep call covers
//! ([`SweepPhase`]), and the slab decomposition of a patch's boundary band
//! ([`band_slabs`]).

use crate::fab::FArrayBox;
use crate::multifab::MultiFab;
use crocco_geometry::IndexBox;

/// Which part of a patch a kernel sweep covers.
///
/// A patch is swept either in one [`Whole`](SweepPhase::Whole) call or as an
/// [`Interior`](SweepPhase::Interior) + [`BoundaryBand`](SweepPhase::BoundaryBand)
/// pair. The split exists to hide *remote* halo latency behind the interior
/// sweep, and costs recomputed stencil-halo primitives at every slab seam,
/// so the executor splits exactly the patches whose halo task waits on a
/// receive and sweeps every other patch whole. Every valid cell lies in
/// exactly one swept region either way, so the choice is bitwise-invisible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepPhase {
    /// The whole valid box in one call, after the patch's halo task. The
    /// sweep must zero the patch's RHS fab first.
    Whole,
    /// The ghost-independent core: the valid box shrunk by the ghost width.
    /// Runs with no dependencies. The sweep must also zero the patch's RHS
    /// fab first — the phase always runs, even when the core is empty.
    Interior,
    /// The boundary band (valid minus interior), whose stencils reach into
    /// ghost cells. Runs after the patch's halo task and its interior sweep.
    BoundaryBand,
}

/// The per-level fabs one RK stage reads and writes.
pub struct StageFabs<'a> {
    /// Conserved state: ghosts filled by halo tasks, valid cells updated
    /// last.
    pub state: &'a mut MultiFab,
    /// Low-storage RK accumulator (no ghosts).
    pub du: &'a mut MultiFab,
    /// Per-patch RHS scratch, one fab per patch.
    pub rhs: &'a mut [FArrayBox],
}

/// Decomposes `valid` minus `interior` into disjoint axis-aligned slabs
/// (x-low/high full-face slabs, then y slabs restricted to the interior's x
/// range, then z slabs restricted to the interior's x–y range). Returns
/// `[valid]` when the interior is empty. Every band cell lands in exactly
/// one slab, so sweeping the slabs accumulates each cell's RHS exactly once
/// — in the same per-cell operation order as one sweep over `valid`.
pub fn band_slabs(valid: IndexBox, interior: IndexBox) -> Vec<IndexBox> {
    if interior.is_empty() {
        return vec![valid];
    }
    debug_assert!(valid.contains_box(&interior));
    let mut slabs = Vec::with_capacity(6);
    let mut core = valid;
    for dir in 0..3 {
        let lo_gap = interior.lo()[dir] - core.lo()[dir];
        if lo_gap > 0 {
            slabs.push(core.grow_hi(dir, lo_gap - core.size()[dir]));
        }
        let hi_gap = core.hi()[dir] - interior.hi()[dir];
        if hi_gap > 0 {
            slabs.push(core.grow_lo(dir, hi_gap - core.size()[dir]));
        }
        core = core.grow_lo(dir, -lo_gap).grow_hi(dir, -hi_gap);
    }
    debug_assert_eq!(core, interior);
    slabs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_geometry::IntVect;

    #[test]
    fn band_slabs_partition_the_band() {
        let valid = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(15, 11, 9));
        let interior = valid.grow(-4);
        let slabs = band_slabs(valid, interior);
        assert_eq!(slabs.len(), 6);
        let total: u64 = slabs.iter().map(|s| s.num_points()).sum();
        assert_eq!(total, valid.num_points() - interior.num_points());
        // Disjointness: pairwise empty intersections, none meets interior.
        for (a, s) in slabs.iter().enumerate() {
            assert!(s.intersection(&interior).is_empty());
            for t in &slabs[a + 1..] {
                assert!(s.intersection(t).is_empty(), "{s:?} overlaps {t:?}");
            }
        }
    }

    #[test]
    fn band_slabs_empty_interior_returns_valid() {
        let valid = IndexBox::from_extents(6, 6, 6);
        assert_eq!(band_slabs(valid, valid.grow(-4)), vec![valid]);
    }

    #[test]
    fn band_slabs_one_sided_interior() {
        // Interior flush against the low faces: only high-side slabs.
        let valid = IndexBox::from_extents(8, 8, 8);
        let interior = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 3, 3));
        let slabs = band_slabs(valid, interior);
        let total: u64 = slabs.iter().map(|s| s.num_points()).sum();
        assert_eq!(total, valid.num_points() - interior.num_points());
        for s in &slabs {
            assert!(s.intersection(&interior).is_empty());
        }
    }
}
