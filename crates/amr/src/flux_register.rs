//! Flux registers: conservation repair at coarse–fine interfaces.
//!
//! AMReX-core provides flux registers for subcycling codes: the coarse level
//! advances with its own face fluxes, the fine level with (more accurate)
//! fine-face fluxes, and the register accumulates both sides on every coarse
//! interface face so a *reflux* pass can replace the coarse flux with the
//! time-and-area sum of the fine fluxes — repairing the uncovered coarse
//! cells and restoring global conservation (§III-C's "lacks conservation of
//! quantities across interfaces" concern). The subcycled driver uses it like
//! this (docs/ARCHITECTURE.md §Subcycling):
//!
//! - the coarse advance records its interface fluxes with
//!   [`FluxRegister::add_coarse_flux`], weighted by the net RK flux weight
//!   of each stage;
//! - each fine substep records every fine face crossing the interface with
//!   [`FluxRegister::add_fine_flux`], weighted by the stage weight times
//!   `dt_fine/dt_coarse` (the substep's share of the coarse step);
//! - after the substeps, [`FluxRegister::reflux`] applies
//!   `U[cell] += sign · dt_coarse · (Σfine − coarse) / J(cell)` to the
//!   uncovered coarse cells.
//!
//! The coarse and fine accumulations are kept **separate** per face and
//! combined only inside `reflux`, in one canonical order — so the final
//! correction is bitwise-independent of which rank or executor contributed
//! which side, and a face whose fine fluxes exactly match the coarse flux
//! produces a bitwise-zero correction.
//!
//! The register is flat, AMReX-`FluxRegister` style: the interface faces are
//! numbered once per regrid in canonical order — by coarse patch, then cell
//! (z-major, x fastest), direction and sign — and each side accumulates into
//! one `nfaces × ncomp` array. Callers resolve a face to its index (its
//! *slot*) once, when they build their recording geometry, and from then on
//! fold, ship and reflux by index; `reflux` walks each coarse patch's
//! contiguous slot range, which visits the interface faces in the order a
//! per-cell scan of the patch would.
//!
//! The fluxes recorded are the *computational-space* contravariant fluxes
//! `F̂ = Σ_j m_j F_j(U)` the WENO sweep differenced: the metric `m = J·∇ξ`
//! already carries the face area, so `ratio²` fine-face fluxes sum directly
//! to one coarse-face flux with no extra area weight (on a refined uniform
//! grid `m_fine = m_coarse/4` exactly). Convective fluxes only — the viscous
//! operator is not registered, so refluxed conservation is exact for
//! inviscid runs. The register is not periodic-aware: a face whose coarse
//! cell lies in no coarse patch (outside the domain) is not part of it.

use crocco_fab::{BoxArray, MultiFab};
use crocco_geometry::{IndexBox, IntVect};
use std::ops::Range;

/// One face of the coarse–fine interface: the coarse cell it borders (on the
/// *coarse, uncovered* side), the face direction, and the orientation sign
/// (see [`InterfaceFace::sign`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InterfaceFace {
    /// The uncovered coarse cell adjacent to the interface.
    pub cell: IntVect,
    /// Face direction (0, 1, 2).
    pub dir: usize,
    /// Sign of the refluxed tendency `sign·δF/J`: −1 when the shared face
    /// is the coarse cell's *high* face (fine level above it), +1 when it is
    /// the cell's *low* face — the flux-difference orientation of
    /// `dU = −(F_hi − F_lo)/J`.
    pub sign: i8,
}

impl InterfaceFace {
    /// The canonical order within a patch: cell z-major (x fastest, the
    /// order of `IndexBox::cells`), then direction, then sign.
    fn order(&self) -> (i64, i64, i64, usize, i8) {
        (self.cell[2], self.cell[1], self.cell[0], self.dir, self.sign)
    }
}

/// Accumulates coarse/fine flux mismatches over the coarse–fine interface of
/// one level pair.
#[derive(Clone, Debug)]
pub struct FluxRegister {
    ncomp: usize,
    ratio: IntVect,
    /// The interface faces, in canonical order (module docs).
    faces: Vec<InterfaceFace>,
    /// Per coarse patch, its range of `faces`.
    patch_ranges: Vec<Range<usize>>,
    /// Slots sorted by [`InterfaceFace::order`], for [`index_of`](Self::index_of).
    by_face: Vec<usize>,
    /// Coarse-side accumulators, `nfaces × ncomp`.
    coarse: Vec<f64>,
    /// Fine-side accumulators, `nfaces × ncomp`.
    fine: Vec<f64>,
}

impl FluxRegister {
    /// Builds the register for the interface between `fine_ba` (fine index
    /// space) and the coarse level `coarse_ba`. Every fine boundary face
    /// whose coarse neighbor is *not* covered by the fine level, and lies in
    /// a coarse patch, becomes a register face.
    pub fn new(coarse_ba: &BoxArray, fine_ba: &BoxArray, ratio: IntVect, ncomp: usize) -> Self {
        let coarsened = fine_ba.coarsen(ratio);
        // (coarse patch, face) for every interface face.
        let mut tagged: Vec<(usize, InterfaceFace)> = Vec::new();
        for fb in coarsened.boxes() {
            for dir in 0..3 {
                for (outside, sign) in [
                    (fb.grow_lo(dir, 1).grow_hi(dir, -(fb.length(dir))), -1i8),
                    (fb.grow_hi(dir, 1).grow_lo(dir, -(fb.length(dir))), 1i8),
                ] {
                    for cell in outside.cells() {
                        let probe = IndexBox::new(cell, cell);
                        if coarsened.intersects_any(probe) {
                            continue;
                        }
                        if let Some(&(p, _)) = coarse_ba.intersections(probe).first() {
                            tagged.push((p, InterfaceFace { cell, dir, sign }));
                        }
                    }
                }
            }
        }
        tagged.sort_by_key(|(p, f)| (*p, f.order()));
        tagged.dedup();
        let faces: Vec<InterfaceFace> = tagged.iter().map(|(_, f)| *f).collect();
        let patch_ranges = (0..coarse_ba.len())
            .map(|p| {
                tagged.partition_point(|(q, _)| *q < p)..tagged.partition_point(|(q, _)| *q <= p)
            })
            .collect();
        let mut by_face: Vec<usize> = (0..faces.len()).collect();
        by_face.sort_by_key(|&k| faces[k].order());
        FluxRegister {
            ncomp,
            ratio,
            coarse: vec![0.0; faces.len() * ncomp],
            fine: vec![0.0; faces.len() * ncomp],
            faces,
            patch_ranges,
            by_face,
        }
    }

    /// Number of interface faces being tracked.
    pub fn nfaces(&self) -> usize {
        self.faces.len()
    }

    /// Number of components per face.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// The interface faces, indexed by slot.
    pub fn faces(&self) -> &[InterfaceFace] {
        &self.faces
    }

    /// The slots of the faces whose coarse cell lies in coarse patch `p`, in
    /// canonical order.
    pub fn patch_faces(&self, p: usize) -> Range<usize> {
        self.patch_ranges[p].clone()
    }

    /// The slot of `face`, if it is part of the interface.
    pub fn index_of(&self, face: &InterfaceFace) -> Option<usize> {
        let key = face.order();
        self.by_face
            .binary_search_by_key(&key, |&k| self.faces[k].order())
            .ok()
            .map(|i| self.by_face[i])
    }

    /// Clears the accumulators.
    pub fn reset(&mut self) {
        self.coarse.fill(0.0);
        self.fine.fill(0.0);
    }

    /// The register face crossed by the *outward* boundary face of
    /// `fine_cell` in `dir`: its low face when `high` is false (the coarse
    /// neighbor sits below, `sign = −1` from that neighbor's viewpoint), its
    /// high face when `high` is true (`sign = +1`). The caller is
    /// responsible for only passing faces on the fine-union boundary; use
    /// [`index_of`](Self::index_of) to drop faces that border another fine
    /// patch or the domain exterior.
    pub fn fine_face(&self, fine_cell: IntVect, dir: usize, high: bool) -> InterfaceFace {
        let outside = if high {
            fine_cell + IntVect::unit(dir)
        } else {
            fine_cell - IntVect::unit(dir)
        };
        let cell = IntVect::new(
            outside[0].div_euclid(self.ratio[0]),
            outside[1].div_euclid(self.ratio[1]),
            outside[2].div_euclid(self.ratio[2]),
        );
        InterfaceFace {
            cell,
            dir,
            // From the coarse neighbor's viewpoint: a fine *low*-boundary
            // face is that neighbor's high face (sign −1), and vice versa.
            sign: if high { 1 } else { -1 },
        }
    }

    fn span(&self, slot: usize) -> Range<usize> {
        slot * self.ncomp..(slot + 1) * self.ncomp
    }

    /// Records the *coarse* flux through face `slot`:
    /// `coarse[c] += weight·flux[c]`. The subcycled driver folds the coarse
    /// step's stage-weighted sum with weight 1.
    pub fn add_coarse_flux(&mut self, slot: usize, flux: &[f64], weight: f64) {
        let span = self.span(slot);
        for (a, f) in self.coarse[span].iter_mut().zip(flux) {
            *a += weight * f;
        }
    }

    /// Records one *fine* face flux crossing coarse face `slot`:
    /// `fine[c] += weight·flux[c]`. The driver passes `dt_fine/dt_coarse`;
    /// the `ratio²` fine faces crossing one coarse face all accumulate into
    /// the same slot (no area weight — the contravariant flux already
    /// carries the fine face metric).
    pub fn add_fine_flux(&mut self, slot: usize, flux: &[f64], weight: f64) {
        let span = self.span(slot);
        for (a, f) in self.fine[span].iter_mut().zip(flux) {
            *a += weight * f;
        }
    }

    /// The fine-side accumulation of face `slot` — what the owned
    /// distributed path ships from the fine patch's owner to the coarse
    /// cell's owner before refluxing.
    pub fn fine_part(&self, slot: usize) -> &[f64] {
        &self.fine[self.span(slot)]
    }

    /// Merges a fine-side contribution received from another rank:
    /// `fine[c] += part[c]`. Each face has exactly one fine contributor
    /// patch, so the merge lands on an all-zero accumulator and the result
    /// is bitwise what the sender held.
    pub fn add_fine_part(&mut self, slot: usize, part: &[f64]) {
        let span = self.span(slot);
        for (a, p) in self.fine[span].iter_mut().zip(part) {
            *a += p;
        }
    }

    /// Applies the accumulated corrections to the coarse state:
    /// `U[cell] += sign · dt · (fine − coarse) / J(cell)` — the reflux pass,
    /// with the dt scaling the subcycled driver defers to here and the cell
    /// Jacobian (`metrics` component `jac_comp`) converting the
    /// computational-space face flux into a cell tendency. Visits each
    /// allocated (owned) patch's interface faces in canonical order — cell,
    /// then direction, then sign — so corrections to a cell with several
    /// interface faces are applied in a rank-count-independent sequence, and
    /// touches no other cell. `coarse` is the level `new` was given.
    pub fn reflux(&self, coarse: &mut MultiFab, metrics: &MultiFab, jac_comp: usize, dt: f64) {
        for (i, range) in self.patch_ranges.iter().enumerate() {
            if range.is_empty() || !coarse.is_allocated(i) {
                continue;
            }
            let met = metrics.fab(i);
            let fab = coarse.fab_mut(i);
            for slot in range.clone() {
                let InterfaceFace { cell, sign, .. } = self.faces[slot];
                let jac = met.get(cell, jac_comp);
                let span = self.span(slot);
                for (c, (f, k)) in self.fine[span.clone()].iter().zip(&self.coarse[span]).enumerate() {
                    let delta = f - k;
                    fab.add(cell, c, sign as f64 * dt * delta / jac);
                }
            }
        }
    }

    /// Sum of absolute accumulated mismatch `|fine − coarse|` over all faces
    /// and components (diagnostics). Exactly `0.0` when every face's fine
    /// fluxes cancel its coarse flux bitwise.
    pub fn total_mismatch(&self) -> f64 {
        self.fine
            .iter()
            .zip(&self.coarse)
            .map(|(f, c)| (f - c).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_fab::DistributionMapping;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn fine_ba() -> BoxArray {
        // One fine patch in the middle of a 16³ coarse domain.
        BoxArray::new(vec![IndexBox::new(
            IntVect::new(8, 8, 8),
            IntVect::new(23, 23, 23),
        )])
    }

    fn coarse_ba() -> BoxArray {
        BoxArray::new(vec![IndexBox::from_extents(16, 16, 16)])
    }

    fn register(ncomp: usize) -> FluxRegister {
        FluxRegister::new(&coarse_ba(), &fine_ba(), IntVect::splat(2), ncomp)
    }

    fn slot(r: &FluxRegister, cell: IntVect, dir: usize, sign: i8) -> usize {
        r.index_of(&InterfaceFace { cell, dir, sign }).expect("interface face")
    }

    /// A single-patch coarse level over the 16³ domain, all cells `v`.
    fn coarse_level(v: f64) -> MultiFab {
        let ba = Arc::new(coarse_ba());
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let mut coarse = MultiFab::new(ba, dm, 1, 0);
        coarse.set_val(v);
        coarse
    }

    /// A unit-Jacobian "metrics" MultiFab matching `coarse`'s layout.
    fn unit_jac(like: &MultiFab) -> MultiFab {
        let mut m = MultiFab::new(like.boxarray().clone(), like.distribution().clone(), 1, 0);
        m.set_val(1.0);
        m
    }

    #[test]
    fn register_tracks_the_whole_interface_shell() {
        let r = register(5);
        // Coarsened patch is 8³: interface = 6 faces × 64 cells.
        assert_eq!(r.nfaces(), 6 * 64);
        assert_eq!(r.patch_faces(0), 0..r.nfaces());
    }

    #[test]
    fn identical_coarse_and_fine_fluxes_give_bitwise_zero_correction() {
        // The satellite property: a coarse flux of 2.0 against the
        // physically identical fine fluxes — 4 fine faces of 0.5 (the
        // contravariant flux carries the quarter-area fine metric), over 2
        // substeps at weight dt_f/dt_c = 0.5 — cancels *bitwise*, because
        // 4·(2·0.5·0.5) is exact in binary floating point.
        let mut r = register(1);
        let face = slot(&r, IntVect::new(3, 5, 5), 0, -1);
        r.add_coarse_flux(face, &[2.0], 1.0);
        for _substep in 0..2 {
            for _fine_face in 0..4 {
                r.add_fine_flux(face, &[0.5], 0.5);
            }
        }
        assert_eq!(r.total_mismatch(), 0.0);

        // And the reflux pass leaves the coarse state bitwise untouched.
        let mut coarse = coarse_level(1.0);
        let jac = unit_jac(&coarse);
        r.reflux(&mut coarse, &jac, 0, 0.37);
        for p in coarse.valid_box(0).cells() {
            assert_eq!(coarse.fab(0).get(p, 0).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn reflux_restores_conservation() {
        // Coarse level loses mass through an interface face because the
        // coarse flux overestimated; the register repairs it exactly.
        let mut coarse = coarse_level(1.0);
        let before = coarse.sum(0);
        let mut r = register(1);
        let face = slot(&r, IntVect::new(3, 9, 9), 0, -1);
        // Coarse flux 3.0; the 4 fine faces sum to 2.0: δF = −1.0.
        r.add_coarse_flux(face, &[3.0], 1.0);
        for _ in 0..4 {
            r.add_fine_flux(face, &[0.5], 1.0);
        }
        let jac = unit_jac(&coarse);
        r.reflux(&mut coarse, &jac, 0, 1.0);
        // The adjacent coarse cell received sign·dt·δF = (−1)·(−1) = +1.
        assert!((coarse.fab(0).get(IntVect::new(3, 9, 9), 0) - 2.0).abs() < 1e-14);
        assert!((coarse.sum(0) - before - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reflux_scales_with_dt() {
        let mut coarse = coarse_level(0.0);
        let mut r = register(1);
        let face = slot(&r, IntVect::new(3, 9, 9), 0, -1);
        r.add_fine_flux(face, &[1.0], 1.0); // δ = +1 on that face
        let jac = unit_jac(&coarse);
        r.reflux(&mut coarse, &jac, 0, 0.25);
        assert!((coarse.fab(0).get(IntVect::new(3, 9, 9), 0) - (-0.25)).abs() < 1e-15);
    }

    /// The flat reflux applies, to every coarse cell, bitwise the per-cell
    /// sequence the register's former scan applied — every cell of the
    /// patch, three directions, both signs, one keyed lookup each — here on
    /// an L-shaped fine level whose concave corner puts two and three
    /// interface faces on one coarse cell.
    #[test]
    fn flat_reflux_equals_the_per_cell_scan_on_multi_face_cells() {
        let fine = BoxArray::new(vec![
            IndexBox::new(IntVect::new(8, 8, 8), IntVect::new(23, 15, 15)),
            IndexBox::new(IntVect::new(8, 16, 8), IntVect::new(15, 23, 15)),
        ]);
        let ba = Arc::new(BoxArray::new(vec![
            IndexBox::new(IntVect::ZERO, IntVect::new(7, 15, 15)),
            IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(15, 15, 15)),
        ]));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let mut r = FluxRegister::new(&ba, &fine, IntVect::splat(2), 2);
        for (k, f) in r.faces().to_vec().into_iter().enumerate() {
            let x = (k as f64 * 0.618034).fract();
            let slot = r.index_of(&f).unwrap();
            assert_eq!(slot, k, "slots are positions in canonical order");
            r.add_coarse_flux(slot, &[x, 1.0 - x], 1.0);
            r.add_fine_flux(slot, &[0.3 * x, x * x], 0.5);
        }
        let corner = IntVect::new(8, 8, 5);
        let at_corner = r.faces().iter().filter(|f| f.cell == corner).count();
        assert!(at_corner >= 2, "a coarse cell with several interface faces: {at_corner}");

        let mut coarse = MultiFab::new(ba.clone(), dm.clone(), 2, 0);
        for i in 0..coarse.nfabs() {
            for (n, v) in coarse.fab_mut(i).data_mut().iter_mut().enumerate() {
                *v = 1.0 + (n as f64 * 0.7548776662).fract();
            }
        }
        let mut met = MultiFab::new(ba, dm, 1, 0);
        for i in 0..met.nfabs() {
            for (n, v) in met.fab_mut(i).data_mut().iter_mut().enumerate() {
                *v = 0.5 + (n as f64 * 0.324718).fract();
            }
        }
        // The scan: what `reflux` did when the faces were hash keys.
        let keyed: HashMap<InterfaceFace, usize> =
            r.faces().iter().enumerate().map(|(k, f)| (*f, k)).collect();
        let mut want = coarse.clone();
        let dt = 0.37;
        for i in 0..want.nfabs() {
            for cell in want.valid_box(i).cells() {
                for dir in 0..3 {
                    for sign in [-1i8, 1i8] {
                        if let Some(&k) = keyed.get(&InterfaceFace { cell, dir, sign }) {
                            let jac = met.fab(i).get(cell, 0);
                            for c in 0..2 {
                                let delta = r.fine_part(k)[c] - r.coarse[k * 2 + c];
                                want.fab_mut(i).add(cell, c, sign as f64 * dt * delta / jac);
                            }
                        }
                    }
                }
            }
        }
        r.reflux(&mut coarse, &met, 0, dt);
        for i in 0..coarse.nfabs() {
            let bits = |mf: &MultiFab| mf.fab(i).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&coarse), bits(&want), "patch {i}");
        }
    }

    #[test]
    fn fine_face_maps_boundary_faces_to_register_keys() {
        let r = register(1);
        // Fine cell (8,10,10) sits on the fine patch's low-x boundary: its
        // low-x face crosses the coarse face at uncovered cell (3,5,5).
        let f = r.fine_face(IntVect::new(8, 10, 10), 0, false);
        assert_eq!(f.cell, IntVect::new(3, 5, 5));
        assert_eq!((f.dir, f.sign), (0, -1));
        assert!(r.index_of(&f).is_some());
        // Fine cell (23,10,10) on the high-x boundary: high-x face crosses
        // the coarse face at uncovered cell (12,5,5).
        let f = r.fine_face(IntVect::new(23, 10, 10), 0, true);
        assert_eq!(f.cell, IntVect::new(12, 5, 5));
        assert_eq!((f.dir, f.sign), (0, 1));
        assert!(r.index_of(&f).is_some());
        // An interior fine face maps to a covered cell: not in the register.
        let f = r.fine_face(IntVect::new(12, 10, 10), 0, false);
        assert!(r.index_of(&f).is_none());
    }

    #[test]
    fn faces_are_numbered_in_canonical_order() {
        let r = register(1);
        let mut sorted = r.faces().to_vec();
        sorted.sort_by_key(|f| f.order());
        assert_eq!(r.faces(), &sorted[..]);
        for (k, f) in r.faces().iter().enumerate() {
            assert_eq!(r.index_of(f), Some(k));
        }
    }

    #[test]
    fn faces_not_on_the_interface_are_ignored() {
        // A face of a covered coarse cell has no slot: nothing can be
        // recorded against it, and the register stays clean.
        let r = register(1);
        let inside = InterfaceFace {
            cell: IntVect::new(10, 10, 10), // covered by the fine patch
            dir: 0,
            sign: 1,
        };
        assert!(r.index_of(&inside).is_none());
        assert_eq!(r.total_mismatch(), 0.0);
    }

    #[test]
    fn faces_outside_every_coarse_patch_are_not_part_of_the_interface() {
        // A fine patch against the low-x domain face: its low-x interface
        // would sit at coarse x = −1, in no coarse patch.
        let fine = BoxArray::new(vec![IndexBox::new(IntVect::new(0, 8, 8), IntVect::new(7, 15, 15))]);
        let r = FluxRegister::new(&coarse_ba(), &fine, IntVect::splat(2), 1);
        assert_eq!(r.nfaces(), 5 * 16);
        assert!(r.faces().iter().all(|f| f.cell[0] >= 0));
    }

    #[test]
    fn fine_parts_merge_bitwise_across_owners() {
        // Simulate the owned-mode exchange: the fine owner accumulates, the
        // coarse owner merges the shipped part onto zeros — bitwise equal to
        // single-rank accumulation.
        let mut serial = register(1);
        let face = slot(&serial, IntVect::new(3, 5, 5), 0, -1);
        let mut fine_owner = serial.clone();
        let mut coarse_owner = serial.clone();
        for k in 0..8 {
            let f = [0.1 * (k as f64 + 1.0)];
            serial.add_fine_flux(face, &f, 0.5);
            fine_owner.add_fine_flux(face, &f, 0.5);
        }
        serial.add_coarse_flux(face, &[1.7], 1.0);
        coarse_owner.add_coarse_flux(face, &[1.7], 1.0);
        let part = fine_owner.fine_part(face).to_vec();
        coarse_owner.add_fine_part(face, &part);
        assert_eq!(
            serial.total_mismatch().to_bits(),
            coarse_owner.total_mismatch().to_bits()
        );
    }
}
