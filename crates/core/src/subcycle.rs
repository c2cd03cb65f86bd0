//! Subcycling support structures: per-level-pair flux registers with
//! deterministic per-patch recording buffers (docs/ARCHITECTURE.md
//! §Subcycling).
//!
//! With `SolverConfig::subcycling` on, level `ℓ` advances with `dt/2^ℓ` and
//! the coarse/fine interface sees *different* time integrals of the flux from
//! the two sides. [`InterfaceReg`] wraps a [`FluxRegister`] with the
//! recording geometry resolved once per regrid generation:
//!
//! - `coarse_faces[p]` — for coarse patch `p`, every register face inside its
//!   valid box, in the register's slot order (`patch_faces(p)`), each as the
//!   cell whose *low* `dir`-face is the shared face ([`FaceAt`]).
//! - `fine_faces[j]` — for fine patch `j`, every boundary face of the patch
//!   that lands on the coarse/fine interface (faces against a *neighboring
//!   fine patch* map to covered coarse cells and are no register face), with
//!   its register slot in `fine_slots[j]`.
//!
//! The WENO sweep of each patch hands the fluxes of its faces to a
//! [`FaceSink`] over the patch's per-stage buffers (`Mutex<Vec<f64>>`,
//! `w·F̂` with `w` = [`TimeScheme::net_flux_weight`]), read from the face
//! rows it has just reconstructed. The buffers are folded into the register
//! once per (sub)step — coarse side with weight 1, fine side with
//! `dt_fine/dt_coarse` — by slot, in canonical patch order. Keeping the two
//! sides separate per face makes the accumulation order independent of
//! execution mode and rank count, so serial, overlapped, and owned-data
//! subcycling agree bitwise (`tests/invariance_matrix.rs`).
//!
//! Faces outside the coarse domain are no register faces: there is no
//! coarse flux to repair against. This also excludes periodically-wrapped
//! interfaces — a fine level touching a periodic boundary falls back to
//! AverageDown-only conservation there.
//!
//! [`FaceSink`]: crate::kernels::FaceSink
//! [`TimeScheme::net_flux_weight`]: crate::integrators::TimeScheme::net_flux_weight

use crate::kernels::FaceAt;
use crate::state::NCONS;
use crocco_amr::flux_register::FluxRegister;
use crocco_fab::BoxArray;
use crocco_geometry::{IndexBox, IntVect};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-substep context threaded through the fill/advance paths when
/// subcycling. `None` everywhere means the lockstep path (bitwise-unchanged).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SubCtx {
    /// The time at the start of this (sub)step — the boundary-condition
    /// evaluation time for fills.
    pub t: f64,
    /// Coarse old/new blend factor for two-level fills: `Some((t_fill −
    /// t_coarse_old)/dt_coarse)` on refined levels, `None` at level 0.
    pub alpha: Option<f64>,
}

/// The flux register for one coarse/fine level pair plus the per-patch
/// recording geometry and stage-accumulation buffers.
pub(crate) struct InterfaceReg {
    /// The underlying register (coarse index space of the pair).
    pub register: FluxRegister,
    /// The fine BoxArray this geometry was resolved against (identity-compared
    /// to detect regrids).
    pub fine_ba: Arc<BoxArray>,
    /// The coarse BoxArray this geometry was resolved against.
    pub coarse_ba: Arc<BoxArray>,
    /// Per coarse patch: its register faces, slot order.
    pub coarse_faces: Vec<Vec<FaceAt>>,
    /// Per fine patch: its boundary faces on the coarse/fine interface.
    pub fine_faces: Vec<Vec<FaceAt>>,
    /// Per fine patch: the register slot of each of `fine_faces[j]`.
    pub fine_slots: Vec<Vec<usize>>,
    /// Per coarse patch: `coarse_faces[p].len() × NCONS` stage accumulator.
    pub coarse_buf: Vec<Mutex<Vec<f64>>>,
    /// Per fine patch: `fine_faces[j].len() × NCONS` stage accumulator.
    pub fine_buf: Vec<Mutex<Vec<f64>>>,
    /// Owned-mode reflux shipping manifest: `(fine patch j, coarse patch p,
    /// unique register slots)` for every pair sharing interface faces, in
    /// deterministic `(j, first-occurrence)` order. Blocked grids put all
    /// `ratio²` fine sub-faces of a coarse face inside **one** fine patch, so
    /// each face appears exactly once and a shipped fine-side sum merges onto
    /// an all-zero accumulator on the coarse owner — bitwise what a single
    /// rank would have folded.
    pub fine_ship: Vec<(usize, usize, Vec<usize>)>,
}

/// Locks a stage buffer. A poisoned lock means a sweep panicked mid-stage;
/// the stage has failed and its buffers are reset before the next use, so
/// the data inside is taken as is.
pub(crate) fn lock(buf: &Mutex<Vec<f64>>) -> MutexGuard<'_, Vec<f64>> {
    buf.lock().unwrap_or_else(PoisonError::into_inner)
}

impl InterfaceReg {
    /// Resolves the recording geometry for one level pair.
    pub(crate) fn build(coarse_ba: &Arc<BoxArray>, fine_ba: &Arc<BoxArray>, ratio: IntVect) -> Self {
        let register = FluxRegister::new(coarse_ba, fine_ba, ratio, NCONS);
        let faces = register.faces();
        let coarse_faces: Vec<Vec<FaceAt>> = (0..coarse_ba.len())
            .map(|p| {
                faces[register.patch_faces(p)]
                    .iter()
                    .map(|f| FaceAt {
                        // sign −1 marks the coarse cell's high face: the low
                        // face of the next cell up in `dir`.
                        eval: if f.sign < 0 {
                            f.cell + IntVect::unit(f.dir)
                        } else {
                            f.cell
                        },
                        dir: f.dir,
                    })
                    .collect()
            })
            .collect();
        let mut fine_faces = Vec::with_capacity(fine_ba.len());
        let mut fine_slots = Vec::with_capacity(fine_ba.len());
        for j in 0..fine_ba.len() {
            let vb = fine_ba.get(j);
            let (mut at, mut slots) = (Vec::new(), Vec::new());
            for dir in 0..3 {
                let e = IntVect::unit(dir);
                for high in [false, true] {
                    let mut lo = vb.lo();
                    let mut hi = vb.hi();
                    if high {
                        lo[dir] = vb.hi()[dir];
                    } else {
                        hi[dir] = vb.lo()[dir];
                    }
                    for q in IndexBox::new(lo, hi).cells() {
                        if let Some(slot) = register.index_of(&register.fine_face(q, dir, high)) {
                            // The fine cell's high face is the low face of
                            // its `dir`-neighbor.
                            at.push(FaceAt {
                                eval: if high { q + e } else { q },
                                dir,
                            });
                            slots.push(slot);
                        }
                    }
                }
            }
            fine_faces.push(at);
            fine_slots.push(slots);
        }
        let buffers = |faces: &[Vec<FaceAt>]| -> Vec<Mutex<Vec<f64>>> {
            faces.iter().map(|f| Mutex::new(vec![0.0; f.len() * NCONS])).collect()
        };
        let (coarse_buf, fine_buf) = (buffers(&coarse_faces), buffers(&fine_faces));
        // Reflux shipping manifest: each slot lies in exactly one coarse
        // patch's range (coarse patches are disjoint).
        let mut slot_patch = vec![0; register.nfaces()];
        for p in 0..coarse_ba.len() {
            slot_patch[register.patch_faces(p)].fill(p);
        }
        let mut fine_ship: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut seen = vec![false; register.nfaces()];
        for (j, slots) in fine_slots.iter().enumerate() {
            for &slot in slots {
                if std::mem::replace(&mut seen[slot], true) {
                    continue;
                }
                let p = slot_patch[slot];
                match fine_ship.last_mut() {
                    Some((lj, lp, list)) if *lj == j && *lp == p => list.push(slot),
                    _ => fine_ship.push((j, p, vec![slot])),
                }
            }
        }
        InterfaceReg {
            register,
            fine_ba: fine_ba.clone(),
            coarse_ba: coarse_ba.clone(),
            coarse_faces,
            fine_faces,
            fine_slots,
            coarse_buf,
            fine_buf,
            fine_ship,
        }
    }

    /// Zeroes the coarse-side stage accumulators (start of a coarse step).
    pub(crate) fn zero_coarse_bufs(&self) {
        for b in &self.coarse_buf {
            lock(b).fill(0.0);
        }
    }

    /// Zeroes the fine-side stage accumulators (start of a fine substep).
    pub(crate) fn zero_fine_bufs(&self) {
        for b in &self.fine_buf {
            lock(b).fill(0.0);
        }
    }

    /// Folds the coarse-side accumulators into the register with weight 1, in
    /// canonical patch order.
    pub(crate) fn fold_coarse(&mut self) {
        for (p, buf) in self.coarse_buf.iter().enumerate() {
            let b = lock(buf);
            for (slot, row) in self.register.patch_faces(p).zip(b.chunks_exact(NCONS)) {
                self.register.add_coarse_flux(slot, row, 1.0);
            }
        }
    }

    /// Folds the fine-side accumulators into the register scaled by
    /// `weight = dt_fine/dt_coarse`, in canonical patch order.
    pub(crate) fn fold_fine(&mut self, weight: f64) {
        for (slots, buf) in self.fine_slots.iter().zip(&self.fine_buf) {
            let b = lock(buf);
            for (&slot, row) in slots.iter().zip(b.chunks_exact(NCONS)) {
                self.register.add_fine_flux(slot, row, weight);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Arc<BoxArray>, Arc<BoxArray>) {
        // 16³ coarse domain, one coarse patch; fine level covers the centered
        // 8³ coarse region (16³ fine cells) split into two patches.
        let coarse = Arc::new(BoxArray::new(vec![IndexBox::from_extents(
            16, 16, 16,
        )]));
        let f0 = IndexBox::new(IntVect::new(8, 8, 8), IntVect::new(15, 23, 23));
        let f1 = IndexBox::new(IntVect::new(16, 8, 8), IntVect::new(23, 23, 23));
        let fine = Arc::new(BoxArray::new(vec![f0, f1]));
        (coarse, fine)
    }

    #[test]
    fn fine_and_coarse_sides_resolve_the_same_face_set() {
        let (cba, fba) = pair();
        let reg = InterfaceReg::build(&cba, &fba, IntVect::splat(2));
        // The interface is the surface of an 8³-coarse-cell cube: 6·8·8 faces
        // on the coarse side.
        let ncoarse: usize = reg.coarse_faces.iter().map(|f| f.len()).sum();
        assert_eq!(ncoarse, 6 * 64);
        // Each coarse face has ratio² = 4 fine contributor faces; the seam
        // between the two fine patches must NOT contribute (covered cells).
        let nfine: usize = reg.fine_faces.iter().map(|f| f.len()).sum();
        assert_eq!(nfine, 4 * 6 * 64);
        // Every fine face lands on a register slot, every slot has exactly
        // ratio² fine faces, and the slot sets of both sides agree.
        let mut hits = vec![0; reg.register.nfaces()];
        for &slot in reg.fine_slots.iter().flatten() {
            hits[slot] += 1;
        }
        assert!(hits.iter().all(|&n| n == 4), "{hits:?}");
        assert_eq!(reg.register.patch_faces(0), 0..reg.register.nfaces());
    }

    #[test]
    fn every_register_face_has_exactly_one_fine_contributor_patch() {
        // The owned-mode reflux exchange merges shipped fine sums onto zero
        // accumulators; that is only bitwise-exact if no face collects
        // contributions from two fine patches. Blocked grids guarantee it —
        // the manifest must cover every register face exactly once.
        let (cba, fba) = pair();
        let reg = InterfaceReg::build(&cba, &fba, IntVect::splat(2));
        let mut count = vec![0usize; reg.register.nfaces()];
        for (_, _, slots) in &reg.fine_ship {
            for &slot in slots {
                count[slot] += 1;
            }
        }
        assert!(count.iter().all(|&n| n == 1));
    }

    #[test]
    fn buffers_fold_into_a_zero_mismatch_for_matching_fluxes() {
        let (cba, fba) = pair();
        let mut reg = InterfaceReg::build(&cba, &fba, IntVect::splat(2));
        // Coarse side: constant flux 3.0, one "stage" of weight 1.
        lock(&reg.coarse_buf[0]).fill(3.0);
        reg.fold_coarse();
        // Fine side: two substeps, each contributing the four sub-faces with
        // flux 3.0, folded with weight dt_f/dt_c = 1/2 — the raw sums (the
        // constant ignores that a fine face's metric is a quarter of the
        // coarse one).
        for _ in 0..2 {
            for b in &reg.fine_buf {
                lock(b).fill(3.0);
            }
            reg.fold_fine(0.5);
            reg.zero_fine_bufs();
        }
        for slot in 0..reg.register.nfaces() {
            assert_eq!(reg.register.fine_part(slot)[0], 4.0 * 3.0 * 0.5 * 2.0);
        }
        assert_eq!(reg.register.total_mismatch(), reg.register.nfaces() as f64 * NCONS as f64 * 9.0);
    }
}
