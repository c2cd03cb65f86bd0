//! Tiled kernel backends (DESIGN.md §4h).
//!
//! The paper's GPU port restructured CRoCCo's hot loops — WENO, viscous,
//! `ComputeDt`, update — onto an explicit tile/thread abstraction so the same
//! numerics could run on very different execution substrates (§IV-B). This
//! module is that seam in the reproduction: [`BackendKind`] names the
//! per-patch kernels the RK driver consumes, and each of its methods
//! dispatches, per call, to one of two kernel sets, both generic over
//! [`FabView`] (so the task-graph path can pass raw read views) and
//! dispatched over [`crocco_fab::tiles::tile_boxes`] tiles:
//!
//! * [`BackendKind::Lanes`] — the default: the [`lanes`] kernels.
//!   Stable-Rust SIMD via fixed-width `[f64; LANES]` lane arrays: the WENO
//!   sweep runs its [`lanes::LANES`] lanes across the plane *orthogonal* to
//!   the sweep, out of direction-major SoA scratch filled by row copies, so
//!   every direction sees unit-stride window loads and no scalar face tail
//!   on the 8- and 12-wide patches AMR produces; the viscous and SGS loops
//!   lane across contiguous x-cells. Bitwise-identical to Scalar by
//!   construction (every per-cell and per-face operation sequence is
//!   preserved; lanes only evaluate independent cells side by side).
//! * [`BackendKind::Scalar`] — the original per-point kernels of
//!   [`crate::kernels`] and [`crate::sgs`], unchanged: the bitwise oracle of
//!   the invariance suites, and the path characteristic reconstruction
//!   falls back to.
//!
//! `ComputeDt` is the per-point [`kernels::compute_dt_patch`] under both
//! (laned, it measured slower). Dispatch is a `match` on the value, never a
//! `dyn` call — mirroring how the paper's port selects a compiled kernel
//! flavour, not a virtual call, per platform.
//!
//! Selection goes through [`SolverConfig::kernel_backend`] and composes
//! with `overlap` and the `check` build; the invariance suite
//! (`tests/backend_invariance.rs`) proves the default matches Scalar
//! bitwise on the compression ramp across those combinations.
//!
//! [`SolverConfig::kernel_backend`]: crate::config::SolverConfig::kernel_backend

pub mod lanes;

use crate::eos::PerfectGas;
use crate::kernels::{self, FaceSink};
use crate::sgs::Smagorinsky;
use crate::weno::{Reconstruction, WenoVariant};
use crocco_fab::{FArrayBox, FabView};
use crocco_geometry::IndexBox;

/// Value-level backend selection ([`SolverConfig::kernel_backend`]).
///
/// [`SolverConfig::kernel_backend`]: crate::config::SolverConfig::kernel_backend
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Per-point reference kernels: the bitwise oracle.
    Scalar,
    /// Fixed-width `[f64; LANES]` SIMD lane kernels (the default).
    #[default]
    Lanes,
}

impl BackendKind {
    /// All backends, in ablation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Lanes];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Lanes => "lanes",
        }
    }

    /// One-direction WENO convective flux: accumulates
    /// `−(1/J)·∂F̂_dir/∂ξ_dir` into `rhs` over `region`. See
    /// [`kernels::weno_flux_recon`] for the contract.
    #[allow(clippy::too_many_arguments)]
    pub fn weno_flux_recon(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        dir: usize,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
    ) {
        self.weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, None)
    }

    /// [`weno_flux_recon`](Self::weno_flux_recon) that also hands `sink`
    /// the fluxes of its faces, bitwise [`kernels::interface_face_flux`] of
    /// each.
    #[allow(clippy::too_many_arguments)]
    pub fn weno_flux_sink(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        dir: usize,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
        sink: Option<&mut FaceSink<'_>>,
    ) {
        match self {
            BackendKind::Lanes if recon != Reconstruction::Characteristic => {
                lanes::weno_flux_lanes(u, met, rhs, region, dir, gas, variant, sink)
            }
            // Per-face Roe eigensystems have no lane structure: characteristic
            // sweeps take the scalar kernel under both backends.
            _ => kernels::weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, sink),
        }
    }

    /// 4th-order central viscous/LES fluxes accumulated into `rhs` over
    /// `region`. See [`kernels::viscous_flux_les`].
    pub fn viscous_flux_les(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        sgs: Option<&Smagorinsky>,
    ) {
        match self {
            BackendKind::Scalar => kernels::viscous_flux_les(u, met, rhs, region, gas, sgs),
            BackendKind::Lanes => lanes::viscous_flux_lanes(u, met, rhs, region, gas, sgs),
        }
    }

    /// CFL-constrained time step over one patch: the per-point
    /// [`kernels::compute_dt_patch`] under both backends.
    pub fn compute_dt_patch(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
        cfl: f64,
    ) -> f64 {
        kernels::compute_dt_patch(u, met, valid, gas, cfl)
    }

    /// Smagorinsky eddy-viscosity field over `valid` into component 0 of
    /// `out`. See [`Smagorinsky::eddy_viscosity_field`].
    pub fn eddy_viscosity_field(
        self,
        model: &Smagorinsky,
        u: &impl FabView,
        met: &FArrayBox,
        out: &mut FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
    ) {
        match self {
            BackendKind::Scalar => model.eddy_viscosity_field(u, met, out, valid, gas),
            BackendKind::Lanes => lanes::eddy_viscosity_field_lanes(model, u, met, out, valid, gas),
        }
    }

    /// Accumulates the full stage RHS `L(U)` over `region`: the three
    /// directional WENO fluxes then the viscous/LES flux, in the fixed
    /// per-cell operation order every execution path shares (see
    /// [`crate::driver`]'s partition-invariance argument).
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_rhs(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
        sgs: Option<&Smagorinsky>,
    ) {
        self.accumulate_rhs_sink(u, met, rhs, region, gas, variant, recon, sgs, None)
    }

    /// [`accumulate_rhs`](Self::accumulate_rhs) whose WENO sweeps also
    /// feed `sink` ([`weno_flux_sink`](Self::weno_flux_sink)).
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_rhs_sink(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
        sgs: Option<&Smagorinsky>,
        mut sink: Option<&mut FaceSink<'_>>,
    ) {
        for dir in 0..3 {
            self.weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, sink.as_deref_mut());
        }
        self.viscous_flux_les(u, met, rhs, region, gas, sgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_lane_kernels_and_scalar_stays_selectable() {
        assert_eq!(BackendKind::default(), BackendKind::Lanes);
        assert_eq!(
            crate::config::SolverConfig::builder().build().kernel_backend,
            BackendKind::Lanes
        );
        let cfg = crate::config::SolverConfig::builder()
            .kernel_backend(BackendKind::Scalar)
            .build();
        assert_eq!(cfg.kernel_backend, BackendKind::Scalar);
        assert_eq!(cfg.kernel_backend.label(), "scalar");
        assert_eq!(BackendKind::ALL, [BackendKind::Scalar, BackendKind::Lanes]);
    }
}
