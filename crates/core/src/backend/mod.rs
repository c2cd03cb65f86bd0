//! Pluggable tiled kernel backends (DESIGN.md §4h).
//!
//! The paper's GPU port restructured CRoCCo's hot loops — WENO, viscous,
//! `ComputeDt`, update — onto an explicit tile/thread abstraction so the same
//! numerics could run on very different execution substrates (§IV-B). This
//! module is that seam in the reproduction: the [`KernelBackend`] trait
//! names the per-patch kernels the RK driver consumes, and two
//! implementations provide them, both dispatched over
//! [`crocco_fab::tiles::tile_boxes`] tiles through the [`FabView`] raw-view
//! machinery:
//!
//! * [`LanesBackend`] — the default. Stable-Rust SIMD via fixed-width
//!   `[f64; LANES]` lane arrays: the WENO sweep runs its [`lanes::LANES`]
//!   lanes across the plane *orthogonal* to the sweep, out of
//!   direction-major SoA scratch filled by row copies, so every direction
//!   sees unit-stride window loads and no scalar face tail on the 8- and
//!   12-wide patches AMR produces; the viscous and SGS loops lane across
//!   contiguous x-cells. Bitwise-identical to Scalar by
//!   construction (every per-cell and per-face operation sequence is
//!   preserved; lanes only evaluate independent cells side by side).
//! * [`ScalarBackend`] — the original per-point kernels from
//!   [`crate::kernels`], unchanged: the bitwise oracle of the invariance
//!   suites, and the path characteristic reconstruction falls back to.
//!
//! Selection goes through [`SolverConfig::kernel_backend`] and composes
//! with `overlap` and `fabcheck`; the invariance suite
//! (`tests/backend_invariance.rs`) proves the default matches Scalar
//! bitwise on the compression ramp across those combinations.
//!
//! [`SolverConfig::kernel_backend`]: crate::config::SolverConfig::kernel_backend

pub mod lanes;
pub mod scalar;

use crate::eos::PerfectGas;
use crate::kernels::FaceSink;
use crate::sgs::Smagorinsky;
use crate::weno::{Reconstruction, WenoVariant};
use crocco_fab::{FArrayBox, FabView};
use crocco_geometry::IndexBox;
use serde::{Deserialize, Serialize};

pub use lanes::LanesBackend;
pub use scalar::ScalarBackend;

/// The per-patch kernel set a backend must provide.
///
/// Methods are associated functions generic over [`FabView`] (so the
/// task-graph path can pass raw read views), which makes the trait
/// non-object-safe by design: dispatch goes through the [`BackendKind`]
/// enum, never through `dyn` — mirroring how the paper's port selects a
/// compiled kernel flavour, not a virtual call, per platform.
///
/// Every implementation must be bitwise-identical to [`ScalarBackend`]
/// (or ULP-bounded with the tolerance documented on the implementation);
/// [`LanesBackend`] is exactly bitwise.
pub trait KernelBackend {
    /// Short label for reports and benchmark tables.
    const NAME: &'static str;

    /// One-direction WENO convective flux: accumulates
    /// `−(1/J)·∂F̂_dir/∂ξ_dir` into `rhs` over `region`. See
    /// [`crate::kernels::weno_flux_recon`] for the contract.
    #[allow(clippy::too_many_arguments)]
    fn weno_flux_recon(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        dir: usize,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
    ) {
        Self::weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, None)
    }

    /// [`weno_flux_recon`](Self::weno_flux_recon) that also hands `sink`
    /// the fluxes of its faces, bitwise
    /// [`crate::kernels::interface_face_flux`] of each.
    #[allow(clippy::too_many_arguments)]
    fn weno_flux_sink(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        dir: usize,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
        sink: Option<&mut FaceSink<'_>>,
    );

    /// 4th-order central viscous/LES fluxes accumulated into `rhs` over
    /// `region`. See [`crate::kernels::viscous_flux_les`].
    fn viscous_flux_les(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        sgs: Option<&Smagorinsky>,
    );

    /// CFL-constrained time step over one patch. See
    /// [`crate::kernels::compute_dt_patch`].
    fn compute_dt_patch(
        u: &impl FabView,
        met: &FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
        cfl: f64,
    ) -> f64;

    /// Smagorinsky eddy-viscosity field over `valid` into component 0 of
    /// `out`. See [`Smagorinsky::eddy_viscosity_field`].
    fn eddy_viscosity_field(
        model: &Smagorinsky,
        u: &impl FabView,
        met: &FArrayBox,
        out: &mut FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
    );
}

/// Value-level backend selection ([`SolverConfig::kernel_backend`]).
///
/// [`SolverConfig::kernel_backend`]: crate::config::SolverConfig::kernel_backend
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
            BackendKind::Scalar => ScalarBackend::NAME,
            BackendKind::Lanes => LanesBackend::NAME,
        }
    }

    /// Dispatches [`KernelBackend::weno_flux_recon`].
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

    /// Dispatches [`KernelBackend::weno_flux_sink`].
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
            BackendKind::Scalar => {
                ScalarBackend::weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, sink)
            }
            BackendKind::Lanes => {
                LanesBackend::weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, sink)
            }
        }
    }

    /// Dispatches [`KernelBackend::viscous_flux_les`].
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
            BackendKind::Scalar => ScalarBackend::viscous_flux_les(u, met, rhs, region, gas, sgs),
            BackendKind::Lanes => LanesBackend::viscous_flux_les(u, met, rhs, region, gas, sgs),
        }
    }

    /// Dispatches [`KernelBackend::compute_dt_patch`].
    pub fn compute_dt_patch(
        self,
        u: &impl FabView,
        met: &FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
        cfl: f64,
    ) -> f64 {
        match self {
            BackendKind::Scalar => ScalarBackend::compute_dt_patch(u, met, valid, gas, cfl),
            BackendKind::Lanes => LanesBackend::compute_dt_patch(u, met, valid, gas, cfl),
        }
    }

    /// Dispatches [`KernelBackend::eddy_viscosity_field`].
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
            BackendKind::Scalar => {
                ScalarBackend::eddy_viscosity_field(model, u, met, out, valid, gas)
            }
            BackendKind::Lanes => LanesBackend::eddy_viscosity_field(model, u, met, out, valid, gas),
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
    /// feed `sink` ([`KernelBackend::weno_flux_sink`]).
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
