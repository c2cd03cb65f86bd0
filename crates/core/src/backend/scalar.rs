//! The scalar (per-point) backend: the original CRoCCo kernels, unchanged.
//!
//! This backend *is* [`crate::kernels`] and [`crate::sgs`] behind the
//! [`KernelBackend`] trait — no restructuring, no reordering. It defines the
//! bitwise reference every other backend is validated against
//! (`tests/backend_invariance.rs`), exactly as the paper's CPU kernels
//! anchored the L2-norm validation of the GPU port (§IV-A).

use super::KernelBackend;
use crate::eos::PerfectGas;
use crate::kernels::{self, FaceSink};
use crate::sgs::Smagorinsky;
use crate::weno::{Reconstruction, WenoVariant};
use crocco_fab::{FArrayBox, FabView};
use crocco_geometry::IndexBox;

/// Per-point reference kernels (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    const NAME: &'static str = "scalar";

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
    ) {
        kernels::weno_flux_sink(u, met, rhs, region, dir, gas, variant, recon, sink);
    }

    fn viscous_flux_les(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        sgs: Option<&Smagorinsky>,
    ) {
        kernels::viscous_flux_les(u, met, rhs, region, gas, sgs);
    }

    fn compute_dt_patch(
        u: &impl FabView,
        met: &FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
        cfl: f64,
    ) -> f64 {
        kernels::compute_dt_patch(u, met, valid, gas, cfl)
    }

    fn eddy_viscosity_field(
        model: &Smagorinsky,
        u: &impl FabView,
        met: &FArrayBox,
        out: &mut FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
    ) {
        model.eddy_viscosity_field(u, met, out, valid, gas);
    }
}
