//! Subgrid-scale (SGS) turbulence model for LES mode.
//!
//! CRoCCo "can resolve hypersonic turbulent flows using large eddy simulation
//! (LES) techniques which filters and does not resolve on the grid the
//! highest frequency energy content ... solving the filtered form of
//! Equation 1, which includes subgrid scale (SGS) models" (§II-A). This
//! module implements the classic Smagorinsky closure on curvilinear grids:
//!
//! ```text
//! ν_t = (C_s Δ)² |S|,    |S| = √(2 S_ij S_ij),    Δ = J^(1/3)
//! ```
//!
//! The eddy viscosity augments the molecular viscosity inside the `Viscous`
//! kernel, so LES runs reuse the entire viscous-flux machinery.

use crate::metrics::comp as mcomp;
use crate::state::{cons, Conserved};
use crocco_fab::{FArrayBox, FabView};
use crocco_geometry::{IndexBox, IntVect};

/// Smagorinsky model configuration.
#[derive(Clone, Copy, Debug)]
pub struct Smagorinsky {
    /// The Smagorinsky constant (0.1–0.2 for shear flows; 0.17 classic).
    pub cs: f64,
}

impl Default for Smagorinsky {
    fn default() -> Self {
        Smagorinsky { cs: 0.17 }
    }
}

impl Smagorinsky {
    /// Eddy viscosity `μ_t = ρ (C_s Δ)² |S|` at cell `p`, from 2nd-order
    /// central velocity gradients transformed to physical space. Requires one
    /// ghost cell on `u`.
    pub fn eddy_viscosity(
        &self,
        u: &impl FabView,
        met: &FArrayBox,
        p: IntVect,
        gas: &crate::eos::PerfectGas,
    ) -> f64 {
        let jac = met.get(p, mcomp::JAC);
        let delta = jac.cbrt();
        // Computational velocity gradients (2nd-order central).
        let prim = |q: IntVect| {
            Conserved([
                u.get(q, cons::RHO),
                u.get(q, cons::MX),
                u.get(q, cons::MY),
                u.get(q, cons::MZ),
                u.get(q, cons::ENER),
            ])
            .to_primitive(gas)
        };
        let mut dcomp = [[0.0; 3]; 3]; // [xi dir][vel comp]
        for (xi, row) in dcomp.iter_mut().enumerate() {
            let e = IntVect::unit(xi);
            let wp = prim(p + e);
            let wm = prim(p - e);
            for ((dc, &vp), &vm) in row.iter_mut().zip(&wp.vel).zip(&wm.vel) {
                *dc = 0.5 * (vp - vm);
            }
        }
        // Transform: ∂u_i/∂x_j = Σ_d (m_dj / J) ∂u_i/∂ξ_d.
        let mut g = [[0.0; 3]; 3];
        for (i, grow) in g.iter_mut().enumerate() {
            for (j, gij) in grow.iter_mut().enumerate() {
                let mut s = 0.0;
                for (d, drow) in dcomp.iter().enumerate() {
                    s += met.get(p, mcomp::M + d * 3 + j) / jac * drow[i];
                }
                *gij = s;
            }
        }
        // |S| = sqrt(2 S_ij S_ij), S_ij = (g_ij + g_ji)/2.
        let mut ss = 0.0;
        for (i, grow) in g.iter().enumerate() {
            for (j, &gij) in grow.iter().enumerate() {
                let sij = 0.5 * (gij + g[j][i]);
                ss += sij * sij;
            }
        }
        let smag = (2.0 * ss).sqrt();
        let rho = u.get(p, cons::RHO);
        rho * (self.cs * delta).powi(2) * smag
    }

    /// Fills component 0 of `out` with `μ_t` over `valid` (diagnostics and
    /// the LES viscous pass).
    pub fn eddy_viscosity_field(
        &self,
        u: &impl FabView,
        met: &FArrayBox,
        out: &mut FArrayBox,
        valid: IndexBox,
        gas: &crate::eos::PerfectGas,
    ) {
        for p in valid.cells() {
            out.set(p, 0, self.eddy_viscosity(u, met, p, gas));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::PerfectGas;
    use crate::metrics::{compute_metrics, generate_coords, NCOORDS, NMETRICS};
    use crate::state::{Primitive, NCONS};
    use crocco_fab::{BoxArray, DistributionMapping, MultiFab};
    use crocco_geometry::UniformMapping;
    use std::sync::Arc;

    fn setup(vel_of_y: impl Fn(f64) -> f64) -> (MultiFab, MultiFab, PerfectGas) {
        let gas = PerfectGas::air();
        let extents = IntVect::new(8, 16, 8);
        let bx = IndexBox::from_extents(8, 16, 8);
        let ba = Arc::new(BoxArray::new(vec![bx]));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let map = UniformMapping::unit();
        let mut coords = MultiFab::new(ba.clone(), dm.clone(), NCOORDS, 6);
        generate_coords(&map, extents, &mut coords);
        let mut metrics = MultiFab::new(ba.clone(), dm.clone(), NMETRICS, 4);
        compute_metrics(&coords, &mut metrics);
        let mut state = MultiFab::new(ba, dm, NCONS, 4);
        let all = state.fab(0).bx();
        for p in all.cells() {
            let y = (p[1] as f64 + 0.5) / 16.0;
            let w = Primitive {
                rho: 1.2,
                vel: [vel_of_y(y), 0.0, 0.0],
                p: 101325.0,
                t: 0.0,
            };
            let u = Conserved::from_primitive(&w, &gas);
            for c in 0..NCONS {
                state.fab_mut(0).set(p, c, u.0[c]);
            }
        }
        (state, metrics, gas)
    }

    #[test]
    fn uniform_flow_has_zero_eddy_viscosity() {
        let (state, metrics, gas) = setup(|_| 100.0);
        let model = Smagorinsky::default();
        let p = IntVect::new(4, 8, 4);
        let nu = model.eddy_viscosity(state.fab(0), metrics.fab(0), p, &gas);
        assert!(nu.abs() < 1e-12, "uniform flow produced mu_t = {nu}");
    }

    #[test]
    fn shear_produces_positive_eddy_viscosity_scaling_with_cs_squared() {
        let (state, metrics, gas) = setup(|y| 200.0 * y);
        let p = IntVect::new(4, 8, 4);
        let m1 = Smagorinsky { cs: 0.1 };
        let m2 = Smagorinsky { cs: 0.2 };
        let nu1 = m1.eddy_viscosity(state.fab(0), metrics.fab(0), p, &gas);
        let nu2 = m2.eddy_viscosity(state.fab(0), metrics.fab(0), p, &gas);
        assert!(nu1 > 0.0);
        assert!((nu2 / nu1 - 4.0).abs() < 1e-9, "mu_t must scale with Cs^2");
    }

    #[test]
    fn eddy_viscosity_matches_closed_form_for_pure_shear() {
        // u = G·y, others 0: |S| = G, Δ = dx (unit cube / extents).
        let g_shear = 320.0; // per unit y
        let (state, metrics, gas) = setup(move |y| g_shear * y);
        let model = Smagorinsky { cs: 0.17 };
        let p = IntVect::new(4, 8, 4);
        let nu = model.eddy_viscosity(state.fab(0), metrics.fab(0), p, &gas);
        let delta = (1.0f64 / 8.0 * 1.0 / 16.0 * 1.0 / 8.0).cbrt();
        let expect = 1.2 * (0.17 * delta) * (0.17 * delta) * g_shear;
        assert!(
            (nu - expect).abs() / expect < 1e-6,
            "mu_t {nu} vs closed form {expect}"
        );
    }

    #[test]
    fn field_fill_covers_valid_region() {
        let (state, metrics, gas) = setup(|y| 50.0 * y * y);
        let valid = state.valid_box(0);
        let mut out = FArrayBox::new(valid, 1);
        Smagorinsky::default().eddy_viscosity_field(
            state.fab(0),
            metrics.fab(0),
            &mut out,
            valid,
            &gas,
        );
        // Quadratic profile: stronger shear at larger y ⇒ larger mu_t.
        let low = out.get(IntVect::new(4, 2, 4), 0);
        let high = out.get(IntVect::new(4, 13, 4), 0);
        assert!(high > low, "{high} !> {low}");
    }
}
