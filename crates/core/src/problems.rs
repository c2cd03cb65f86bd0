//! Benchmark problem definitions.
//!
//! The paper's evaluation workload is the double Mach reflection (DMR) case
//! of Woodward & Colella (§V-B): an unsteady planar Mach 10 shock incident on
//! a 30° inviscid compression ramp, solved in 3-D with general curvilinear
//! coordinates "although unnecessary for this problem". We implement it in
//! the canonical frame (rectangular domain, 60° incident shock,
//! time-dependent top boundary), extruded along the periodic span with the
//! paper's 2:1 x:z aspect, plus three supporting problems used by the tests,
//! examples, and ablations.

use crate::eos::PerfectGas;
use crate::state::{Conserved, Primitive};
use crocco_geometry::{GridMapping, RampMapping, RealVect, UniformMapping};
use std::sync::Arc;

/// Which benchmark problem to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProblemKind {
    /// Sod shock tube along x (exact solution available in
    /// [`crate::riemann`]); outflow in x, periodic in y and z.
    SodX,
    /// Double Mach reflection of a Mach 10 shock (Woodward & Colella),
    /// extruded in z — the paper's evaluation case.
    DoubleMach,
    /// Smooth isentropic vortex advecting through a fully periodic box:
    /// the order-verification workload.
    IsentropicVortex,
    /// Supersonic flow over the 30° compression ramp on a truly curvilinear
    /// (sheared) grid; exercises the curvilinear metrics for real.
    Ramp,
}

/// DMR constants (Woodward & Colella 1984).
pub mod dmr {
    /// x-station where the shock meets the wall at t = 0.
    pub const X0: f64 = 1.0 / 6.0;
    /// Incident shock Mach number.
    pub const MACH: f64 = 10.0;
    /// Pre-shock state: ρ = 1.4, p = 1, at rest.
    pub const RHO_PRE: f64 = 1.4;
    /// Pre-shock pressure.
    pub const P_PRE: f64 = 1.0;
    /// Post-shock density.
    pub const RHO_POST: f64 = 8.0;
    /// Post-shock pressure.
    pub const P_POST: f64 = 116.5;
    /// Post-shock speed (normal to the shock front).
    pub const Q_POST: f64 = 8.25;

    /// Shock-front x-position at height `y`, time `t`: the 60° front moves
    /// at speed 10/sin 60°.
    pub fn shock_x(y: f64, t: f64) -> f64 {
        X0 + (y + 20.0 * t) / 3f64.sqrt()
    }
}

impl ProblemKind {
    /// The gas model for this problem.
    pub fn gas(&self) -> PerfectGas {
        PerfectGas::nondimensional()
    }

    /// The grid mapping (physical geometry).
    pub fn mapping(&self) -> Arc<dyn GridMapping> {
        match self {
            ProblemKind::SodX => Arc::new(UniformMapping::new(
                RealVect::ZERO,
                RealVect::new(1.0, 0.25, 0.25),
            )),
            // Paper: 2:1 aspect in x and z.
            ProblemKind::DoubleMach => Arc::new(UniformMapping::new(
                RealVect::ZERO,
                RealVect::new(4.0, 1.0, 2.0),
            )),
            ProblemKind::IsentropicVortex => Arc::new(UniformMapping::new(
                RealVect::ZERO,
                RealVect::new(10.0, 10.0, 10.0),
            )),
            ProblemKind::Ramp => Arc::new(RampMapping::paper_dmr()),
        }
    }

    /// Periodicity per direction.
    pub fn periodicity(&self) -> [bool; 3] {
        match self {
            ProblemKind::SodX => [false, true, true],
            ProblemKind::DoubleMach => [false, false, true],
            ProblemKind::IsentropicVortex => [true, true, true],
            ProblemKind::Ramp => [false, false, true],
        }
    }

    /// Initial condition at physical position `x` (t = 0).
    pub fn initial_state(&self, x: RealVect, gas: &PerfectGas) -> Conserved {
        match self {
            ProblemKind::SodX => {
                let w = if x[0] < 0.5 {
                    Primitive {
                        rho: 1.0,
                        vel: [0.0; 3],
                        p: 1.0,
                        t: 0.0,
                    }
                } else {
                    Primitive {
                        rho: 0.125,
                        vel: [0.0; 3],
                        p: 0.1,
                        t: 0.0,
                    }
                };
                Conserved::from_primitive(&w, gas)
            }
            ProblemKind::DoubleMach => {
                let w = if x[0] < dmr::shock_x(x[1], 0.0) {
                    dmr_post_shock()
                } else {
                    dmr_pre_shock()
                };
                Conserved::from_primitive(&w, gas)
            }
            ProblemKind::IsentropicVortex => {
                Conserved::from_primitive(&vortex_state(x, 0.0), gas)
            }
            ProblemKind::Ramp => {
                // Impulsive start: uniform Mach 3 flow everywhere.
                Conserved::from_primitive(&ramp_inflow(), gas)
            }
        }
    }

    /// Default |∇ρ| tagging threshold (per level-0 index spacing).
    pub fn tag_threshold(&self) -> f64 {
        match self {
            ProblemKind::SodX => 0.02,
            ProblemKind::DoubleMach => 0.15,
            ProblemKind::IsentropicVortex => 0.005,
            ProblemKind::Ramp => 0.05,
        }
    }
}

/// The DMR post-shock primitive state (flow at 8.25 directed 30° into the
/// wall, i.e. along the shock normal).
pub fn dmr_post_shock() -> Primitive {
    let (s, c) = (30f64.to_radians().sin(), 30f64.to_radians().cos());
    Primitive {
        rho: dmr::RHO_POST,
        vel: [dmr::Q_POST * c, -dmr::Q_POST * s, 0.0],
        p: dmr::P_POST,
        t: 0.0,
    }
}

/// The DMR pre-shock (quiescent) primitive state.
pub fn dmr_pre_shock() -> Primitive {
    Primitive {
        rho: dmr::RHO_PRE,
        vel: [0.0; 3],
        p: dmr::P_PRE,
        t: 0.0,
    }
}

/// The ramp problem's inflow: Mach 3 at unit density/pressure.
pub fn ramp_inflow() -> Primitive {
    let gas = PerfectGas::nondimensional();
    let a = gas.sound_speed(1.0, 1.0);
    Primitive {
        rho: 1.0,
        vel: [3.0 * a, 0.0, 0.0],
        p: 1.0,
        t: 0.0,
    }
}

/// The exact isentropic-vortex state at physical `x`, time `t`: a vortex of
/// strength β = 5 centered at (5, 5) advecting with the (1, 1, 0) mean flow
/// through the 10-periodic box (2-D vortex extruded in z).
pub fn vortex_state(x: RealVect, t: f64) -> Primitive {
    let gamma = 1.4;
    let beta = 5.0;
    let center = 5.0;
    // Periodic image of the advected center.
    let cx = (center + t).rem_euclid(10.0);
    let cy = (center + t).rem_euclid(10.0);
    // Nearest periodic image displacement.
    let wrap = |d: f64| {
        let mut d = d % 10.0;
        if d > 5.0 {
            d -= 10.0;
        }
        if d < -5.0 {
            d += 10.0;
        }
        d
    };
    let dx = wrap(x[0] - cx);
    let dy = wrap(x[1] - cy);
    let r2 = dx * dx + dy * dy;
    let e = ((1.0 - r2) / 2.0).exp();
    let du = -beta / (2.0 * std::f64::consts::PI) * e * dy;
    let dv = beta / (2.0 * std::f64::consts::PI) * e * dx;
    let dt_ = -(gamma - 1.0) * beta * beta / (8.0 * gamma * std::f64::consts::PI.powi(2))
        * (1.0 - r2).exp();
    let temp = 1.0 + dt_;
    let rho = temp.powf(1.0 / (gamma - 1.0));
    let p = rho * temp;
    Primitive {
        rho,
        vel: [1.0 + du, 1.0 + dv, 0.0],
        p,
        t: temp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::cons;

    #[test]
    fn dmr_shock_front_moves_right() {
        assert!((dmr::shock_x(0.0, 0.0) - dmr::X0).abs() < 1e-15);
        assert!(dmr::shock_x(0.0, 0.1) > dmr::X0);
        assert!(dmr::shock_x(1.0, 0.0) > dmr::X0); // 60° slope
    }

    #[test]
    fn dmr_post_shock_satisfies_rankine_hugoniot() {
        // Mach 10 normal shock into ρ=1.4, p=1 (a = 1): density ratio
        // (γ+1)M²/((γ-1)M²+2) = 6·100/(0.4·100+2)·... = 240/42 ≈ 5.714×1.4 = 8.
        let pre = dmr_pre_shock();
        let post = dmr_post_shock();
        let g = 1.4;
        let m2 = dmr::MACH * dmr::MACH;
        let rho_ratio = (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0);
        assert!((post.rho / pre.rho - rho_ratio).abs() < 1e-12);
        let p_ratio = 1.0 + 2.0 * g / (g + 1.0) * (m2 - 1.0);
        assert!((post.p / pre.p - p_ratio).abs() < 0.1); // 116.5 is the rounded classic value
        // Post-shock speed: classic 8.25 at 30° into the wall.
        let speed = (post.vel[0].powi(2) + post.vel[1].powi(2)).sqrt();
        assert!((speed - 8.25).abs() < 1e-12);
        assert!(post.vel[1] < 0.0, "flow angles into the wall");
    }

    #[test]
    fn initial_states_are_physical() {
        let probs = [
            ProblemKind::SodX,
            ProblemKind::DoubleMach,
            ProblemKind::IsentropicVortex,
            ProblemKind::Ramp,
        ];
        for pk in probs {
            let gas = pk.gas();
            for &(a, b, c) in &[(0.1, 0.1, 0.1), (0.5, 0.5, 0.5), (0.9, 0.2, 0.8)] {
                let x = pk.mapping().coords(RealVect::new(a, b, c));
                let u = pk.initial_state(x, &gas);
                let w = u.to_primitive(&gas);
                assert!(w.rho > 0.0 && w.p > 0.0, "{pk:?} at {x:?}");
                assert!(u.0[cons::ENER].is_finite());
            }
        }
    }

    #[test]
    fn vortex_is_exact_translation() {
        // state(x, t) == state(x - t·(1,1,0), 0) up to periodic wrap.
        let x = RealVect::new(3.3, 7.1, 0.0);
        let t = 1.7;
        let a = vortex_state(x, t);
        let b = vortex_state(RealVect::new(x[0] - t, x[1] - t, 0.0), 0.0);
        assert!((a.rho - b.rho).abs() < 1e-12);
        assert!((a.p - b.p).abs() < 1e-12);
        for d in 0..3 {
            assert!((a.vel[d] - b.vel[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn vortex_far_field_is_uniform() {
        let w = vortex_state(RealVect::new(0.0, 0.0, 0.0), 0.0); // r = 5√2 from center
        assert!((w.rho - 1.0).abs() < 1e-6);
        assert!((w.vel[0] - 1.0).abs() < 1e-6);
        assert!((w.p - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ramp_inflow_is_mach_3() {
        let gas = PerfectGas::nondimensional();
        let w = ramp_inflow();
        let a = gas.sound_speed(w.rho, w.p);
        assert!((w.vel[0] / a - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dmr_aspect_ratio_is_2_to_1_x_to_z() {
        let m = ProblemKind::DoubleMach.mapping();
        let lo = m.coords(RealVect::ZERO);
        let hi = m.coords(RealVect::splat(1.0));
        let lx = hi[0] - lo[0];
        let lz = hi[2] - lo[2];
        assert!((lx / lz - 2.0).abs() < 1e-12);
    }
}
