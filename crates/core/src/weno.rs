//! One-dimensional WENO reconstruction machinery.
//!
//! CRoCCo reconstructs convective fluxes with a finite-difference, weighted
//! essentially non-oscillatory method; the production scheme is
//! bandwidth-optimized ("WENO-SYMBO", Martín et al. 2006), which considers a
//! symmetric set of candidate stencils around the interface and weighs them
//! by local smoothness to resolve the smallest turbulent scales on fewer
//! grid points (§II-A).
//!
//! We implement the family on the 6-point symmetric stencil
//! `f[i-2] .. f[i+3]` around the `i+½` face:
//!
//! * [`WenoVariant::Js5`] — classic upwind WENO5-JS (3 candidates, optimal
//!   weights 1/10, 6/10, 3/10); the robust shock-capturing baseline,
//! * [`WenoVariant::CentralSym6`] — 4 candidates with the max-order weights
//!   1/20, 9/20, 9/20, 1/20 that recover the 6th-order central scheme on
//!   smooth data,
//! * [`WenoVariant::Symbo`] — 4 candidates with bandwidth-optimized weights.
//!   The published Martín et al. constants are unavailable offline; we use
//!   the symmetric redistribution (0.0944, 0.4056, 0.4056, 0.0944), which
//!   preserves the defining properties (symmetry, Σ=1, reduced dissipation
//!   relative to upwind WENO). See DESIGN.md §2.
//!
//! # The weight algebra as evaluated
//!
//! The textbooks write the face value as `Σ_r ω_r·q_r` with
//! `q_r = q̃_r/6` and `ω_r = α_r/Σα`, `α_r = d_r/(ε+β_r)²` — twelve divisions
//! for a 4-candidate scheme, and the divider is the slowest unit the face
//! loop touches. [`reconstruct_face`] evaluates the same quantity as
//!
//! ```text
//! (Σ_r α_r·q̃_r) / (6·Σ_r α_r)
//! ```
//!
//! with the candidates left unnormalised (`q̃_r`, integer coefficients) and
//! the α's and the downwind cap exactly as written above: four divisions
//! for the α's, one for the blend. This is the one definition of the
//! algebra; `backend::lanes` mirrors it operation for operation, so the two
//! agree bitwise *with each other*. Against the textbook order the result
//! differs by round-off only: at most 3.3 ε_mach·max_r|q_r| over 1.2 M
//! smooth, discontinuous and random windows of magnitude 1e-8…1e8 in all
//! three variants; `crates/core/tests/properties.rs` keeps the textbook
//! formula as a test oracle and asserts ≤ 8 ε_mach·max_r|q_r|.
//! [`nonlinear_weights`] still returns the normalised `ω_r` — diagnostics
//! and property tests want them, the face loop does not.

use serde::{Deserialize, Serialize};

/// How the split fluxes are reconstructed at faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reconstruction {
    /// Reconstruct each conserved component independently (cheap; the
    /// default).
    ComponentWise,
    /// Project onto the Roe-averaged characteristic fields first (decouples
    /// waves; less ringing at contacts, ~2× the reconstruction cost).
    Characteristic,
}

/// WENO scheme selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WenoVariant {
    /// Classic 5th-order upwind WENO of Jiang & Shu.
    Js5,
    /// Symmetric 4-candidate scheme with max-order (central 6th) weights.
    CentralSym6,
    /// Symmetric 4-candidate scheme with bandwidth-optimized weights.
    Symbo,
}

/// Stencil width on each side of the face: reconstruction of face `i+½`
/// reads `f[i-2] ..= f[i+3]`, so kernels need 3 ghost cells.
pub const STENCIL_RADIUS: usize = 3;

/// Regularization constant in the nonlinear weights. Shared with the lane
/// backend (`backend::lanes`), whose weight algebra must match bitwise.
pub(crate) const EPS: f64 = 1e-6;

/// Candidate reconstructions at the `i+½` face from the window
/// `w = [f[i-2], f[i-1], f[i], f[i+1], f[i+2], f[i+3]]`, *unnormalised*:
/// `q̃_r = 6·q_r`. The common `1/6` is applied once, to the blend, in
/// [`reconstruct_face`].
#[inline]
fn candidates(w: &[f64; 6]) -> [f64; 4] {
    [
        2.0 * w[0] - 7.0 * w[1] + 11.0 * w[2],
        -w[1] + 5.0 * w[2] + 2.0 * w[3],
        2.0 * w[2] + 5.0 * w[3] - w[4],
        11.0 * w[3] - 7.0 * w[4] + 2.0 * w[5],
    ]
}

/// Jiang–Shu smoothness indicators for the four candidates.
#[inline]
fn smoothness(w: &[f64; 6]) -> [f64; 4] {
    let b = |a: f64, b_: f64, c: f64, lin: f64| {
        13.0 / 12.0 * (a - 2.0 * b_ + c).powi(2) + 0.25 * lin * lin
    };
    [
        b(w[0], w[1], w[2], w[0] - 4.0 * w[1] + 3.0 * w[2]),
        b(w[1], w[2], w[3], w[1] - w[3]),
        b(w[2], w[3], w[4], 3.0 * w[2] - 4.0 * w[3] + w[4]),
        b(w[3], w[4], w[5], 3.0 * w[3] - 4.0 * w[4] + w[5]),
    ]
}

/// Optimal (linear) weights of a variant. The downwind candidate weight is
/// zero for the upwind JS5 scheme.
#[inline]
pub fn linear_weights(variant: WenoVariant) -> [f64; 4] {
    match variant {
        WenoVariant::Js5 => [0.1, 0.6, 0.3, 0.0],
        WenoVariant::CentralSym6 => [0.05, 0.45, 0.45, 0.05],
        WenoVariant::Symbo => [0.0944, 0.4056, 0.4056, 0.0944],
    }
}

/// Raw α weights with the downwind limiter applied.
///
/// The symmetric schemes include a *downwind* candidate (r = 3). Martín et
/// al. limit its weight so it never dominates across a discontinuity (the
/// upwind side could otherwise look equally smooth and re-introduce
/// oscillations). We cap `α₃` by the smallest upwind α — inactive on smooth
/// data (where all α are comparable), decisive at shocks.
#[inline]
fn alphas(w: &[f64; 6], variant: WenoVariant) -> [f64; 4] {
    let is = smoothness(w);
    let d = linear_weights(variant);
    let mut alpha = [0.0; 4];
    for r in 0..4 {
        if d[r] == 0.0 {
            continue;
        }
        let denom = EPS + is[r];
        alpha[r] = d[r] / (denom * denom);
    }
    if d[3] > 0.0 {
        alpha[3] = alpha[3].min(alpha[0]).min(alpha[1]).min(alpha[2]);
    }
    alpha
}

/// Reconstructs the value at the `i+½` face from the 6-point window
/// (left-biased orientation: for the `f⁻` split flux pass the window
/// reversed).
///
/// Evaluated as `(Σ_r α_r·q̃_r) / (6·Σ_r α_r)` — one division on top of the
/// four in the α's — see the module docs.
#[inline]
pub fn reconstruct_face(w: &[f64; 6], variant: WenoVariant) -> f64 {
    let q = candidates(w);
    let alpha = alphas(w, variant);
    let mut num = 0.0;
    let mut sum = 0.0;
    for r in 0..4 {
        num += alpha[r] * q[r];
        sum += alpha[r];
    }
    num / (6.0 * sum)
}

/// Computes the nonlinear weights (for diagnostics and property tests).
#[inline]
pub fn nonlinear_weights(w: &[f64; 6], variant: WenoVariant) -> [f64; 4] {
    let alpha = alphas(w, variant);
    let sum: f64 = alpha.iter().sum();
    let mut out = [0.0; 4];
    for r in 0..4 {
        out[r] = alpha[r] / sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [WenoVariant; 3] = [
        WenoVariant::Js5,
        WenoVariant::CentralSym6,
        WenoVariant::Symbo,
    ];

    /// Window sampling f at cell centers i-2..i+3 for face at x = 0.5 (i=0,
    /// unit spacing; cell k has center x = k).
    fn window(f: impl Fn(f64) -> f64) -> [f64; 6] {
        [f(-2.0), f(-1.0), f(0.0), f(1.0), f(2.0), f(3.0)]
    }

    #[test]
    fn linear_weights_sum_to_one() {
        for v in ALL {
            let d = linear_weights(v);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn symmetric_variants_have_symmetric_weights() {
        for v in [WenoVariant::CentralSym6, WenoVariant::Symbo] {
            let d = linear_weights(v);
            assert_eq!(d[0], d[3], "{v:?}");
            assert_eq!(d[1], d[2], "{v:?}");
        }
    }

    #[test]
    fn constant_fields_reconstruct_exactly() {
        let w = [4.2; 6];
        for v in ALL {
            assert!((reconstruct_face(&w, v) - 4.2).abs() < 1e-13);
        }
    }

    #[test]
    fn linear_fields_reconstruct_exactly() {
        // Face value of a linear function at x=0.5.
        let w = window(|x| 3.0 * x - 1.0);
        for v in ALL {
            let got = reconstruct_face(&w, v);
            assert!((got - 0.5).abs() < 1e-11, "{v:?}: {got}");
        }
    }

    #[test]
    fn quadratics_reconstruct_cell_average_consistent_value() {
        // Each 3-point candidate is the exact 3rd-order *point value*
        // reconstruction from cell averages. Feeding point samples of a
        // quadratic, all candidates agree with the quintic finite-difference
        // flux value, and smoothness indicators are equal, so any convex
        // combination gives the same answer.
        let w = window(|x| x * x);
        let q = candidates(&w);
        for r in 1..4 {
            assert!((q[r] - q[0]).abs() < 1e-12, "candidate {r} differs");
        }
    }

    #[test]
    fn weights_are_a_partition_of_unity() {
        let w = window(|x| (x * 1.3).sin() + 0.2 * x);
        for v in ALL {
            let om = nonlinear_weights(&w, v);
            assert!((om.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(om.iter().all(|&o| (0.0..=1.0).contains(&o)));
        }
    }

    #[test]
    fn smooth_weights_approach_linear_weights() {
        // On very smooth, slowly varying data, ω_r → d_r.
        let w = window(|x| 1.0 + 1e-4 * x);
        for v in ALL {
            let om = nonlinear_weights(&w, v);
            let d = linear_weights(v);
            for r in 0..4 {
                assert!((om[r] - d[r]).abs() < 1e-3, "{v:?} r={r}: {} vs {}", om[r], d[r]);
            }
        }
    }

    #[test]
    fn eno_property_discontinuous_stencils_are_suppressed() {
        // Jump between cells i and i+1: candidates 2 and 3 straddle it; their
        // weights must collapse toward zero so no oscillation forms.
        let w = [1.0, 1.0, 1.0, 10.0, 10.0, 10.0];
        for v in ALL {
            let om = nonlinear_weights(&w, v);
            // Candidates 1 and 2 straddle the jump; candidate 3 is entirely
            // downwind. The downwind limiter must leave candidate 0 — the
            // smooth upwind stencil — in control.
            assert!(
                om[0] > 0.95,
                "{v:?}: upwind-smooth candidate must dominate, got {om:?}"
            );
            let f = reconstruct_face(&w, v);
            assert!(
                (0.9..=1.1).contains(&f),
                "{v:?} reconstruction {f} oscillates"
            );
        }
    }

    #[test]
    fn downwind_limiter_inactive_on_smooth_data() {
        let w = window(|x| 2.0 + 0.3 * x + 0.01 * x * x);
        for v in [WenoVariant::CentralSym6, WenoVariant::Symbo] {
            let om = nonlinear_weights(&w, v);
            let d = linear_weights(v);
            assert!(
                (om[3] - d[3]).abs() < 0.05,
                "{v:?}: limiter should not bite on smooth data, ω₃ = {}",
                om[3]
            );
        }
    }

    #[test]
    fn central_weights_reproduce_sixth_order_flux_on_smooth_data() {
        // With the max-order linear weights the blended unnormalised
        // candidates equal 6× the 6th-order central interpolant
        // (w[0]-8w[1]+37w[2]+37w[3]-8w[4]+w[5])/60.
        let w = window(|x| (0.3 * x).cos());
        let q = candidates(&w);
        let d = linear_weights(WenoVariant::CentralSym6);
        let blended: f64 = (0..4).map(|r| d[r] * q[r]).sum();
        let central =
            (w[0] - 8.0 * w[1] + 37.0 * w[2] + 37.0 * w[3] - 8.0 * w[4] + w[5]) / 10.0;
        assert!((blended - central).abs() < 1e-13);
    }

    #[test]
    fn symbo_is_less_dissipative_than_js5_on_smooth_waves() {
        // One reconstruction step of a sine: compare the face value against
        // the exact point value. The symmetric schemes' error must be
        // smaller than upwind JS5's.
        let f = |x: f64| (1.1 * x).sin();
        let exact = f(0.5);
        let w = window(f);
        let e_js = (reconstruct_face(&w, WenoVariant::Js5) - exact).abs();
        let e_sy = (reconstruct_face(&w, WenoVariant::Symbo) - exact).abs();
        assert!(e_sy < e_js, "symbo {e_sy} vs js {e_js}");
    }
}
