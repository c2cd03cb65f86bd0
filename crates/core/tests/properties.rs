//! Property-based tests of the solver numerics invariants.

use crocco_solver::eos::PerfectGas;
use crocco_solver::riemann::{sample, star_state, Gas1d};
use crocco_solver::state::{Conserved, Primitive};
use crocco_solver::weno::{
    linear_weights, nonlinear_weights, reconstruct_face, WenoVariant,
};
use proptest::prelude::*;

const VARIANTS: [WenoVariant; 3] = [
    WenoVariant::Js5,
    WenoVariant::CentralSym6,
    WenoVariant::Symbo,
];

/// The WENO face value in the order the textbooks write it — every
/// candidate normalised by its own `/6`, every weight by its own `/Σα`,
/// `Σ_r (α_r/Σα)·q_r`: 12 divisions for the 4-candidate schemes. This is the
/// formula `reconstruct_face` evaluated literally before it was rewritten as
/// `(Σ_r α_r·q̃_r)/(6·Σα)`; it stays here as the oracle of the tolerance
/// argument. Returns the value and `max_r |q_r|`.
fn reconstruct_face_textbook(w: &[f64; 6], variant: WenoVariant) -> (f64, f64) {
    let q = [
        (2.0 * w[0] - 7.0 * w[1] + 11.0 * w[2]) / 6.0,
        (-w[1] + 5.0 * w[2] + 2.0 * w[3]) / 6.0,
        (2.0 * w[2] + 5.0 * w[3] - w[4]) / 6.0,
        (11.0 * w[3] - 7.0 * w[4] + 2.0 * w[5]) / 6.0,
    ];
    let omega = nonlinear_weights(w, variant);
    let mut out = 0.0;
    for r in 0..4 {
        out += omega[r] * q[r];
    }
    (out, q.iter().fold(0.0, |m, v| v.abs().max(m)))
}

/// Window families of the tolerance property, all of unit magnitude:
/// a smooth sine, a jump in front of stencil position `1..=5` carrying
/// 1e-3 noise, and uniform noise.
fn unit_window(family: u8, a: f64, b: f64, noise: &[f64; 6]) -> [f64; 6] {
    match family {
        0 => std::array::from_fn(|k| (0.1 + 1.4 * (a + 1.0) * k as f64 + 3.0 * b).sin()),
        1..=5 => std::array::from_fn(|k| {
            (if k < family as usize { a } else { b }) + 1e-3 * noise[k]
        }),
        _ => *noise,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The tolerance argument for the 5-division form: against the textbook
    /// order it moves a face value by a few ulp of the largest candidate —
    /// never by an amount that depends on how small the weights or how
    /// ill-scaled the data are.
    #[test]
    fn weno_five_division_form_stays_within_ulps_of_the_textbook_order(
        family in 0u8..7,
        exponent in -8.0f64..8.0,
        a in -1.0f64..1.0,
        b in -1.0f64..1.0,
        noise in prop::array::uniform6(-1.0f64..1.0),
        variant in prop::sample::select(VARIANTS.to_vec()),
    ) {
        let scale = 10f64.powf(exponent);
        let w = unit_window(family, a, b, &noise).map(|v| scale * v);
        let (textbook, qmax) = reconstruct_face_textbook(&w, variant);
        let got = reconstruct_face(&w, variant);
        prop_assert!(
            (got - textbook).abs() <= 8.0 * f64::EPSILON * qmax,
            "{:?} {:?}: {:e} vs textbook {:e}, {:.2} eps of max|q| = {:e}",
            variant, w, got, textbook, (got - textbook).abs() / (f64::EPSILON * qmax), qmax
        );
    }
}

proptest! {
    #[test]
    fn weno_weights_are_a_partition_of_unity(
        w in prop::array::uniform6(-100.0f64..100.0),
        variant in prop::sample::select(VARIANTS.to_vec()),
    ) {
        let om = nonlinear_weights(&w, variant);
        let sum: f64 = om.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "weights sum {}", sum);
        for o in om {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&o));
        }
    }

    #[test]
    fn weno_reconstruction_is_scale_equivariant(
        w in prop::array::uniform6(-10.0f64..10.0),
        variant in prop::sample::select(VARIANTS.to_vec()),
    ) {
        // f(x) → f(x) + c shifts the reconstruction by c (consistency).
        let c = 3.7;
        let shifted: [f64; 6] = std::array::from_fn(|i| w[i] + c);
        let a = reconstruct_face(&w, variant);
        let b = reconstruct_face(&shifted, variant);
        prop_assert!((b - a - c).abs() < 1e-7, "{} vs {}", a, b - c);
    }

    #[test]
    fn weno_respects_monotone_data_bounds(
        start in -5.0f64..5.0,
        steps in prop::array::uniform5(0.0f64..3.0),
        variant in prop::sample::select(VARIANTS.to_vec()),
    ) {
        // On monotone increasing data the reconstruction stays within the
        // global data range (no over/undershoot beyond the stencil bounds).
        let mut w = [start; 6];
        for i in 1..6 {
            w[i] = w[i - 1] + steps[i - 1];
        }
        let f = reconstruct_face(&w, variant);
        prop_assert!(f >= w[0] - 1e-9 && f <= w[5] + 1e-9, "{} outside [{}, {}]", f, w[0], w[5]);
    }

    #[test]
    fn linear_weight_families_sum_to_one(variant in prop::sample::select(VARIANTS.to_vec())) {
        let d = linear_weights(variant);
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn primitive_conserved_roundtrip(
        rho in 0.01f64..100.0,
        u in -50.0f64..50.0,
        v in -50.0f64..50.0,
        wv in -50.0f64..50.0,
        p in 0.01f64..1000.0,
    ) {
        let gas = PerfectGas::nondimensional();
        let w = Primitive { rho, vel: [u, v, wv], p, t: 0.0 };
        let c = Conserved::from_primitive(&w, &gas);
        let w2 = c.to_primitive(&gas);
        prop_assert!((w2.rho - rho).abs() / rho < 1e-12);
        prop_assert!((w2.p - p).abs() / p < 1e-9);
        for d in 0..3 {
            prop_assert!((w2.vel[d] - w.vel[d]).abs() < 1e-9);
        }
        prop_assert!(w2.t > 0.0);
    }

    #[test]
    fn riemann_star_state_is_physical_and_bracketed(
        rho_l in 0.1f64..10.0,
        p_l in 0.1f64..100.0,
        rho_r in 0.1f64..10.0,
        p_r in 0.1f64..100.0,
        du in -2.0f64..2.0,
    ) {
        let l = Gas1d { rho: rho_l, u: 0.0, p: p_l };
        let r = Gas1d { rho: rho_r, u: du, p: p_r };
        let (ps, us) = star_state(&l, &r, 1.4);
        prop_assert!(ps > 0.0, "p* = {}", ps);
        prop_assert!(us.is_finite());
        // Sampling at extreme wave speeds recovers the input states.
        let far_left = sample(&l, &r, 1.4, -1e6);
        let far_right = sample(&l, &r, 1.4, 1e6);
        prop_assert!((far_left.rho - l.rho).abs() < 1e-12);
        prop_assert!((far_right.rho - r.rho).abs() < 1e-12);
    }

    #[test]
    fn sound_speed_and_viscosity_are_monotone(
        t1 in 100.0f64..500.0,
        dt in 1.0f64..500.0,
    ) {
        let gas = PerfectGas::air();
        prop_assert!(gas.viscosity(t1 + dt) > gas.viscosity(t1));
        let p = 1e5;
        let rho1 = p / (gas.r_gas * t1);
        let rho2 = p / (gas.r_gas * (t1 + dt));
        // Hotter gas at the same pressure → faster sound.
        prop_assert!(gas.sound_speed(rho2, p) > gas.sound_speed(rho1, p));
    }
}
