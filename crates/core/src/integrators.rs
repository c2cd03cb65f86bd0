//! Low-storage (2N) explicit time integrators.
//!
//! CRoCCo marches with the Williamson low-storage RK3 (§II-A); AMReX "allows
//! for the addition of custom ... time integrators" (§III-B), so the driver
//! accepts any member of the 2N family
//!
//! ```text
//! for each stage s:  dU ← A[s]·dU + dt·L(U);   U ← U + B[s]·dU
//! ```
//!
//! which needs only the solution and one accumulator regardless of stage
//! count — the memory property that matters on 16 GB GPUs (§V-C).

/// Which 2N scheme to march with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeScheme {
    /// Forward Euler (1 stage, 1st order) — debugging/dissipation baseline.
    Euler,
    /// Williamson (1980) 3-stage, 3rd order — CRoCCo's production scheme.
    Rk3Williamson,
    /// Carpenter–Kennedy (1994) 5-stage, 4th order low-storage RK.
    Rk45CarpenterKennedy,
}

impl TimeScheme {
    /// Number of stages.
    pub fn stages(&self) -> usize {
        match self {
            TimeScheme::Euler => 1,
            TimeScheme::Rk3Williamson => 3,
            TimeScheme::Rk45CarpenterKennedy => 5,
        }
    }

    /// The `A` coefficient of stage `s` (multiplies the accumulator).
    pub fn a(&self, s: usize) -> f64 {
        match self {
            TimeScheme::Euler => 0.0,
            TimeScheme::Rk3Williamson => [0.0, -5.0 / 9.0, -153.0 / 128.0][s],
            TimeScheme::Rk45CarpenterKennedy => [
                0.0,
                -567_301_805_773.0 / 1_357_537_059_087.0,
                -2_404_267_990_393.0 / 2_016_746_695_238.0,
                -3_550_918_686_646.0 / 2_091_501_179_385.0,
                -1_275_806_237_668.0 / 842_570_457_699.0,
            ][s],
        }
    }

    /// The `B` coefficient of stage `s` (multiplies the accumulator into U).
    pub fn b(&self, s: usize) -> f64 {
        match self {
            TimeScheme::Euler => 1.0,
            TimeScheme::Rk3Williamson => [1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0][s],
            TimeScheme::Rk45CarpenterKennedy => [
                1_432_997_174_477.0 / 9_575_080_441_755.0,
                5_161_836_677_717.0 / 13_612_068_292_357.0,
                1_720_146_321_549.0 / 2_090_206_949_498.0,
                3_134_564_353_537.0 / 4_481_467_310_338.0,
                2_277_821_191_437.0 / 14_882_151_754_819.0,
            ][s],
        }
    }

    /// Formal order of accuracy.
    pub fn order(&self) -> u32 {
        match self {
            TimeScheme::Euler => 1,
            TimeScheme::Rk3Williamson => 3,
            TimeScheme::Rk45CarpenterKennedy => 4,
        }
    }

    /// The stage time fractions `c[s]` implied by the A/B coefficients
    /// (`c[0] = 0`; thereafter `c[s] = Σ` of effective B-weighted steps).
    pub fn stage_time_fraction(&self, s: usize) -> f64 {
        // c coefficients follow from the recurrence on a linear ODE; compute
        // them generically by integrating dy/dt = 1.
        let mut y = 0.0;
        let mut du = 0.0;
        for k in 0..s {
            du = self.a(k) * du + 1.0;
            y += self.b(k) * du;
        }
        y
    }

    /// The *net* flux weight of stage `s`: the coefficient `w[s]` such that
    /// one full 2N step is `U(t+dt) = U(t) + dt · Σ_s w[s]·L(U_s)`. For the
    /// accumulator recurrence this is `w[s] = Σ_{k≥s} b[k]·Π_{j=s+1..k} a[j]`
    /// — the sensitivity of the final state to the stage-`s` RHS. The flux
    /// register accumulates interface fluxes with these weights so the
    /// refluxed correction matches exactly what the RK update applied
    /// (docs/ARCHITECTURE.md §Subcycling). `Σ_s w[s] = 1` for any consistent
    /// scheme.
    pub fn net_flux_weight(&self, s: usize) -> f64 {
        let mut w = 0.0;
        let mut chain = 1.0;
        for k in s..self.stages() {
            if k > s {
                chain *= self.a(k);
            }
            w += self.b(k) * chain;
        }
        w
    }
}

/// Integrates the scalar ODE `y' = f(t, y)` over one step with a 2N scheme —
/// the reference implementation the MultiFab update mirrors, used for order
/// verification.
pub fn step_scalar<F: Fn(f64, f64) -> f64>(
    scheme: TimeScheme,
    f: F,
    t: f64,
    y: f64,
    dt: f64,
) -> f64 {
    let mut y = y;
    let mut du = 0.0;
    for s in 0..scheme.stages() {
        let ts = t + scheme.stage_time_fraction(s) * dt;
        du = scheme.a(s) * du + dt * f(ts, y);
        y += scheme.b(s) * du;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TimeScheme; 3] = [
        TimeScheme::Euler,
        TimeScheme::Rk3Williamson,
        TimeScheme::Rk45CarpenterKennedy,
    ];

    /// Integrate y' = y from 1 over [0, 1]; exact answer e.
    fn exp_error(scheme: TimeScheme, n: u32) -> f64 {
        let dt = 1.0 / n as f64;
        let mut y = 1.0;
        let mut t = 0.0;
        for _ in 0..n {
            y = step_scalar(scheme, |_, y| y, t, y, dt);
            t += dt;
        }
        (y - std::f64::consts::E).abs()
    }

    #[test]
    fn consistency_each_scheme_integrates_constants_exactly() {
        for scheme in ALL {
            let y = step_scalar(scheme, |_, _| 2.5, 0.0, 1.0, 0.4);
            assert!(
                (y - 2.0).abs() < 1e-13,
                "{scheme:?}: constant-RHS step gave {y}"
            );
        }
    }

    #[test]
    fn observed_orders_match_formal_orders() {
        for scheme in ALL {
            let e1 = exp_error(scheme, 20);
            let e2 = exp_error(scheme, 40);
            let observed = (e1 / e2).log2();
            assert!(
                (observed - scheme.order() as f64).abs() < 0.25,
                "{scheme:?}: observed order {observed:.2}"
            );
        }
    }

    #[test]
    fn stage_time_fractions_are_canonical() {
        // Williamson RK3: c = (0, 1/3, 3/4).
        let w = TimeScheme::Rk3Williamson;
        assert!((w.stage_time_fraction(0) - 0.0).abs() < 1e-14);
        assert!((w.stage_time_fraction(1) - 1.0 / 3.0).abs() < 1e-14);
        assert!((w.stage_time_fraction(2) - 0.75).abs() < 1e-13);
        // And a full linear step advances exactly dt.
        for scheme in ALL {
            let y = step_scalar(scheme, |_, _| 1.0, 0.0, 0.0, 0.7);
            assert!((y - 0.7).abs() < 1e-13, "{scheme:?}");
        }
    }

    #[test]
    fn net_flux_weights_sum_to_one_and_reproduce_the_step() {
        for scheme in ALL {
            let total: f64 = (0..scheme.stages()).map(|s| scheme.net_flux_weight(s)).sum();
            assert!((total - 1.0).abs() < 1e-14, "{scheme:?}: Σw = {total}");
            // A constant RHS makes every stage RHS equal, so the weighted sum
            // must reproduce step_scalar exactly (up to rounding).
            let dt = 0.37;
            let direct = step_scalar(scheme, |_, _| 2.5, 0.0, 1.0, dt);
            let weighted: f64 =
                1.0 + dt * (0..scheme.stages()).map(|s| scheme.net_flux_weight(s) * 2.5).sum::<f64>();
            assert!((direct - weighted).abs() < 1e-13, "{scheme:?}");
        }
        // Williamson RK3 closed forms: w2 = b2, w1 = b1 + b2·a2, w0 = b0 + w1·a1.
        let w = TimeScheme::Rk3Williamson;
        assert!((w.net_flux_weight(2) - w.b(2)).abs() < 1e-15);
        assert!((w.net_flux_weight(1) - (w.b(1) + w.b(2) * w.a(2))).abs() < 1e-15);
    }

    #[test]
    fn rk3_matches_the_drivers_constants() {
        let w = TimeScheme::Rk3Williamson;
        for s in 0..3 {
            assert_eq!(w.a(s), crate::driver::RK3_A[s]);
            assert_eq!(w.b(s), crate::driver::RK3_B[s]);
        }
    }

    #[test]
    fn rk45_is_more_accurate_than_rk3_at_same_cost() {
        // Cost-normalized: RK45 with 3/5 of the steps (same RHS evaluations).
        let e3 = exp_error(TimeScheme::Rk3Williamson, 50);
        let e45 = exp_error(TimeScheme::Rk45CarpenterKennedy, 30);
        assert!(e45 < e3, "rk45 {e45} should beat rk3 {e3} at equal work");
    }
}
