//! Integration test: grid convergence against exact solutions — the
//! validation discipline behind CRoCCo's published DNS results (§II-A).

use crocco::solver::config::{CodeVersion, SolverConfig};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;
use crocco::solver::validation::{sod_density_error, vortex_density_error};
use crocco::solver::{PerfectGas, WenoVariant};

#[test]
fn sod_converges_toward_the_exact_riemann_solution() {
    let gas = PerfectGas::nondimensional();
    let mut errors = Vec::new();
    for nx in [32i64, 64, 128] {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(nx, 4, 4)
            .version(CodeVersion::V1_1)
            .cfl(0.5)
            .build();
        let mut sim = Simulation::new(cfg);
        while sim.time() < 0.1 {
            sim.step();
        }
        errors.push(sod_density_error(&sim, &gas));
    }
    assert!(
        errors[1] < errors[0] && errors[2] < errors[1],
        "errors must decrease monotonically: {errors:?}"
    );
    // Shock-limited convergence is at least ~0.7th order overall.
    let order = (errors[0] / errors[2]).log2() / 2.0;
    assert!(order > 0.5, "observed order {order:.2} from {errors:?}");
}

/// L2(ρ) error against the exact isentropic vortex at t = 0.1 on 16² and
/// 32² (× 4), and the observed order between them, as measured on the
/// textbook weight algebra (`Σ_r (α_r/Σα)·(q̃_r/6)`, 12 divisions) that
/// `weno::reconstruct_face` evaluated before it was rewritten to 5
/// divisions. The rewrite moves face values by a few ulp; it must not move
/// the answer.
///
/// The SYMBO row is for this repo's linear weights (0.0944, 0.4056, 0.4056,
/// 0.0944) — a symmetric stand-in for the published bandwidth-optimised
/// constants of Martín et al. (PAPER.md §2, DESIGN.md §2), so its error is
/// a regression value, not a number from the literature.
const VORTEX_GATE: [(WenoVariant, [f64; 2], f64); 3] = [
    (WenoVariant::CentralSym6, [2.215672683826636e-3, 2.973032522542066e-4], 2.897738),
    (WenoVariant::Symbo, [2.310706203924787e-3, 3.301481228301426e-4], 2.807148),
    (WenoVariant::Js5, [2.480251231921026e-3, 2.749487416014806e-4], 3.173252),
];

#[test]
fn vortex_converges_at_high_order_on_smooth_flow() {
    let gas = PerfectGas::nondimensional();
    for (variant, recorded, recorded_order) in VORTEX_GATE {
        let errors = [16i64, 32].map(|n| {
            let cfg = SolverConfig::builder()
                .problem(ProblemKind::IsentropicVortex)
                .extents(n, n, 4)
                .version(CodeVersion::V1_1)
                .weno(variant)
                .cfl(0.4)
                .build();
            let mut sim = Simulation::new(cfg);
            while sim.time() < 0.1 {
                sim.step();
            }
            vortex_density_error(&sim, &gas)
        });
        let order = (errors[0] / errors[1]).log2();
        println!("{variant:?}: errors {:.15e} {:.15e}, order {order:.6}", errors[0], errors[1]);
        assert!(order > 1.8, "{variant:?}: smooth-flow order {order:.2} too low ({errors:?})");
        for (e, r) in errors.iter().zip(recorded) {
            assert!(
                ((e - r) / r).abs() < 1e-9,
                "{variant:?}: L2(rho) {e:.12e} left the recorded {r:.12e}"
            );
        }
        assert!(
            (order - recorded_order).abs() < 5e-4 * recorded_order,
            "{variant:?}: order {order:.6} vs recorded {recorded_order:.6}"
        );
    }
}

#[test]
fn vortex_preserves_all_invariants_in_periodic_box() {
    use crocco::solver::state::cons;
    let cfg = SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(16, 16, 4)
        .version(CodeVersion::V1_1)
        .build();
    let mut sim = Simulation::new(cfg);
    let before: Vec<f64> = (0..5).map(|c| sim.conserved_integral(c)).collect();
    sim.advance_steps(8);
    for c in [cons::RHO, cons::MX, cons::MY, cons::MZ, cons::ENER] {
        let after = sim.conserved_integral(c);
        let scale = before[cons::ENER].abs().max(1.0);
        assert!(
            (after - before[c]).abs() / scale < 1e-11,
            "component {c}: {} -> {after}",
            before[c]
        );
    }
}
