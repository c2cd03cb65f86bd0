//! Integration test: all optional features compose — LES closure,
//! Roe-characteristic reconstruction, the RK4(5) low-storage integrator, the
//! WENO conservative interpolator, binary-file coordinates, and multi-level
//! AMR, in one DMR run.

use crocco::solver::config::{CodeVersion, CoordSource, InterpKind, SolverConfig};
use crocco::solver::driver::Simulation;
use crocco::solver::integrators::TimeScheme;
use crocco::solver::problems::ProblemKind;
use crocco::solver::state::cons;
use crocco::solver::weno::{Reconstruction, WenoVariant};

#[test]
fn everything_enabled_dmr_marches_stably() {
    let cfg = SolverConfig::builder()
        .problem(ProblemKind::DoubleMach)
        .extents(48, 16, 8)
        .version(CodeVersion::V2_0)
        .max_levels(2)
        .weno(WenoVariant::Symbo)
        .reconstruction(Reconstruction::Characteristic)
        .time_scheme(TimeScheme::Rk45CarpenterKennedy)
        .interpolator(InterpKind::WenoConservative)
        .coord_source(CoordSource::BinaryFile)
        .les(0.17)
        .regrid_freq(3)
        .threads(2)
        .cfl(0.5)
        .build();
    let mut sim = Simulation::new(cfg);
    assert_eq!(sim.nlevels(), 2);
    let report = sim.advance_steps(8); // crosses regrids at 3 and 6
    assert!(!sim.has_nonfinite(), "composed features went non-finite");
    assert_eq!(report.steps, 8);
    assert!(report.final_time > 0.0);
    // Physicality: density within the DMR envelope.
    let rho_min = sim.level(0).state.min(cons::RHO);
    let rho_max = sim.level(0).state.max(cons::RHO);
    assert!(rho_min > 0.5, "rho_min {rho_min}");
    assert!(rho_max < 25.0, "rho_max {rho_max}");
    // The fine level still tracks the shock.
    assert!(report.reduction_fraction > 0.3);
}

#[test]
fn rk45_and_rk3_agree_on_a_smooth_short_horizon() {
    let mk = |scheme: TimeScheme| {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::IsentropicVortex)
            .extents(16, 16, 4)
            .version(CodeVersion::V1_1)
            .time_scheme(scheme)
            .cfl(0.4)
            .build();
        let mut sim = Simulation::new(cfg);
        while sim.time() < 0.05 {
            sim.step();
        }
        sim
    };
    let a = mk(TimeScheme::Rk3Williamson);
    let b = mk(TimeScheme::Rk45CarpenterKennedy);
    // Time-integration error is far below spatial error here: both schemes
    // must produce nearly identical fields at the same horizon.
    let rel = crocco::solver::validation::relative_l2_difference(&a, &b);
    for (c, d) in rel.iter().enumerate() {
        assert!(*d < 5e-4, "comp {c}: schemes diverge by {d}");
    }
}
