//! Integration test: the full AMR pipeline on the DMR problem — tagging,
//! clustering, nesting, two-level fill, regridding with data remap,
//! AverageDown — stays physical and accounts its grid savings.

use crocco::runtime::{GroupEndpoint, LocalCluster};
use crocco::solver::config::{CodeVersion, SolverConfig};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;
use crocco::solver::state::cons;

fn dmr(levels: usize, version: CodeVersion) -> SolverConfig {
    SolverConfig::builder()
        .problem(ProblemKind::DoubleMach)
        .extents(48, 16, 8)
        .version(version)
        .max_levels(levels)
        .regrid_freq(4)
        .build()
}

#[test]
fn shock_triggers_refinement_at_startup() {
    let sim = Simulation::new(dmr(2, CodeVersion::V1_2));
    assert_eq!(sim.nlevels(), 2, "Mach-10 shock must be tagged and refined");
    // The fine level must cover the initial shock foot at x0 = 1/6 along the
    // bottom; shock x-index at level 1 around (1/6)/4 * 96 = 4.
    let hull = sim.hierarchy().level(1).ba.hull();
    assert!(hull.lo()[0] <= 8, "fine hull {hull:?} misses the shock foot");
}

#[test]
fn dmr_with_amr_stays_physical_through_regrids() {
    let mut sim = Simulation::new(dmr(2, CodeVersion::V2_0));
    let report = sim.advance_steps(10); // crosses regrid boundaries at 4, 8
    assert_eq!(report.steps, 10);
    assert!(!sim.has_nonfinite(), "NaN/Inf after regridding");
    assert!(report.final_time > 0.0);
    // Density bounds: DMR stays within [pre-shock, ~3x post-shock].
    let rho_min = sim.level(0).state.min(cons::RHO);
    let rho_max = sim.level(0).state.max(cons::RHO);
    assert!(rho_min > 0.5, "rho_min {rho_min}");
    assert!(rho_max < 25.0, "rho_max {rho_max}");
}

#[test]
fn amr_saves_most_of_the_equivalent_grid() {
    let mut sim = Simulation::new(dmr(3, CodeVersion::V2_1));
    sim.advance_steps(4);
    let r = sim.hierarchy().reduction_fraction();
    // The paper reports 89-94 % on its production grids; at this toy size
    // the shock still occupies a modest fraction of the domain.
    assert!(
        r > 0.6,
        "reduction {r:.2} too small: AMR is not earning its keep"
    );
    assert!(sim.report().active_points < sim.report().equivalent_points);
}

#[test]
fn amr_and_uniform_agree_on_integrals_early() {
    // The DMR is an open system (post-shock inflow feeds mass), so compare
    // at equal *physical time*, not equal step count — the AMR run's finer
    // level halves its dt.
    let mut amr = Simulation::new(dmr(2, CodeVersion::V1_2));
    let mut uniform = Simulation::new(dmr(1, CodeVersion::V1_1));
    let t_end = 2.0e-3;
    while amr.time() < t_end {
        amr.step();
    }
    while uniform.time() < t_end {
        uniform.step();
    }
    // Coarse-level mass (AverageDown keeps the covered coarse cells
    // consistent with the fine solution).
    let ma = amr.conserved_integral(cons::RHO);
    let mu = uniform.conserved_integral(cons::RHO);
    assert!(
        ((ma - mu) / mu).abs() < 6e-3,
        "mass diverged: AMR {ma} (t={}) vs uniform {mu} (t={})",
        amr.time(),
        uniform.time()
    );
}

#[test]
fn regrid_follows_the_moving_shock() {
    let mut sim = Simulation::new(dmr(2, CodeVersion::V2_1));
    let hull0 = sim.hierarchy().level(1).ba.hull();
    // March long enough for the shock to traverse several coarse cells.
    for _ in 0..16 {
        sim.step();
    }
    assert!(sim.nlevels() >= 2, "refinement must persist");
    let hull1 = sim.hierarchy().level(1).ba.hull();
    assert!(
        hull1.hi()[0] > hull0.hi()[0],
        "fine region should advance with the shock: {hull0:?} -> {hull1:?}"
    );
    assert!(!sim.has_nonfinite());
}

#[test]
fn comm_accounting_distinguishes_versions() {
    // Off-rank bytes need more than one rank. Metadata is replicated, so
    // every rank accounts the global plans: report from rank 0.
    let run = |v| {
        let cfg = SolverConfig { nranks: 2, ..dmr(2, v) };
        LocalCluster::run(2, |ep| {
            let mut sim = Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(&ep))
                .expect("fault-free construction");
            sim.advance_steps_cluster(3, &ep);
            sim.comm
        })[0]
    };
    let c20 = run(CodeVersion::V2_0);
    let c21 = run(CodeVersion::V2_1);
    // The curvilinear interpolator moves coordinates; trilinear does not —
    // the entire 2.0 vs 2.1 story of Fig. 5 (right).
    assert!(c20.coord_pc_bytes > 0);
    assert_eq!(c21.coord_pc_bytes, 0);
    assert!(c20.pc_bytes > 0 && c21.pc_bytes > 0);
}
