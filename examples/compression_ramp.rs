//! Supersonic flow over the 30° compression ramp on a *genuinely curvilinear*
//! (sheared) grid — the geometry class that motivated the paper's curvilinear
//! AMR development (§III-C: compression corners, re-entry vehicles).
//!
//! Demonstrates: stored coordinates + metrics (10 stored components; the
//! paper's 27 are modeled in `perfmodel::summit`) on a non-Cartesian
//! mapping, the curvilinear interpolator with its coordinate ParallelCopy,
//! shock-based refinement following the ramp shock, and the task-graph RK
//! stage schedule (`OVERLAP=0 cargo run ...` selects the sequential
//! reference phases; both produce bitwise-identical solutions, see
//! DESIGN.md §4e).
//!
//! ```sh
//! cargo run --release --example compression_ramp
//! ```

use crocco::geometry::{GridMapping, RampMapping};
use crocco::solver::config::{CodeVersion, SolverConfig};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;
use crocco::solver::state::cons;
use std::io::Write;

fn main() {
    // The task-graph schedule runs unless OVERLAP=0 asks for the reference.
    let overlap = std::env::var("OVERLAP").map_or(true, |v| v != "0");
    let cfg = SolverConfig::builder()
        .problem(ProblemKind::Ramp)
        .extents(64, 32, 8)
        .version(CodeVersion::V2_0)
        .max_levels(2)
        .blocking_factor(4)
        .max_grid_size(32)
        .regrid_freq(5)
        .cfl(0.5)
        .threads(4)
        .overlap(overlap)
        .build();
    let mut sim = Simulation::new(cfg);
    println!(
        "RK stage schedule: {}",
        if overlap { "task graph" } else { "reference phases" }
    );

    let ramp = RampMapping::paper_dmr();
    println!(
        "Mach 3 flow over a {}-degree ramp (corner at x = {:.2})",
        30, ramp.corner_x
    );
    println!("curvilinear mapping: {}\n", ramp.name());

    for _ in 0..220 {
        sim.step();
        if sim.step_count().is_multiple_of(40) {
            println!(
                "step {:3}  t = {:.4}  dt = {:.2e}  levels = {}  mass = {:.6}",
                sim.step_count(),
                sim.time(),
                sim.dt(),
                sim.nlevels(),
                sim.conserved_integral(cons::RHO)
            );
        }
    }
    assert!(!sim.has_nonfinite(), "solution went non-finite");

    // Pressure along the ramp surface (first interior row).
    let path = "target/ramp_wall_pressure.csv";
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    writeln!(f, "x,y,p_over_pinf").unwrap();
    let gas = crocco::solver::PerfectGas::nondimensional();
    let state = &sim.level(0).state;
    let coords = &sim.level(0).coords;
    let zmid = sim.hierarchy().domain(0).bx.size()[2] / 2;
    for i in 0..state.nfabs() {
        let valid = state.valid_box(i);
        for p in valid.cells() {
            if p[1] != 0 || p[2] != zmid {
                continue;
            }
            let u = crocco::solver::state::Conserved([
                state.fab(i).get(p, cons::RHO),
                state.fab(i).get(p, cons::MX),
                state.fab(i).get(p, cons::MY),
                state.fab(i).get(p, cons::MZ),
                state.fab(i).get(p, cons::ENER),
            ]);
            let w = u.to_primitive(&gas);
            writeln!(
                f,
                "{},{},{}",
                coords.fab(i).get(p, 0),
                coords.fab(i).get(p, 1),
                w.p
            )
            .unwrap();
        }
    }
    println!("\nwrote {path}");

    // Check the physics: pressure downstream of the corner must exceed the
    // inflow pressure (the ramp shock compresses the flow). Oblique-shock
    // theory for M=3, 30-degree deflection gives p2/p1 around 6.
    let mut up = 0.0f64;
    let mut down = 0.0f64;
    let state = &sim.level(0).state;
    let coords = &sim.level(0).coords;
    let mut nu = 0;
    let mut nd = 0;
    for i in 0..state.nfabs() {
        let valid = state.valid_box(i);
        for p in valid.cells() {
            if p[1] != 0 || p[2] != zmid {
                continue;
            }
            let x = coords.fab(i).get(p, 0);
            let u = crocco::solver::state::Conserved([
                state.fab(i).get(p, cons::RHO),
                state.fab(i).get(p, cons::MX),
                state.fab(i).get(p, cons::MY),
                state.fab(i).get(p, cons::MZ),
                state.fab(i).get(p, cons::ENER),
            ]);
            let w = u.to_primitive(&gas);
            if x < ramp.corner_x * 0.6 {
                up += w.p;
                nu += 1;
            } else if x > ramp.corner_x * 1.8 {
                down += w.p;
                nd += 1;
            }
        }
    }
    let ratio = (down / nd as f64) / (up / nu as f64);
    println!("mean wall pressure ratio downstream/upstream of corner: {ratio:.2}");
    println!("(oblique-shock theory for M=3, 30-degree deflection: p2/p1 ~ 6)");
    assert!(ratio > 1.5, "ramp shock should compress the wall flow");
    println!("OK: the ramp shock compresses the near-wall flow.");
}
