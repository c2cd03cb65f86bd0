//! Ablation: regrid-time coordinate source (§III-C "Regridding").
//!
//! The paper's first curvilinear-AMR implementation had every newly created
//! patch serially read its coordinates from a binary file, which "added
//! noticeable overhead" on CPU and would be worse on GPU; the production
//! implementation keeps the grid in memory and calls `getCoords()`. This
//! ablation *executes* both paths on a real DMR run and compares the
//! initialization + regrid cost.

use crocco_bench::report::{fmt_time, print_table};
use crocco_solver::config::{CodeVersion, CoordSource, SolverConfig};
use crocco_solver::driver::{Region, Simulation};
use crocco_solver::problems::ProblemKind;
use crocco_solver::validation::l2_difference;
use std::time::Instant;

fn run(source: CoordSource) -> (f64, f64, Simulation) {
    let cfg = SolverConfig::builder()
        .problem(ProblemKind::DoubleMach)
        .extents(64, 16, 8)
        .version(CodeVersion::V2_0)
        .max_levels(2)
        .regrid_freq(3)
        .coord_source(source)
        .build();
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg);
    let init = t0.elapsed().as_secs_f64();
    sim.advance_steps(12); // crosses regrids at 3, 6, 9
    let regrid = sim.profiler.total(Region::Regrid);
    (init, regrid, sim)
}

fn main() {
    let (init_mem, regrid_mem, sim_mem) = run(CoordSource::Memory);
    let (init_file, regrid_file, sim_file) = run(CoordSource::BinaryFile);
    print_table(
        "Ablation (executed): coordinate source at init + 4 regrids, DMR 2-level",
        &["source", "init", "Regrid total", "regrid slowdown"],
        &[
            vec![
                "memory getCoords()".into(),
                fmt_time(init_mem),
                fmt_time(regrid_mem),
                "1.0x".into(),
            ],
            vec![
                "binary-file reads".into(),
                fmt_time(init_file),
                fmt_time(regrid_file),
                format!("{:.1}x", regrid_file / regrid_mem.max(1e-9)),
            ],
        ],
    );
    // Both must produce the same physics.
    let diff = l2_difference(&sim_mem, &sim_file);
    let worst = diff.iter().cloned().fold(0.0f64, f64::max);
    println!("\nworst-variable L2 difference between the two paths: {worst:.2e}");
    assert!(worst < 1e-12, "coordinate sources disagree");
    println!("paper: the file-I/O path 'added noticeable overhead' on CPU and was");
    println!("replaced by reading the whole grid into memory; on GPU it would also");
    println!("pay a host-staging copy (§III-C).");
}
