//! Ablation: subcycling in time (docs/ARCHITECTURE.md §Subcycling). Runs
//! the 3-level isentropic-vortex hierarchy lockstep and with per-level dt,
//! compares cell updates and wall time *per unit simulated time* (the two
//! modes take different-sized coarse steps), and scores the measured work
//! reduction against the analytic `perfmodel::SubcycleModel` ideal. Emits
//! the machine-readable `BENCH_subcycle.json`; the narrative table is
//! `docs/results/subcycle.md`.

use crocco_bench::report::print_table;
use crocco_perfmodel::SubcycleModel;
use crocco_solver::config::{CodeVersion, InterpKind, SolverConfig, SolverConfigBuilder};
use crocco_solver::driver::Simulation;
use crocco_solver::problems::ProblemKind;
use std::time::Instant;

/// Subcycled coarse steps; lockstep takes `2^(levels-1)` times as many fine
/// steps to span roughly the same simulated time.
const SUB_STEPS: u32 = 3;
const LEVELS: usize = 3;

/// The deep-hierarchy vortex of `tests/subcycle_invariance.rs`
/// (`tests/common`'s `vortex(3)`): fully
/// periodic, inviscid, interior refined region — the workload where
/// per-level dt pays and conservation is measurable.
fn vortex() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(32, 32, 8)
        .version(CodeVersion::V2_0)
        .max_levels(LEVELS)
        .blocking_factor(4)
        .max_grid_size(16)
        .regrid_freq(3)
        .interpolator(InterpKind::PiecewiseConstant)
        .cfl(0.4)
}

struct Run {
    label: &'static str,
    wall_s: f64,
    sim_time: f64,
    cell_updates: u64,
    cells_per_level: Vec<u64>,
}

fn run(subcycling: bool, steps: u32) -> Run {
    let mut sim = Simulation::new(vortex().subcycling(subcycling).build());
    assert_eq!(sim.nlevels(), LEVELS, "vortex must refine to {LEVELS} levels");
    let cells_per_level = (0..sim.nlevels())
        .map(|l| {
            let state = &sim.level(l).state;
            (0..state.nfabs())
                .map(|i| state.valid_box(i).num_points())
                .sum()
        })
        .collect();
    let t0 = Instant::now();
    let report = sim.advance_steps(steps);
    Run {
        label: if subcycling { "subcycled" } else { "lockstep" },
        wall_s: t0.elapsed().as_secs_f64(),
        sim_time: sim.report().final_time,
        cell_updates: report.cell_updates,
        cells_per_level,
    }
}

fn main() {
    let lock_steps = SUB_STEPS * (1u32 << (LEVELS - 1));
    let lock = run(false, lock_steps);
    let sub = run(true, SUB_STEPS);

    // Rates per unit simulated time — the honest comparison, since one
    // subcycled coarse step spans ~2^(levels-1) lockstep steps.
    let lock_rate = lock.cell_updates as f64 / lock.sim_time;
    let sub_rate = sub.cell_updates as f64 / sub.sim_time;
    let work_speedup = lock_rate / sub_rate;
    let wall_speedup = (lock.wall_s / lock.sim_time) / (sub.wall_s / sub.sim_time);
    assert!(
        sub_rate < lock_rate,
        "subcycling must advance strictly fewer cell-updates per unit time"
    );

    // The analytic ideal from the *initial* hierarchy (regrids drift the
    // coverage slightly; the model is a static volume argument).
    let model = SubcycleModel::new(sub.cells_per_level.clone());
    let ideal = model.ideal_speedup();

    let rows: Vec<Vec<String>> = [&lock, &sub]
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{}", r.cell_updates),
                format!("{:.4}", r.sim_time),
                format!("{:.3e}", r.cell_updates as f64 / r.sim_time),
                format!("{:.3} s", r.wall_s),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Subcycling on the {LEVELS}-level vortex ({SUB_STEPS} coarse steps vs \
             {lock_steps} lockstep steps)"
        ),
        &[
            "mode",
            "cell updates",
            "simulated t",
            "updates / t",
            "wall",
        ],
        &rows,
    );
    println!("\nwork reduction (updates/t):   {work_speedup:.2}x");
    println!("wall-clock speedup (wall/t):  {wall_speedup:.2}x");
    println!("perfmodel ideal (volume-only): {ideal:.2}x");
    println!(
        "cells/level at start: {:?} (finest covers {:.1}% of its index space)",
        sub.cells_per_level,
        // Volume fraction: ref_ratio 2 in all three dims is 8x cells per level.
        100.0 * sub.cells_per_level[LEVELS - 1] as f64
            / (sub.cells_per_level[0] as f64 * (1u64 << (3 * (LEVELS - 1))) as f64)
    );

    // The workspace has no JSON serializer, so the JSON is assembled by
    // hand, like the other BENCH emitters.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"subcycle\",\n");
    json.push_str(&format!("  \"levels\": {LEVELS},\n"));
    json.push_str(&format!("  \"sub_steps\": {SUB_STEPS},\n"));
    json.push_str(&format!("  \"lock_steps\": {lock_steps},\n"));
    json.push_str(&format!(
        "  \"cells_per_level\": [{}],\n",
        sub.cells_per_level
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for r in [&lock, &sub] {
        json.push_str(&format!(
            "  \"{}\": {{ \"cell_updates\": {}, \"sim_time\": {:e}, \"wall_s\": {:e} }},\n",
            r.label, r.cell_updates, r.sim_time, r.wall_s
        ));
    }
    json.push_str(&format!("  \"work_speedup\": {work_speedup:.4},\n"));
    json.push_str(&format!("  \"wall_speedup\": {wall_speedup:.4},\n"));
    json.push_str(&format!("  \"model_ideal_speedup\": {ideal:.4}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_subcycle.json", json).expect("write BENCH_subcycle.json");
    println!("\nwrote BENCH_subcycle.json");
}
