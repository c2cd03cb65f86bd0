//! Ablation: interpolator choice (curvilinear + coordinate ParallelCopy vs
//! trilinear vs conservative) — the CRoCCo 2.0 ↔ 2.1 design axis, measured
//! both on the modeled platform and on a real small DMR run.

use crocco_bench::dmrscale::amr_case;
use crocco_bench::report::{fmt_time, print_table};
use crocco_bench::simbench::{ranks_for, simulate_iteration};
use crocco_bench::table1::weak_config;
use crocco_perfmodel::SummitPlatform;
use crocco_runtime::{GroupEndpoint, LocalCluster};
use crocco_solver::config::{CodeVersion, SolverConfig};
use crocco_solver::driver::Simulation;
use crocco_solver::problems::ProblemKind;

fn main() {
    // Modeled: 2.0 vs 2.1 across three node counts.
    let platform = SummitPlatform::new();
    let mut rows = Vec::new();
    for nodes in [4u32, 100, 1024] {
        let cfg = weak_config(nodes);
        let ranks = ranks_for(CodeVersion::V2_0, nodes, &platform);
        let case = amr_case(cfg.extents, ranks);
        let t20 = simulate_iteration(CodeVersion::V2_0, &case, &platform);
        let t21 = simulate_iteration(CodeVersion::V2_1, &case, &platform);
        rows.push(vec![
            nodes.to_string(),
            fmt_time(t20.total()),
            fmt_time(t21.total()),
            format!("{:.2}x", t20.total() / t21.total()),
            fmt_time(t20.get("FillPatch/ParallelCopy_finish")),
            fmt_time(t21.get("FillPatch/ParallelCopy_finish")),
        ]);
    }
    print_table(
        "Ablation (modeled): curvilinear (2.0) vs trilinear (2.1) interpolator",
        &[
            "nodes",
            "2.0 iter",
            "2.1 iter",
            "2.0/2.1",
            "PC_finish 2.0",
            "PC_finish 2.1",
        ],
        &rows,
    );

    // Real execution: coordinate-copy bytes actually moved by each version on
    // a laptop-scale DMR over 8 rank threads. Plan metadata is replicated,
    // so any rank's message accounting is the global plans'; interpolated
    // cells are counted where they are produced and add up over the ranks.
    // The executed 2.0 moves its coordinates once per two-level plan (they
    // become the plan's cached interpolation stencils), so three steps
    // without a regrid count one coordinate gather against nine state
    // gathers; the modeled 2.0 above prices the paper's per-FillPatch copy.
    let mut rows = Vec::new();
    for v in [CodeVersion::V2_0, CodeVersion::V2_1] {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::DoubleMach)
            .extents(64, 16, 8)
            .version(v)
            .max_levels(2)
            .nranks(8)
            .build();
        let comm = LocalCluster::run(8, |ep| {
            let mut sim = Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(&ep))
                .expect("fault-free construction");
            sim.advance_steps_cluster(3, &ep);
            sim.comm
        });
        let interpolated: u64 = comm.iter().map(|c| c.interpolated_cells).sum();
        rows.push(vec![
            format!("{v:?}"),
            comm[0].pc_bytes.to_string(),
            comm[0].coord_pc_bytes.to_string(),
            interpolated.to_string(),
        ]);
    }
    print_table(
        "Ablation (executed): communication actually performed, 3 DMR steps",
        &["version", "state PC bytes", "coord PC bytes", "interp cells"],
        &rows,
    );
    println!("\nexecuted: state bytes are per RK stage (9 fills); coordinate bytes are per");
    println!("two-level plan (1 gather, no regrid in 3 steps) — the weights are cached.");
    println!("modeled: the 2.0 column prices the paper's coordinate copy in every FillPatch.");
    println!("\npaper: removing the coordinate ParallelCopy (2.1) improves weak-scaling");
    println!("efficiency at 400 nodes from 54% to ~70%.");
}
