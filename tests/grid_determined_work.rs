//! What the grids alone determine is done once per regrid, and the results
//! cannot tell: coordinates and metrics follow their box through a regrid
//! (moved ≡ recomputed, bitwise), and the curvilinear interpolator's
//! coordinates cross ranks once per two-level plan, not once per RK stage
//! (the byte totals say so).

mod common;

use common::{new_owned, ramp_builder};
use crocco::amr::fillpatch::{resolve_two_level_plans, TwoLevelPlan};
use crocco::fab::MultiFab;
use crocco::geometry::{IndexBox, IntVect};
use crocco::runtime::LocalCluster;
use crocco::solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco::solver::driver::Simulation;
use crocco::solver::io::Checkpoint;
use crocco::solver::problems::ProblemKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The 3-level double Mach reflection of `regrid_remap_golden`: its step-5
/// regrid moves the grids of both refined levels.
fn dmr3() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::DoubleMach)
        .extents(32, 8, 4)
        .version(CodeVersion::V2_0)
        .max_levels(3)
}

/// Bits of every allocated fab (ghosts included) per `(level, patch)`.
fn fab_bits(
    sim: &Simulation,
    pick: fn(&Simulation, usize) -> &MultiFab,
) -> BTreeMap<(usize, usize), Vec<u64>> {
    let mut out = BTreeMap::new();
    for l in 0..sim.nlevels() {
        let mf = pick(sim, l);
        for i in (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)) {
            out.insert(
                (l, i),
                mf.fab(i).data().iter().map(|v| v.to_bits()).collect(),
            );
        }
    }
    out
}

fn coords(sim: &Simulation, l: usize) -> &MultiFab {
    &sim.level(l).coords
}

fn metrics(sim: &Simulation, l: usize) -> &MultiFab {
    &sim.level(l).metrics
}

/// Where each box this rank holds grid data for keeps it, per level.
fn grid_storage(sim: &Simulation) -> Vec<HashMap<IndexBox, (usize, usize)>> {
    (0..sim.nlevels())
        .map(|l| {
            let (c, m) = (coords(sim, l), metrics(sim, l));
            (0..c.nfabs())
                .filter(|&i| c.is_allocated(i))
                .map(|i| {
                    let at = |mf: &MultiFab| mf.fab(i).data().as_ptr() as usize;
                    (c.valid_box(i), (at(c), at(m)))
                })
                .collect()
        })
        .collect()
}

/// After a regrid that moved grids, every level's coordinates and metrics
/// are bitwise what a simulation built from nothing on the same grids
/// computes — and the boxes that survived on their owner really were moved
/// (same storage as before the regrid), the others really computed.
#[test]
fn grid_data_moved_through_a_regrid_equals_grid_data_recomputed() {
    for nranks in [1, 2, 4] {
        let cfg = dmr3().nranks(nranks).build();
        assert_eq!(cfg.regrid_freq, 5);
        let per_rank = LocalCluster::run(nranks, move |ep| {
            let mut sim = new_owned(&cfg, &ep);
            sim.advance_steps_cluster(5, &ep);
            let before = grid_storage(&sim);
            sim.advance_steps_cluster(1, &ep);
            assert_eq!(sim.nlevels(), before.len(), "the hierarchy keeps its depth");
            let after = grid_storage(&sim);

            // Moved iff the box was here before. A recomputed fab cannot land
            // on a superseded one's address: the old level is still alive
            // while the new one is put together.
            let (mut moved, mut computed) = (0, 0);
            for (l, (old, new)) in before.iter().zip(&after).enumerate() {
                let old_storage: BTreeSet<usize> =
                    old.values().flat_map(|&(c, m)| [c, m]).collect();
                for (bx, &(c, m)) in new {
                    match old.get(bx) {
                        Some(&kept) => {
                            assert_eq!((c, m), kept, "L{l} {bx:?} survived but was not moved");
                            moved += usize::from(l > 0);
                        }
                        None => {
                            assert!(
                                !old_storage.contains(&c) && !old_storage.contains(&m),
                                "L{l} {bx:?} is new but sits in superseded storage"
                            );
                            computed += 1;
                        }
                    }
                }
            }

            // The same grids, every cell computed.
            let grids = (0..sim.nlevels())
                .map(|l| sim.hierarchy().level(l).ba.boxes().to_vec())
                .collect();
            let chk = Checkpoint {
                step: sim.step_count(),
                time: sim.time(),
                levels: grids,
                data: Vec::new(),
            };
            let fresh = Simulation::from_checkpoint_owned(cfg.clone(), &chk, ep.rank());
            assert!(
                fab_bits(&sim, coords) == fab_bits(&fresh, coords),
                "coordinates differ"
            );
            assert!(
                fab_bits(&sim, metrics) == fab_bits(&fresh, metrics),
                "metrics differ"
            );
            (moved, computed)
        });
        let moved: usize = per_rank.iter().map(|r| r.0).sum();
        let computed: usize = per_rank.iter().map(|r| r.1).sum();
        assert!(
            moved > 0,
            "{nranks} ranks: no refined box survived the regrid on its owner"
        );
        assert!(
            computed > 0,
            "{nranks} ranks: the regrid must also create boxes"
        );
    }
}

/// `coord_pc_{bytes,messages}` count the coordinate gather when it runs: once
/// per two-level plan the step loop builds. The test finds those plans the
/// way the loop does — through the hierarchy's plan cache, after each step —
/// and adds up their statistics itself.
#[test]
fn coordinate_bytes_are_counted_once_per_two_level_plan() {
    const STEPS: u32 = 7;
    let cfg = ramp_builder().nranks(2).build();
    assert_eq!(cfg.regrid_freq, 3, "the run must cross two regrids");
    let stages = 3;
    let totals = LocalCluster::run(2, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let interp = cfg.version.interpolator();
        let mut seen: Vec<Arc<TwoLevelPlan>> = Vec::new();
        let (mut bytes, mut messages) = (0, 0);
        for _ in 0..STEPS {
            sim.advance_steps_cluster(1, &ep);
            for l in 1..sim.nlevels() {
                let (fine, coarse) = (sim.level(l), sim.level(l - 1));
                let plans = resolve_two_level_plans(
                    &fine.state,
                    &coarse.state,
                    &sim.hierarchy().domain(l),
                    &sim.hierarchy().domain(l - 1),
                    cfg.ghost_footprint(),
                    IntVect::splat(2),
                    &*interp,
                    Some(&coarse.coords),
                    Some(&fine.coords),
                    Some(sim.hierarchy().plan_cache()),
                );
                if !seen.iter().any(|p| Arc::ptr_eq(p, &plans.state)) {
                    let stats = &plans
                        .coords
                        .as_ref()
                        .expect("V2_0 reads coordinates")
                        .coord_plan()
                        .stats;
                    bytes += stats.remote_bytes;
                    messages += stats.num_messages;
                    seen.push(plans.state.clone());
                }
            }
        }
        assert_eq!(sim.nlevels(), 2);
        (sim.comm, bytes, messages, seen.len())
    });
    for (rank, (comm, bytes, messages, plans)) in totals.into_iter().enumerate() {
        assert!(
            bytes > 0,
            "rank {rank}: coordinates must cross ranks at all"
        );
        assert!(
            (2..=3).contains(&plans),
            "rank {rank}: {plans} plans over the initial grids and two regrids"
        );
        assert_eq!(comm.coord_pc_bytes, bytes, "rank {rank}: bytes");
        assert_eq!(comm.coord_pc_messages, messages, "rank {rank}: messages");
        // The state gather of the same fills is still counted per stage.
        assert!(comm.pc_messages > 0 && plans < (STEPS * stages) as usize);
    }
}
