//! Distribution over ranks allocates and advances only the patches each
//! rank owns. It must be *observationally invisible*: cross-rank halos and
//! FillPatch gathers through plan-driven exchanges, distributed regrid with
//! tag-union and data redistribution may change the memory footprint and the
//! message schedule, never a single bit of the solution. The `owned_*_oracle`
//! tests are legs of the differential matrix (`tests/common/matrix.rs`): the
//! compression ramp, 4 steps across the step-3 regrid onto two levels, at
//! 1/2/4 ranks — fenced, task graph, hostile schedules, restarted and
//! crash-recovered — whose owned patches must partition the single-rank
//! oracle bitwise. The others pin what owned storage buys and what it must
//! not break outside the answer: per-rank allocation is exactly O(owned
//! cells + ghosts), not O(global); the non-finite scan skips the
//! placeholders of patches other ranks own; and the lockstep cluster report
//! counts the global cell updates.

mod common;

use common::matrix::{check, exec, Adversarial, Crash, Exec, Fenced, Graph, Restart, GOLDEN, RAMP};
use common::{new_owned, ramp_builder};
use crocco::runtime::LocalCluster;
use crocco::solver::backend::BackendKind::Lanes;
use crocco::solver::driver::Simulation;

const RANKS: [usize; 3] = [1, 2, 4];

#[test]
fn owned_fenced_matches_oracle_bitwise() {
    check(&RAMP, RANKS.map(|ranks| exec(ranks, Fenced, 1, Lanes)));
}

#[test]
fn owned_overlapped_matches_oracle_bitwise() {
    // 2 worker threads per rank: the rank-crossing task graph actually runs
    // concurrently over owned-only storage, so a task touching a non-owned
    // fab would fault rather than silently read stale data.
    check(&RAMP, RANKS.map(|ranks| exec(ranks, Graph, 2, Lanes)));
}

#[test]
fn owned_is_invariant_under_adversarial_schedules() {
    // Seeded adversarial linearizations of each rank's stage graph: bitwise
    // identity proves the dependency edges — including the recv events and
    // send fences — suffice even when the executor is hostile.
    let legs = RANKS
        .into_iter()
        .flat_map(|ranks| [0, GOLDEN].map(|seed| exec(ranks, Adversarial(seed), 2, Lanes)));
    check(&RAMP, legs);
}

#[test]
fn owned_restart_from_replicated_checkpoint_matches_oracle() {
    // The oracle's step-2 checkpoint, restored at N ranks
    // (`from_checkpoint_owned`) and advanced across the step-3 regrid — the
    // restore path the chaos recovery loop takes after a crash.
    check(
        &RAMP,
        RANKS.map(|ranks| Exec {
            life: Restart,
            ..exec(ranks, Graph, 1, Lanes)
        }),
    );
}

#[test]
fn owned_chaos_crash_recovery_matches_oracle() {
    // Rank 2 of 4 dies after the dt collective of step 3: the step-2
    // checkpoint was gathered across ranks (each rank holds only its owned
    // patches, yet all seal the identical whole-domain snapshot), the
    // survivors shrink the group, re-own the re-partitioned patches, and
    // still reach the oracle bitwise across the regrid inside the rollback
    // window. (The two-level rollback is `invariance_matrix`'s step-5 crash.)
    check(
        &RAMP,
        [Exec {
            life: Crash { step: 3, levels: 1 },
            ..exec(4, Graph, 1, Lanes)
        }],
    );
}

/// Expected allocation of `mf` on `rank`: the grown boxes of exactly the
/// owned patches (valid + ghosts, times components, times 8 bytes) — stepping
/// is O(owned cells) per rank, not O(global). `None` = every patch.
fn expected_bytes(mf: &crocco::fab::MultiFab, rank: Option<usize>) -> usize {
    let mut total = 0usize;
    for i in 0..mf.nfabs() {
        if let Some(r) = rank {
            if mf.distribution().owner(i) != r {
                continue;
            }
        }
        let cells = mf.valid_box(i).grow(mf.nghost()).num_points() as usize;
        total += cells * mf.ncomp() * std::mem::size_of::<f64>();
    }
    total
}

#[test]
fn owned_memory_per_rank_is_o_owned_cells() {
    for nranks in [1, 2, 4] {
        let cfg = ramp_builder().nranks(nranks).threads(1).build();
        // Per rank, per level: (actual, expected-owned, whole-level) for
        // each of the four solver MultiFabs.
        let per_rank: Vec<Vec<[(usize, usize, usize); 4]>> = LocalCluster::run(nranks, move |ep| {
            let mut sim = new_owned(&cfg, &ep);
            sim.advance_steps_cluster(4, &ep);
            let rank = Some(ep.rank());
            (0..sim.nlevels())
                .map(|l| {
                    let lev = sim.level(l);
                    [&lev.state, &lev.du, &lev.coords, &lev.metrics].map(|mf| {
                        (
                            mf.local_data_bytes(),
                            expected_bytes(mf, rank),
                            expected_bytes(mf, None),
                        )
                    })
                })
                .collect()
        });
        for (rank, levels) in per_rank.iter().enumerate() {
            for (l, fabs) in levels.iter().enumerate() {
                for (actual, expect, full) in fabs.iter() {
                    assert_eq!(
                        actual, expect,
                        "nranks={nranks} rank {rank} L{l}: allocation must be exactly the \
                         owned grown boxes"
                    );
                    if nranks >= 2 {
                        assert!(
                            actual < full,
                            "nranks={nranks} rank {rank} L{l}: owned allocation must be a \
                             strict subset of the whole level"
                        );
                    }
                }
            }
        }
        // The ranks together hold the whole domain exactly once.
        if let Some(first) = per_rank.first() {
            for (l, fabs) in first.iter().enumerate() {
                for slot in 0..fabs.len() {
                    let total: usize = per_rank.iter().map(|lv| lv[l][slot].0).sum();
                    assert_eq!(
                        total, fabs[slot].2,
                        "nranks={nranks} L{l}: owned allocations must tile the domain"
                    );
                }
            }
        }
    }
}

#[test]
fn owned_simulation_answers_has_nonfinite() {
    // Regression: the non-finite scan indexed the unallocated placeholder
    // fabs of the patches other ranks own and panicked.
    let cfg = ramp_builder().nranks(2).threads(1).build();
    let clean = LocalCluster::run(2, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(1, &ep);
        let placeholders = (0..sim.nlevels())
            .map(|l| &sim.level(l).state)
            .any(|s| (0..s.nfabs()).any(|i| !s.is_allocated(i)));
        assert!(placeholders, "two ranks must leave each other placeholders");
        !sim.has_nonfinite()
    });
    assert_eq!(clean, [true, true]);
}

#[test]
fn lockstep_cluster_report_counts_cell_updates() {
    // Regression: only the subcycled cluster path counted, so lockstep
    // `advance_steps_cluster` reported 0. The count is global — every rank
    // reports the serial run's total whatever share it owns.
    let serial = Simulation::new(ramp_builder().build())
        .advance_steps(4)
        .cell_updates;
    assert!(serial > 0);
    let cfg = ramp_builder().nranks(2).threads(1).build();
    let per_rank = LocalCluster::run(2, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(4, &ep).cell_updates
    });
    assert_eq!(per_rank, [serial, serial]);
}
