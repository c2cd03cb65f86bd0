//! The differential matrix (`tests/common/matrix.rs`): every scenario
//! marched under every execution axis — ranks, schedule, threads, backend,
//! lifecycle — must be bitwise its one-rank, fenced, one-thread, scalar
//! oracle. One test per scenario, named by the level count its oracle
//! asserts. Each runs a covering diagonal, in which every axis value
//! appears, plus the legs no named claim of the invariance suites carries:
//!
//! - `tests/overlap_invariance.rs`: the task graph on one rank (`ramp`);
//! - `tests/backend_invariance.rs`: the lane kernels against the scalar
//!   ones (`ramp`, `les_split`);
//! - `tests/dist_overlap_invariance.rs`: split patches under the viscous
//!   kernels at 2 and 4 ranks (`les_split`);
//! - `tests/owned_dist_invariance.rs`: the ramp's rank × schedule product,
//!   restart and the single-level crash (`ramp`);
//! - `tests/subcycle_invariance.rs`: subcycling across ranks and schedules
//!   (`vortex2_sub`).

mod common;

use common::matrix::{
    check, diagonal, exec, Crash, Exec, Fenced, Graph, DMR3, LES2, LES_SPLIT, RAMP, RAMP_SUB1,
    VORTEX2_SUB, VORTEX3_SUB,
};
use crocco::solver::backend::BackendKind::{Lanes, Scalar};

#[test]
fn two_levels_ramp() {
    // The graph at 1 and 4 threads on 2 and 4 ranks, the scalar kernels on
    // 2 ranks, and a crash in step 5, which rolls back to the two-level
    // step-4 snapshot.
    let mut legs: Vec<Exec> = [2, 4]
        .into_iter()
        .flat_map(|ranks| [exec(ranks, Graph, 1, Lanes), exec(ranks, Graph, 4, Lanes)])
        .collect();
    legs.push(exec(2, Graph, 1, Scalar));
    legs.push(Exec {
        life: Crash { step: 5, levels: 2 },
        ..exec(4, Graph, 1, Lanes)
    });
    legs.extend(diagonal(&RAMP));
    check(&RAMP, legs);
}

/// Single-level subcycling is bitwise lockstep: the oracle of `ramp_sub1`
/// is the lockstep run.
#[test]
fn one_level_ramp_sub1() {
    let legs = [exec(1, Fenced, 1, Lanes), exec(1, Graph, 2, Lanes)];
    check(&RAMP_SUB1, [&legs[..], &diagonal(&RAMP_SUB1)].concat());
}

#[test]
fn two_levels_vortex2_sub() {
    check(&VORTEX2_SUB, diagonal(&VORTEX2_SUB));
}

#[test]
fn one_level_les_split() {
    check(&LES_SPLIT, diagonal(&LES_SPLIT));
}

#[test]
fn two_levels_les2() {
    check(&LES2, diagonal(&LES2));
}

#[test]
fn three_levels_dmr3() {
    check(&DMR3, diagonal(&DMR3));
}

#[test]
fn three_levels_vortex3_sub() {
    check(&VORTEX3_SUB, diagonal(&VORTEX3_SUB));
}
