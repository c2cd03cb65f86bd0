//! The task-graph schedule (`SolverConfig::overlap`, the default) must be
//! *observationally invisible*: overlapping halo exchange with kernel sweeps
//! may only change the inter-patch schedule, never a single bit of the
//! solution. These legs of the differential matrix (`tests/common/matrix.rs`)
//! run the compression ramp on one rank, 4 steps across the step-3 regrid
//! onto two levels, under the graph, the fenced reference phases and hostile
//! linearizations, and demand the bits of the scenario's oracle (fenced, one
//! thread, scalar kernels). DESIGN.md §4e spells out why this holds.

mod common;

use common::matrix::{check, exec, Adversarial, Fenced, Graph, GOLDEN, RAMP};
use crocco::solver::backend::BackendKind::Lanes;

#[test]
fn overlap_matches_barrier_bitwise_multithreaded() {
    // 4 worker threads: the task graph actually runs concurrently, so any
    // missing dependency edge has a real chance to corrupt a ghost read.
    check(&RAMP, [exec(1, Fenced, 4, Lanes), exec(1, Graph, 4, Lanes)]);
}

#[test]
fn overlap_matches_barrier_bitwise_serial() {
    // threads == 1 exercises the executor's deterministic serial path.
    check(&RAMP, [exec(1, Fenced, 1, Lanes), exec(1, Graph, 1, Lanes)]);
}

#[test]
fn overlap_is_invariant_under_adversarial_schedules() {
    // Seeded adversarial linearizations (seed 0 = reverse-priority, plus an
    // arbitrary seed) replace the thread pool with a hostile but legal
    // topological order: if any dependency edge were missing, some legal
    // order would expose it as a diverging bit.
    check(
        &RAMP,
        [
            exec(1, Adversarial(0), 4, Lanes),
            exec(1, Adversarial(GOLDEN), 4, Lanes),
        ],
    );
}

#[test]
fn overlap_is_bitwise_invisible_on_the_ramp() {
    // Graph against fenced at 2 threads too; every leg runs 4 steps, so
    // the comparison crosses the regrid onto two levels.
    check(&RAMP, [exec(1, Fenced, 2, Lanes), exec(1, Graph, 2, Lanes)]);
}
