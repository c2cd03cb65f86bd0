//! The kernel backend (`SolverConfig::kernel_backend`) must be
//! *observationally invisible*: the default plane-laned SIMD kernels
//! restructure the hot loops — direction-major scratch, lanes across the
//! plane orthogonal to the sweep — but never reassociate, reorder, or
//! contract a single per-cell operation, so the solution must match the
//! scalar reference **bitwise**. These legs of the differential matrix
//! (`tests/common/matrix.rs`) run the default backend against the scalar
//! oracle on the 2-level ramp under both schedules (in the `check` build
//! poisoned, swept and race-checked) and on the LES vortex, which exercises
//! the laned viscous/SGS kernels. DESIGN.md §4h spells out why bitwise
//! identity holds.

mod common;

use common::matrix::{check, exec, Fenced, Graph, LES_SPLIT, RAMP};
use crocco::solver::backend::BackendKind::{Lanes, Scalar};

#[test]
fn backends_match_scalar_bitwise_on_the_ramp() {
    // 4 steps crosses the regrid at step 3, so the kernels also run over
    // freshly regridded patches.
    check(&RAMP, [exec(1, Graph, 4, Scalar), exec(1, Graph, 4, Lanes)]);
}

#[test]
fn backends_match_scalar_bitwise_with_les() {
    // LES exercises the laned viscous + Smagorinsky kernels end to end.
    check(&LES_SPLIT, [exec(1, Graph, 2, Lanes)]);
}

#[test]
fn backends_compose_with_overlap_fabcheck_poison() {
    // The composition: the task-graph executor consumes the backend through
    // the same `accumulate_rhs` seam, and in the `check` build the aliasing
    // proofs, ghost-epoch discipline and NaN poison must hold for the
    // restructured kernels under both schedules.
    let legs = [Fenced, Graph]
        .into_iter()
        .flat_map(|sched| [exec(1, sched, 4, Scalar), exec(1, sched, 4, Lanes)]);
    check(&RAMP, legs);
}
