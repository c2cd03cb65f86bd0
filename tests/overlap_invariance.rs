//! The task-graph schedule (`SolverConfig::overlap`, the default) must be
//! *observationally invisible*: overlapping halo exchange with kernel sweeps
//! may only change the inter-patch schedule, never a single bit of the
//! solution. These tests run the compression-ramp configuration (sheared
//! curvilinear grid; a 4-step run refines to two AMR levels at the step-3
//! regrid) on one rank under the graph and under the reference schedule —
//! `overlap(false)`, the sequential fill → sweep → update phases — and
//! demand bitwise-identical state, not merely close. In the `check` build
//! both runs are also poisoned, swept and race-checked, so the graph
//! schedule must satisfy the aliasing proofs and ghost-epoch discipline too.
//! DESIGN.md §4e spells out why this holds; this test is the end-to-end
//! proof. (`tests/owned_dist_invariance.rs` and
//! `tests/dist_overlap_invariance.rs` carry the same comparison to 2 and 4
//! ranks.)

mod common;

use common::{nlevels, ramp_builder, run_single};
use proptest::prelude::*;

#[test]
fn overlap_matches_barrier_bitwise_multithreaded() {
    // 4 worker threads: the task graph actually runs concurrently, so any
    // missing dependency edge has a real chance to corrupt a ghost read.
    let reference = run_single(ramp_builder().threads(4).overlap(false).build(), 4);
    assert_eq!(nlevels(&reference), 2, "the ramp must refine");
    let graph = run_single(ramp_builder().threads(4).build(), 4);
    assert_eq!(reference.len(), graph.len());
    assert!(reference == graph, "task-graph run diverged bitwise");
}

#[test]
fn overlap_matches_barrier_bitwise_serial() {
    // threads == 1 exercises the executor's deterministic serial path.
    let reference = run_single(ramp_builder().threads(1).overlap(false).build(), 4);
    assert_eq!(nlevels(&reference), 2, "the ramp must refine");
    let graph = run_single(ramp_builder().threads(1).build(), 4);
    assert!(reference == graph, "serial task-graph run diverged bitwise");
}

#[test]
fn overlap_is_invariant_under_adversarial_schedules() {
    // Seeded adversarial linearizations (seed 0 = reverse-priority, plus an
    // arbitrary seed) replace the thread pool with a hostile but legal
    // topological order. Bitwise identity against the reference run is the
    // taskcheck layer's end-to-end soundness proof: if any dependency edge
    // were missing, some legal order would expose it as a diverging bit.
    let reference = run_single(ramp_builder().threads(4).overlap(false).build(), 4);
    assert_eq!(nlevels(&reference), 2, "the ramp must refine");
    for seed in [0u64, 0x9e3779b97f4a7c15] {
        let adversarial = run_single(ramp_builder().threads(4).sched_seed(seed).build(), 4);
        assert!(
            reference == adversarial,
            "adversarial schedule (seed {seed:#x}) diverged bitwise"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn overlap_is_bitwise_invisible_on_the_ramp(
        cfl in prop::sample::select(vec![0.4f64, 0.5]),
        steps in 3u32..5,
        threads in prop::sample::select(vec![2usize, 4]),
    ) {
        let reference = run_single(
            ramp_builder().cfl(cfl).threads(threads).overlap(false).build(),
            steps,
        );
        // Level 1 first appears at the step-3 regrid, at the start of step 4.
        prop_assert_eq!(nlevels(&reference), if steps > 3 { 2 } else { 1 });
        let graph = run_single(ramp_builder().cfl(cfl).threads(threads).build(), steps);
        prop_assert_eq!(reference.len(), graph.len());
        prop_assert!(reference == graph, "task-graph run diverged bitwise");
    }
}
