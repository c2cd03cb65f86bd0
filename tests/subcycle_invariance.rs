//! Subcycling (docs/ARCHITECTURE.md §Subcycling) pays off in two ways no
//! lockstep run matches: it conserves exactly where lockstep AMR only
//! approximately does (time-interpolated ghosts + refluxing close the
//! coarse/fine flux budget), and it advances fewer cell updates per unit of
//! simulated time on a deep hierarchy. And it must not care how the work is
//! executed — reference phases or task graph, one rank or several: the
//! `*_bitwise` tests are legs of the differential matrix
//! (`tests/common/matrix.rs`, `vortex2_sub`) against the one-rank fenced
//! oracle. That subcycling degenerates bitwise to lockstep on one level, and
//! the restarted, crash-recovered and 3-level legs, are checked in
//! `tests/invariance_matrix.rs` (`ramp_sub1`, `vortex2_sub`, `vortex3_sub`).

mod common;

use common::matrix::{check, exec, Fenced, Graph, VORTEX2_SUB};
use common::vortex;
use crocco::solver::backend::BackendKind::Lanes;
use crocco::solver::driver::Simulation;

#[test]
fn overlapped_subcycling_matches_the_barrier_path_bitwise() {
    // Multi-level: both schedules record the interface fluxes in the sweep
    // that reads the filled ghosts — same values, same fold order — so the
    // solutions must agree bitwise.
    check(
        &VORTEX2_SUB,
        [exec(1, Fenced, 1, Lanes), exec(1, Graph, 2, Lanes)],
    );
}

#[test]
fn owned_distributed_subcycling_matches_the_serial_path_bitwise() {
    // The cluster must partition the oracle bitwise at every rank count —
    // per-level dt with one allreduce, old-state gathers for the
    // time-interpolated fill, fine-part reflux shipping onto zeroed
    // accumulators, and the distributed AverageDown all preserve the serial
    // fold orders (docs/DISTRIBUTED.md §Subcycled steps). 4 steps cross the
    // step-3 regrid, so the subcycled registers also survive a distributed
    // re-partition. Both schedules are on the hook.
    let legs = [1, 2, 4]
        .into_iter()
        .flat_map(|ranks| [exec(ranks, Fenced, 1, Lanes), exec(ranks, Graph, 2, Lanes)]);
    check(&VORTEX2_SUB, legs);
}

#[test]
fn subcycling_conserves_across_regrids_where_lockstep_amr_drifts() {
    // The first step absorbs the one-time AverageDown of the initial
    // condition (fine and coarse both sample the IC independently, so the
    // first restriction shifts the level-0 integral once, in lockstep and
    // subcycled runs alike). Conservation is measured from step 1 onward: 4
    // further steps with regrid_freq(3) cross a regrid, so the budget also
    // covers the remap path.
    let mut sub = Simulation::new(vortex(2).subcycling(true).build());
    assert!(sub.nlevels() > 1, "vortex must refine for this test");
    sub.advance_steps(1);
    let before: Vec<f64> = (0..5).map(|c| sub.conserved_integral(c)).collect();
    sub.advance_steps(4);
    let after: Vec<f64> = (0..5).map(|c| sub.conserved_integral(c)).collect();
    for c in 0..5 {
        let drift = ((after[c] - before[c]) / before[c].abs().max(1e-300)).abs();
        assert!(
            drift < 1e-12,
            "component {c}: subcycled integral drifted by {drift:e} ({} -> {})",
            before[c],
            after[c]
        );
    }
    // The same mesh marched lockstep (no refluxing) leaks through the
    // interface: measurably above the subcycled drift, or the test proves
    // nothing.
    let mut lock = Simulation::new(vortex(2).build());
    lock.advance_steps(1);
    let lb: Vec<f64> = (0..5).map(|c| lock.conserved_integral(c)).collect();
    lock.advance_steps(4);
    let la: Vec<f64> = (0..5).map(|c| lock.conserved_integral(c)).collect();
    let worst_lock = (0..5)
        .map(|c| ((la[c] - lb[c]) / lb[c].abs().max(1e-300)).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst_lock > 1e-12,
        "lockstep AMR unexpectedly conserved ({worst_lock:e}) — the vortex no longer \
         exercises the interface and this test is vacuous"
    );
}

#[test]
fn subcycling_advances_fewer_cell_updates_on_a_deep_hierarchy() {
    let mut sub = Simulation::new(vortex(3).subcycling(true).build());
    assert!(
        sub.nlevels() >= 3,
        "need a ≥3-level hierarchy, got {}",
        sub.nlevels()
    );
    let rs = sub.advance_steps(2);
    let mut lock = Simulation::new(vortex(3).build());
    let rl = lock.advance_steps(2);
    // Per coarse step, lockstep advances Σ_ℓ N_ℓ cells; subcycling advances
    // Σ_ℓ N_ℓ·2^ℓ *fine* substeps but needs 2^ℓ_max fewer coarse steps to
    // reach the same time. Compare per unit simulated time.
    let sub_rate = rs.cell_updates as f64 / sub.report().final_time;
    let lock_rate = rl.cell_updates as f64 / lock.report().final_time;
    assert!(
        sub_rate < lock_rate,
        "subcycling must advance strictly fewer cell-updates per unit time \
         (subcycled {sub_rate:.3e}/t vs lockstep {lock_rate:.3e}/t)"
    );
}
