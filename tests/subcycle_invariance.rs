//! Subcycling invariance (docs/ARCHITECTURE.md §Subcycling): per-level time
//! stepping must degenerate *bitwise* to lockstep when there is nothing to
//! subcycle, must conserve exactly where lockstep AMR only approximately
//! does (time-interpolated ghosts + refluxing close the coarse/fine flux
//! budget), and must not care how the work is executed — reference phases
//! or task graph, one rank or several.

mod common;

use common::{assert_partitions_oracle, patch_bits, ranks_under_test, run_owned};
use crocco::solver::config::{CodeVersion, InterpKind, SolverConfig, SolverConfigBuilder};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;

/// Single-level compression ramp: subcycling with nothing finer must be the
/// identity transformation on the step loop.
fn single_level() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::Ramp)
        .extents(32, 16, 8)
        .version(CodeVersion::V2_0)
        .max_levels(1)
        .cfl(0.5)
}

/// The periodic isentropic vortex with an interior refined region: the
/// conservation workload. Fully periodic and inviscid, so the only way mass,
/// momentum, or energy can leak is through a coarse/fine interface-flux
/// mismatch. `PiecewiseConstant` interpolation keeps regrid remaps
/// mean-preserving so refluxing is the *only* conservation mechanism under
/// test.
fn vortex(levels: usize) -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(32, 32, 8)
        .version(CodeVersion::V2_0)
        .max_levels(levels)
        .blocking_factor(4)
        .max_grid_size(16)
        .regrid_freq(3)
        .interpolator(InterpKind::PiecewiseConstant)
        .cfl(0.4)
}

#[test]
fn single_level_subcycling_is_bitwise_lockstep() {
    // Under the reference phases and under the task graph.
    for (overlap, threads) in [(false, 1usize), (true, 2)] {
        let base = || single_level().overlap(overlap).threads(threads);
        let mut lock = Simulation::new(base().build());
        let mut sub = Simulation::new(base().subcycling(true).build());
        lock.advance_steps(3);
        sub.advance_steps(3);
        assert_eq!(
            patch_bits(&lock),
            patch_bits(&sub),
            "overlap={overlap}: single-level subcycling diverged from lockstep"
        );
    }
}

#[test]
fn overlapped_subcycling_matches_the_barrier_path_bitwise() {
    // Multi-level: both schedules record the interface fluxes in the sweep
    // that reads the filled ghosts — same values, same fold order — so the
    // solutions must agree bitwise.
    let mut reference = Simulation::new(vortex(2).subcycling(true).overlap(false).build());
    let mut graph = Simulation::new(vortex(2).subcycling(true).threads(2).build());
    assert!(reference.nlevels() > 1, "vortex must refine for this test");
    reference.advance_steps(4);
    graph.advance_steps(4);
    assert_eq!(
        patch_bits(&reference),
        patch_bits(&graph),
        "task-graph subcycling diverged from the reference phases"
    );
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
fn owned_distributed_subcycling_matches_the_serial_path_bitwise() {
    // The one-rank subcycled run under the reference phases is the oracle;
    // the cluster must partition it bitwise at every rank count — per-level
    // dt with one allreduce, old-state gathers for the time-interpolated
    // fill, fine-part reflux shipping onto zeroed accumulators, and the
    // distributed AverageDown all preserve the serial fold orders
    // (docs/DISTRIBUTED.md §Subcycled steps). 4 steps cross the step-3
    // regrid, so the subcycled registers also survive a distributed
    // re-partition. Both schedules are on the hook.
    let mut serial = Simulation::new(vortex(2).subcycling(true).overlap(false).build());
    assert!(serial.nlevels() > 1, "vortex must refine for this test");
    serial.advance_steps(4);
    let reference = patch_bits(&serial);
    for nranks in ranks_under_test() {
        for (overlap, threads) in [(false, 1usize), (true, 2)] {
            let cfg = vortex(2)
                .subcycling(true)
                .nranks(nranks)
                .overlap(overlap)
                .threads(threads)
                .build();
            let owned = run_owned(cfg, 4);
            assert_partitions_oracle(
                &owned,
                &reference,
                &format!("subcycling nranks={nranks} overlap={overlap}"),
            );
        }
    }
}

#[test]
fn poisoned_subcycling_matches_the_serial_path_bitwise() {
    // The subcycled vortex is inviscid: its stages fill face ghosts only,
    // and its sweeps feed the flux registers from their face rows. Under
    // `fabcheck` + `nan_poison` every ghost outside the footprint stays a
    // signaling NaN, so a read past it — by a sweep, a register face, the
    // time-interpolated fill or a regrid remap — traps instead of passing
    // on a stale value.
    let mut serial = Simulation::new(vortex(2).subcycling(true).overlap(false).build());
    serial.advance_steps(4);
    let reference = patch_bits(&serial);
    for nranks in ranks_under_test() {
        let cfg = vortex(2)
            .subcycling(true)
            .nranks(nranks)
            .threads(2)
            .nan_poison(true)
            .build();
        assert_partitions_oracle(
            &run_owned(cfg, 4),
            &reference,
            &format!("poisoned subcycling nranks={nranks}"),
        );
    }
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
