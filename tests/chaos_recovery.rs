//! End-to-end chaos-runtime proof (DESIGN.md §4g): seeded fault injection
//! on the cluster transport must be *repaired* — drop, duplication,
//! corruption, and delay leave the solution bitwise-identical to the
//! fault-free baseline — and whole-rank crashes must be *recovered* —
//! survivors roll back to the last in-memory checkpoint, re-form the
//! communicator without the dead rank, re-own the re-partitioned patches,
//! and still reach the target step with the single-rank answer.
//!
//! The configuration is the compression ramp of `tests/common`: sheared
//! curvilinear grid, `regrid_freq(3)` so multi-step runs cross regrids
//! (including inside rollback windows); it refines to two AMR levels at the
//! step-3 regrid. Two scenarios run it subcycled, against the single-rank
//! subcycled answer. The injection matrix runs 2 and 4 ranks (injection
//! needs real messages).

mod common;

use common::{assert_partitions_oracle, new_owned, patch_bits, ramp_builder, PatchBits};
use crocco::runtime::chaos::{ChaosConfig, CrashPhase, CrashSpec};
use crocco::runtime::LocalCluster;
use crocco::solver::cluster_step::ChaosRunReport;
use crocco::solver::config::SolverConfigBuilder;
use crocco::solver::driver::Simulation;
use std::sync::OnceLock;

/// Fault-free 4-step single-rank baseline under the reference schedule,
/// shared across tests (every scenario runs 4 steps — `regrid_freq(3)` puts
/// a regrid inside both the run and the crash tests' rollback windows):
/// patch bits and the conserved mass integral.
fn baseline4() -> &'static (PatchBits, f64) {
    static B: OnceLock<(PatchBits, f64)> = OnceLock::new();
    B.get_or_init(|| oracle(ramp_builder(), 4))
}

/// Steps of the subcycled scenarios: the ramp refines at the step-3
/// regrid, so steps 3–5 run two levels — old-state gathers, reflux
/// shipping and per-substep average-down — and a step-4 checkpoint holds
/// both levels.
const SUB_STEPS: u32 = 6;

/// The subcycled ramp's single-rank baseline after [`SUB_STEPS`] steps.
fn subcycled_baseline() -> &'static (PatchBits, f64) {
    static B: OnceLock<(PatchBits, f64)> = OnceLock::new();
    B.get_or_init(|| oracle(ramp_builder().subcycling(true), SUB_STEPS))
}

/// Patch bits and conserved mass of `steps` single-rank steps under the
/// reference schedule.
fn oracle(builder: SolverConfigBuilder, steps: u32) -> (PatchBits, f64) {
    let mut sim = Simulation::new(builder.overlap(false).build());
    sim.advance_steps(steps);
    assert_eq!(sim.nlevels(), 2, "the ramp must refine");
    (patch_bits(&sim), sim.conserved_integral(0))
}

/// Generous receive deadline: these tests run on oversubscribed CI hosts
/// (often a single core for a 4-rank cluster), where an honest peer can
/// legitimately go silent for many seconds mid-kernel. Crash detection does
/// not depend on this — it rides the fail-stop alive flags.
const WAIT_TIMEOUT_MS: u64 = 120_000;

/// What each rank of a chaos run reports back to the test.
struct RankOutcome {
    report: ChaosRunReport,
    /// `None` for the crashed rank (its simulation is abandoned mid-step);
    /// otherwise the rank's owned patches.
    bits: Option<PatchBits>,
    /// This rank's share of the conserved mass integral.
    integral: Option<f64>,
    step: Option<u32>,
}

/// Runs `steps` under the chaos runtime on `nranks` ranks and collects every
/// rank's outcome plus the injection statistics.
fn run_chaos(
    nranks: usize,
    chaos: ChaosConfig,
    overlap: bool,
    steps: u32,
) -> (Vec<RankOutcome>, [u64; 8]) {
    run_chaos_with(ramp_builder().overlap(overlap), nranks, chaos, steps)
}

/// [`run_chaos`] of the configuration `builder` describes.
fn run_chaos_with(
    builder: SolverConfigBuilder,
    nranks: usize,
    chaos: ChaosConfig,
    steps: u32,
) -> (Vec<RankOutcome>, [u64; 8]) {
    let cfg = builder.nranks(nranks).chaos(chaos.clone()).build();
    let (outcomes, runtime) = LocalCluster::run_with_chaos(nranks, chaos, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let report = sim.advance_steps_chaos(steps, &ep);
        if report.crashed {
            RankOutcome {
                report,
                bits: None,
                integral: None,
                step: None,
            }
        } else {
            RankOutcome {
                report,
                bits: Some(patch_bits(&sim)),
                integral: Some(sim.conserved_integral(0)),
                step: Some(sim.step_count()),
            }
        }
    });
    let stats = runtime.stats.snapshot();
    (outcomes, stats)
}

/// The owned patches of every rank that finished, in rank order.
fn survivor_bits(outcomes: &[RankOutcome]) -> Vec<PatchBits> {
    outcomes.iter().filter_map(|o| o.bits.clone()).collect()
}

/// A chaos transport with every fault probability at zero (framing, CRC
/// verification, and sequence tracking all active) must be bitwise
/// invisible: the detection layer may never perturb a fault-free run.
#[test]
fn zero_fault_chaos_transport_is_bitwise_invisible() {
    let (reference, _) = baseline4();
    let chaos = ChaosConfig {
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        ..ChaosConfig::default()
    };
    let (outcomes, stats) = run_chaos(2, chaos, false, 4);
    assert_eq!(stats[0] + stats[1] + stats[2] + stats[3], 0, "nothing injected");
    for o in &outcomes {
        assert!(!o.report.crashed);
        assert_eq!(o.report.recoveries, 0);
    }
    assert_partitions_oracle(
        &survivor_bits(&outcomes),
        reference,
        "detection-only chaos transport",
    );
}

/// Seeded drop + corruption + duplication + delay, repaired by CRC
/// rejection, retransmits, and sequence suppression: the solution must stay
/// bitwise-identical to the fault-free baseline at every rank count, under
/// the reference phases and the task graph.
#[test]
fn injected_faults_are_repaired_bitwise() {
    let (reference, _) = baseline4();
    let chaos = ChaosConfig {
        seed: 0xC0FF_EE42,
        drop_p: 0.03,
        duplicate_p: 0.02,
        corrupt_p: 0.02,
        delay_p: 0.03,
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        ..ChaosConfig::default()
    };
    for nranks in [2, 4] {
        for overlap in [false, true] {
            let (outcomes, stats) = run_chaos(nranks, chaos.clone(), overlap, 4);
            assert!(
                stats[0] + stats[1] + stats[2] + stats[3] > 0,
                "the plan must actually injure this run ({nranks} ranks)"
            );
            for o in &outcomes {
                assert!(!o.report.crashed);
                assert_eq!(o.report.recoveries, 0, "no rank died, no recovery");
            }
            assert_partitions_oracle(
                &survivor_bits(&outcomes),
                reference,
                &format!("injected faults, {nranks} ranks, overlap={overlap}"),
            );
        }
    }
}

/// Asserts the survivors of a crash run recovered correctly: reached the
/// target step, rolled back as expected, and between them hold the
/// single-rank solution bitwise (the shrunken group re-partitions every
/// patch over the survivors).
fn assert_recovered(
    outcomes: &[RankOutcome],
    crashed_ranks: &[usize],
    steps: u32,
    expect_rollbacks: &[u32],
) {
    assert_eq!(steps, 4, "baseline is 4 steps");
    assert_recovered_to(
        baseline4(),
        outcomes,
        crashed_ranks,
        steps,
        expect_rollbacks,
    );
}

/// [`assert_recovered`] against `oracle`, the baseline of `steps` steps.
fn assert_recovered_to(
    oracle: &(PatchBits, f64),
    outcomes: &[RankOutcome],
    crashed_ranks: &[usize],
    steps: u32,
    expect_rollbacks: &[u32],
) {
    let (reference, ref_integral) = oracle;
    for (r, o) in outcomes.iter().enumerate() {
        if crashed_ranks.contains(&r) {
            assert!(o.report.crashed, "rank {r} was scheduled to crash");
            continue;
        }
        assert!(!o.report.crashed, "rank {r} must survive");
        assert_eq!(o.step, Some(steps), "rank {r} must reach the target step");
        assert_eq!(
            o.report.rollback_steps, expect_rollbacks,
            "rank {r}: wrong rollback sequence"
        );
        assert_eq!(
            o.report.recoveries,
            u32::try_from(expect_rollbacks.len()).unwrap()
        );
        assert!(o.report.checkpoints >= 1);
        assert!(o.report.checkpoint_bytes > 0);
    }
    let integral: f64 = outcomes.iter().filter_map(|o| o.integral).sum();
    assert!(
        (integral - ref_integral).abs() <= 1e-12 * ref_integral.abs(),
        "conserved integral drifted ({integral} vs {ref_integral})"
    );
    assert_partitions_oracle(&survivor_bits(outcomes), reference, "recovered run");
}

fn crash_base() -> ChaosConfig {
    ChaosConfig {
        checkpoint_interval: 2,
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        ..ChaosConfig::default()
    }
}

/// Mid-RK crash (after the dt collective): survivors fault in stage halo /
/// gather traffic, roll back to the step-2 checkpoint, and re-execute on 3
/// ranks — across the regrid at step 3 inside the rollback window.
#[test]
fn rank_crash_after_dt_recovers_from_checkpoint() {
    let chaos = ChaosConfig {
        crashes: vec![CrashSpec {
            rank: 2,
            step: 3,
            phase: CrashPhase::AfterDt,
        }],
        ..crash_base()
    };
    let (outcomes, _) = run_chaos(4, chaos, false, 4);
    assert_recovered(&outcomes, &[2], 4, &[2]);
}

/// Crash between the regrid and the dt collective, at the regrid step
/// itself (mid-regrid fault): survivors fault inside the dt allreduce.
#[test]
fn rank_crash_after_regrid_recovers() {
    let chaos = ChaosConfig {
        crashes: vec![CrashSpec {
            rank: 1,
            step: 3,
            phase: CrashPhase::AfterRegrid,
        }],
        ..crash_base()
    };
    let (outcomes, _) = run_chaos(4, chaos, false, 4);
    assert_recovered(&outcomes, &[1], 4, &[2]);
}

/// Crash of physical rank 0 at step entry: the collective tree is rooted at
/// *logical* rank 0, so after the group re-forms, physical rank 1 takes over
/// as root and the dt allreduce keeps working.
#[test]
fn rank_zero_crash_recovers() {
    let chaos = ChaosConfig {
        crashes: vec![CrashSpec {
            rank: 0,
            step: 3,
            phase: CrashPhase::StepStart,
        }],
        ..crash_base()
    };
    let (outcomes, _) = run_chaos(4, chaos, false, 4);
    assert_recovered(&outcomes, &[0], 4, &[2]);
}

/// Two crashes inside one checkpoint interval: both recoveries roll back to
/// the *same* step-2 checkpoint, and the second recovery shrinks the group
/// again (4 → 3 → 2 ranks).
#[test]
fn two_crashes_in_one_checkpoint_interval() {
    let chaos = ChaosConfig {
        crashes: vec![
            CrashSpec {
                rank: 3,
                step: 2,
                phase: CrashPhase::AfterDt,
            },
            CrashSpec {
                rank: 2,
                step: 3,
                phase: CrashPhase::StepStart,
            },
        ],
        ..crash_base()
    };
    let (outcomes, _) = run_chaos(4, chaos, false, 4);
    assert_recovered(&outcomes, &[2, 3], 4, &[2, 2]);
}

/// Crash recovery with faults *also* injected on the transport: detection
/// repairs the message-level damage while rollback handles the dead rank.
#[test]
fn crash_recovery_survives_concurrent_injection() {
    let chaos = ChaosConfig {
        seed: 0xFA11_0DE2,
        drop_p: 0.02,
        corrupt_p: 0.01,
        delay_p: 0.02,
        crashes: vec![CrashSpec {
            rank: 2,
            step: 3,
            phase: CrashPhase::AfterDt,
        }],
        ..crash_base()
    };
    let (outcomes, stats) = run_chaos(4, chaos, false, 4);
    assert!(stats[0] + stats[2] + stats[3] > 0, "faults must fire");
    assert_recovered(&outcomes, &[2], 4, &[2]);
}

/// The rounds only a subcycled step draws — the coarse old-state gather of
/// the time-interpolated fill, reflux shipping and the per-substep
/// average-down — cross a faulty transport and are repaired bitwise, under
/// the reference phases and the task graph.
#[test]
fn subcycled_injected_faults_are_repaired_bitwise() {
    let (reference, _) = subcycled_baseline();
    // The plan hashes round tags. Under this seed it injures an old-state
    // gather (drop, corrupt, delay), a reflux shipment (delay) and an
    // average-down (drop); renumbered rounds move which frames it hits.
    let chaos = ChaosConfig {
        seed: 13,
        drop_p: 0.03,
        duplicate_p: 0.02,
        corrupt_p: 0.02,
        delay_p: 0.03,
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        ..ChaosConfig::default()
    };
    for overlap in [false, true] {
        let builder = ramp_builder().subcycling(true).overlap(overlap);
        let (outcomes, stats) = run_chaos_with(builder, 2, chaos.clone(), SUB_STEPS);
        assert!(
            stats[0] + stats[1] + stats[2] + stats[3] > 0,
            "the plan must actually injure this run"
        );
        for o in &outcomes {
            assert!(!o.report.crashed);
            assert_eq!(o.report.recoveries, 0, "no rank died, no recovery");
        }
        assert_partitions_oracle(
            &survivor_bits(&outcomes),
            reference,
            &format!("subcycled injected faults, overlap={overlap}"),
        );
    }
}

/// A subcycled mid-step crash on two levels: the survivor rolls back to
/// the step-4 checkpoint and finishes alone, its rebuilt `Simulation`
/// counting rounds from zero again in the next communicator generation.
#[test]
fn subcycled_rank_crash_after_dt_recovers() {
    let chaos = ChaosConfig {
        crashes: vec![CrashSpec {
            rank: 1,
            step: 5,
            phase: CrashPhase::AfterDt,
        }],
        ..crash_base()
    };
    let builder = ramp_builder().subcycling(true).overlap(false);
    let (outcomes, _) = run_chaos_with(builder, 2, chaos, SUB_STEPS);
    assert_recovered_to(subcycled_baseline(), &outcomes, &[1], SUB_STEPS, &[4]);
}

/// In the `check` build, a poisoned-NaN kernel (here: one rank's
/// metrics silently corrupted, the way a flipped bit in device memory
/// would) must *fail-stop* through the panic-to-`StageError` conversion —
/// the rank reports `crashed` through the typed path instead of unwinding
/// across the cluster threads or hanging — before the NaN ever reaches a
/// halo message; its peer sees the death, rolls back and finishes alone.
#[cfg(feature = "check")]
#[test]
fn poisoned_nan_kernel_fail_stops_through_typed_path() {
    let chaos = ChaosConfig {
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        ..ChaosConfig::default()
    };
    let cfg = ramp_builder().nranks(2).chaos(chaos.clone()).build();
    let (outcomes, _) = LocalCluster::run_with_chaos(2, chaos, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let clean = sim.advance_steps_chaos(2, &ep);
        assert!(!clean.crashed, "poison-free prefix must be healthy");
        // Corrupt one owned patch's metrics on rank 1 only. The NaN enters
        // that patch's right-hand side in the next RK stage, and rank 1's
        // post-stage sweep traps it.
        if ep.rank() == 1 {
            sim.poison_metrics_for_test(ep.rank());
        }
        let report = sim.advance_steps_chaos(2, &ep);
        let clean_finish = !report.crashed && sim.step_count() == 4 && !sim.has_nonfinite();
        (report, clean_finish)
    });
    let (poisoned, _) = &outcomes[1];
    assert!(
        poisoned.crashed,
        "rank 1: NaN poison must fail-stop via the typed StageError path"
    );
    let (peer, clean_finish) = &outcomes[0];
    assert!(!peer.crashed, "rank 0 never saw the NaN and must survive");
    assert_eq!(peer.rollback_steps, vec![2], "rank 0 rolls back past the death");
    assert!(clean_finish, "rank 0 must finish the run alone, finite");
}
