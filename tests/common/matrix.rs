//! The differential matrix: how a run is executed must be *observationally
//! invisible*. Every leg marches one scenario under one execution, and the
//! union of the ranks' owned patches must be bitwise the answer of the
//! scenario's oracle: one rank, the fenced reference phases
//! (`overlap(false)`), one thread, the scalar kernels. The axes:
//!
//! - **ranks** 1, 2, 4 (owned-only storage, distributed regrid);
//! - **schedule**: fenced, the task graph (DESIGN.md §4e–§4f), or a seeded
//!   adversarial linearization of it that would expose a missing edge;
//! - **threads** 1, 2, 4 per rank;
//! - **backend**: scalar or the lane kernels (DESIGN.md §4h);
//! - **lifecycle**: straight; restarted at N ranks from the oracle's
//!   checkpoint; or rank 2 of 4 crashing after the dt collective, the
//!   survivors rolling back to the last in-memory checkpoint (§4g).
//!
//! A test names a claim and calls [`check`] with the legs that carry it:
//! `tests/invariance_matrix.rs` holds one test per scenario (its covering
//! diagonal and the legs no older claim names), and the invariance suites
//! keep their named claims as slices of the same table. The oracle is
//! memoized per scenario in each test binary. In the `check` build every
//! run is poisoned, swept and race-checked; the inviscid scenarios fill
//! face ghosts only, so a read outside the footprint traps on a signaling
//! NaN.

use super::{assert_partitions_oracle, new_owned, nlevels, patch_bits, ramp_builder, PatchBits};
use super::{dmr3, vortex, vortex3};
use crocco::runtime::chaos::{ChaosConfig, CrashPhase, CrashSpec};
use crocco::runtime::LocalCluster;
use crocco::solver::backend::BackendKind::{self, Lanes, Scalar};
use crocco::solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco::solver::driver::Simulation;
use crocco::solver::io::{parse_checkpoint, write_checkpoint_bytes};
use crocco::solver::problems::ProblemKind;
use std::sync::{Arc, Mutex, PoisonError};
pub use Life::{Crash, Restart, Straight};
pub use Sched::{Adversarial, Fenced, Graph};

/// The second adversarial seed: an arbitrary, hostile linearization.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Steps between the in-memory checkpoints of a crash leg.
const CHECKPOINT_INTERVAL: u32 = 2;

/// The stage schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sched {
    /// The sequential fill → sweep → update reference phases.
    Fenced,
    /// The task graph on the worker pool.
    Graph,
    /// The task graph in a seeded adversarial topological order.
    Adversarial(u64),
}

/// How the run is carried from construction to its last step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Life {
    Straight,
    /// Restored at N ranks from the oracle's checkpoint after the
    /// scenario's `restart_at` steps.
    Restart,
    /// Rank 2 of 4 crashes after the dt collective of step `step`; the
    /// snapshot the survivors restore holds `levels`.
    Crash {
        step: u32,
        levels: usize,
    },
}

/// One execution of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exec {
    pub ranks: usize,
    pub sched: Sched,
    pub threads: usize,
    pub backend: BackendKind,
    pub life: Life,
}

/// A straight run.
pub const fn exec(ranks: usize, sched: Sched, threads: usize, backend: BackendKind) -> Exec {
    Exec {
        ranks,
        sched,
        threads,
        backend,
        life: Straight,
    }
}

/// Every schedule value with the thread count its diagonal leg uses.
pub const SCHEDULES: [(Sched, usize); 6] = [
    (Fenced, 1),
    (Graph, 1),
    (Graph, 2),
    (Graph, 4),
    (Adversarial(0), 2),
    (Adversarial(GOLDEN), 2),
];

/// A scenario: what is marched, and what its oracle must look like.
pub struct Scenario {
    name: &'static str,
    /// The configuration of the oracle.
    oracle: fn() -> SolverConfigBuilder,
    /// The configuration every leg runs (usually the oracle's).
    case: fn() -> SolverConfigBuilder,
    steps: u32,
    /// Levels the oracle holds after `steps`.
    levels: usize,
    /// The step a restart leg resumes from.
    restart_at: u32,
    /// The crash leg of the diagonal, if any.
    crash: Option<Life>,
    /// Steps the oracle records: enough for every leg of the scenario.
    oracle_steps: u32,
}

/// The covering diagonal: every schedule once, at rank counts cycling
/// through 1, 2, 4; the scalar kernels on the 2-rank graph leg (the oracle
/// runs them too, so one leg covers that value); a restart at 2 ranks and
/// the scenario's crash on 4.
pub fn diagonal(s: &Scenario) -> Vec<Exec> {
    let mut legs: Vec<Exec> = SCHEDULES
        .iter()
        .enumerate()
        .map(|(i, &(sched, threads))| {
            let backend = if i == 1 { Scalar } else { Lanes };
            exec([1, 2, 4][i % 3], sched, threads, backend)
        })
        .collect();
    legs.push(Exec {
        life: Restart,
        ..exec(2, Graph, 2, Lanes)
    });
    legs.extend(s.crash.map(|life| Exec {
        life,
        ..exec(4, Graph, 1, Lanes)
    }));
    legs
}

/// What the oracle recorded: the patch bits after every step, and the
/// checkpoint it wrote after `restart_at` steps.
struct Oracle {
    bits: Vec<PatchBits>,
    checkpoint: Vec<u8>,
}

/// Steps a leg runs in total: a crash leg runs at least through the step
/// it crashes in.
fn leg_steps(s: &Scenario, e: &Exec) -> u32 {
    match e.life {
        Crash { step, .. } => s.steps.max(step + 1),
        _ => s.steps,
    }
}

/// `s`'s oracle, run once per test binary.
fn oracle(s: &Scenario) -> Arc<Oracle> {
    static MEMO: Mutex<Vec<(&str, Arc<Oracle>)>> = Mutex::new(Vec::new());
    // Held while the oracle runs, so concurrent tests of one scenario wait
    // for it instead of repeating it.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, o)) = memo.iter().find(|(name, _)| *name == s.name) {
        return Arc::clone(o);
    }
    let o = Arc::new(run_oracle(s));
    memo.push((s.name, Arc::clone(&o)));
    o
}

fn run_oracle(s: &Scenario) -> Oracle {
    let cfg = (s.oracle)()
        .overlap(false)
        .threads(1)
        .kernel_backend(Scalar)
        .build();
    let mut sim = Simulation::new(cfg);
    let mut bits = vec![patch_bits(&sim)];
    let mut checkpoint = Vec::new();
    for step in 1..=s.oracle_steps {
        sim.advance_steps(1);
        bits.push(patch_bits(&sim));
        if step == s.restart_at {
            checkpoint = write_checkpoint_bytes(&sim);
        }
    }
    assert_eq!(
        nlevels(&bits[s.steps as usize]),
        s.levels,
        "{}: the oracle must hold {} levels after {} steps",
        s.name,
        s.levels,
        s.steps
    );
    Oracle { bits, checkpoint }
}

/// The configuration of leg `e`.
fn config(s: &Scenario, e: &Exec) -> SolverConfigBuilder {
    let b = (s.case)()
        .nranks(e.ranks)
        .threads(e.threads)
        .kernel_backend(e.backend);
    match e.sched {
        Fenced => b.overlap(false),
        Graph => b,
        Adversarial(seed) => b.sched_seed(seed),
    }
}

/// Runs leg `e` and returns every surviving rank's owned patches.
fn run_leg(s: &Scenario, e: &Exec, oracle: &Oracle, what: &str) -> Vec<PatchBits> {
    let steps = leg_steps(s, e);
    match e.life {
        Straight => {
            let cfg = config(s, e).build();
            LocalCluster::run(e.ranks, move |ep| {
                let mut sim = new_owned(&cfg, &ep);
                sim.advance_steps_cluster(steps, &ep);
                patch_bits(&sim)
            })
        }
        Restart => {
            let cfg = config(s, e).build();
            let (bytes, remaining) = (oracle.checkpoint.clone(), steps - s.restart_at);
            LocalCluster::run(e.ranks, move |ep| {
                let chk = parse_checkpoint(&bytes).expect("checkpoint round-trips");
                let mut sim = Simulation::from_checkpoint_owned(cfg.clone(), &chk, ep.rank());
                sim.advance_steps_cluster(remaining, &ep);
                patch_bits(&sim)
            })
        }
        Crash { step, levels } => {
            assert_eq!(e.ranks, 4, "{what}: crash legs run on 4 ranks");
            let rollback = step - step % CHECKPOINT_INTERVAL;
            assert_eq!(
                nlevels(&oracle.bits[rollback as usize]),
                levels,
                "{what}: the step-{rollback} snapshot must hold {levels} levels"
            );
            let chaos = ChaosConfig {
                checkpoint_interval: CHECKPOINT_INTERVAL,
                // Generous: a 4-rank cluster on a one- or two-core host can
                // leave an honest peer silent for seconds. Crash detection
                // rides the fail-stop alive flags, not this deadline.
                wait_timeout_ms: 120_000,
                crashes: vec![CrashSpec {
                    rank: 2,
                    step,
                    phase: CrashPhase::AfterDt,
                }],
                ..ChaosConfig::default()
            };
            let cfg = config(s, e).chaos(chaos.clone()).build();
            let (outcomes, _) = LocalCluster::run_with_chaos(4, chaos, move |ep| {
                let mut sim = new_owned(&cfg, &ep);
                let report = sim.advance_steps_chaos(steps, &ep);
                let survived = (!report.crashed).then(|| (patch_bits(&sim), sim.step_count()));
                (report, survived)
            });
            let mut survivors = Vec::new();
            for (r, (report, survived)) in outcomes.into_iter().enumerate() {
                if r == 2 {
                    assert!(report.crashed, "{what}: rank 2 was scheduled to crash");
                    continue;
                }
                let (bits, at) =
                    survived.unwrap_or_else(|| panic!("{what}: rank {r} must survive"));
                assert_eq!(at, steps, "{what}: rank {r} must reach the target step");
                assert_eq!(
                    report.rollback_steps,
                    [rollback],
                    "{what}: rank {r} rolls back once, to step {rollback}"
                );
                assert!(report.checkpoints >= 1 && report.checkpoint_bytes > 0);
                survivors.push(bits);
            }
            survivors
        }
    }
}

/// Runs every leg of `legs` (duplicates once) against `s`'s oracle.
pub fn check(s: &Scenario, legs: impl IntoIterator<Item = Exec>) {
    let mut unique: Vec<Exec> = Vec::new();
    for e in legs {
        if !unique.contains(&e) {
            unique.push(e);
        }
    }
    let oracle = oracle(s);
    for e in &unique {
        let what = format!("{}: {e:?}", s.name);
        let steps = leg_steps(s, e);
        assert!(
            steps <= s.oracle_steps,
            "{what}: the oracle records {} steps, the leg runs {steps}",
            s.oracle_steps
        );
        let owned = run_leg(s, e, &oracle, &what);
        assert_partitions_oracle(&owned, &oracle.bits[steps as usize], &what);
    }
}

/// The compression ramp of `tests/common`: sheared curvilinear grid,
/// inviscid `Faces(3)` footprint, curvilinear interpolator; level 1 first
/// appears at the step-3 regrid, so 4 steps cross it. The oracle runs 6
/// steps for the crash in step 5.
pub const RAMP: Scenario = Scenario {
    name: "ramp",
    oracle: ramp_builder,
    case: ramp_builder,
    steps: 4,
    levels: 2,
    restart_at: 2,
    crash: Some(Crash { step: 5, levels: 2 }),
    oracle_steps: 6,
};

/// The single-level ramp marched subcycled. Its oracle is the *lockstep*
/// run: with nothing finer, subcycling is the identity on the step loop.
///
/// No crash leg: the ramp is one 32×16×8 patch, so on 4 ranks rank 2 owns
/// nothing, and when it dies only some survivors see it; the others never
/// return from `advance_steps_chaos` (CHANGES.md, FOUND on idle-rank
/// crashes).
pub const RAMP_SUB1: Scenario = Scenario {
    name: "ramp_sub1",
    oracle: single_level_ramp,
    case: || single_level_ramp().subcycling(true),
    steps: 3,
    levels: 1,
    restart_at: 1,
    crash: None,
    oracle_steps: 3,
};

fn single_level_ramp() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::Ramp)
        .extents(32, 16, 8)
        .version(CodeVersion::V2_0)
        .max_levels(1)
        .cfl(0.5)
}

/// The subcycled 2-level periodic vortex: time-interpolated ghosts, flux
/// registers fed by the sweeps, reflux shipping and the distributed
/// average-down, across the step-3 regrid.
pub const VORTEX2_SUB: Scenario = Scenario {
    name: "vortex2_sub",
    oracle: || vortex(2).subcycling(true),
    case: || vortex(2).subcycling(true),
    steps: 4,
    levels: 2,
    restart_at: 2,
    crash: Some(Crash { step: 3, levels: 2 }),
    oracle_steps: 4,
};

/// Fully periodic single-level LES vortex on four 16³ patches: every patch
/// neighbours every other, so at 2 or 4 ranks each one has remote ghost
/// chunks and is split under the graph schedule into an interior core and
/// 4-thick band slabs, which the `Shell(4)` footprint of the viscous
/// kernel's primitive pass reads across.
pub const LES_SPLIT: Scenario = Scenario {
    name: "les_split",
    oracle: les_vortex,
    case: les_vortex,
    steps: 2,
    levels: 1,
    restart_at: 1,
    crash: Some(Crash { step: 1, levels: 1 }),
    oracle_steps: 2,
};

fn les_vortex() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(32, 32, 16)
        .version(CodeVersion::V1_1)
        .max_grid_size(16)
        .cfl(0.4)
        .les(0.16)
}

/// The LES vortex on two levels: the viscous and Smagorinsky kernels over
/// coarse/fine ghosts and across the step-3 regrid.
pub const LES2: Scenario = Scenario {
    name: "les2",
    oracle: || vortex(2).les(0.16),
    case: || vortex(2).les(0.16),
    steps: 4,
    levels: 2,
    restart_at: 2,
    crash: Some(Crash { step: 3, levels: 2 }),
    oracle_steps: 4,
};

/// Lockstep 3-level DMR across the step-5 regrid, which moves the grids of
/// both refined levels.
pub const DMR3: Scenario = Scenario {
    name: "dmr3",
    oracle: dmr3,
    case: dmr3,
    steps: 6,
    levels: 3,
    restart_at: 3,
    crash: Some(Crash { step: 5, levels: 3 }),
    oracle_steps: 6,
};

/// The subcycled 3-level periodic vortex across the step-5 regrid.
pub const VORTEX3_SUB: Scenario = Scenario {
    name: "vortex3_sub",
    oracle: vortex3,
    case: vortex3,
    steps: 6,
    levels: 3,
    restart_at: 3,
    crash: Some(Crash { step: 5, levels: 3 }),
    oracle_steps: 6,
};
