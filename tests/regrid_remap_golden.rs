//! Golden pins across a regrid: the state after a run that crosses a regrid
//! (tagging, clustering, a remap of every finer level by coarse→fine
//! interpolation and the redistribution of the survivors) hashed to one
//! FNV-1a word per configuration, at one rank and, through the cross-rank
//! chunk exchange, at 2 and 4 ranks.
//!
//! The two 3-level words were recorded at commit `1caa2d3`, before the remap
//! became a caller of the two-level FillPatch gather, so they hold the remap
//! to the bits of the code it replaced. The ramp word was recorded in the
//! plain build, before NaN poisoning and the post-stage sweep became part of
//! the `check` build; both builds must reproduce every word, which is what
//! proves that the checks never move a bit of a correct run.

mod common;

use common::{patch_bits, ramp_builder, run_owned, PatchBits};
use crocco::solver::config::{CodeVersion, InterpKind, SolverConfig, SolverConfigBuilder};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;

const STEPS: u32 = 6;

/// FNV-1a over `(level, patch, bits…)` in key order.
fn fnv(bits: &PatchBits) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (&(l, i), words) in bits {
        eat(l as u64);
        eat(i as u64);
        words.iter().copied().for_each(&mut eat);
    }
    h
}

/// 3-level double Mach reflection, curvilinear interpolator: the remap
/// gathers coarse coordinates (ghosts included) beside the state.
fn dmr3() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::DoubleMach)
        .extents(32, 8, 4)
        .version(CodeVersion::V2_0)
        .max_levels(3)
}

/// Subcycled 3-level fully periodic vortex, piecewise-constant injection:
/// the remap's donor chunks wrap through the periodic faces, and the fills
/// around it also gather the coarse old state (the benchmark's
/// `vortex3_sub_t2`, shrunk).
fn vortex3() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(16, 16, 4)
        .version(CodeVersion::V2_0)
        .max_levels(3)
        .blocking_factor(4)
        .max_grid_size(16)
        .interpolator(InterpKind::PiecewiseConstant)
        .cfl(0.4)
        .subcycling(true)
}

fn assert_pinned(what: &str, base: fn() -> SolverConfigBuilder, golden: u64) {
    let mut sim = Simulation::new(base().build());
    assert_eq!(sim.cfg.regrid_freq, 5, "{what}: the pin crosses the step-5 regrid");
    sim.advance_steps(STEPS - 1);
    let grids = |sim: &Simulation| -> Vec<_> {
        (1..sim.nlevels()).map(|l| sim.hierarchy().level(l).ba.boxes().to_vec()).collect()
    };
    let before = grids(&sim);
    sim.step();
    assert_eq!(sim.nlevels(), 3, "{what}: the hierarchy must stay 3 deep");
    assert_ne!(before, grids(&sim), "{what}: the step-5 regrid must move the grids");
    let got = fnv(&patch_bits(&sim));
    assert_eq!(got, golden, "{what}: 1 rank hashed {got:#018x}");
    assert_pinned_across_ranks(what, base, STEPS, golden);
}

/// `steps` of `base` at 2 and 4 ranks: the union of the owned patches
/// hashes to `golden`.
fn assert_pinned_across_ranks(
    what: &str,
    base: fn() -> SolverConfigBuilder,
    steps: u32,
    golden: u64,
) {
    for nranks in [2, 4] {
        let mut merged = PatchBits::new();
        for owned in run_owned(base().nranks(nranks).build(), steps) {
            merged.extend(owned);
        }
        let got = fnv(&merged);
        assert_eq!(got, golden, "{what}: {nranks} ranks hashed {got:#018x}");
    }
}

#[test]
fn dmr3_curvilinear_remap_is_pinned() {
    assert_pinned("dmr3 V2_0", dmr3, 0x6318_5fa7_8934_32c0);
}

#[test]
fn periodic_vortex3_piecewise_constant_remap_is_pinned() {
    assert_pinned("vortex3 pc", vortex3, 0xc66b_9342_2c04_8dcd);
}

#[test]
fn ramp_is_pinned_in_every_build() {
    // The 2-level curvilinear ramp of the invariance suites, 4 steps: level
    // 1 appears at the step-3 regrid and takes the last step.
    const GOLDEN: u64 = 0xb35a_4c7a_164e_9be9;
    let mut sim = Simulation::new(ramp_builder().build());
    sim.advance_steps(4);
    assert_eq!(sim.nlevels(), 2, "ramp: the step-3 regrid must refine");
    let got = fnv(&patch_bits(&sim));
    assert_eq!(got, GOLDEN, "ramp: 1 rank hashed {got:#018x}");
    assert_pinned_across_ranks("ramp", ramp_builder, 4, GOLDEN);
}
