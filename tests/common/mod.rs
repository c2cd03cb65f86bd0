//! Helpers shared by the invariance, recovery and restart suites: the
//! compression-ramp configuration they all march and the bitwise per-patch
//! comparison against a single-rank reference run.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use crocco::runtime::{GroupEndpoint, LocalCluster, RankEndpoint};
use crocco::solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco::solver::driver::Simulation;
use crocco::solver::problems::ProblemKind;
use std::collections::BTreeMap;

/// Valid-state bit patterns per `(level, patch)` (NaN-safe, -0.0-safe).
pub type PatchBits = BTreeMap<(usize, usize), Vec<u64>>;

/// The shrunk compression ramp of `examples/compression_ramp.rs`: sheared
/// curvilinear grid, at most two AMR levels, `regrid_freq(3)`. Construction
/// holds one level; level 1 first appears at the step-3 regrid, so a 4-step
/// run crosses it — tagging, clustering, remap and redistribution all
/// execute mid-run and the plan/skeleton caches are rebuilt — and takes its
/// last step on two levels. (The sheared mapping needs the example's 2:1
/// aspect ratio: coarser grids invert in the ghost corners.)
pub fn ramp_builder() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::Ramp)
        .extents(48, 24, 8)
        .version(CodeVersion::V2_0)
        .max_levels(2)
        .blocking_factor(4)
        .max_grid_size(16)
        .regrid_freq(3)
        .cfl(0.5)
}

/// The bits of every patch `sim` holds data for: all of them on a one-rank
/// simulation, the rank's owned subset otherwise.
pub fn patch_bits(sim: &Simulation) -> PatchBits {
    let mut out = BTreeMap::new();
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        for i in (0..state.nfabs()).filter(|&i| state.is_allocated(i)) {
            let fab = state.fab(i);
            let mut bits = Vec::new();
            for c in 0..state.ncomp() {
                for p in state.valid_box(i).cells() {
                    bits.push(fab.get(p, c).to_bits());
                }
            }
            out.insert((l, i), bits);
        }
    }
    out
}

/// Number of levels `bits` holds patches on.
pub fn nlevels(bits: &PatchBits) -> usize {
    bits.keys().map(|&(l, _)| l + 1).max().unwrap_or(0)
}

/// Runs `steps` on the calling thread (`cfg.nranks == 1`).
pub fn run_single(cfg: SolverConfig, steps: u32) -> PatchBits {
    let mut sim = Simulation::new(cfg);
    sim.advance_steps(steps);
    patch_bits(&sim)
}

/// This rank's share of a `cfg.nranks`-rank simulation (collective).
pub fn new_owned(cfg: &SolverConfig, ep: &RankEndpoint) -> Simulation {
    Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(ep)).expect("fault-free construction")
}

/// Runs `steps` on a `LocalCluster` of `cfg.nranks` ranks and returns every
/// rank's owned patch bits.
pub fn run_owned(cfg: SolverConfig, steps: u32) -> Vec<PatchBits> {
    LocalCluster::run(cfg.nranks, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(steps, &ep);
        patch_bits(&sim)
    })
}

/// Asserts the per-rank owned maps partition the oracle: each rank's patches
/// match it bitwise, every oracle patch is owned by exactly one rank, and no
/// rank holds a patch the oracle lacks.
pub fn assert_partitions_oracle(owned: &[PatchBits], reference: &PatchBits, what: &str) {
    let mut seen: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (rank, map) in owned.iter().enumerate() {
        for (key, bits) in map {
            let expect = reference
                .get(key)
                .unwrap_or_else(|| panic!("{what}: rank {rank} owns unknown patch {key:?}"));
            assert!(
                bits == expect,
                "{what}: rank {rank} patch {key:?} diverged bitwise from the oracle"
            );
            if let Some(prev) = seen.insert(*key, rank) {
                panic!("{what}: patch {key:?} owned by both rank {prev} and rank {rank}");
            }
        }
    }
    assert_eq!(
        seen.len(),
        reference.len(),
        "{what}: owned union must cover every oracle patch"
    );
}
