//! Split patches with the viscous kernel. The stage executor sweeps a patch
//! whole unless its halo task waits on a receive; only then does it split
//! the sweep into an interior core and 4-thick boundary-band slabs to hide
//! the remote latency (`fab::dist_overlap`). On one rank nothing is ever
//! split, and the reference schedule (`overlap(false)`) never splits, so
//! this suite is the only place band slabs are compared against a whole
//! sweep under the *viscous/LES* kernels — whose `grow(4)` primitive pass
//! reads past every slab seam. It marches a periodic LES vortex on
//! 16³ patches (interior 8³, so every slab exists) at 2 and 4 ranks and
//! demands the bits of the single-rank reference run. The inviscid ramp,
//! AMR and regrid legs of the same comparison live in
//! `tests/owned_dist_invariance.rs`. In the `check` build every run here is
//! poisoned, swept and race-checked, so a slab seam reading a ghost nobody
//! filled traps on the poison instead of passing on a lucky zero. (On one
//! rank no patch is split, so the suite runs 2 and 4 ranks only.)

mod common;

use common::{assert_partitions_oracle, run_owned, run_single, PatchBits};
use crocco::solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco::solver::problems::ProblemKind;
use std::sync::OnceLock;

/// Rank counts under test: on one rank nothing is split.
const RANKS: [usize; 2] = [2, 4];

/// Fully periodic single-level LES vortex on four 16³ patches: every patch
/// neighbours every other (corners included), so at 2 or 4 ranks each one
/// has remote ghost chunks and is split under the graph schedule.
fn les_vortex() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(32, 32, 16)
        .version(CodeVersion::V1_1)
        .max_grid_size(16)
        .cfl(0.4)
        .les(0.16)
}

const STEPS: u32 = 2;

/// One rank, reference schedule: every patch swept whole.
fn reference() -> &'static PatchBits {
    static R: OnceLock<PatchBits> = OnceLock::new();
    R.get_or_init(|| run_single(les_vortex().overlap(false).build(), STEPS))
}

#[test]
fn fenced_cluster_matches_single_rank_bitwise() {
    let reference = reference();
    for nranks in RANKS {
        let cfg = les_vortex().nranks(nranks).overlap(false).build();
        assert_partitions_oracle(
            &run_owned(cfg, STEPS),
            reference,
            &format!("fenced nranks={nranks}"),
        );
    }
}

#[test]
fn overlapped_cluster_matches_single_rank_bitwise() {
    // Graph (split patches) ≡ reference (whole patches). 2 worker threads
    // per rank, so interior and band sweeps of different patches really
    // interleave with the receives.
    let reference = reference();
    for nranks in RANKS {
        let cfg = les_vortex().nranks(nranks).threads(2).build();
        assert_partitions_oracle(
            &run_owned(cfg, STEPS),
            reference,
            &format!("graph nranks={nranks}"),
        );
    }
}

#[test]
fn overlapped_cluster_matches_fenced_serial() {
    // threads == 1 exercises the graph executor's deterministic serial path,
    // where sends must have been inserted before the recv events they feed.
    for nranks in RANKS {
        let fenced = run_owned(les_vortex().nranks(nranks).overlap(false).build(), STEPS);
        let graph = run_owned(les_vortex().nranks(nranks).build(), STEPS);
        assert!(
            fenced == graph,
            "serial graph run diverged from fenced at nranks={nranks}"
        );
    }
}

#[test]
fn dist_overlap_is_invariant_under_adversarial_schedules() {
    // Hostile but legal linearizations of each rank's stage graph (seed 0 =
    // reverse-priority: band sweeps before interiors wherever legal).
    let reference = reference();
    for nranks in RANKS {
        for seed in [0u64, 0x9e3779b97f4a7c15] {
            let cfg = les_vortex().nranks(nranks).sched_seed(seed).build();
            assert_partitions_oracle(
                &run_owned(cfg, STEPS),
                reference,
                &format!("adversarial seed {seed:#x} nranks={nranks}"),
            );
        }
    }
}
