//! Split patches with the viscous kernel. The stage executor sweeps a patch
//! whole unless its halo task waits on a receive; only then does it split
//! the sweep into an interior core and 4-thick boundary-band slabs to hide
//! the remote latency (`fab::dist_overlap`). On one rank nothing is ever
//! split, and the reference schedule (`overlap(false)`) never splits, so
//! these legs of the differential matrix (`tests/common/matrix.rs`,
//! `les_split`) are where band slabs are compared against a whole sweep
//! under the *viscous/LES* kernels — whose `grow(4)` primitive pass reads
//! past every slab seam. A periodic LES vortex on 16³ patches (interior 8³,
//! so every slab exists) runs at 2 and 4 ranks against the single-rank
//! oracle. In the `check` build a slab seam reading a ghost nobody filled
//! traps on the poison instead of passing on a lucky zero.

mod common;

use common::matrix::{check, exec, Adversarial, Exec, Fenced, Graph, Sched, GOLDEN, LES_SPLIT};
use crocco::solver::backend::BackendKind::Lanes;

/// `sched` at `threads` on 2 and 4 ranks: on one rank nothing is split.
fn split(sched: Sched, threads: usize) -> [Exec; 2] {
    [2, 4].map(|ranks| exec(ranks, sched, threads, Lanes))
}

#[test]
fn fenced_cluster_matches_single_rank_bitwise() {
    check(&LES_SPLIT, split(Fenced, 1));
}

#[test]
fn overlapped_cluster_matches_single_rank_bitwise() {
    // Graph (split patches) ≡ oracle (whole patches). 2 worker threads per
    // rank, so interior and band sweeps of different patches really
    // interleave with the receives.
    check(&LES_SPLIT, split(Graph, 2));
}

#[test]
fn overlapped_cluster_matches_fenced_serial() {
    // threads == 1 exercises the graph executor's deterministic serial path,
    // where sends must have been inserted before the recv events they feed.
    check(&LES_SPLIT, split(Graph, 1));
}

#[test]
fn dist_overlap_is_invariant_under_adversarial_schedules() {
    // Hostile but legal linearizations of each rank's stage graph (seed 0 =
    // reverse-priority: band sweeps before interiors wherever legal).
    check(
        &LES_SPLIT,
        [split(Adversarial(0), 1), split(Adversarial(GOLDEN), 1)].concat(),
    );
}
