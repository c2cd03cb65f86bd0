//! The fab layer's share of the `check` build: the dynamic sanitizer for
//! plan execution and ghost validity.
//!
//! The paper's port spent much of its debugging effort on exactly two hazard
//! classes in the AMR data paths: copies landing on top of each other
//! (aliasing in the `FillBoundary`/`ParallelCopy` message lists) and kernels
//! consuming ghost cells that were never refreshed after the state changed.
//! AMReX ties its defenses for these — signaling-NaN initialization of
//! `FArrayBox`es and sweeps for NaNs after each stage — to one debug build,
//! and so does this reproduction, adding a dynamic proof of the aliasing
//! invariant our `unsafe` plan executor relies on ([`crate::multifab`]).
//!
//! Three layers, all debug tooling (never required for correctness of a
//! correct program), all live together in the `check` build and absent
//! from the plain one:
//!
//! 1. **Plan aliasing** — [`check_plan`] proves every destination fab's chunk
//!    regions pairwise disjoint, and (for in-place plans like `FillBoundary`)
//!    that no chunk reads a region another chunk writes. This turns the
//!    safety *argument* documented on `execute_grouped` into a checked
//!    invariant at every execution.
//! 2. **Ghost staleness** — each `MultiFab` carries a [`CheckState`]: a
//!    `data_epoch` bumped on every mutable access to fab data and a
//!    `ghost_epoch` recording the data epoch at the last ghost fill.
//!    `assert_ghosts_fresh` traps a kernel about to read ghosts that are
//!    stale (`ghost_epoch != data_epoch`) or were never filled.
//! 3. **NaN poisoning** — `MultiFab::new_owned_poisoned` fills fresh
//!    allocations with a signaling NaN ([`SNAN`]) so uninitialized reads
//!    propagate; the solver's post-stage finite sweep localizes the first
//!    poisoned patch.
//!
//! Everything here is plain safe code and compiles unconditionally; only the
//! per-`MultiFab` bookkeeping hooks are gated behind the `check` cargo
//! feature so the plain build carries zero overhead. See DESIGN.md §4d.

use crate::plan::CopyPlan;

/// Signaling NaN used to poison freshly allocated fab data (AMReX uses the
/// same idea via `fab.initval`). The payload bit distinguishes it from the
/// quiet NaNs arithmetic produces, so a poisoned value read before first
/// write is recognizable in a debugger.
pub const SNAN: f64 = f64::from_bits(0x7FF0_0000_0000_0001);

/// Proves the aliasing invariant of a [`CopyPlan`] before execution:
///
/// * chunks writing the same destination fab have pairwise-disjoint regions
///   (otherwise concurrent group execution races and even serial execution
///   double-writes);
/// * when `in_place` (source MultiFab == destination MultiFab, i.e.
///   `FillBoundary`), no chunk's read region (`region - shift` on the source
///   fab) intersects any chunk's write region on that same fab — the
///   precondition of the executor's `copy_nonoverlapping`.
///
/// Panics with chunk indices and regions on the first violation. Cost is
/// O(chunks² within a destination), acceptable for a debug feature.
pub fn check_plan(plan: &CopyPlan, in_place: bool) {
    use std::collections::HashMap;
    let mut writes: HashMap<usize, Vec<(usize, crocco_geometry::IndexBox)>> = HashMap::new();
    for (i, c) in plan.chunks.iter().enumerate() {
        if c.region.is_empty() {
            continue;
        }
        writes.entry(c.dst_id).or_default().push((i, c.region));
    }
    for (dst, regions) in &writes {
        for (n, (ia, ra)) in regions.iter().enumerate() {
            for (ib, rb) in &regions[n + 1..] {
                assert!(
                    !ra.intersects(rb),
                    "fabcheck: plan aliasing — chunks #{ia} and #{ib} both write \
                     fab {dst} in overlapping regions {ra:?} / {rb:?}"
                );
            }
        }
    }
    if in_place {
        for (i, c) in plan.chunks.iter().enumerate() {
            if c.region.is_empty() {
                continue;
            }
            let read = c.region.shift(-c.shift);
            if let Some(w) = writes.get(&c.src_id) {
                for (j, wr) in w {
                    assert!(
                        !read.intersects(wr),
                        "fabcheck: in-place hazard — chunk #{i} reads fab {} region \
                         {read:?} while chunk #{j} writes {wr:?}",
                        c.src_id
                    );
                }
            }
        }
    }
}

/// Per-`MultiFab` sanitizer state (embedded in every `MultiFab` in the
/// `check` build; the build alone decides whether the checks run).
///
/// The freshness model: `data_epoch` counts potential mutations of fab data
/// (any `fab_mut`/`fabs_mut` handout, `set_val`, plan execution into this
/// fab). `ghost_epoch` records the value of `data_epoch` the last time ghost
/// regions were brought coherent (a `fill_boundary`, or an explicit
/// `mark_ghosts_filled` after a fill-patch sequence). Ghosts are *fresh* iff
/// `ghost_epoch == Some(data_epoch)`; `None` means never filled.
#[derive(Clone, Debug, Default)]
pub struct CheckState {
    /// Bumped on every potentially-mutating access to fab data.
    pub data_epoch: u64,
    /// `data_epoch` at the last ghost fill; `None` if ghosts never filled.
    pub ghost_epoch: Option<u64>,
}

impl CheckState {
    /// `true` if ghost data is coherent with the current valid data.
    pub fn ghosts_fresh(&self) -> bool {
        self.ghost_epoch == Some(self.data_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CopyChunk, CopyPlan};
    use crocco_geometry::{IndexBox, IntVect};

    fn chunk(src_id: usize, dst_id: usize, region: IndexBox, shift: IntVect) -> CopyChunk {
        CopyChunk {
            src_id,
            dst_id,
            src_rank: 0,
            dst_rank: 0,
            region,
            shift,
        }
    }

    #[test]
    fn disjoint_plan_passes() {
        let plan = CopyPlan {
            chunks: vec![
                chunk(0, 1, IndexBox::from_extents(4, 4, 4), IntVect::ZERO),
                chunk(
                    0,
                    1,
                    IndexBox::from_extents(4, 4, 4).shift(IntVect::new(4, 0, 0)),
                    IntVect::ZERO,
                ),
            ],
            ncomp: 1,
        };
        check_plan(&plan, false);
    }

    #[test]
    #[should_panic(expected = "plan aliasing")]
    fn overlapping_writes_panic() {
        let r = IndexBox::from_extents(4, 4, 4);
        let plan = CopyPlan {
            chunks: vec![
                chunk(0, 1, r, IntVect::ZERO),
                chunk(2, 1, r.shift(IntVect::new(3, 0, 0)), IntVect::ZERO),
            ],
            ncomp: 1,
        };
        check_plan(&plan, false);
    }

    #[test]
    #[should_panic(expected = "in-place hazard")]
    fn in_place_read_write_overlap_panics() {
        // Chunk reads fab 0 over the same cells another chunk writes fab 0.
        let r = IndexBox::from_extents(4, 4, 4);
        let plan = CopyPlan {
            chunks: vec![
                chunk(1, 0, r, IntVect::ZERO),                          // writes fab 0 at r
                chunk(0, 2, r.shift(IntVect::new(2, 0, 0)), IntVect::new(2, 0, 0)), // reads fab 0 at r
            ],
            ncomp: 1,
        };
        check_plan(&plan, true);
    }

    #[test]
    fn snan_is_a_nan_with_payload() {
        assert!(SNAN.is_nan());
        assert_eq!(SNAN.to_bits() & 1, 1);
    }

    #[test]
    fn epoch_freshness_model() {
        let mut st = CheckState::default();
        assert!(!st.ghosts_fresh()); // never filled
        st.ghost_epoch = Some(st.data_epoch);
        assert!(st.ghosts_fresh());
        st.data_epoch += 1;
        assert!(!st.ghosts_fresh()); // stale after mutation
    }
}
