//! Field containers for block-structured AMR.
//!
//! This crate reproduces the AMReX data layer that CRoCCo is hosted on in the
//! paper:
//!
//! * [`FArrayBox`] — a multi-component double-precision array over one
//!   [`IndexBox`](crocco_geometry::IndexBox) (the per-patch container),
//! * [`BoxArray`] — the list of patch boxes at one AMR level,
//! * [`DistributionMapping`] — the box → rank ownership map with the Z-Morton
//!   space-filling-curve balancer the paper uses (plus round-robin and
//!   knapsack alternatives for the ablation study),
//! * [`MultiFab`] — the distributed multi-patch field: the paper stores the
//!   primitive variables, the 5-component conservative update `dU`, the
//!   3-component curvilinear coordinates, and the grid metrics each in one of
//!   these (27 metric components in the paper, modeled in
//!   `perfmodel::summit`; the 10 the kernels read in this solver),
//! * [`plan`] — communication *plans*: the exact point-to-point message lists
//!   behind `FillBoundary` and `ParallelCopy`, which both execute the data
//!   motion locally and feed the simulated Summit network model,
//! * [`plan_cache`] — memoized plans (the AMReX `FabArrayBase` cache analog,
//!   DESIGN.md §4b-bis),
//! * [`view`] + [`dist_overlap`] — raw per-fab views and the RK-stage
//!   executor: one task graph per stage that overlaps halo exchange — local
//!   copies and rank-crossing messages alike — with kernel sweeps
//!   (DESIGN.md §4e–§4f); [`taskcheck`] proves its schedules,
//! * [`exchange`] — the one exchange engine: every rank-crossing round, one
//!   message per peer, packed and decoded in one place.
//!
//! Where this crate sits in the paper-subsystem map (the S1–S5 table; the
//! same table appears in the `runtime` and `amr` roots):
//!
//! | # | paper subsystem | crate counterpart |
//! |---|---|---|
//! | S1 | MPI job across Summit nodes (§IV-B) | `runtime::cluster` |
//! | S2 | on-node OpenMP / GPU streams (§IV-B) | `runtime::pool`, `runtime::taskgraph` |
//! | S3 | AMReX `FabArray` data + comm metadata (§III-A) | **`fab` (`MultiFab`, plans, plan cache, stage executor)** |
//! | S4 | AMR hierarchy, regrid, FillPatch (§III-B/C) | `amr` |
//! | S5 | CRoCCo solver kernels + RK3 driver (§II, §III) | `core` (`crocco-solver`) |

#![warn(missing_docs)]

pub mod boxarray;
pub mod dist_overlap;
pub mod distribution;
pub mod exchange;
pub mod fab;
pub mod fabcheck;
pub mod multifab;
pub mod plan;
pub mod plan_cache;
pub mod taskcheck;
pub mod tiles;
pub mod view;

pub use boxarray::BoxArray;
pub use dist_overlap::{
    band_slabs, run_dist_rk_stage, DistSkeleton, DistStage, StageFabs, SweepPhase,
};
pub use exchange::{exchange_chunks, pack_chunk, redistribute, unpack_chunk};
pub use distribution::{DistributionMapping, DistributionStrategy};
pub use fab::FArrayBox;
pub use multifab::MultiFab;
pub use plan::{CopyChunk, CopyPlan};
pub use plan_cache::{CachedPlan, PlanCache, PlanKey, PlanOp};
pub use taskcheck::{dist_rank_schedule, verify_dist, FabIds, VerifyReport};
pub use tiles::tile_boxes;
pub use view::{with_rw, FabRd, FabRw, FabView};
