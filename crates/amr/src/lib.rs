//! Block-structured adaptive mesh refinement framework.
//!
//! This crate is the AMReX-core substitute the paper's CRoCCo 2.0 is hosted
//! on (§III). Patches are overset logically rectangular grids with no
//! parent-child relationship between refinement levels (Fig. 1); the
//! coarsest grid stays active over the whole domain.
//!
//! * [`tagging`] — cell tagging on refinement criteria (|∇ρ|, |∇(ρu)|
//!   thresholds live in the solver; this module holds the tag containers and
//!   buffering),
//! * [`cluster`] — Berger–Rigoutsos signature clustering of tags into
//!   blocking-factor-aligned patches with a grid-efficiency target,
//! * [`interp`] — pluggable coarse→fine interpolators: AMReX's trilinear
//!   (CRoCCo 2.1), the paper's custom curvilinear-weighted interpolator with
//!   its coordinate `ParallelCopy` (CRoCCo 2.0), piecewise-constant, and a
//!   conservative limited-slope interpolator (the §III-C "higher-fidelity"
//!   direction),
//! * [`fillpatch`] — `FillPatchSingleLevel` / `FillPatchTwoLevels` ghost
//!   filling, the communication-dominant routine of Figs. 6–7,
//! * [`mod@average_down`] — restriction of covered coarse cells to the average
//!   of their covering fine cells (Algorithm 2, line 11),
//! * [`hierarchy`] — the level hierarchy, regridding with proper nesting,
//!   and the active-point accounting behind the paper's 89–94 % grid
//!   reduction claim.
//!
//! Where this crate sits in the paper-subsystem map (the S1–S5 table; the
//! same table appears in the `runtime` and `fab` roots):
//!
//! | # | paper subsystem | crate counterpart |
//! |---|---|---|
//! | S1 | MPI job across Summit nodes (§IV-B) | `runtime::cluster` |
//! | S2 | on-node OpenMP / GPU streams (§IV-B) | `runtime::pool`, `runtime::taskgraph` |
//! | S3 | AMReX `FabArray` data + comm metadata (§III-A) | `fab` (`MultiFab`, plans, plan cache) |
//! | S4 | AMR hierarchy, regrid, FillPatch (§III-B/C) | **`amr`** |
//! | S5 | CRoCCo solver kernels + RK3 driver (§II, §III) | `core` (`crocco-solver`) |

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

pub mod average_down;
pub mod cluster;
pub mod fillpatch;
pub mod flux_register;
pub mod hierarchy;
pub mod interp;
pub mod tagging;

pub use average_down::{average_down, average_down_dist};
pub use cluster::{cluster_tags, ClusterParams};
pub use fillpatch::{
    fill_two_level_patch_with_remote, resolve_remap_plans, resolve_two_level_plans,
    BoundaryFiller, CoordGather, FillOpts, FillPatchReport, NoOpBoundary, RemoteGathers,
    TwoLevelPlan, TwoLevelPlans,
};
pub use flux_register::{FluxRegister, InterfaceFace};
pub use hierarchy::{AmrHierarchy, AmrParams, Level};
pub use interp::{
    BlendKind, BlendStencil, BlendWeights, ConservativeLinearInterp, CurvilinearInterp,
    Interpolator, PiecewiseConstantInterp, TrilinearInterp, WenoConservativeInterp,
};
pub use tagging::TagSet;
