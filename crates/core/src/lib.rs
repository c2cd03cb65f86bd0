//! The CRoCCo compressible flow solver.
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! shock-capturing, bandwidth-resolving compressible Navier–Stokes solver on
//! generalized curvilinear grids (§II-A), hosted on the block-structured AMR
//! framework in [`crocco-amr`](crocco_amr), with the code-version ladder the
//! evaluation compares (§V-C):
//!
//! | version | meaning |
//! |---------|---------|
//! | 1.0 | AMReX host + "Fortran" reference kernels, no AMR, no GPU |
//! | 1.1 | "C++" (optimized) kernels, no AMR |
//! | 1.2 | AMR enabled (CPU) |
//! | 2.0 | GPU + AMR + custom curvilinear interpolator (coordinate `ParallelCopy`) |
//! | 2.1 | GPU + AMR + AMReX trilinear interpolator (no global communication) |
//!
//! Numerics: WENO reconstruction of Rusanov-split convective fluxes (WENO5-JS
//! and the symmetric bandwidth-optimized 4-candidate family of Martín et
//! al.), 4th-order central viscous fluxes with Sutherland viscosity,
//! Williamson low-storage RK3 time marching under a CFL constraint, and
//! stored curvilinear coordinates + grid metrics (§III-C): the 10 metric
//! components the kernels read, where the paper's layout has 27 (modeled in
//! `perfmodel::summit`).

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bc;
pub mod charproj;
pub mod chemistry;
pub mod cluster_step;
pub mod config;
pub mod driver;
pub mod durable;
pub mod eos;
pub mod integrators;
pub mod io;
pub mod kernels;
pub mod metrics;
pub mod multispecies;
pub mod problems;
pub mod reference;
pub mod riemann;
pub mod sgs;
pub mod species;
pub mod state;
pub(crate) mod subcycle;
pub mod validation;
pub mod weno;

pub use backend::BackendKind;
pub use cluster_step::ChaosRunReport;
pub use config::{CodeVersion, SolverConfig};
pub use driver::Simulation;
pub use durable::{
    recover, CheckpointStore, CkptError, DiskStore, DurableCheckpointer, FaultyStore, Manifest,
    RestartInfo,
};
pub use eos::PerfectGas;
pub use problems::ProblemKind;
pub use weno::WenoVariant;
