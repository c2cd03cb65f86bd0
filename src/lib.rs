//! # CRoCCo-rs
//!
//! A Rust reproduction of *"Porting a Computational Fluid Dynamics Code with
//! AMR to Large-scale GPU Platforms"* (IPDPS 2023): the CRoCCo v2.0 system — a
//! curvilinear, shock-capturing compressible flow solver hosted on
//! block-structured adaptive mesh refinement with GPU offload, evaluated at
//! Summit scale.
//!
//! This facade crate re-exports the full stack:
//!
//! * [`geometry`] — index-space boxes, Morton ordering, curvilinear mappings,
//! * [`fab`] — `FArrayBox`/`MultiFab` field containers and distribution maps,
//! * [`runtime`] — the threaded message-passing cluster, task graph and
//!   thread pool everything executes on,
//! * [`perfmodel`] — Summit hardware models (POWER9, V100 roofline, fat-tree)
//!   that price the modeled tables and figures,
//! * [`amr`] — the AMR framework: tagging, Berger–Rigoutsos clustering,
//!   FillPatch, interpolators, regridding, load balancing,
//! * [`solver`] — the CRoCCo numerics: WENO-SYMBO, viscous fluxes, RK3,
//!   curvilinear metrics, boundary conditions, the DMR problem, and the
//!   version ladder (1.0 → 2.1) used in the paper's evaluation.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use crocco::solver::config::{SolverConfig, CodeVersion};
//! use crocco::solver::problems::ProblemKind;
//!
//! let cfg = SolverConfig::builder()
//!     .problem(ProblemKind::SodX)
//!     .extents(32, 4, 4)
//!     .max_levels(1)
//!     .version(CodeVersion::V1_2)
//!     .build();
//! let mut run = crocco::solver::driver::Simulation::new(cfg);
//! let report = run.advance_steps(5);
//! assert!(report.steps == 5 && report.final_time > 0.0);
//! ```

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

pub use crocco_amr as amr;
pub use crocco_fab as fab;
pub use crocco_geometry as geometry;
pub use crocco_perfmodel as perfmodel;
pub use crocco_runtime as runtime;
pub use crocco_solver as solver;
