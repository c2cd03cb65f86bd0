//! Evaluation harness for the CRoCCo IPDPS 2023 reproduction.
//!
//! One module per evaluation artifact; one binary per table/figure (see
//! `src/bin/`). The scaling studies follow the substitution documented in
//! `DESIGN.md` §3: they build the *real* AMR metadata (BoxArrays, Morton
//! distribution maps, exact FillBoundary/ParallelCopy message plans) for the
//! paper's problem sizes, then price computation and communication with the
//! calibrated Summit models in `crocco-perfmodel`.
//!
//! * [`table1`] — the weak-scaling configuration generator (Table I),
//! * [`dmrscale`] — synthetic DMR-shaped AMR hierarchies at Summit scale,
//! * [`simbench`] — per-iteration time simulation for every code version
//!   (Figs. 5–7),
//! * [`fig3`] — kernel-level CPU/GPU curves (Fig. 3),
//! * [`report`] — small table-printing helpers shared by the binaries.

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

pub mod dmrscale;
pub mod fig3;
pub mod report;
pub mod simbench;
pub mod table1;
