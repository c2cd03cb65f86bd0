//! Index-space geometry for block-structured adaptive mesh refinement.
//!
//! This crate is the lowest layer of the CRoCCo-rs stack. It provides the
//! integer index-space vocabulary that the AMReX library supplies to CRoCCo in
//! the paper this repository reproduces:
//!
//! * [`IntVect`] — a point in the 3-D integer index space,
//! * [`RealVect`] — a point in physical space,
//! * [`IndexBox`] — a logically rectangular region of cells (AMReX `Box`),
//! * [`ProblemDomain`] — the coarse-level index box plus periodicity,
//! * [`morton`] — Z-order (Morton) space-filling-curve codes used by the
//!   default AMReX load balancer,
//! * [`mapping`] — curvilinear grid mappings from computational `(i, j, k)`
//!   space to physical `(x, y, z)` space (uniform, stretched, compression
//!   ramp), which back the curvilinear solver capability that is the paper's
//!   headline extension of AMReX,
//! * [`decompose`] — chopping of large boxes into patches that honour the
//!   blocking factor and maximum grid size input-deck parameters.
//!
//! Everything here is pure index arithmetic: no field data, no parallelism.

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

pub mod decompose;
pub mod domain;
pub mod ibox;
pub mod intvect;
pub mod mapping;
pub mod morton;
pub mod realvect;

pub use domain::ProblemDomain;
pub use ibox::IndexBox;
pub use intvect::IntVect;
pub use mapping::{
    CylinderShellMapping, GridMapping, RampMapping, StretchedMapping, UniformMapping,
};
pub use realvect::RealVect;

/// Number of spatial dimensions. CRoCCo solves the flow in 3-D (the DMR case
/// is extruded along the span), so this is fixed at 3.
pub const SPACEDIM: usize = 3;
