//! Calibrated performance models of the Summit platform.
//!
//! The paper evaluates CRoCCo on Summit: nodes with two 22-core IBM POWER9
//! CPUs and six NVIDIA V100 GPUs on a fat-tree interconnect. This repository
//! cannot run on Summit, so — per the substitution rule documented in
//! `DESIGN.md` §3 — the scaling and kernel studies run the *real* distributed
//! metadata path (exact per-rank message lists and byte counts) and price it
//! with the analytic models in this crate:
//!
//! * [`cpu`] — per-point kernel rates for the POWER9, with distinct Fortran
//!   and C++ rates reproducing the 1.2× translation gap of §IV-A,
//! * [`gpu`] — a V100 roofline/occupancy model (7.8 DP Tflop/s peak, HBM/L2/L1
//!   bandwidth ceilings, register-pressure-limited occupancy) reproducing
//!   Fig. 3's GPU curves and Fig. 4's roofline,
//! * [`kernelspec`] — analytic per-cell flop/byte counts for every CRoCCo
//!   kernel (validated against hand counts in unit tests),
//! * [`network`] — an α–β fat-tree model with collective and metadata terms,
//! * [`roofline`] — the hierarchical roofline evaluation of Yang et al. used
//!   in §VI-A,
//! * [`resilience`] — Young/Daly checkpoint-interval pricing under Summit's
//!   MTBF (DESIGN.md §4g), and [`subcycle`] — lockstep-vs-subcycled work.
//!
//! Every calibration constant lives in [`summit`] with a comment tying it to
//! the paper number it reproduces.

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

pub mod cpu;
pub mod gpu;
pub mod kernelspec;
pub mod network;
pub mod resilience;
pub mod roofline;
pub mod subcycle;
pub mod summit;

pub use cpu::{CpuBackend, CpuModel};
pub use gpu::GpuModel;
pub use kernelspec::KernelSpec;
pub use network::NetworkModel;
pub use resilience::ResilienceModel;
pub use roofline::{score_measured, MeasuredPoint, RooflineLevel, RooflinePoint};
pub use subcycle::SubcycleModel;
pub use summit::SummitPlatform;
