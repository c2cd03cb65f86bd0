//! Parallel runtime substrate for the CRoCCo reproduction.
//!
//! The paper runs MPI across up to 1,024 Summit nodes. Everything in this
//! crate *executes*; what 1,024 nodes would cost is priced elsewhere, by the
//! closed-form models of `crocco-perfmodel` over plan statistics (see
//! `DESIGN.md` §3):
//!
//! * [`cluster`] — a threaded message-passing cluster: N rank threads
//!   connected by `std::sync::mpsc` channels moving [`bytes::Bytes`]
//!   payloads, with one receive engine and one fail-stop detector for
//!   both transports (DESIGN.md §4f). The distributed code path (pack →
//!   send → receive → unpack) runs on it, at laptop scale.
//! * [`chaos`] — the framed, fault-injecting transport under [`cluster`]
//!   (CRC, ack, retransmit store, fault plan; DESIGN.md §4g).
//! * [`taskgraph`] — the on-node executor (the OpenMP/GPU-thread analog
//!   below MPI, §IV-B): a dependency-tracking task runner on the calling
//!   thread plus `threads − 1` helpers; the fab layer uses it to overlap
//!   halo exchange with interior kernel sweeps (DESIGN.md §4e), and
//!   [`taskcheck`] verifies its schedules (DESIGN.md §4i).
//! * [`pool`] — fork-join loops over patch indices, run as task graphs
//!   without edges.
//!
//! Where this crate sits in the paper-subsystem map (the S1–S5 table; the
//! same table appears in the `fab` and `amr` roots):
//!
//! | # | paper subsystem | crate counterpart |
//! |---|---|---|
//! | S1 | MPI job across Summit nodes (§IV-B) | `runtime::cluster` |
//! | S2 | on-node OpenMP / GPU streams (§IV-B) | **`runtime::pool`, `runtime::taskgraph`** |
//! | S3 | AMReX `FabArray` data + comm metadata (§III-A) | `fab` (`MultiFab`, plans, plan cache) |
//! | S4 | AMR hierarchy, regrid, FillPatch (§III-B/C) | `amr` |
//! | S5 | CRoCCo solver kernels + RK3 driver (§II, §III) | `core` (`crocco-solver`) |

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod pool;
pub mod taskcheck;
pub mod taskgraph;

pub use chaos::{
    ChaosConfig, ChaosRuntime, CrashPhase, CrashSpec, FaultPlan, StorageFault, StorageFaultPlan,
};
pub use cluster::{
    tags, CommError, CommGroup, GroupEndpoint, LocalCluster, Packet, RankEndpoint, RecvHandle,
};
pub use pool::{default_threads, parallel_for, parallel_for_each_mut};
pub use taskcheck::{
    verify_cross_rank, Access, Footprint, RankSchedule, Region, ScheduleSpec, Verification,
    Violation,
};
pub use taskgraph::{Schedule, StageError, TaskGraph, TaskHandle};
