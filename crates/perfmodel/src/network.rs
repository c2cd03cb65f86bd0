//! Summit fat-tree interconnect model.
//!
//! An α–β (latency–bandwidth) model with two extensions the paper's analysis
//! requires:
//!
//! * a logarithmic collective term for `ReduceRealMin` in `ComputeDt`
//!   (§III-B), and
//! * a metadata/setup term for `ParallelCopy` that grows with the global
//!   number of boxes — the AMReX parallel-copy handshake each rank performs
//!   against the global box list. This is the term that makes the custom
//!   curvilinear interpolator's global communication the scaling bottleneck
//!   of CRoCCo 2.0 (§VI-B, Fig. 7 `ParallelCopy_finish`).

use serde::{Deserialize, Serialize};

/// Interconnect cost model (per-rank critical-path times, in seconds).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-message latency (s): MPI + adapter injection overhead.
    pub alpha: f64,
    /// Per-rank sustained point-to-point bandwidth (B/s).
    pub bandwidth: f64,
    /// Per-hop latency of a reduction/broadcast tree stage (s).
    pub coll_alpha: f64,
    /// Metadata/handshake cost per *global* box in a ParallelCopy (s). Each
    /// rank intersects its patches against the remote BoxArray and posts the
    /// matching sends/receives.
    pub meta_per_box: f64,
    /// Per-rank setup cost of a global ParallelCopy (s): the
    /// alltoall-style handshake AMReX performs to agree on the send/receive
    /// schedule grows with the communicator size. This is the term behind
    /// the `ParallelCopy_finish` growth in Fig. 7.
    pub meta_per_rank: f64,
    /// Congestion exponent: effective bandwidth for globally-communicating
    /// operations degrades as `nranks^(-congestion)` on the shared fabric.
    pub congestion: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::summit()
    }
}

impl NetworkModel {
    /// Summit EDR InfiniBand fat-tree calibration.
    ///
    /// `alpha` ≈ 2 µs MPI pt2pt latency; `bandwidth` ≈ 12.5 GB/s per-rank
    /// share of the dual-rail NIC when 6 ranks/node communicate at once;
    /// `meta_per_box` and `congestion` are calibrated against the weak-scaling
    /// efficiencies of Fig. 5 (54 % at 400 nodes for 2.0, ~70 % for 2.1).
    pub fn summit() -> Self {
        NetworkModel {
            alpha: 2.0e-6,
            bandwidth: 12.5e9,
            coll_alpha: 1.5e-6,
            meta_per_box: 8.0e-8,
            meta_per_rank: 2.5e-6,
            congestion: 0.12,
        }
    }

    /// Point-to-point phase time: the slowest rank posts `max_msgs` messages
    /// and receives `max_bytes` payload bytes.
    pub fn ptp_time(&self, max_msgs: f64, max_bytes: f64) -> f64 {
        self.alpha * max_msgs + max_bytes / self.bandwidth
    }

    /// All-reduce (e.g. `ReduceRealMin(dt)`) over `nranks` ranks.
    pub fn allreduce_time(&self, nranks: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        2.0 * self.coll_alpha * (nranks as f64).log2().ceil()
    }

    /// `ParallelCopy` time: point-to-point payload under congested global
    /// bandwidth, plus the per-rank metadata handshake against the global box
    /// list.
    ///
    /// `total_boxes` is the size of the *source* BoxArray (every rank
    /// intersects against all of it); `max_msgs`/`max_bytes` are the critical
    /// rank's message count and receive volume.
    pub fn parallel_copy_time(
        &self,
        max_msgs: f64,
        max_bytes: f64,
        total_boxes: u64,
        nranks: usize,
    ) -> f64 {
        let eff_bw = self.bandwidth * (nranks.max(1) as f64).powf(-self.congestion);
        self.alpha * max_msgs
            + max_bytes / eff_bw
            + self.meta_per_box * total_boxes as f64
            + self.meta_per_rank * nranks as f64
    }

    /// `FillBoundary` time: neighbor point-to-point exchange. Nearest-neighbor
    /// traffic rides the full fat-tree bandwidth without the global
    /// congestion factor.
    pub fn fill_boundary_time(&self, max_msgs: f64, max_bytes: f64) -> f64 {
        self.ptp_time(max_msgs, max_bytes)
    }

    /// Exposed communication time once `hide` seconds of independent interior
    /// compute overlap the transfer (§VI-C overlap analysis): the network is
    /// driven concurrently with the interior sweeps, so only the portion of
    /// `comm` exceeding the overlappable compute lands on the critical path.
    pub fn exposed_time(&self, comm: f64, hide: f64) -> f64 {
        (comm - hide).max(0.0)
    }

    /// Schedule-construction cost of a *point-to-point* ParallelCopy (the
    /// AMReX `FillPatchTwoLevels` state gather): every rank still builds the
    /// send/receive schedule against the remote BoxArray metadata even though
    /// the payload itself moves point-to-point. Fig. 7 shows this as the
    /// residual `ParallelCopy_finish` growth of CRoCCo **2.1**.
    pub fn parallel_copy_schedule_time(&self, total_boxes: u64, nranks: usize) -> f64 {
        self.meta_per_box * total_boxes as f64 + 0.1 * self.meta_per_rank * nranks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_bandwidth_terms_add() {
        let n = NetworkModel::summit();
        let t = n.ptp_time(10.0, 1.25e9);
        assert!((t - (10.0 * 2.0e-6 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let n = NetworkModel::summit();
        assert_eq!(n.allreduce_time(1), 0.0);
        let t64 = n.allreduce_time(64);
        let t4096 = n.allreduce_time(4096);
        assert!((t4096 / t64 - 2.0).abs() < 1e-9); // log2: 6 vs 12 stages
    }

    #[test]
    fn parallel_copy_degrades_with_scale() {
        let n = NetworkModel::summit();
        // Same per-rank traffic, more ranks and boxes ⇒ strictly slower:
        // this is the §VI-B ParallelCopy bottleneck in miniature.
        let small = n.parallel_copy_time(50.0, 1e8, 1_000, 24);
        let large = n.parallel_copy_time(50.0, 1e8, 100_000, 6144);
        assert!(large > small);
    }

    #[test]
    fn only_the_unhidden_part_of_an_exchange_is_exposed() {
        let n = NetworkModel::summit();
        let comm = n.fill_boundary_time(26.0, 5e7);
        // Nothing to hide behind: the fenced cost. Partly hidden: the
        // remainder. Hidden entirely: free, never negative.
        assert_eq!(n.exposed_time(comm, 0.0), comm);
        assert_eq!(n.exposed_time(comm, 0.25 * comm), 0.75 * comm);
        assert_eq!(n.exposed_time(comm, 2.0 * comm), 0.0);
    }

    #[test]
    fn fill_boundary_is_congestion_free() {
        let n = NetworkModel::summit();
        // FillBoundary cost is independent of rank count for fixed per-rank
        // traffic — the property that keeps CRoCCo 2.1 scaling at 70 %.
        let a = n.fill_boundary_time(26.0, 5e7);
        assert_eq!(a, n.fill_boundary_time(26.0, 5e7));
        assert!(a < n.parallel_copy_time(26.0, 5e7, 10_000, 2400));
    }
}
