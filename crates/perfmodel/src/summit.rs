//! The assembled Summit platform model.

use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use crate::network::NetworkModel;

/// One Summit node: "six NVIDIA V100 GPUs and two 22-core IBM POWER9 CPUs"
/// (§V-A), on a fat-tree interconnect.
#[derive(Clone, Copy, Debug)]
pub struct SummitPlatform {
    /// POWER9 kernel-rate model.
    pub cpu: CpuModel,
    /// V100 roofline model.
    pub gpu: GpuModel,
    /// Fat-tree network model.
    pub network: NetworkModel,
    /// GPUs per node (6).
    pub gpus_per_node: u32,
    /// CPU cores per node usable for MPI ranks (2 × 22 = 44, minus 2
    /// reserved for system services on Summit ⇒ 42).
    pub cpu_cores_per_node: u32,
}

impl Default for SummitPlatform {
    fn default() -> Self {
        SummitPlatform::new()
    }
}

impl SummitPlatform {
    /// The calibrated Summit model.
    pub fn new() -> Self {
        SummitPlatform {
            cpu: CpuModel::power9(),
            gpu: GpuModel::v100(),
            network: NetworkModel::summit(),
            gpus_per_node: 6,
            cpu_cores_per_node: 42,
        }
    }

    /// MPI ranks for a GPU run on `nodes` nodes (1 rank per GPU, the AMReX
    /// convention the paper follows).
    pub fn gpu_ranks(&self, nodes: u32) -> usize {
        (nodes * self.gpus_per_node) as usize
    }

    /// MPI ranks for a CPU run on `nodes` nodes (1 rank per core).
    pub fn cpu_ranks(&self, nodes: u32) -> usize {
        (nodes * self.cpu_cores_per_node) as usize
    }

    /// Device-memory budget check for a GPU run: the paper sizes problems so
    /// each V100 holds ≈1.2e5–7e6 points with the ~3× curvilinear overhead
    /// (§III-C, §V-C). `bytes_per_point` should include state, dU, coords,
    /// metrics and scratch.
    pub fn gpu_points_fit(&self, points_per_gpu: u64, bytes_per_point: u64) -> bool {
        self.gpu.fits_in_memory(points_per_gpu * bytes_per_point)
    }
}

/// Components of the paper's metrics MultiFab (§III-C: "a 27-component
/// `amrex::MultiFab` to store the metrics"). A modeled figure: the executed
/// solver stores only the 10 its kernels read (`crocco_solver::metrics`).
pub const PAPER_METRIC_COMPONENTS: u64 = 27;

/// Bytes of device memory per grid point for the curvilinear GPU solver:
/// 5-component state (×2 time levels) + 5-component dU + 3 coords +
/// the paper's metrics + ~15 components of kernel scratch, all f64 — the
/// "roughly a three-fold increase in memory usage" of §III-C.
pub const CURVILINEAR_BYTES_PER_POINT: u64 = (5 * 2 + 5 + 3 + PAPER_METRIC_COMPONENTS + 15) * 8;

/// Bytes per point for the Cartesian (non-curvilinear) solver, for contrast.
pub const CARTESIAN_BYTES_PER_POINT: u64 = (5 * 2 + 5 + 5) * 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts() {
        let s = SummitPlatform::new();
        assert_eq!(s.gpu_ranks(4), 24); // Table I row 1
        assert_eq!(s.gpu_ranks(1024), 6144); // Table I row 8
        assert_eq!(s.cpu_ranks(16), 672);
    }

    #[test]
    fn curvilinear_memory_is_about_3x_cartesian() {
        let ratio = CURVILINEAR_BYTES_PER_POINT as f64 / CARTESIAN_BYTES_PER_POINT as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn table1_points_per_gpu_fit_on_v100() {
        let s = SummitPlatform::new();
        // Largest Table I load: 4.19e10 points on 6144 GPUs ≈ 6.8e6 each.
        let per_gpu = 4.19e10_f64 as u64 / 6144;
        assert!(s.gpu_points_fit(per_gpu, CURVILINEAR_BYTES_PER_POINT));
        // But ~10× that spills out of the 16 GB — the §V-C limit.
        assert!(!s.gpu_points_fit(per_gpu * 10, CURVILINEAR_BYTES_PER_POINT));
    }
}
