//! NVIDIA V100 device model: hierarchical roofline with an occupancy cap.

use crate::kernelspec::KernelSpec;

/// Analytic model of one NVIDIA V100 (SXM2, 16 GB), the Summit GPU.
///
/// Kernel time is the max of the compute time under the occupancy-limited
/// flop ceiling and the transfer time at each memory level, plus a fixed
/// launch overhead. This reproduces the two regimes of Fig. 3: overhead-bound
/// at small problem sizes (only 2.5× over CPU) and bandwidth-bound at large
/// sizes (15.8× over CPU), and the Fig. 4 roofline placement (~300 DP
/// Gflop/s ≈ 4 % of peak at 12.5 % occupancy).
#[derive(Clone, Copy, Debug)]
pub struct GpuModel {
    /// Peak double-precision throughput (flop/s). V100: 7.8 Tflop/s (§VI-A).
    pub peak_flops: f64,
    /// DRAM (HBM2) bandwidth (B/s). V100: ~900 GB/s.
    pub dram_bw: f64,
    /// L2 bandwidth (B/s). V100: ~2.2 TB/s (Yang et al.).
    pub l2_bw: f64,
    /// L1 aggregate bandwidth (B/s). V100: ~14 TB/s (Yang et al.).
    pub l1_bw: f64,
    /// Register file capacity per SM (32-bit registers). V100: 65,536.
    pub regfile_per_sm: u32,
    /// Maximum resident threads per SM. V100: 2,048.
    pub max_threads_per_sm: u32,
    /// Threads per block used by the `amrex::ParallelFor` launches.
    pub threads_per_block: u32,
    /// Fixed kernel launch + synchronization overhead (s).
    pub launch_overhead: f64,
    /// Device memory capacity in bytes. V100: 16 GB.
    pub memory_bytes: u64,
    /// Fraction of the occupancy-limited flop ceiling a real kernel attains
    /// (issue stalls, divides, non-FMA mix). Calibrated so WENOx lands at
    /// ~300 Gflop/s as reported in §VI-A.
    pub compute_efficiency: f64,
    /// Fraction of peak DRAM bandwidth attainable by stencil kernels.
    pub dram_efficiency: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::v100()
    }
}

impl GpuModel {
    /// The Summit V100 with constants from §V-A/§VI-A and Yang et al.
    pub fn v100() -> Self {
        GpuModel {
            peak_flops: 7.8e12,
            dram_bw: 900.0e9,
            l2_bw: 2.2e12,
            l1_bw: 14.0e12,
            regfile_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            threads_per_block: 256,
            launch_overhead: 12.0e-6,
            memory_bytes: 16 * (1 << 30),
            // 300 Gflop/s achieved / (7.8 Tflop/s × 12.5 % occupancy) ≈ 0.31.
            compute_efficiency: 0.31,
            dram_efficiency: 0.78,
        }
    }

    /// Theoretical occupancy for a kernel: resident threads limited by
    /// register pressure over maximum resident threads.
    ///
    /// The V100 grants whole blocks, so the resident thread count is rounded
    /// down to a multiple of the block size. For the paper's WENO kernels at
    /// 255 registers/thread this yields 256/2048 = 12.5 %, the number Nsight
    /// reports in §VI-A.
    pub fn occupancy(&self, registers_per_thread: u32) -> f64 {
        let by_regs = self.regfile_per_sm / registers_per_thread.max(1);
        let blocks = (by_regs / self.threads_per_block).max(1);
        let resident = (blocks * self.threads_per_block).min(self.max_threads_per_sm);
        resident as f64 / self.max_threads_per_sm as f64
    }

    /// Sustained flop ceiling for a kernel (flop/s), after occupancy and
    /// issue-efficiency derating.
    pub fn flop_ceiling(&self, spec: &KernelSpec) -> f64 {
        self.peak_flops * self.occupancy(spec.registers_per_thread) * self.compute_efficiency
    }

    /// Time (s) to run `spec` over `ncells` grid cells.
    pub fn kernel_time(&self, spec: &KernelSpec, ncells: u64) -> f64 {
        let n = ncells as f64;
        let t_compute = n * spec.flops_per_cell / self.flop_ceiling(spec);
        let t_dram = n * spec.dram_bytes_per_cell / (self.dram_bw * self.dram_efficiency);
        let t_l2 = n * spec.l2_bytes_per_cell / self.l2_bw;
        let t_l1 = n * spec.l1_bytes_per_cell / self.l1_bw;
        self.launch_overhead * spec.sub_launches as f64
            + t_compute.max(t_dram).max(t_l2).max(t_l1)
    }

    /// Achieved flop rate (flop/s) for `spec` over `ncells` cells.
    pub fn achieved_flops(&self, spec: &KernelSpec, ncells: u64) -> f64 {
        let t = self.kernel_time(spec, ncells);
        ncells as f64 * spec.flops_per_cell / t
    }

    /// `true` if a working set of `bytes` fits in device memory. The paper
    /// hit this limit selecting the strong-scaling size (§V-C).
    pub fn fits_in_memory(&self, bytes: u64) -> bool {
        bytes <= self.memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelspec::{update_spec, weno_spec};

    #[test]
    fn weno_occupancy_is_twelve_and_a_half_percent() {
        let g = GpuModel::v100();
        // 255 registers/thread: the §VI-A register-pressure number.
        assert!((g.occupancy(255) - 0.125).abs() < 1e-12);
        // A light kernel reaches full occupancy.
        assert!((g.occupancy(32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weno_achieves_about_300_gflops_at_large_size() {
        let g = GpuModel::v100();
        let f = g.achieved_flops(&weno_spec(0), 20_000_000);
        assert!(
            (250.0e9..350.0e9).contains(&f),
            "WENOx achieved {:.1} Gflop/s, expected ≈300",
            f / 1e9
        );
        // ≈4 % of peak, as §VI-A reports.
        let frac = f / g.peak_flops;
        assert!((0.03..0.05).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn small_kernels_are_launch_overhead_bound() {
        let g = GpuModel::v100();
        let tiny = g.kernel_time(&weno_spec(0), 1_000);
        let overhead = g.launch_overhead * weno_spec(0).sub_launches as f64;
        assert!(tiny < 1.5 * overhead);
        // Overhead amortizes at scale: time per cell drops.
        let big = g.kernel_time(&weno_spec(0), 10_000_000);
        assert!(big / 10_000_000.0 < tiny / 1_000.0);
    }

    #[test]
    fn streaming_kernel_is_dram_bound() {
        let g = GpuModel::v100();
        let spec = update_spec();
        let n = 50_000_000u64;
        let t = g.kernel_time(&spec, n) - g.launch_overhead * spec.sub_launches as f64;
        let t_dram = n as f64 * spec.dram_bytes_per_cell / (g.dram_bw * g.dram_efficiency);
        assert!((t - t_dram).abs() / t_dram < 1e-9, "update must be DRAM-bound");
    }

    #[test]
    fn memory_capacity_check() {
        let g = GpuModel::v100();
        assert!(g.fits_in_memory(15 * (1 << 30)));
        assert!(!g.fits_in_memory(17 * (1 << 30)));
    }
}
