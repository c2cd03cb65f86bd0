//! Fig. 3: kernel time per iteration vs problem size — Fortran CPU, C++ CPU,
//! and GPU, on one 22-core POWER9 socket and one V100.

use crocco_perfmodel::kernelspec::{viscous_spec, weno_spec, KernelSpec};
use crocco_perfmodel::{CpuBackend, SummitPlatform};

/// The problem sizes of the Fig. 3 sweep (total coarse grid points).
pub const SIZES: [u64; 8] = [
    10_000, 25_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000, 20_000_000,
];

/// One point on a Fig. 3 curve.
#[derive(Clone, Copy, Debug)]
pub struct KernelPoint {
    /// Total grid points in the domain.
    pub points: u64,
    /// Time per iteration in the kernel: Fortran on 22 POWER9 cores (s).
    pub fortran_cpu: f64,
    /// C++ on 22 POWER9 cores (s).
    pub cpp_cpu: f64,
    /// GPU (one V100), including per-patch launch overhead (s).
    pub gpu: f64,
}

impl KernelPoint {
    /// GPU speedup over the C++ CPU implementation.
    pub fn gpu_speedup(&self) -> f64 {
        self.cpp_cpu / self.gpu
    }

    /// C++ slowdown relative to Fortran (§IV-A reports ≈1.2×).
    pub fn cpp_slowdown(&self) -> f64 {
        self.cpp_cpu / self.fortran_cpu
    }
}

/// Time per iteration in one kernel at one size. "Per iteration" means the
/// three RK stages of Algorithm 2, with the domain chopped into the paper's
/// max-grid-128 patches for the per-patch GPU launches.
pub fn kernel_point(spec: &KernelSpec, points: u64, platform: &SummitPlatform) -> KernelPoint {
    let stages = 3.0;
    let fortran_cpu =
        stages * platform.cpu.socket_time(spec, points, CpuBackend::Fortran);
    let cpp_cpu = stages * platform.cpu.socket_time(spec, points, CpuBackend::Cpp);
    // GPU: one launch per patch per stage.
    let patch_cells: u64 = 128 * 128 * 128;
    let full = points / patch_cells;
    let rem = points % patch_cells;
    let mut gpu = 0.0;
    for _ in 0..full {
        gpu += platform.gpu.kernel_time(spec, patch_cells);
    }
    if rem > 0 {
        gpu += platform.gpu.kernel_time(spec, rem);
    }
    gpu *= stages;
    KernelPoint {
        points,
        fortran_cpu,
        cpp_cpu,
        gpu,
    }
}

/// The full WENOx curve.
pub fn wenox_curve(platform: &SummitPlatform) -> Vec<KernelPoint> {
    SIZES
        .iter()
        .map(|&n| kernel_point(&weno_spec(0), n, platform))
        .collect()
}

/// The full Viscous curve.
pub fn viscous_curve(platform: &SummitPlatform) -> Vec<KernelPoint> {
    SIZES
        .iter()
        .map(|&n| kernel_point(&viscous_spec(), n, platform))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpp_slowdown_is_consistently_1_2x() {
        let p = SummitPlatform::new();
        for pt in wenox_curve(&p).iter().chain(viscous_curve(&p).iter()) {
            assert!((pt.cpp_slowdown() - 1.2).abs() < 1e-9);
        }
    }

    #[test]
    fn wenox_gpu_speedup_peaks_near_16x_at_large_sizes() {
        // Fig. 3: "a 15.8× speedup on the largest size for WENOx".
        let p = SummitPlatform::new();
        let curve = wenox_curve(&p);
        let last = curve.last().unwrap();
        assert!(
            (12.0..20.0).contains(&last.gpu_speedup()),
            "large-size WENOx speedup {:.1}",
            last.gpu_speedup()
        );
    }

    #[test]
    fn speedup_grows_with_problem_size() {
        // "GPUs are most efficient" at large sizes: the speedup must be
        // monotone-ish increasing across the sweep.
        let p = SummitPlatform::new();
        for curve in [wenox_curve(&p), viscous_curve(&p)] {
            let first = curve.first().unwrap().gpu_speedup();
            let last = curve.last().unwrap().gpu_speedup();
            assert!(
                last > first * 1.5,
                "speedup should grow: {first:.2} -> {last:.2}"
            );
        }
    }

    #[test]
    fn viscous_small_size_speedup_is_modest() {
        // Fig. 3: "a 2.5× speedup on the smallest problem size for Viscous".
        let p = SummitPlatform::new();
        let first = viscous_curve(&p)[0].gpu_speedup();
        assert!(
            (1.5..6.0).contains(&first),
            "small-size Viscous speedup {first:.2} out of band"
        );
    }
}
