//! IBM POWER9 CPU kernel-time model.

use crate::kernelspec::KernelSpec;

/// Which CPU implementation of the numerics is running.
///
/// §IV-A of the paper measures a consistent ~1.2× slowdown of the translated
/// C++ kernels relative to the original Fortran on the POWER9; both are
/// modeled so Fig. 3 can show the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuBackend {
    /// The original, heavily compiler-optimized Fortran kernels.
    Fortran,
    /// The C++ translations used by CRoCCo ≥ 1.1.
    Cpp,
}

/// Analytic model of CRoCCo kernel execution on POWER9 cores.
///
/// The paper observes that "computation is what binds the CPU performance"
/// (§VI-B), so the model is compute-rate based: the CPU-resident kernels keep
/// their stencil scratch in cache (unlike the GPU port, which stages scratch
/// in DRAM), and per-cell time is `flops_per_cell / rate`.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Sustained double-precision flop rate of one core running the C++
    /// kernels (flop/s). Calibrated so one 22-core socket is ~15.8× slower
    /// than the V100 on the largest WENOx size of Fig. 3.
    pub flops_per_core_cpp: f64,
    /// Fortran-over-C++ speed ratio (§IV-A reports ≈1.2).
    pub fortran_speedup: f64,
    /// Cores per socket (Summit POWER9: 22).
    pub cores_per_socket: u32,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::power9()
    }
}

impl CpuModel {
    /// Summit POWER9 calibration.
    pub fn power9() -> Self {
        CpuModel {
            flops_per_core_cpp: 0.82e9,
            fortran_speedup: 1.2,
            cores_per_socket: 22,
        }
    }

    /// Per-core sustained rate for a backend (flop/s).
    pub fn core_rate(&self, backend: CpuBackend) -> f64 {
        match backend {
            CpuBackend::Fortran => self.flops_per_core_cpp * self.fortran_speedup,
            CpuBackend::Cpp => self.flops_per_core_cpp,
        }
    }

    /// Time (s) for `ncores` cores to run `spec` over `ncells` cells,
    /// assuming the embarrassingly parallel per-patch decomposition CRoCCo
    /// uses (one MPI rank per core, patches load balanced).
    pub fn kernel_time(&self, spec: &KernelSpec, ncells: u64, ncores: u32, backend: CpuBackend) -> f64 {
        ncells as f64 * spec.flops_per_cell / (self.core_rate(backend) * ncores as f64)
    }

    /// Time on one socket (the Fig. 3 configuration).
    pub fn socket_time(&self, spec: &KernelSpec, ncells: u64, backend: CpuBackend) -> f64 {
        self.kernel_time(spec, ncells, self.cores_per_socket, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuModel;
    use crate::kernelspec::{viscous_spec, weno_spec};

    #[test]
    fn cpp_is_1_2x_slower_than_fortran() {
        let c = CpuModel::power9();
        let spec = weno_spec(0);
        let tf = c.socket_time(&spec, 1_000_000, CpuBackend::Fortran);
        let tc = c.socket_time(&spec, 1_000_000, CpuBackend::Cpp);
        assert!(((tc / tf) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn gpu_speedup_matches_fig3_envelope() {
        // Fig. 3: GPU over C++ CPU speedup grows to ≈15.8× for WENOx at the
        // largest size.
        let c = CpuModel::power9();
        let g = GpuModel::v100();
        let spec = weno_spec(0);
        let n = 20_000_000;
        let speedup = c.socket_time(&spec, n, CpuBackend::Cpp) / g.kernel_time(&spec, n);
        assert!(
            (12.0..20.0).contains(&speedup),
            "WENOx large-size GPU speedup {speedup:.1}, expected ≈15.8"
        );
    }

    #[test]
    fn time_scales_linearly_with_cells_and_inverse_cores() {
        let c = CpuModel::power9();
        let spec = viscous_spec();
        let t1 = c.kernel_time(&spec, 1_000_000, 22, CpuBackend::Cpp);
        let t2 = c.kernel_time(&spec, 2_000_000, 22, CpuBackend::Cpp);
        let t3 = c.kernel_time(&spec, 1_000_000, 44, CpuBackend::Cpp);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!((t3 / t1 - 0.5).abs() < 1e-12);
    }
}
