//! Analytic per-cell work characterization of the CRoCCo kernels.
//!
//! Each kernel's arithmetic and memory traffic per grid cell is counted
//! analytically from the numerics it implements. These counts drive both the
//! GPU roofline model (Fig. 4) and the CPU/GPU kernel-time curves (Fig. 3).
//! Unit tests pin the counts to hand-derived values so a kernel change that
//! alters the work per cell breaks loudly.

/// Work and traffic of one computational kernel, per grid cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelSpec {
    /// Kernel name as it appears in the paper's figures.
    pub name: &'static str,
    /// Double-precision floating-point operations per cell.
    pub flops_per_cell: f64,
    /// Bytes moved to/from DRAM (HBM on the V100) per cell, assuming the
    /// stencil working set is cache-resident so each field value is read
    /// once and each output written once.
    pub dram_bytes_per_cell: f64,
    /// Bytes crossing the L2 cache per cell (stencil re-reads partially hit L2).
    pub l2_bytes_per_cell: f64,
    /// Bytes crossing the L1 cache per cell (every stencil access).
    pub l1_bytes_per_cell: f64,
    /// Registers per GPU thread — the occupancy limiter the paper identifies
    /// (§VI-A: "very high register usage arising from the complexity of the
    /// physics").
    pub registers_per_thread: u32,
    /// Device kernels launched per logical kernel invocation: §IV-B moves
    /// "more complex stencil loops into dedicated GPU kernels using
    /// `amrex::ParallelFor`", so one WENO sweep is several launches.
    pub sub_launches: u32,
}

impl KernelSpec {
    /// Arithmetic intensity (flop/byte) with respect to DRAM traffic.
    pub fn ai_dram(&self) -> f64 {
        self.flops_per_cell / self.dram_bytes_per_cell
    }

    /// Arithmetic intensity with respect to L2 traffic.
    pub fn ai_l2(&self) -> f64 {
        self.flops_per_cell / self.l2_bytes_per_cell
    }

    /// Arithmetic intensity with respect to L1 traffic.
    pub fn ai_l1(&self) -> f64 {
        self.flops_per_cell / self.l1_bytes_per_cell
    }
}

/// Number of conserved variables (ρ, ρu, ρv, ρw, E).
pub const NCONS: f64 = 5.0;

/// WENO reconstruction in one direction.
///
/// Per cell and per conserved component, the bandwidth-optimized symmetric
/// WENO evaluates, at each of the two faces the cell contributes to (one
/// reconstruction per face, amortized to one per cell per direction):
/// 4 candidate stencils × (3-point polynomial: 5 flops) for the split flux,
/// 4 smoothness indicators (~14 flops each), 4 nonlinear weights
/// (divide ≈ 4 flop-equivalents each ⇒ ~8 flops), normalization (~8), and
/// the final weighted sum (~8): ≈ 100 flops — doubled for the ± flux splits,
/// plus ~40 flops of Rusanov splitting and wave-speed estimation shared
/// across components. Total ≈ 5 × 240 = 1200 flops/cell.
///
/// DRAM traffic: §IV-B explains that to avoid data races the port moves the
/// complex stencil loops into dedicated `ParallelFor` kernels communicating
/// through *global-memory scratch arrays* ("we allocated all of these arrays
/// in GPU global memory from the host code"). Each cell therefore round-trips
/// its 4 candidate fluxes, smoothness indicators, split fluxes, and weights
/// through DRAM in addition to the state, metric, and output traffic:
/// ≈ (5 state + 9 metrics + 5 out + 5 comp × (2 splits × 4 candidates +
/// 4 IS + 4 ω + 2 partial sums)) × 8 B × read+write ≈ 3,000 B/cell.
/// L2 absorbs the stencil re-reads (~2× DRAM) and L1 sees every access (~4×).
pub fn weno_spec(dir: usize) -> KernelSpec {
    let name = match dir {
        0 => "WENOx",
        1 => "WENOy",
        _ => "WENOz",
    };
    KernelSpec {
        name,
        flops_per_cell: 1200.0,
        dram_bytes_per_cell: 3000.0,
        l2_bytes_per_cell: 6000.0,
        l1_bytes_per_cell: 12_000.0,
        registers_per_thread: 255,
        sub_launches: 8,
    }
}

/// 4th-order central viscous flux kernel.
///
/// Velocity/temperature gradients in 3 directions (4th-order: 4 points × 3
/// dirs × 4 fields ≈ 100 flops), stress tensor assembly (~60), Sutherland
/// viscosity (~20), heat flux (~20), divergence of the viscous flux (~100),
/// metric transforms (~100): ≈ 400 flops/cell. Gradients are staged through
/// global-memory scratch (9 components, read + write) on top of the
/// (4 + 9 + 5) field traffic: ≈ 1,200 B/cell DRAM.
pub fn viscous_spec() -> KernelSpec {
    KernelSpec {
        name: "Viscous",
        flops_per_cell: 400.0,
        dram_bytes_per_cell: 1200.0,
        l2_bytes_per_cell: 2500.0,
        l1_bytes_per_cell: 5000.0,
        registers_per_thread: 168,
        sub_launches: 6,
    }
}

/// Low-storage RK3 update: `U ← U + b·dU`, `dU ← a·dU + rhs` — a pure
/// streaming kernel: ~3 flops and 3 × 8 B per component per cell.
pub fn update_spec() -> KernelSpec {
    KernelSpec {
        name: "Update",
        flops_per_cell: 3.0 * NCONS,
        dram_bytes_per_cell: 3.0 * NCONS * 8.0,
        l2_bytes_per_cell: 3.0 * NCONS * 8.0,
        l1_bytes_per_cell: 3.0 * NCONS * 8.0,
        registers_per_thread: 32,
        sub_launches: 1,
    }
}

/// CFL time-step estimation (`ComputeDt`): per cell, primitive recovery
/// (~25 flops incl. sqrt for the sound speed), metric-scaled wave speeds
/// (~30), reduction tree amortized (~2). Reads 5 + 9 values.
pub fn compute_dt_spec() -> KernelSpec {
    KernelSpec {
        name: "ComputeDt",
        flops_per_cell: 57.0,
        dram_bytes_per_cell: 14.0 * 8.0,
        l2_bytes_per_cell: 14.0 * 8.0,
        l1_bytes_per_cell: 14.0 * 8.0,
        registers_per_thread: 40,
        sub_launches: 2,
    }
}

/// Trilinear (or curvilinear-weighted) coarse→fine interpolation: 8-point
/// weighted sum per component (~15 flops), per interpolated fine cell.
pub fn interp_spec() -> KernelSpec {
    KernelSpec {
        name: "Interp",
        flops_per_cell: 15.0 * NCONS,
        dram_bytes_per_cell: (8.0 + 1.0) * NCONS, // 8 coarse reads amortized over 8 fine cells + 1 write
        l2_bytes_per_cell: 3.0 * NCONS * 8.0,
        l1_bytes_per_cell: 9.0 * NCONS * 8.0,
        registers_per_thread: 64,
        sub_launches: 1,
    }
}

/// All kernels of one RK stage in execution order.
pub fn stage_kernels() -> Vec<KernelSpec> {
    vec![
        weno_spec(0),
        weno_spec(1),
        weno_spec(2),
        viscous_spec(),
        update_spec(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weno_counts_pin_hand_derivation() {
        let w = weno_spec(0);
        assert_eq!(w.flops_per_cell, 1200.0);
        assert_eq!(w.dram_bytes_per_cell, 3000.0);
        assert_eq!(w.registers_per_thread, 255);
        // AI(DRAM) = 0.4 flop/B: far below the V100's ~8.7 flop/B machine
        // balance, i.e. bandwidth-bound — as §VI-A observes.
        assert!((w.ai_dram() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn all_directions_share_weno_work() {
        assert_eq!(weno_spec(0).flops_per_cell, weno_spec(1).flops_per_cell);
        assert_eq!(weno_spec(1).flops_per_cell, weno_spec(2).flops_per_cell);
        assert_eq!(weno_spec(0).name, "WENOx");
        assert_eq!(weno_spec(1).name, "WENOy");
        assert_eq!(weno_spec(2).name, "WENOz");
    }

    #[test]
    fn intensities_ordered_by_cache_level() {
        // More traffic at inner levels ⇒ lower intensity there.
        for k in stage_kernels() {
            assert!(k.ai_l1() <= k.ai_l2() + 1e-12, "{}", k.name);
            assert!(k.ai_l2() <= k.ai_dram() + 1e-12, "{}", k.name);
        }
    }

    #[test]
    fn update_is_pure_streaming() {
        let u = update_spec();
        // 1 flop per 8 bytes: deep in the bandwidth-bound regime.
        assert!(u.ai_dram() < 0.2);
    }

    #[test]
    fn weno_dominates_stage_flops() {
        let total: f64 = stage_kernels().iter().map(|k| k.flops_per_cell).sum();
        let weno: f64 = 3.0 * weno_spec(0).flops_per_cell;
        assert!(weno / total > 0.85, "WENO must dominate: {}", weno / total);
    }
}
