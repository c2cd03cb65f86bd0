//! Hierarchical roofline evaluation (Yang, Kurth & Williams), as used for
//! Fig. 4 of the paper.

use crate::gpu::GpuModel;
use crate::kernelspec::KernelSpec;

/// One memory level of the hierarchical roofline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RooflineLevel {
    /// L1 cache traffic.
    L1,
    /// L2 cache traffic.
    L2,
    /// Device memory (HBM2) traffic.
    Dram,
}

impl RooflineLevel {
    /// All levels, innermost first.
    pub const ALL: [RooflineLevel; 3] = [RooflineLevel::L1, RooflineLevel::L2, RooflineLevel::Dram];

    /// Printable name.
    pub fn name(&self) -> &'static str {
        match self {
            RooflineLevel::L1 => "L1",
            RooflineLevel::L2 => "L2",
            RooflineLevel::Dram => "DRAM",
        }
    }
}

/// One kernel's placement on the roofline at one memory level.
#[derive(Clone, Copy, Debug)]
pub struct RooflinePoint {
    /// Kernel name.
    pub kernel: &'static str,
    /// Memory level of the traffic measurement.
    pub level: RooflineLevel,
    /// Arithmetic intensity at this level (flop/byte).
    pub ai: f64,
    /// Achieved performance (flop/s).
    pub achieved: f64,
    /// The bandwidth ceiling at this AI (flop/s): `AI × BW(level)`.
    pub bandwidth_ceiling: f64,
    /// The occupancy-derated compute ceiling (flop/s).
    pub compute_ceiling: f64,
    /// `true` if the kernel sits under the sloped (bandwidth) part of the
    /// roofline at this level — i.e. the level's bandwidth ceiling at this AI
    /// lies below the machine's peak flop rate. This is the sense in which
    /// §VI-A declares the kernels "bandwidth-bound for L1, L2, and DRAM".
    pub bandwidth_bound: bool,
}

/// A *measured* kernel throughput scored against the roofline ceiling its
/// spec implies — the falsifiable half of the model: `evaluate` prices a
/// kernel analytically, [`score_measured`] grades what a backend actually
/// achieved.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredPoint {
    /// Kernel name.
    pub kernel: &'static str,
    /// Measured throughput in cells/s.
    pub cells_per_s: f64,
    /// Achieved flop rate implied by the spec's per-cell count (flop/s).
    pub achieved_flops: f64,
    /// DRAM arithmetic intensity of the spec (flop/byte).
    pub ai_dram: f64,
    /// The roofline ceiling at this AI: `min(peak, AI × DRAM bandwidth)`
    /// (flop/s).
    pub ceiling: f64,
    /// `achieved_flops / ceiling` — the achieved fraction of roofline.
    pub fraction: f64,
}

/// Scores a measured throughput (`cells_per_s`) for `spec` against the
/// machine roofline given by `peak_flops` (flop/s) and `dram_bw` (B/s):
/// the ceiling is the classic `min(peak, AI·BW)` at the spec's DRAM
/// intensity, and the returned fraction is how much of it the measurement
/// realized. Pass host ceilings to grade the CPU backends or
/// [`GpuModel`] numbers to compare against the modeled V100.
pub fn score_measured(
    spec: &KernelSpec,
    cells_per_s: f64,
    peak_flops: f64,
    dram_bw: f64,
) -> MeasuredPoint {
    let achieved_flops = cells_per_s * spec.flops_per_cell;
    let ai = spec.ai_dram();
    let ceiling = (ai * dram_bw).min(peak_flops);
    MeasuredPoint {
        kernel: spec.name,
        cells_per_s,
        achieved_flops,
        ai_dram: ai,
        ceiling,
        fraction: achieved_flops / ceiling,
    }
}

/// Evaluates the full hierarchical roofline of `spec` on `gpu` at problem
/// size `ncells`: one point per memory level.
pub fn evaluate(gpu: &GpuModel, spec: &KernelSpec, ncells: u64) -> Vec<RooflinePoint> {
    let achieved = gpu.achieved_flops(spec, ncells);
    let compute_ceiling = gpu.flop_ceiling(spec);
    RooflineLevel::ALL
        .iter()
        .map(|&level| {
            let (ai, bw) = match level {
                RooflineLevel::L1 => (spec.ai_l1(), gpu.l1_bw),
                RooflineLevel::L2 => (spec.ai_l2(), gpu.l2_bw),
                RooflineLevel::Dram => (spec.ai_dram(), gpu.dram_bw * gpu.dram_efficiency),
            };
            let bandwidth_ceiling = ai * bw;
            RooflinePoint {
                kernel: spec.name,
                level,
                ai,
                achieved,
                bandwidth_ceiling,
                compute_ceiling,
                bandwidth_bound: bandwidth_ceiling < gpu.peak_flops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelspec::{stage_kernels, weno_spec};

    #[test]
    fn weno_is_bandwidth_bound_at_every_level() {
        // §VI-A: "All of our kernels are bandwidth-bound ... for L1 cache, L2
        // cache, and DRAM."
        let gpu = GpuModel::v100();
        for k in stage_kernels() {
            for p in evaluate(&gpu, &k, 20_000_000) {
                assert!(
                    p.bandwidth_bound,
                    "{} at {} should be bandwidth-bound (ai={:.2})",
                    p.kernel,
                    p.level.name(),
                    p.ai
                );
            }
        }
    }

    #[test]
    fn achieved_never_exceeds_ceilings() {
        let gpu = GpuModel::v100();
        let pts = evaluate(&gpu, &weno_spec(0), 20_000_000);
        for p in &pts {
            let ceiling = p.bandwidth_ceiling.min(p.compute_ceiling);
            assert!(
                p.achieved <= ceiling * 1.0 + 1e-6,
                "{:?} achieved above ceiling",
                p
            );
        }
    }

    #[test]
    fn measured_score_is_bandwidth_limited_for_weno() {
        // WENO's AI (0.4 flop/B) is far below any machine balance, so the
        // ceiling must be the bandwidth slope, not peak flops.
        let spec = weno_spec(0);
        let (peak, bw) = (100e9, 50e9); // nominal host ceilings
        let p = score_measured(&spec, 10e6, peak, bw);
        assert!((p.ceiling - spec.ai_dram() * bw).abs() < 1.0);
        assert!(p.ceiling < peak);
        assert!((p.achieved_flops - 10e6 * spec.flops_per_cell).abs() < 1.0);
        assert!((p.fraction - p.achieved_flops / p.ceiling).abs() < 1e-12);
    }

    #[test]
    fn measured_score_caps_at_peak_for_high_ai() {
        // A synthetic compute-heavy spec must hit the flat (peak) ceiling.
        let mut spec = weno_spec(0);
        spec.flops_per_cell = 1e6;
        let p = score_measured(&spec, 1e6, 100e9, 50e9);
        assert_eq!(p.ceiling, 100e9);
    }

    #[test]
    fn dram_point_matches_paper_numbers() {
        let gpu = GpuModel::v100();
        let p = evaluate(&gpu, &weno_spec(0), 20_000_000)
            .into_iter()
            .find(|p| p.level == RooflineLevel::Dram)
            .unwrap();
        // ≈300 DP Gflop/s, ≈4 % of the 7.8 Tflop/s peak.
        assert!((250e9..350e9).contains(&p.achieved), "{}", p.achieved);
        assert!(p.achieved / gpu.peak_flops > 0.03);
        assert!(p.achieved / gpu.peak_flops < 0.05);
    }
}
