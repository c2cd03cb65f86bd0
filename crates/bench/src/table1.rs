//! Table I: the weak-scaling configurations.
//!
//! Node counts follow the paper's ladder (breaking from perfect doubling at
//! 4, 36, 100 and 400 "to allow for linear problem size scaling while also
//! adhering to the blocking factor and physical 2:1 point distribution
//! requirements"). The generator reproduces those constraints: equivalent
//! extents keep `nx = 2·nz` (the 2:1 x:z aspect), every extent is a multiple
//! of 32 (so the twice-coarsened base level still honours blocking factor 8),
//! and y is chosen freely to hit the per-GPU point target, exactly as §V-C
//! describes ("accuracy is independent of y resolution, thus we arbitrarily
//! choose y grid spacing to target grid size scaling").

use crocco_geometry::IntVect;

/// The paper's target of equivalent grid points per GPU
/// (1.64e8 / 24 GPUs ≈ 6.83e6; constant across Table I).
pub const POINTS_PER_GPU: f64 = 1.64e8 / 24.0;

/// GPUs per Summit node.
pub const GPUS_PER_NODE: u32 = 6;

/// One weak-scaling configuration row.
#[derive(Clone, Copy, Debug)]
pub struct WeakConfig {
    /// Summit nodes.
    pub nodes: u32,
    /// GPUs (6 per node).
    pub gpus: u32,
    /// Equivalent (uniform-fine) grid extents, 2:1 in x:z.
    pub extents: IntVect,
    /// Equivalent grid points achieved.
    pub points: u64,
    /// The paper's Table I target for this row.
    pub target_points: f64,
}

/// The paper's node ladder and equivalent-point targets (Table I).
pub const TABLE1_ROWS: [(u32, f64); 8] = [
    (4, 1.64e8),
    (16, 6.55e8),
    (36, 1.47e9),
    (64, 2.62e9),
    (100, 4.10e9),
    (256, 1.05e10),
    (400, 1.64e10),
    (1024, 4.19e10),
];

/// Builds the weak-scaling configuration for one node count: searches the
/// blocking-aligned `(nx = 2·nz, ny)` shapes for the one closest to the
/// target point count.
pub fn weak_config(nodes: u32) -> WeakConfig {
    let target = nodes as f64 * GPUS_PER_NODE as f64 * POINTS_PER_GPU;
    let mut best: Option<WeakConfig> = None;
    let mut nz = 32i64;
    while nz <= 8192 {
        let nx = 2 * nz;
        let ny_raw = target / (nx * nz) as f64;
        for ny in [
            (ny_raw / 32.0).floor() as i64 * 32,
            (ny_raw / 32.0).ceil() as i64 * 32,
        ] {
            // Keep a DMR-like box: y (the wall-normal height, physical 1)
            // between a quarter of and equal to z (the span, physical 2).
            if ny < 32 || ny * 4 < nz || ny > nz {
                continue;
            }
            let points = (nx * ny * nz) as u64;
            let cand = WeakConfig {
                nodes,
                gpus: nodes * GPUS_PER_NODE,
                extents: IntVect::new(nx, ny, nz),
                points,
                target_points: target,
            };
            let err = (points as f64 - target).abs();
            if best
                .map(|b| err < (b.points as f64 - target).abs())
                .unwrap_or(true)
            {
                best = Some(cand);
            }
        }
        nz += 32;
    }
    best.expect("weak config search failed")
}

/// All eight Table I rows.
pub fn weak_configs() -> Vec<WeakConfig> {
    TABLE1_ROWS.iter().map(|&(n, _)| weak_config(n)).collect()
}

/// The strong-scaling problem: 1.27e9 equivalent grid points (§V-C), on the
/// same 2:1 shape family.
pub fn strong_config() -> WeakConfig {
    // Search the same shape family for 1.27e9 points.
    let mut cfg = weak_config(4);
    let target = 1.27e9;
    let mut best_err = f64::INFINITY;
    let mut nz = 32i64;
    while nz <= 4096 {
        let nx = 2 * nz;
        let ny_raw = target / (nx * nz) as f64;
        for ny in [
            (ny_raw / 32.0).floor() as i64 * 32,
            (ny_raw / 32.0).ceil() as i64 * 32,
        ] {
            if ny < 32 || ny * 4 < nz || ny > nz {
                continue;
            }
            let points = (nx * ny * nz) as u64;
            let err = (points as f64 - target).abs();
            if err < best_err {
                best_err = err;
                cfg = WeakConfig {
                    nodes: 0,
                    gpus: 0,
                    extents: IntVect::new(nx, ny, nz),
                    points,
                    target_points: target,
                };
            }
        }
        nz += 32;
    }
    cfg
}

/// The paper's strong-scaling node ladder (16 → 1024, doubling).
pub const STRONG_NODES: [u32; 7] = [16, 32, 64, 128, 256, 512, 1024];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_hit_table1_targets_within_3_percent() {
        for (row, &(nodes, target)) in TABLE1_ROWS.iter().enumerate() {
            let cfg = weak_config(nodes);
            let rel = (cfg.points as f64 - target).abs() / target;
            assert!(
                rel < 0.03,
                "row {row}: {} points vs target {target:.3e} ({:.1}% off)",
                cfg.points,
                rel * 100.0
            );
            assert_eq!(cfg.gpus, nodes * 6);
        }
    }

    #[test]
    fn shapes_satisfy_aspect_and_blocking() {
        for cfg in weak_configs() {
            assert_eq!(cfg.extents[0], 2 * cfg.extents[2], "2:1 x:z aspect");
            for d in 0..3 {
                assert_eq!(cfg.extents[d] % 32, 0, "extent {d} blocking");
            }
        }
    }

    #[test]
    fn points_per_gpu_is_constant() {
        for cfg in weak_configs() {
            let per_gpu = cfg.points as f64 / cfg.gpus as f64;
            let rel = (per_gpu - POINTS_PER_GPU).abs() / POINTS_PER_GPU;
            assert!(rel < 0.03, "{} nodes: {per_gpu:.3e}/GPU", cfg.nodes);
        }
    }

    #[test]
    fn strong_config_is_1_27e9() {
        let cfg = strong_config();
        let rel = (cfg.points as f64 - 1.27e9).abs() / 1.27e9;
        assert!(rel < 0.03, "{} points", cfg.points);
    }
}
