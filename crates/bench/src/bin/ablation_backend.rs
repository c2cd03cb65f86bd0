//! Ablation: kernel backends (Scalar / Lanes, DESIGN.md §4h) on the
//! 512-patch level, scored against the roofline model, plus the WENO sweep
//! per patch shape and direction.
//!
//! For every backend this measures each stage kernel's single-thread
//! throughput in cells/s and grades it with
//! [`crocco_perfmodel::score_measured`] against nominal host ceilings — the
//! falsifiable half of the perf model: the analytic `KernelSpec` counts
//! predict a ceiling, the backends either approach it or don't.
//!
//! The per-shape table times the component-wise SYMBO sweep alone, x / y / z
//! separately, on the patch shapes AMR actually produces (most are 8 or 12
//! wide) next to a 64-long x-pencil — the shape on which the sweep is bound
//! by the packed divider and nothing else. A kernel that loses throughput to
//! short pencils or strided planes shows it here.
//!
//! Emits the machine-readable `BENCH_backend.json` (cells/s, achieved
//! flop/s, and fraction-of-roofline per kernel per backend; cells/s per
//! shape, direction and backend) alongside the human tables;
//! `docs/results/backend.md` records a reference run.

use crocco_bench::report::print_table;
use crocco_fab::{tiled_work_list, BoxArray, DistributionMapping, FArrayBox, MultiFab, DEFAULT_TILE};
use crocco_geometry::decompose::ChopParams;
use crocco_geometry::{IndexBox, IntVect, RealVect, StretchedMapping};
use crocco_perfmodel::kernelspec::{
    compute_dt_spec, stage_kernels, update_spec, viscous_spec, weno_spec,
};
use crocco_perfmodel::{score_measured, KernelSpec, MeasuredPoint};
use crocco_solver::backend::BackendKind;
use crocco_solver::kernels::NGHOST;
use crocco_solver::metrics::{compute_metrics, generate_coords, NCOORDS, NMETRICS};
use crocco_solver::sgs::Smagorinsky;
use crocco_solver::state::{Conserved, Primitive, NCONS};
use crocco_solver::weno::Reconstruction;
use crocco_solver::{PerfectGas, WenoVariant};
use std::sync::Arc;
use std::time::Instant;

/// Nominal single-core host ceilings for the roofline grading: ~3 GHz × 16
/// DP flops/cycle (AVX-512 FMA) and the single-thread DRAM stream rate.
/// They set the *scale* of the fractions, not the backend ranking.
const HOST_PEAK_FLOPS: f64 = 50e9;
const HOST_DRAM_BW: f64 = 25e9;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 5;

/// Divisions one SYMBO face reconstruction executes (`weno::reconstruct_face`
/// and its lane mirror): four `d_r/(ε+β_r)²`, one `Σα·q̃ / (6·Σα)`. The face
/// loop was bound by the packed divider at 12; recorded with the numbers it
/// explains.
const DIVISIONS_PER_RECONSTRUCTION: u32 = 5;

struct Level {
    state: MultiFab,
    metrics: MultiFab,
    gas: PerfectGas,
    cells: u64,
}

/// The 512-patch level: 64³ cells chopped into 8³ patches — the
/// AMR-realistic shape where per-patch and per-tile overheads show.
fn make_level() -> Level {
    let ba = BoxArray::decompose(IndexBox::from_extents(64, 64, 64), ChopParams::new(8, 8));
    assert_eq!(ba.len(), 512);
    level_on(ba, IntVect::splat(64))
}

/// `grid` patches of `shape` cells each, tiling a box-shaped domain.
fn make_shape_level(shape: IntVect, grid: IntVect) -> Level {
    let mut boxes = Vec::new();
    for k in 0..grid[2] {
        for j in 0..grid[1] {
            for i in 0..grid[0] {
                let lo = IntVect::new(i * shape[0], j * shape[1], k * shape[2]);
                boxes.push(IndexBox::new(lo, lo + shape - IntVect::splat(1)));
            }
        }
    }
    let extents = IntVect::new(shape[0] * grid[0], shape[1] * grid[1], shape[2] * grid[2]);
    level_on(BoxArray::new(boxes), extents)
}

/// A level over `ba` on a stretched grid, carrying a sheared supersonic-ish
/// air state so the viscous kernel has real work.
fn level_on(ba: BoxArray, extents: IntVect) -> Level {
    let gas = PerfectGas::air();
    let edge = extents[0].max(extents[1]);
    let ba = Arc::new(ba);
    let dm = Arc::new(DistributionMapping::all_on_root(&ba));
    let map = StretchedMapping::new(RealVect::ZERO, RealVect::splat(1.0), 1.2, 1);
    let mut coords = MultiFab::new(ba.clone(), dm.clone(), NCOORDS, NGHOST + 2);
    generate_coords(&map, extents, &mut coords);
    let mut metrics = MultiFab::new(ba.clone(), dm.clone(), NMETRICS, NGHOST);
    compute_metrics(&coords, &mut metrics);
    let mut state = MultiFab::new(ba.clone(), dm, NCONS, NGHOST);
    for i in 0..state.nfabs() {
        let all = state.fab(i).bx();
        for p in all.cells() {
            let x = p[0] as f64 / edge as f64;
            let y = p[1] as f64 / edge as f64;
            let w = Primitive {
                rho: 1.2 + 0.2 * (5.0 * x).sin() * (3.0 * y).cos(),
                vel: [80.0 - 40.0 * y, 15.0 * (4.0 * x).cos(), 5.0],
                p: 1.0e5 * (1.0 + 0.1 * (3.0 * x + 2.0 * y).sin()),
                t: 0.0,
            };
            let u = Conserved::from_primitive(&w, &gas);
            for c in 0..NCONS {
                state.fab_mut(i).set(p, c, u.0[c]);
            }
        }
    }
    let cells = ba.num_points();
    Level {
        state,
        metrics,
        gas,
        cells,
    }
}

fn rhs_fabs(lvl: &Level) -> Vec<FArrayBox> {
    (0..lvl.state.nfabs())
        .map(|i| FArrayBox::new(lvl.state.valid_box(i), NCONS))
        .collect()
}

/// Best-of-`REPS` wall time of `f` (one untimed warmup).
fn time_best<F: FnMut()>(mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Sums the per-cell work of `specs` into one aggregate kernel.
fn sum_spec(name: &'static str, specs: &[KernelSpec]) -> KernelSpec {
    let mut out = KernelSpec {
        name,
        flops_per_cell: 0.0,
        dram_bytes_per_cell: 0.0,
        l2_bytes_per_cell: 0.0,
        l1_bytes_per_cell: 0.0,
        registers_per_thread: 255,
        sub_launches: 0,
    };
    for s in specs {
        out.flops_per_cell += s.flops_per_cell;
        out.dram_bytes_per_cell += s.dram_bytes_per_cell;
        out.l2_bytes_per_cell += s.l2_bytes_per_cell;
        out.l1_bytes_per_cell += s.l1_bytes_per_cell;
        out.sub_launches += s.sub_launches;
    }
    out
}

/// One single-thread SYMBO component-wise WENO sweep of `lvl` along `dir`.
fn weno_sweep(lvl: &Level, backend: BackendKind, dir: usize, rhs: &mut [FArrayBox]) {
    for (i, r) in rhs.iter_mut().enumerate() {
        backend.weno_flux_recon(
            lvl.state.fab(i),
            lvl.metrics.fab(i),
            r,
            lvl.state.valid_box(i),
            dir,
            &lvl.gas,
            WenoVariant::Symbo,
            Reconstruction::ComponentWise,
        );
    }
}

/// Measures every kernel of `backend` and returns `(kernel spec, seconds)`.
fn measure_backend(lvl: &Level, backend: BackendKind) -> Vec<(KernelSpec, f64)> {
    let mut rhs = rhs_fabs(lvl);
    let mut du = rhs_fabs(lvl);
    let mut out = Vec::new();

    for dir in 0..3 {
        let t = time_best(|| weno_sweep(lvl, backend, dir, &mut rhs));
        out.push((weno_spec(dir), t));
    }
    // Molecular viscosity alone, then with the Smagorinsky closure on top —
    // the arithmetic mix of an LES run.
    for (name, sgs) in [("Viscous", None), ("LES", Some(Smagorinsky { cs: 0.16 }))] {
        let t = time_best(|| {
            for (i, r) in rhs.iter_mut().enumerate() {
                backend.viscous_flux_les(
                    lvl.state.fab(i),
                    lvl.metrics.fab(i),
                    r,
                    lvl.state.valid_box(i),
                    &lvl.gas,
                    sgs.as_ref(),
                );
            }
        });
        out.push((KernelSpec { name, ..viscous_spec() }, t));
    }
    let t = time_best(|| {
        for (d, r) in du.iter_mut().zip(&rhs) {
            d.lincomb(0.9, 1e-3, r);
        }
    });
    out.push((update_spec(), t));

    let t = time_best(|| {
        let mut dt = f64::INFINITY;
        for i in 0..lvl.state.nfabs() {
            dt = dt.min(backend.compute_dt_patch(
                lvl.state.fab(i),
                lvl.metrics.fab(i),
                lvl.state.valid_box(i),
                &lvl.gas,
                0.6,
            ));
        }
        assert!(dt.is_finite());
    });
    out.push((compute_dt_spec(), t));

    // The full RK-stage pipeline: RHS accumulation (tiles swept into the
    // materialized RHS fab) plus the dU axpy.
    let work = tiled_work_list(&lvl.state, DEFAULT_TILE);
    let t = time_best(|| {
        for r in rhs.iter_mut() {
            r.fill(0.0);
        }
        for &(i, tile) in &work {
            backend.accumulate_rhs(
                lvl.state.fab(i),
                lvl.metrics.fab(i),
                &mut rhs[i],
                tile,
                &lvl.gas,
                WenoVariant::Symbo,
                Reconstruction::ComponentWise,
                None,
            );
        }
        for (d, r) in du.iter_mut().zip(&rhs) {
            d.lincomb(0.9, 1e-3, r);
        }
    });
    out.push((sum_spec("Stage", &stage_kernels()), t));
    out
}

/// Patch shapes of the per-shape table with the patch grid of the
/// "streamed" measurement (≈ 32–74 k cells, far beyond L2, so every sweep
/// streams its inputs from DRAM as a level of an AMR run does): the
/// AMR-sized shapes, then the 64-long x-pencil on which the sweep is
/// divider-bound. The "resident" measurement sweeps one patch over and over.
const SHAPES: [([i64; 3], [i64; 3]); 6] = [
    ([8, 8, 8], [4, 4, 4]),
    ([12, 12, 8], [4, 4, 4]),
    ([16, 16, 16], [2, 2, 4]),
    ([8, 16, 32], [4, 2, 2]),
    ([32, 32, 32], [2, 1, 1]),
    ([64, 8, 8], [2, 4, 4]),
];

/// One row of the per-shape table: cells/s per sweep direction.
struct ShapeRate {
    patch: String,
    residency: &'static str,
    backend: &'static str,
    rate: [f64; 3],
}

/// Cells/s of the WENO sweep per direction for `backend` on `lvl`.
fn measure_shape(lvl: &Level, backend: BackendKind) -> [f64; 3] {
    let mut rhs = rhs_fabs(lvl);
    // Enough sweeps per timing that the clock resolution and the first-touch
    // of the rhs fabs are noise.
    let sweeps = (400_000 / lvl.cells).max(1);
    std::array::from_fn(|dir| {
        let t = time_best(|| {
            for _ in 0..sweeps {
                weno_sweep(lvl, backend, dir, &mut rhs);
            }
        });
        (lvl.cells * sweeps) as f64 / t
    })
}

fn main() {
    let lvl = make_level();
    println!(
        "kernel backends on the 512-patch level ({} cells), single thread",
        lvl.cells
    );
    println!("roofline ceilings: peak {:.0} Gflop/s, DRAM {:.0} GB/s", HOST_PEAK_FLOPS / 1e9, HOST_DRAM_BW / 1e9);
    println!("divisions per reconstruction (SYMBO): {DIVISIONS_PER_RECONSTRUCTION}\n");

    let mut rows = Vec::new();
    let mut measured: Vec<(&'static str, Vec<MeasuredPoint>)> = Vec::new();
    let mut weno_x = [0.0f64; BackendKind::ALL.len()]; // scalar, lanes cells/s on WENOx
    for (bi, backend) in BackendKind::ALL.into_iter().enumerate() {
        let mut points = Vec::new();
        for (spec, secs) in measure_backend(&lvl, backend) {
            let cells_per_s = lvl.cells as f64 / secs;
            let p: MeasuredPoint = score_measured(&spec, cells_per_s, HOST_PEAK_FLOPS, HOST_DRAM_BW);
            if spec.name.starts_with("WENOx") {
                weno_x[bi] = cells_per_s;
            }
            rows.push(vec![
                backend.label().to_string(),
                spec.name.to_string(),
                format!("{:.2e}", p.cells_per_s),
                format!("{:.2}", p.achieved_flops / 1e9),
                format!("{:.2}", p.ai_dram),
                format!("{:.2}", p.ceiling / 1e9),
                format!("{:.1}%", p.fraction * 100.0),
            ]);
            points.push(p);
        }
        measured.push((backend.label(), points));
    }
    print_table(
        "Ablation: kernel backend × kernel, roofline-scored",
        &["backend", "kernel", "cells/s", "Gflop/s", "AI", "ceiling", "of roof"],
        &rows,
    );

    let speedup = weno_x[1] / weno_x[0];
    println!("\nWENOx lanes/scalar speedup: {speedup:.2}x (acceptance bar: >= 1.5x)\n");

    // Per-shape WENO sweep, x / y / z separately.
    let mut shapes = Vec::new();
    for (shape, grid) in SHAPES {
        for (residency, grid) in [("resident", [1, 1, 1]), ("streamed", grid)] {
            let lvl = make_shape_level(IntVect(shape), IntVect(grid));
            for backend in BackendKind::ALL {
                shapes.push(ShapeRate {
                    patch: format!("{}x{}x{}", shape[0], shape[1], shape[2]),
                    residency,
                    backend: backend.label(),
                    rate: measure_shape(&lvl, backend),
                });
            }
        }
    }
    let shape_rows: Vec<Vec<String>> = shapes
        .iter()
        .map(|s| {
            let mut row = vec![s.patch.clone(), s.residency.to_string(), s.backend.to_string()];
            row.extend(s.rate.iter().map(|r| format!("{:.2}", r / 1e6)));
            row
        })
        .collect();
    print_table(
        "WENO sweep (SYMBO, component-wise) per patch shape, M cells/s, single thread",
        &["patch", "inputs", "backend", "x", "y", "z"],
        &shape_rows,
    );

    // The workspace has no JSON serializer, so the machine-readable record
    // is emitted by hand: plain nested objects, ASCII keys, `{:e}` floats —
    // trivially parseable.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"backend\",\n");
    json.push_str(&format!("  \"cells\": {},\n", lvl.cells));
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!("  \"host_peak_flops\": {HOST_PEAK_FLOPS:e},\n"));
    json.push_str(&format!("  \"host_dram_bw\": {HOST_DRAM_BW:e},\n"));
    json.push_str(&format!(
        "  \"divisions_per_reconstruction\": {DIVISIONS_PER_RECONSTRUCTION},\n"
    ));
    json.push_str(&format!(
        "  \"weno_x_lanes_over_scalar\": {speedup:.4},\n"
    ));
    json.push_str("  \"backends\": {\n");
    for (bi, (label, points)) in measured.iter().enumerate() {
        json.push_str(&format!("    \"{label}\": {{\n"));
        for (ki, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "      \"{}\": {{ \"cells_per_s\": {:e}, \"achieved_flops\": {:e}, \"ai_dram\": {:.4}, \"ceiling_flops\": {:e}, \"fraction_of_roofline\": {:.4} }}{}\n",
                p.kernel,
                p.cells_per_s,
                p.achieved_flops,
                p.ai_dram,
                p.ceiling,
                p.fraction,
                if ki + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if bi + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"weno_sweep_cells_per_s_by_shape\": [\n");
    for (si, s) in shapes.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"patch\": \"{}\", \"inputs\": \"{}\", \"backend\": \"{}\", \"x\": {:e}, \"y\": {:e}, \"z\": {:e} }}{}\n",
            s.patch,
            s.residency,
            s.backend,
            s.rate[0],
            s.rate[1],
            s.rate[2],
            if si + 1 < shapes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_backend.json", json).expect("write BENCH_backend.json");
    println!("\nwrote BENCH_backend.json");
}
