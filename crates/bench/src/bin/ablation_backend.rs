//! Ablation: kernel backends (Scalar / Lanes, DESIGN.md §4h) on the
//! 512-patch level, scored against the roofline model, plus the WENO sweep
//! per patch shape and direction.
//!
//! For every backend this measures each stage kernel's single-thread
//! throughput in cells/s and grades it with
//! [`crocco_perfmodel::score_measured`] against host ceilings measured in
//! the same run — the falsifiable half of the perf model: the analytic
//! `KernelSpec` counts predict a ceiling, the backends either approach it or
//! don't. The ceilings are a multiply-add loop (peak flop/s) and a STREAM
//! triad (bandwidth) over as many bytes as one patch's state, metrics and
//! rhs — the working set the patch-by-patch kernels stream, so the triad
//! runs from the cache level they do (L2 for an 8³ patch on a 2 MiB L2, the
//! level the benchmark's `rhs_roofline_frac` picks for such patches).
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
use crocco_fab::{tile_boxes, BoxArray, DistributionMapping, FArrayBox, MultiFab};
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
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 5;

/// AMReX's default tile shape for the `Stage` row: pencils long in x (the
/// unit-stride direction), short in y/z.
const TILE: IntVect = IntVect([1_000_000, 8, 8]);

/// STREAM triad `a = b + s·c` over three arrays of `n` doubles: B/s of the
/// fastest of 200 passes (STREAM's count: 3 × 8 × n bytes per pass).
fn triad_bw(n: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let s = black_box(3.0f64);
    let secs = time_best_of(200, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
    });
    (3 * 8 * n) as f64 / secs
}

/// Single-core multiply-add peak in flop/s: 10 independent 8-lane
/// accumulator chains (enough to cover FMA latency on two ports), 2 flops
/// per lane-step; a fused multiply-add only where the build targets one.
fn fma_peak() -> f64 {
    const ACC: usize = 10;
    const LANES: usize = 8;
    const ITERS: usize = 4_000_000;
    let b = black_box([1.000000001f64; LANES]);
    let c = black_box([1e-9f64; LANES]);
    let secs = time_best_of(3, || {
        let mut acc = [[1.0f64; LANES]; ACC];
        for _ in 0..ITERS {
            for chain in acc.iter_mut() {
                for l in 0..LANES {
                    chain[l] = if cfg!(target_feature = "fma") {
                        chain[l].mul_add(b[l], c[l])
                    } else {
                        chain[l] * b[l] + c[l]
                    };
                }
            }
        }
        black_box(&mut acc);
    });
    (ITERS * ACC * LANES * 2) as f64 / secs
}

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

/// Best-of-`reps` wall time of `f` (one untimed warmup).
fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-[`REPS`] wall time of `f` (one untimed warmup).
fn time_best<F: FnMut()>(f: F) -> f64 {
    time_best_of(REPS, f)
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
    let t = time_best(|| {
        for r in rhs.iter_mut() {
            r.fill(0.0);
        }
        for (i, valid) in lvl.state.iter_valid() {
            for tile in tile_boxes(valid, TILE) {
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
    // One patch's state + metrics + rhs: what the kernels stream per call.
    let patch_doubles = lvl.state.fab(0).data().len()
        + lvl.metrics.fab(0).data().len()
        + lvl.state.valid_box(0).num_points() as usize * NCONS;
    let peak_flops = fma_peak();
    let patch_bw = triad_bw(patch_doubles / 3);
    println!(
        "kernel backends on the 512-patch level ({} cells), single thread",
        lvl.cells
    );
    println!(
        "roofline ceilings (measured): FMA peak {:.1} Gflop/s, triad over one patch's \
         working set ({} KiB) {:.1} GB/s",
        peak_flops / 1e9,
        patch_doubles * 8 / 1024,
        patch_bw / 1e9
    );
    println!("divisions per reconstruction (SYMBO): {DIVISIONS_PER_RECONSTRUCTION}\n");

    let mut rows = Vec::new();
    let mut measured: Vec<(&'static str, Vec<MeasuredPoint>)> = Vec::new();
    let mut weno_x = [0.0f64; BackendKind::ALL.len()]; // scalar, lanes cells/s on WENOx
    for (bi, backend) in BackendKind::ALL.into_iter().enumerate() {
        let mut points = Vec::new();
        for (spec, secs) in measure_backend(&lvl, backend) {
            let cells_per_s = lvl.cells as f64 / secs;
            let p: MeasuredPoint = score_measured(&spec, cells_per_s, peak_flops, patch_bw);
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
    json.push_str(&format!("  \"host_fma_flops\": {peak_flops:e},\n"));
    json.push_str(&format!("  \"host_patch_triad_bw\": {patch_bw:e},\n"));
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
