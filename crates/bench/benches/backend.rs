//! Criterion microbenchmarks of the kernel backends (DESIGN.md §4h):
//! Scalar vs Lanes on a 512-patch level (64³ cells chopped to 8³
//! patches — the AMR-realistic shape where per-patch overheads matter),
//! swept across tile shapes. The acceptance bar for the lane backend —
//! ≥ 1.5× single-thread over Scalar on the WENO flux — is measured by the
//! `weno_x` group; `docs/results/backend.md` records the numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crocco_fab::{tiled_work_list, BoxArray, DistributionMapping, FArrayBox, MultiFab};
use crocco_geometry::decompose::ChopParams;
use crocco_geometry::{IndexBox, IntVect, RealVect, StretchedMapping};
use crocco_solver::backend::BackendKind;
use crocco_solver::kernels::NGHOST;
use crocco_solver::metrics::{compute_metrics, generate_coords, NCOORDS, NMETRICS};
use crocco_solver::state::{Conserved, Primitive, NCONS};
use crocco_solver::weno::Reconstruction;
use crocco_solver::{PerfectGas, WenoVariant};
use std::sync::Arc;

struct Level {
    state: MultiFab,
    metrics: MultiFab,
    gas: PerfectGas,
    cells: u64,
}

/// 64³ cells chopped into 512 patches of 8³, on a stretched (curvilinear)
/// grid with a nonlinear flow field.
fn make_level() -> Level {
    let gas = PerfectGas::nondimensional();
    let edge = 64i64;
    let extents = IntVect::new(edge, edge, edge);
    let ba = Arc::new(BoxArray::decompose(
        IndexBox::from_extents(edge, edge, edge),
        ChopParams::new(8, 8),
    ));
    assert_eq!(ba.len(), 512, "bench wants the 512-patch level");
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
                rho: 1.0 + 0.2 * (5.0 * x).sin() * (3.0 * y).cos(),
                vel: [0.6 - 0.3 * y, 0.2 * (4.0 * x).cos(), 0.1],
                p: 1.0 + 0.1 * (3.0 * x + 2.0 * y).sin(),
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

/// The acceptance-bar measurement: one WENO x-sweep over all 512 patches,
/// per backend, single-threaded.
fn bench_weno_x(c: &mut Criterion) {
    let lvl = make_level();
    let mut rhs = rhs_fabs(&lvl);
    let mut group = c.benchmark_group("backend_weno_x");
    group.sample_size(20);
    group.throughput(Throughput::Elements(lvl.cells));
    for k in BackendKind::ALL {
        group.bench_function(k.label(), |b| {
            b.iter(|| {
                for (i, r) in rhs.iter_mut().enumerate() {
                    k.weno_flux_recon(
                        lvl.state.fab(i),
                        lvl.metrics.fab(i),
                        r,
                        lvl.state.valid_box(i),
                        0,
                        &lvl.gas,
                        WenoVariant::Symbo,
                        Reconstruction::ComponentWise,
                    );
                }
                black_box(&rhs);
            });
        });
    }
    group.finish();
}

/// Full stage RHS + dU update per backend × tile shape: zero, three tiled
/// WENO sweeps, then the whole-fab axpy dU ← dt·rhs (a = 0, so state is
/// never mutated across iterations).
fn bench_stage_tiles(c: &mut Criterion) {
    let lvl = make_level();
    let mut rhs = rhs_fabs(&lvl);
    let mut du = rhs_fabs(&lvl);
    let (a, dt) = (0.0, 1e-3);
    let tiles: [(&str, IntVect); 3] = [
        ("pencil8", IntVect::new(1_000_000, 8, 8)),
        ("pencil4", IntVect::new(1_000_000, 4, 4)),
        ("cube8", IntVect::new(8, 8, 8)),
    ];
    let mut group = c.benchmark_group("backend_stage");
    group.sample_size(10);
    group.throughput(Throughput::Elements(lvl.cells));
    for k in BackendKind::ALL {
        for (tname, tile) in tiles {
            group.bench_with_input(BenchmarkId::new(k.label(), tname), &tile, |b, &tile| {
                let work = tiled_work_list(&lvl.state, tile);
                b.iter(|| {
                    for r in rhs.iter_mut() {
                        r.fill(0.0);
                    }
                    for &(i, t) in &work {
                        k.accumulate_rhs(
                            lvl.state.fab(i),
                            lvl.metrics.fab(i),
                            &mut rhs[i],
                            t,
                            &lvl.gas,
                            WenoVariant::Symbo,
                            Reconstruction::ComponentWise,
                            None,
                        );
                    }
                    for (d, r) in du.iter_mut().zip(&rhs) {
                        d.lincomb(a, dt, r);
                    }
                    black_box(&du);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_weno_x, bench_stage_tiles);
criterion_main!(benches);
