//! Curvilinear coordinates and grid metrics.
//!
//! §III-C ("Data management"): curvilinear grids are generated from complex
//! mappings, so CRoCCo *stores* physical coordinates in a 3-component
//! MultiFab and the grid metrics in a second MultiFab. The paper's metrics
//! MultiFab has 27 components — "the high-order reconstructions of the first
//! and second derivatives of each i, j, k with respect to x, y, z" — and
//! gives the ≈3× memory overhead it reports; that layout is priced, as a
//! modeled figure, by `perfmodel::summit`. This solver stores only what its
//! kernels read: the nine contravariant metrics and the Jacobian, 10
//! components computed with 4th-order central differences of the stored
//! coordinates.

use crocco_fab::MultiFab;
use crocco_geometry::{GridMapping, IndexBox, IntVect, RealVect};

/// Number of stored metric components: `M` (9) and `JAC`.
pub const NMETRICS: usize = 10;

/// Number of coordinate components.
pub const NCOORDS: usize = 3;

/// Metric component layout.
pub mod comp {
    /// `M[d][j] = J·∂ξ_d/∂x_j` (contravariant metrics × Jacobian), component
    /// `M + d*3 + j`. These transform Cartesian fluxes into computational
    /// space.
    pub const M: usize = 0;
    /// Jacobian `J = det(∂x/∂ξ)` (cell volume per unit computational volume).
    pub const JAC: usize = 9;
}

/// Fills a 3-component coordinates MultiFab (valid + ghost cells) with the
/// physical cell-center positions of `mapping` at a level whose domain has
/// `extents` cells per direction.
///
/// Ghost coordinates are generated through the same mapping (smooth
/// extrapolation outside the unit cube), exactly as the paper's `getCoords()`
/// retrieves stored coordinates for newly created patches (§III-C
/// "Regridding").
pub fn generate_coords(mapping: &dyn GridMapping, extents: IntVect, coords: &mut MultiFab) {
    assert_eq!(coords.ncomp(), NCOORDS);
    let n = [
        extents[0] as f64,
        extents[1] as f64,
        extents[2] as f64,
    ];
    for i in 0..coords.nfabs() {
        // Owned-data distribution: patches owned elsewhere are
        // metadata-only placeholders — nothing to fill.
        if !coords.is_allocated(i) {
            continue;
        }
        let fab = coords.fab_mut(i);
        let bx = fab.bx();
        for p in bx.cells() {
            let xi = RealVect::new(
                (p[0] as f64 + 0.5) / n[0],
                (p[1] as f64 + 0.5) / n[1],
                (p[2] as f64 + 0.5) / n[2],
            );
            let x = mapping.coords(xi);
            for d in 0..3 {
                fab.set(p, d, x[d]);
            }
        }
    }
}

/// 4th-order central first derivative (unit computational spacing) of the
/// component slice `c` at flat offset `o`, along the direction whose
/// neighbouring cells lie `s` elements apart.
#[inline]
fn d1(c: &[f64], o: usize, s: usize) -> f64 {
    (c[o - 2 * s] - 8.0 * c[o - s] + 8.0 * c[o + s] - c[o + 2 * s]) / 12.0
}

/// Element strides of the three directions within one component of a fab
/// over `bx` (x fastest).
fn strides(bx: IndexBox) -> [usize; 3] {
    let s = bx.size();
    [1, s[0] as usize, (s[0] * s[1]) as usize]
}

/// Writes the full coordinate grid of one level to a binary file: the
/// §III-C "first implementation" stored grids on disk and had each newly
/// formed AMR patch "serially read from a binary file using std::iostream".
/// Layout: for each domain cell in Fortran (x-fastest) order, three
/// little-endian f64 coordinates.
pub fn write_coords_file(
    mapping: &dyn GridMapping,
    extents: IntVect,
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = [extents[0] as f64, extents[1] as f64, extents[2] as f64];
    let domain = crocco_geometry::IndexBox::from_extents(extents[0], extents[1], extents[2]);
    for p in domain.cells() {
        let xi = RealVect::new(
            (p[0] as f64 + 0.5) / n[0],
            (p[1] as f64 + 0.5) / n[1],
            (p[2] as f64 + 0.5) / n[2],
        );
        let x = mapping.coords(xi);
        for d in 0..3 {
            w.write_all(&x[d].to_le_bytes())?;
        }
    }
    w.flush()
}

/// Fills a coordinates MultiFab by *seek-and-read* from a coordinates file —
/// the slow path the paper measured before switching to in-memory
/// `getCoords()`. Cells outside the domain (ghost coordinates) fall back to
/// evaluating the mapping, since the file only stores the domain interior.
pub fn read_coords_from_file(
    path: &std::path::Path,
    mapping: &dyn GridMapping,
    extents: IntVect,
    coords: &mut MultiFab,
) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    assert_eq!(coords.ncomp(), NCOORDS);
    let mut f = std::fs::File::open(path)?;
    let (nx, ny) = (extents[0], extents[1]);
    let n = [extents[0] as f64, extents[1] as f64, extents[2] as f64];
    let domain = crocco_geometry::IndexBox::from_extents(extents[0], extents[1], extents[2]);
    for i in 0..coords.nfabs() {
        if !coords.is_allocated(i) {
            continue;
        }
        let bx = coords.fab(i).bx();
        let mut buf = Vec::new();
        for p in bx.cells() {
            if domain.contains(p) {
                // One seek per cell: deliberately faithful to the paper's
                // serial std::iostream implementation.
                let cell_index = (p[2] * ny + p[1]) * nx + p[0];
                f.seek(SeekFrom::Start(cell_index as u64 * 24))?;
                buf.resize(24, 0);
                f.read_exact(&mut buf)?;
                for d in 0..3 {
                    let v = f64::from_le_bytes(buf[d * 8..d * 8 + 8].try_into().unwrap());
                    coords.fab_mut(i).set(p, d, v);
                }
            } else {
                let xi = RealVect::new(
                    (p[0] as f64 + 0.5) / n[0],
                    (p[1] as f64 + 0.5) / n[1],
                    (p[2] as f64 + 0.5) / n[2],
                );
                let x = mapping.coords(xi);
                for d in 0..3 {
                    coords.fab_mut(i).set(p, d, x[d]);
                }
            }
        }
    }
    Ok(())
}

/// Computes the [`NMETRICS`] stored metric components from stored
/// coordinates, in one pass per patch over every (valid and ghost) cell.
///
/// `coords` must carry at least `metrics.nghost() + 2` ghost cells so the
/// 4th-order stencils reach. The contravariant metrics are formed from the
/// adjugate of the forward Jacobian (`M = adj(F)`, so `M/J = ∂ξ/∂x`).
pub fn compute_metrics(coords: &MultiFab, metrics: &mut MultiFab) {
    assert_eq!(metrics.ncomp(), NMETRICS);
    assert!(
        coords.nghost() >= metrics.nghost() + 2,
        "coords need 2 more ghosts than metrics for 4th-order stencils"
    );
    for i in 0..metrics.nfabs() {
        // Owned-data distribution: coords and metrics share a distribution
        // mapping, so an unallocated metrics patch has unallocated coords.
        if !metrics.is_allocated(i) {
            continue;
        }
        let cfab = coords.fab(i);
        let mfab = metrics.fab_mut(i);
        let bx = mfab.bx();
        assert!(cfab.bx().contains_box(&bx.grow(2)), "coords must cover the stencils");
        let n = bx.num_points() as usize;
        let cstride = strides(cfab.bx());
        let x: [&[f64]; 3] = std::array::from_fn(|c| cfab.comp(c));
        // `c`/`o` are the cell's offsets within one component of the
        // coordinate / metric fab.
        for p in bx.cells() {
            let (c, o) = (cfab.offset(p, 0), mfab.offset(p, 0));
            let m = mfab.data_mut();
            // Forward Jacobian F[i][j] = ∂x_i/∂ξ_j.
            let mut f = [[0.0; 3]; 3];
            for (xc, frow) in f.iter_mut().enumerate() {
                for (xi_dir, fv) in frow.iter_mut().enumerate() {
                    *fv = d1(x[xc], c, cstride[xi_dir]);
                }
            }
            let jac = det3(&f);
            debug_assert!(jac > 0.0, "negative Jacobian {jac} at {p:?}");
            // Adjugate: M[d][j] = J ∂ξ_d/∂x_j = cofactor matrix transpose.
            let adj = adjugate(&f);
            for (d, arow) in adj.iter().enumerate() {
                for (j, &a) in arow.iter().enumerate() {
                    m[(comp::M + d * 3 + j) * n + o] = a;
                }
            }
            m[comp::JAC * n + o] = jac;
        }
    }
}

/// Determinant of a 3×3 matrix.
fn det3(f: &[[f64; 3]; 3]) -> f64 {
    f[0][0] * (f[1][1] * f[2][2] - f[1][2] * f[2][1])
        - f[0][1] * (f[1][0] * f[2][2] - f[1][2] * f[2][0])
        + f[0][2] * (f[1][0] * f[2][1] - f[1][1] * f[2][0])
}

/// Adjugate (transposed cofactor matrix): `adj(F) · F = det(F) · I`.
fn adjugate(f: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let c = |r1: usize, c1: usize, r2: usize, c2: usize| f[r1][c1] * f[r2][c2] - f[r1][c2] * f[r2][c1];
    [
        [c(1, 1, 2, 2), -c(0, 1, 2, 2), c(0, 1, 1, 2)],
        [-c(1, 0, 2, 2), c(0, 0, 2, 2), -c(0, 0, 1, 2)],
        [c(1, 0, 2, 1), -c(0, 0, 2, 1), c(0, 0, 1, 1)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_fab::{BoxArray, DistributionMapping, DistributionStrategy, FArrayBox};
    use crocco_geometry::decompose::{decompose_domain, ChopParams};
    use crocco_geometry::{IndexBox, RampMapping, StretchedMapping, UniformMapping};
    use std::sync::Arc;

    fn build(
        mapping: &dyn GridMapping,
        extents: IntVect,
        nghost: i64,
    ) -> (MultiFab, MultiFab) {
        let bx = IndexBox::from_extents(extents[0], extents[1], extents[2]);
        let ba = Arc::new(BoxArray::new(vec![bx]));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let mut coords = MultiFab::new(ba.clone(), dm.clone(), NCOORDS, nghost + 2);
        generate_coords(mapping, extents, &mut coords);
        let mut metrics = MultiFab::new(ba, dm, NMETRICS, nghost);
        compute_metrics(&coords, &mut metrics);
        (coords, metrics)
    }

    /// The per-cell `get`/`set` formulation [`compute_metrics`] replaced,
    /// kept as the bitwise oracle of one patch.
    fn compute_metrics_percell(cfab: &FArrayBox, mfab: &mut FArrayBox) {
        let d1 = |p: IntVect, dir: usize, c: usize| {
            let e = IntVect::unit(dir);
            (cfab.get(p - e * 2, c) - 8.0 * cfab.get(p - e, c) + 8.0 * cfab.get(p + e, c)
                - cfab.get(p + e * 2, c))
                / 12.0
        };
        for p in mfab.bx().cells() {
            let mut f = [[0.0; 3]; 3];
            for (xc, frow) in f.iter_mut().enumerate() {
                for (xi_dir, fv) in frow.iter_mut().enumerate() {
                    *fv = d1(p, xi_dir, xc);
                }
            }
            for (d, arow) in adjugate(&f).iter().enumerate() {
                for (j, &a) in arow.iter().enumerate() {
                    mfab.set(p, comp::M + d * 3 + j, a);
                }
            }
            mfab.set(p, comp::JAC, det3(&f));
        }
    }

    #[test]
    fn row_wise_metrics_equal_the_per_cell_formulation_bitwise() {
        let ramp = RampMapping::paper_dmr();
        let stretched = StretchedMapping::new(RealVect::ZERO, RealVect::splat(1.0), 2.0, 1);
        let cases: [(&dyn GridMapping, IntVect); 2] =
            [(&ramp, IntVect::new(32, 16, 8)), (&stretched, IntVect::new(8, 24, 8))];
        for (mapping, extents) in cases {
            // Several patches, rank 0 of 2 owning only some of them; metric
            // storage starts out NaN so every component must be written.
            let domain = IndexBox::from_extents(extents[0], extents[1], extents[2]);
            let chop = ChopParams { max_grid_size: 8, blocking_factor: 4 };
            let ba = Arc::new(BoxArray::new(decompose_domain(domain, chop)));
            let dm = Arc::new(DistributionMapping::new(&ba, 2, DistributionStrategy::RoundRobin));
            let mut coords = MultiFab::new_owned(ba.clone(), dm.clone(), NCOORDS, 4, 0);
            generate_coords(mapping, extents, &mut coords);
            let mut metrics = MultiFab::new_owned(ba, dm, NMETRICS, 2, 0);
            for i in 0..metrics.nfabs() {
                if metrics.is_allocated(i) {
                    metrics.fab_mut(i).fill(f64::NAN);
                }
            }
            compute_metrics(&coords, &mut metrics);
            let mut owned = 0;
            for i in 0..metrics.nfabs() {
                if !metrics.is_allocated(i) {
                    continue;
                }
                owned += 1;
                let got = metrics.fab(i);
                let mut want = FArrayBox::filled(got.bx(), NMETRICS, f64::NAN);
                compute_metrics_percell(coords.fab(i), &mut want);
                for (c, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "patch {i}, flat index {c}");
                }
            }
            assert!(owned > 0 && owned < metrics.nfabs(), "partly unallocated by construction");
        }
    }

    #[test]
    fn uniform_mapping_gives_diagonal_metrics() {
        let m = UniformMapping::new(RealVect::ZERO, RealVect::new(2.0, 1.0, 0.5));
        let n = IntVect::new(8, 8, 8);
        let (_c, metrics) = build(&m, n, 1);
        let fab = metrics.fab(0);
        let p = IntVect::new(4, 4, 4);
        // dx = 2/8, dy = 1/8, dz = 0.5/8 per index.
        let dx = [0.25, 0.125, 0.0625];
        let jac = fab.get(p, comp::JAC);
        assert!((jac - dx[0] * dx[1] * dx[2]).abs() < 1e-12);
        for (d, &dxd) in dx.iter().enumerate() {
            for j in 0..3 {
                let expect = if d == j { jac / dxd } else { 0.0 };
                assert!(
                    (fab.get(p, comp::M + d * 3 + j) - expect).abs() < 1e-12,
                    "M[{d}][{j}]"
                );
            }
        }
    }

    #[test]
    fn adjugate_times_forward_is_det_identity() {
        let f = [[1.0, 0.2, 0.0], [-0.1, 0.8, 0.3], [0.05, 0.0, 1.2]];
        let adj = adjugate(&f);
        let det = det3(&f);
        for (i, arow) in adj.iter().enumerate() {
            for j in 0..3 {
                let s: f64 = arow.iter().zip(&f).map(|(&a, frow)| a * frow[j]).sum();
                let expect = if i == j { det } else { 0.0 };
                assert!((s - expect).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    #[test]
    fn stretched_mapping_metrics_match_analytic_jacobian() {
        let m = StretchedMapping::new(RealVect::ZERO, RealVect::splat(1.0), 2.0, 1);
        let n = IntVect::new(8, 32, 8);
        let (_c, metrics) = build(&m, n, 0);
        let fab = metrics.fab(0);
        let p = IntVect::new(4, 16, 4);
        // Analytic: dy/dη at η=(16.5)/32 with y = sinh(βη)/sinh(β).
        let eta = 16.5f64 / 32.0;
        let dyd_eta = 2.0 * (2.0 * eta).cosh() / 2.0f64.sinh();
        let per_index = dyd_eta / 32.0;
        // x and z are uniform at 1/8 per index, so J = (1/8)·∂y/∂η·(1/8).
        let got = fab.get(p, comp::JAC) * 64.0;
        assert!(
            (got - per_index).abs() / per_index < 1e-4,
            "{got} vs {per_index}"
        );
    }

    #[test]
    fn ramp_mapping_has_positive_jacobian_and_skew_past_corner() {
        let m = RampMapping::paper_dmr();
        let n = IntVect::new(32, 16, 4);
        let (_c, metrics) = build(&m, n, 0);
        let fab = metrics.fab(0);
        let mut any_skew = false;
        for p in metrics.valid_box(0).cells() {
            assert!(fab.get(p, comp::JAC) > 0.0, "J<=0 at {p:?}");
            // M[1][0] = −∂y/∂ξ·∂z/∂ζ: nonzero only where the grid is sheared.
            if fab.get(p, comp::M + 3).abs() > 1e-6 * fab.get(p, comp::M + 4).abs() {
                any_skew = true;
            }
        }
        assert!(any_skew, "ramp grid must be sheared beyond the corner");
    }

    #[test]
    fn metric_identity_sum_vanishes_on_smooth_grids() {
        // Analytic identity: Σ_d ∂(J ∂ξ_d/∂x_j)/∂ξ_d = 0. Discretely it holds
        // to the truncation order of the difference scheme.
        let m = StretchedMapping::new(RealVect::ZERO, RealVect::splat(1.0), 1.5, 0);
        let n = IntVect::new(32, 8, 8);
        let (_c, metrics) = build(&m, n, 2);
        let fab = metrics.fab(0);
        let inner = metrics.valid_box(0).grow(-2);
        for p in inner.cells() {
            for j in 0..3 {
                let mut s = 0.0;
                for d in 0..3 {
                    let e = IntVect::unit(d);
                    s += (fab.get(p - e * 2, comp::M + d * 3 + j)
                        - 8.0 * fab.get(p - e, comp::M + d * 3 + j)
                        + 8.0 * fab.get(p + e, comp::M + d * 3 + j)
                        - fab.get(p + e * 2, comp::M + d * 3 + j))
                        / 12.0;
                }
                assert!(s.abs() < 1e-6, "identity residual {s} at {p:?} j={j}");
            }
        }
    }
}
