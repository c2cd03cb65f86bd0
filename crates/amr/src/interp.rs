//! Coarse→fine interpolators.
//!
//! §III-C of the paper contrasts three interpolation designs:
//!
//! * AMReX's built-in **trilinear** interpolator, which assumes uniform
//!   Cartesian spacing so "the interpolation coefficients are always a
//!   multiple of 1/2" — this is what CRoCCo **2.1** swaps in,
//! * the team's **custom curvilinear** interpolator, which "accurately weighs
//!   interpolation coefficients by spacing in physical curvilinear space" at
//!   the cost of a coordinate `ParallelCopy` — CRoCCo **2.0**, sufficient for
//!   the DMR case "but lacks conservation of quantities across interfaces",
//! * a **conservative** interpolator as the higher-fidelity direction (the
//!   paper plans a WENO-SYMBO conservative scheme; we provide the classic
//!   limited-slope conservative interpolator that guarantees the conservation
//!   property the trilinear schemes lack).
//!
//! Piecewise-constant injection is included as the trivial baseline.
//!
//! The two trilinear schemes are the same 8-corner blend and differ only in
//! their weights, which the grids alone determine ([`BlendWeights`]). A
//! [`BlendStencil`] holds those weights for one fine region, so a FillPatch
//! plan computes them once per regrid and every fill until the next one is
//! the blend itself ([`BlendStencil::apply`], the one blend kernel).

use crocco_fab::{FArrayBox, FabRw};
use crocco_geometry::{IndexBox, IntVect};

/// A coarse→fine interpolation scheme.
pub trait Interpolator: Send + Sync {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Ghost width required on the coarse source fab, beyond the coarsened
    /// footprint of the fine region being filled.
    fn coarse_ghost(&self) -> i64;

    /// `Some` when the scheme is an 8-corner blend whose weights depend on
    /// the grids only — a FillPatch plan then caches them
    /// ([`BlendStencil`]) and never calls
    /// [`interp_view`](Self::interp_view). `None` for schemes whose weights
    /// depend on the coarse data (limiters) or that have none (injection).
    fn blend(&self) -> Option<BlendKind> {
        None
    }

    /// `true` if the scheme reads physical coordinates — which forces the
    /// coordinate-MultiFab `ParallelCopy` the paper identifies as the global
    /// communication bottleneck (§III-B, §VI-B).
    fn needs_coords(&self) -> bool {
        self.blend() == Some(BlendKind::Physical)
    }

    /// Fills components `0..fine.ncomp()` of `fine` over `region` (fine index
    /// space) by interpolating `coarse`, writing through a raw view — the
    /// form a halo task calls while other tasks read the same fab's valid
    /// cells. `ratio` is the refinement ratio. Coordinate fabs are provided
    /// iff [`Interpolator::needs_coords`]. The implementation writes exactly
    /// `region` and never reads `fine`.
    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        coarse_coords: Option<&FArrayBox>,
        fine_coords: Option<&FArrayBox>,
    );

    /// [`interp_view`](Self::interp_view) over an exclusively borrowed fab.
    /// Implementors only provide `interp_view`.
    fn interp(
        &self,
        coarse: &FArrayBox,
        fine: &mut FArrayBox,
        region: IndexBox,
        ratio: IntVect,
        coarse_coords: Option<&FArrayBox>,
        fine_coords: Option<&FArrayBox>,
    ) {
        crocco_fab::with_rw(fine, |rw| {
            self.interp_view(coarse, rw, region, ratio, coarse_coords, fine_coords)
        });
    }
}

/// Piecewise-constant injection: each fine cell takes its coarse parent's
/// value. First-order, maximally dissipative baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PiecewiseConstantInterp;

impl Interpolator for PiecewiseConstantInterp {
    fn name(&self) -> &'static str {
        "piecewise-constant"
    }

    fn coarse_ghost(&self) -> i64 {
        0
    }

    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        _cc: Option<&FArrayBox>,
        _fc: Option<&FArrayBox>,
    ) {
        let (x0, nx) = (region.lo()[0], region.size()[0]);
        let r = ratio[0];
        for p in region.rows() {
            // The parents of one fine row are one coarse row: coarsened once,
            // each parent written to the run of its (up to `r`) children
            // inside the row.
            let cp = p.coarsen(ratio);
            let nparents = ((x0 + nx - 1).div_euclid(r) - cp[0] + 1) as usize;
            for c in 0..fine.ncomp() {
                let parents = coarse.row(cp, c, nparents);
                let row = fine.row_mut(p, c, nx as usize);
                for (j, &v) in parents.iter().enumerate() {
                    let first = (cp[0] + j as i64) * r;
                    let lo = (first.max(x0) - x0) as usize;
                    let hi = ((first + r).min(x0 + nx) - x0) as usize;
                    row[lo..hi].fill(v);
                }
            }
        }
    }
}

/// Fractional position of fine cell `p` relative to the coarse cell-center
/// lattice: returns the base coarse cell and per-direction weights in
/// `[0, 1)` such that the fine center sits at `base + w` (cell centers).
fn cartesian_weights(p: IntVect, ratio: IntVect) -> (IntVect, [f64; 3]) {
    let mut base = IntVect::ZERO;
    let mut w = [0.0; 3];
    for d in 0..3 {
        let r = ratio[d] as f64;
        // Fine center in coarse index coordinates.
        let xc = (p[d] as f64 + 0.5) / r - 0.5;
        let b = xc.floor();
        base[d] = b as i64;
        w[d] = xc - b;
    }
    (base, w)
}

/// Which weights an 8-corner blend uses ([`Interpolator::blend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlendKind {
    /// Index-space weights ([`BlendWeights::Index`]).
    Index,
    /// Physical-space weights ([`BlendWeights::Physical`]); needs the
    /// coordinate fabs.
    Physical,
}

/// The weights of an 8-corner blend — the single definition both trilinear
/// schemes take theirs from. A fine cell's value is the blend of the coarse
/// cells `base + {0,1}³` with weight `w[d]` toward `base[d] + 1` in each
/// direction.
#[derive(Clone, Copy)]
pub enum BlendWeights<'a> {
    /// Uniform index spacing: multiples of `1/(2·ratio)` (¼ and ¾ for ratio
    /// 2) — AMReX's trilinear interpolator, CRoCCo 2.1.
    Index,
    /// The fraction of the *physical* gap between the two bracketing coarse
    /// points that the fine point covers, per direction, so non-uniformly
    /// spaced grids interpolate at the true fine-point location — the
    /// paper's custom interpolator, CRoCCo 2.0.
    Physical {
        /// Coarse cell-center coordinates (3 components) over the coarse
        /// source fab's box.
        coarse: &'a FArrayBox,
        /// Fine cell-center coordinates over (at least) the region filled.
        fine: &'a FArrayBox,
    },
}

impl BlendWeights<'_> {
    /// `(base, w)` of fine cell `p`.
    fn at(&self, p: IntVect, ratio: IntVect) -> (IntVect, [f64; 3]) {
        let (base, mut w) = cartesian_weights(p, ratio);
        if let BlendWeights::Physical { coarse, fine } = self {
            for d in 0..3 {
                let x_f = fine.get(p, d);
                let mut q1 = base;
                q1[d] += 1;
                let x0 = coarse.get(base, d);
                let gap = coarse.get(q1, d) - x0;
                if gap.abs() > 1e-300 {
                    w[d] = ((x_f - x0) / gap).clamp(0.0, 1.0);
                }
            }
        }
        (base, w)
    }
}

/// One fine cell of a [`BlendStencil`]: the flat offset of its base corner
/// within one component of the coarse source fab, and its three weights.
#[derive(Clone, Copy, Debug)]
struct BlendCell {
    base: u32,
    w: [f64; 3],
}

/// The 8-corner blend of one fine region, reduced to what the grids fix:
/// per fine cell, where its corners sit in the coarse source fab and how
/// they are weighted. Built once (per FillPatch plan, or per call by the
/// uncached [`Interpolator::interp`] entry) and applied to any coarse data
/// over the same box.
#[derive(Debug)]
pub struct BlendStencil {
    region: IndexBox,
    /// Box of the coarse source fab the offsets index.
    cbox: IndexBox,
    /// `region.cells()` order.
    cells: Vec<BlendCell>,
}

impl BlendStencil {
    /// The stencil that fills `region` from a coarse fab over `cbox`.
    ///
    /// # Panics
    /// If a fine cell's corners leave `cbox` (the caller sized the coarse
    /// footprint without the scheme's [`Interpolator::coarse_ghost`]).
    pub fn build(weights: BlendWeights<'_>, region: IndexBox, ratio: IntVect, cbox: IndexBox) -> Self {
        assert!(
            cbox.num_points() <= u64::from(u32::MAX),
            "coarse source box too large for 32-bit stencil offsets"
        );
        let s = cbox.size();
        let cells = region
            .cells()
            .map(|p| {
                let (base, w) = weights.at(p, ratio);
                assert!(
                    cbox.contains(base) && cbox.contains(base + IntVect::ONE),
                    "blend corners of {p:?} leave the coarse box {cbox:?}"
                );
                let o = base - cbox.lo();
                BlendCell {
                    base: ((o[2] * s[1] + o[1]) * s[0] + o[0]) as u32,
                    w,
                }
            })
            .collect();
        BlendStencil {
            region,
            cbox,
            cells,
        }
    }

    /// Fills every component of `fine` over the stencil's region from
    /// `coarse` — the blend kernel. Row-wise: the eight corner products of a
    /// cell are formed once and reused for every component.
    ///
    /// # Panics
    /// If `coarse` is not over the box the stencil was built for.
    pub fn apply(&self, coarse: &FArrayBox, fine: &mut FabRw<'_>) {
        assert_eq!(coarse.bx(), self.cbox, "stencil built for another coarse box");
        if self.cells.is_empty() {
            return;
        }
        let s = self.cbox.size();
        let (sy, sz) = (s[0] as usize, (s[0] * s[1]) as usize);
        let nx = self.region.size()[0] as usize;
        let mut corner = vec![[0.0; 8]; nx];
        for (p, cells) in self.region.rows().zip(self.cells.chunks_exact(nx)) {
            for (ww, cell) in corner.iter_mut().zip(cells) {
                let w = cell.w;
                for (n, out) in ww.iter_mut().enumerate() {
                    let side = |d: usize| if (n >> d) & 1 == 1 { w[d] } else { 1.0 - w[d] };
                    *out = side(0) * side(1) * side(2);
                }
            }
            for c in 0..fine.ncomp() {
                let src = coarse.comp(c);
                let row = fine.row_mut(p, c, nx);
                for ((out, cell), ww) in row.iter_mut().zip(cells).zip(&corner) {
                    let o = cell.base as usize;
                    let (z0, z1) = (&src[o..o + sy + 2], &src[o + sz..o + sz + sy + 2]);
                    let mut acc = 0.0;
                    acc += ww[0] * z0[0];
                    acc += ww[1] * z0[1];
                    acc += ww[2] * z0[sy];
                    acc += ww[3] * z0[sy + 1];
                    acc += ww[4] * z1[0];
                    acc += ww[5] * z1[1];
                    acc += ww[6] * z1[sy];
                    acc += ww[7] * z1[sy + 1];
                    *out = acc;
                }
            }
        }
    }
}

/// The per-cell formulation [`BlendStencil`] replaced — weights re-derived at
/// every cell, corner products once per component, one `get`/`set` per value
/// — kept as the bitwise oracle of the blend.
#[cfg(test)]
pub(crate) fn reference_blend(
    weights: BlendWeights<'_>,
    coarse: &FArrayBox,
    fine: &mut FArrayBox,
    region: IndexBox,
    ratio: IntVect,
) {
    for p in region.cells() {
        let (base, w) = weights.at(p, ratio);
        for c in 0..fine.ncomp() {
            let mut acc = 0.0;
            for dz in 0..2 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        let q = base + IntVect::new(dx, dy, dz);
                        let ww = (if dx == 1 { w[0] } else { 1.0 - w[0] })
                            * (if dy == 1 { w[1] } else { 1.0 - w[1] })
                            * (if dz == 1 { w[2] } else { 1.0 - w[2] });
                        acc += ww * coarse.get(q, c);
                    }
                }
            }
            fine.set(p, c, acc);
        }
    }
}

/// AMReX's nodal/cell trilinear interpolator on uniform index spacing: the
/// eight surrounding coarse values are blended with
/// [`BlendWeights::Index`]. CRoCCo 2.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrilinearInterp;

impl Interpolator for TrilinearInterp {
    fn name(&self) -> &'static str {
        "trilinear"
    }

    fn coarse_ghost(&self) -> i64 {
        1
    }

    fn blend(&self) -> Option<BlendKind> {
        Some(BlendKind::Index)
    }

    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        _cc: Option<&FArrayBox>,
        _fc: Option<&FArrayBox>,
    ) {
        BlendStencil::build(BlendWeights::Index, region, ratio, coarse.bx()).apply(coarse, fine);
    }
}

/// The paper's custom curvilinear interpolator (CRoCCo 2.0): the same
/// 8-corner blend with [`BlendWeights::Physical`]. Requires coordinates —
/// triggering the coordinate `ParallelCopy` in `FillPatchTwoLevels`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CurvilinearInterp;

impl Interpolator for CurvilinearInterp {
    fn name(&self) -> &'static str {
        "curvilinear"
    }

    fn coarse_ghost(&self) -> i64 {
        1
    }

    fn blend(&self) -> Option<BlendKind> {
        Some(BlendKind::Physical)
    }

    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        coarse_coords: Option<&FArrayBox>,
        fine_coords: Option<&FArrayBox>,
    ) {
        let (Some(cc), Some(fc)) = (coarse_coords, fine_coords) else {
            panic!("curvilinear interpolation needs the coarse and fine coordinate fabs");
        };
        assert_eq!(cc.bx(), coarse.bx(), "coarse coordinates must share the coarse fab's box");
        let weights = BlendWeights::Physical {
            coarse: cc,
            fine: fc,
        };
        BlendStencil::build(weights, region, ratio, coarse.bx()).apply(coarse, fine);
    }
}

/// Conservative limited-slope interpolation: each coarse cell is given a
/// minmod-limited linear profile whose mean is the coarse value, and fine
/// cells sample that profile. The mean of the `ratio³` children equals the
/// parent exactly — the conservation property §III-C says the trilinear
/// schemes lack.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConservativeLinearInterp;

/// Minmod slope limiter.
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

impl Interpolator for ConservativeLinearInterp {
    fn name(&self) -> &'static str {
        "conservative-linear"
    }

    fn coarse_ghost(&self) -> i64 {
        1
    }

    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        _cc: Option<&FArrayBox>,
        _fc: Option<&FArrayBox>,
    ) {
        for p in region.cells() {
            let cp = p.coarsen(ratio);
            for c in 0..fine.ncomp() {
                let u0 = coarse.get(cp, c);
                let mut v = u0;
                for d in 0..3 {
                    let r = ratio[d] as f64;
                    let mut m = cp;
                    let mut pl = cp;
                    m[d] += 1;
                    pl[d] -= 1;
                    let slope = minmod(
                        coarse.get(m, c) - u0,
                        u0 - coarse.get(pl, c),
                    );
                    // Offset of the fine-cell center from the coarse center,
                    // in coarse cell widths: ((i_f + ½) / r − ½) − i_c.
                    let off = (p[d] as f64 + 0.5) / r - 0.5 - cp[d] as f64;
                    v += slope * off;
                }
                fine.set(p, c, v);
            }
        }
    }
}

/// Smoothness-weighted conservative interpolation — the §III-C direction:
/// "a high-order, bandwidth optimized WENO interpolation scheme, nearly
/// identical to the method Martín et al. use to reconstruct convective
/// fluxes", whose dissipation matches the solver's own numerics so
/// fine/coarse interfaces inject minimal noise *and* conserve.
///
/// Implemented dimension-by-dimension: along each direction the coarse cell
/// average `b` with neighbors `a, c` splits into two half-cell averages
/// `b ∓ s/4`, where the slope `s` blends the one-sided differences with
/// WENO-style nonlinear weights (`α = 1/(ε + Δ²)²`). Each 1-D split
/// preserves the parent mean exactly, so the full 3-D operator is
/// conservative; near discontinuities the weights collapse onto the smooth
/// side (ENO behaviour).
#[derive(Clone, Copy, Debug, Default)]
pub struct WenoConservativeInterp;

/// WENO-weighted limited slope from one-sided differences.
fn weno_slope(dl: f64, dr: f64) -> f64 {
    const EPS: f64 = 1e-6;
    let al = 1.0 / (EPS + dl * dl).powi(2);
    let ar = 1.0 / (EPS + dr * dr).powi(2);
    (al * dl + ar * dr) / (al + ar)
}

impl WenoConservativeInterp {
    /// Splits a 1-D pencil of cell averages into 2× half-cell averages.
    /// `vals[i]` are averages at coarse cells `lo..=hi`; the output holds
    /// `2·(n−2)` fine averages for the interior cells (the two end cells
    /// serve as stencil ghosts).
    fn split_pencil(vals: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for i in 1..vals.len() - 1 {
            let (a, b, c) = (vals[i - 1], vals[i], vals[i + 1]);
            let s = weno_slope(b - a, c - b);
            out.push(b - s / 4.0);
            out.push(b + s / 4.0);
        }
    }
}

impl Interpolator for WenoConservativeInterp {
    fn name(&self) -> &'static str {
        "weno-conservative"
    }

    fn coarse_ghost(&self) -> i64 {
        1
    }

    fn interp_view(
        &self,
        coarse: &FArrayBox,
        fine: &mut FabRw<'_>,
        region: IndexBox,
        ratio: IntVect,
        _cc: Option<&FArrayBox>,
        _fc: Option<&FArrayBox>,
    ) {
        assert_eq!(
            ratio,
            IntVect::splat(2),
            "WENO conservative interpolation implements ratio 2"
        );
        // Dimension-by-dimension refinement over the coarse footprint of
        // `region` grown by one stencil cell: x, then y, then z. Intermediate
        // results live in scratch fabs whose index space is refined in the
        // directions already processed.
        let cfoot = region.coarsen(ratio).grow(1);
        let mut cur = {
            let mut f = FArrayBox::new(cfoot, fine.ncomp());
            f.copy_from(coarse, cfoot, 0, 0, fine.ncomp());
            f
        };
        for dir in 0..3 {
            // Refine `cur` along `dir`: each pencil of length n produces
            // 2(n−2) entries; the box shrinks by one cell at both ends in
            // `dir` (stencil) and refines in `dir`.
            let src_bx = cur.bx();
            let inner = src_bx.grow_lo(dir, -1).grow_hi(dir, -1);
            let dst_bx = refine_dir(inner, dir);
            let mut next = FArrayBox::new(dst_bx, cur.ncomp());
            let mut pencil = Vec::new();
            let mut halves = Vec::new();
            // Iterate over lines along `dir`.
            let mut plane_lo = src_bx.lo();
            let mut plane_hi = src_bx.hi();
            plane_lo[dir] = 0;
            plane_hi[dir] = 0;
            for c in 0..cur.ncomp() {
                for plane in IndexBox::new(plane_lo, plane_hi).cells() {
                    pencil.clear();
                    for k in src_bx.lo()[dir]..=src_bx.hi()[dir] {
                        let mut q = plane;
                        q[dir] = k;
                        pencil.push(cur.get(q, c));
                    }
                    Self::split_pencil(&pencil, &mut halves);
                    for (j, &v) in halves.iter().enumerate() {
                        let mut q = plane;
                        q[dir] = dst_bx.lo()[dir] + j as i64;
                        next.set(q, c, v);
                    }
                }
            }
            cur = next;
        }
        // Copy the requested region out of the fully refined scratch.
        debug_assert!(cur.bx().contains_box(&region));
        let nx = region.size()[0] as usize;
        for c in 0..fine.ncomp() {
            for p in region.rows() {
                fine.row_mut(p, c, nx).copy_from_slice(cur.row(p, c, nx));
            }
        }
    }
}

/// Refines `bx` by 2 along a single direction.
fn refine_dir(bx: IndexBox, dir: usize) -> IndexBox {
    let mut r = IntVect::ONE;
    r[dir] = 2;
    bx.refine(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const R2: IntVect = IntVect([2, 2, 2]);

    /// Coarse fab holding a linear field a + bx·i + by·j + bz·k at centers.
    fn linear_coarse(bx: IndexBox, a: f64, b: [f64; 3]) -> FArrayBox {
        let mut f = FArrayBox::new(bx, 1);
        for p in bx.cells() {
            f.set(
                p,
                0,
                a + b[0] * p[0] as f64 + b[1] * p[1] as f64 + b[2] * p[2] as f64,
            );
        }
        f
    }

    /// The same linear field evaluated at fine centers (coarse index coords).
    fn linear_at_fine(p: IntVect, a: f64, b: [f64; 3]) -> f64 {
        let x = |d: usize| (p[d] as f64 + 0.5) / 2.0 - 0.5;
        a + b[0] * x(0) + b[1] * x(1) + b[2] * x(2)
    }

    #[test]
    fn trilinear_reproduces_linear_fields_exactly() {
        let cbx = IndexBox::new(IntVect::new(-2, -2, -2), IntVect::new(5, 5, 5));
        let coarse = linear_coarse(cbx, 1.5, [2.0, -1.0, 0.5]);
        let region = IndexBox::from_extents(8, 8, 8);
        let mut fine = FArrayBox::new(region, 1);
        TrilinearInterp.interp(&coarse, &mut fine, region, R2, None, None);
        for p in region.cells() {
            let expect = linear_at_fine(p, 1.5, [2.0, -1.0, 0.5]);
            assert!(
                (fine.get(p, 0) - expect).abs() < 1e-13,
                "at {p:?}: {} vs {expect}",
                fine.get(p, 0)
            );
        }
    }

    #[test]
    fn piecewise_constant_copies_parent() {
        let cbx = IndexBox::from_extents(4, 4, 4);
        let mut coarse = FArrayBox::new(cbx, 1);
        coarse.set(IntVect::new(1, 1, 1), 0, 9.0);
        let region = IndexBox::new(IntVect::new(2, 2, 2), IntVect::new(3, 3, 3));
        let mut fine = FArrayBox::new(region, 1);
        PiecewiseConstantInterp.interp(&coarse, &mut fine, region, R2, None, None);
        for p in region.cells() {
            assert_eq!(fine.get(p, 0), 9.0);
        }
    }

    #[test]
    fn curvilinear_matches_trilinear_on_uniform_grid() {
        // On a uniform grid physical weights reduce to the Cartesian ¼/¾, so
        // the two interpolators must agree to machine precision.
        let cbx = IndexBox::new(IntVect::new(-2, -2, -2), IntVect::new(5, 5, 5));
        let coarse = linear_coarse(cbx, 0.3, [1.0, 2.0, 3.0]);
        // Uniform physical coordinates: x_d = h·(i_d + ½) with h = 1 (coarse).
        let mut cc = FArrayBox::new(cbx, 3);
        for p in cbx.cells() {
            for d in 0..3 {
                cc.set(p, d, p[d] as f64 + 0.5);
            }
        }
        let region = IndexBox::from_extents(8, 8, 8);
        let mut fc = FArrayBox::new(region, 3);
        for p in region.cells() {
            for d in 0..3 {
                fc.set(p, d, (p[d] as f64 + 0.5) / 2.0);
            }
        }
        let mut fine_tri = FArrayBox::new(region, 1);
        let mut fine_cur = FArrayBox::new(region, 1);
        TrilinearInterp.interp(&coarse, &mut fine_tri, region, R2, None, None);
        CurvilinearInterp.interp(&coarse, &mut fine_cur, region, R2, Some(&cc), Some(&fc));
        for p in region.cells() {
            assert!((fine_tri.get(p, 0) - fine_cur.get(p, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn curvilinear_is_exact_on_stretched_grids_where_trilinear_is_not() {
        // Physical coordinate x = s², field f(x) = x (linear in physical
        // space). The curvilinear interpolator must reproduce it exactly;
        // index-space trilinear must not.
        let cbx = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 3, 3));
        let xmap = |i: f64| (i + 0.5) * (i + 0.5); // stretched coordinate
        let mut coarse = FArrayBox::new(cbx, 1);
        let mut cc = FArrayBox::new(cbx, 3);
        for p in cbx.cells() {
            cc.set(p, 0, xmap(p[0] as f64));
            cc.set(p, 1, p[1] as f64 + 0.5);
            cc.set(p, 2, p[2] as f64 + 0.5);
            coarse.set(p, 0, xmap(p[0] as f64));
        }
        // Fine region strictly interior (base cells 1..6 stay in bounds).
        let region = IndexBox::new(IntVect::new(4, 2, 2), IntVect::new(9, 5, 5));
        let mut fc = FArrayBox::new(region, 3);
        for p in region.cells() {
            // Fine physical positions from the same map at half indices.
            let xi = (p[0] as f64 + 0.5) / 2.0 - 0.5;
            fc.set(p, 0, xmap(xi));
            fc.set(p, 1, (p[1] as f64 + 0.5) / 2.0);
            fc.set(p, 2, (p[2] as f64 + 0.5) / 2.0);
        }
        let mut fine_cur = FArrayBox::new(region, 1);
        let mut fine_tri = FArrayBox::new(region, 1);
        CurvilinearInterp.interp(&coarse, &mut fine_cur, region, R2, Some(&cc), Some(&fc));
        TrilinearInterp.interp(&coarse, &mut fine_tri, region, R2, None, None);
        let mut max_cur: f64 = 0.0;
        let mut max_tri: f64 = 0.0;
        for p in region.cells() {
            let expect = fc.get(p, 0); // f(x) = x
            max_cur = max_cur.max((fine_cur.get(p, 0) - expect).abs());
            max_tri = max_tri.max((fine_tri.get(p, 0) - expect).abs());
        }
        assert!(max_cur < 1e-12, "curvilinear error {max_cur}");
        assert!(max_tri > 1e-3, "trilinear should err on stretched grids");
    }

    #[test]
    fn blend_stencil_matches_the_per_cell_reference_bitwise() {
        // Stretched in every direction, three components of unrelated data,
        // a region that is neither aligned to the ratio nor one row.
        let cbx = IndexBox::new(IntVect::new(-3, -2, -2), IntVect::new(6, 5, 4));
        let xmap = |i: f64, d: usize| (i + 3.5).powf(1.0 + 0.25 * d as f64) + 0.1 * i;
        let mut coarse = FArrayBox::new(cbx, 3);
        let mut cc = FArrayBox::new(cbx, 3);
        for p in cbx.cells() {
            for d in 0..3 {
                cc.set(p, d, xmap(p[d] as f64, d));
                let v = ((p[0] * 31 + p[1] * 17 + p[2] * 7 + d as i64 * 3) as f64 * 0.37).sin();
                coarse.set(p, d, v);
            }
        }
        let region = IndexBox::new(IntVect::new(-3, -1, 0), IntVect::new(9, 6, 5));
        let mut fc = FArrayBox::new(region.grow(1), 3);
        for p in region.grow(1).cells() {
            for d in 0..3 {
                fc.set(p, d, xmap((p[d] as f64 + 0.5) / 2.0 - 0.5, d));
            }
        }
        let physical = BlendWeights::Physical {
            coarse: &cc,
            fine: &fc,
        };
        for weights in [BlendWeights::Index, physical] {
            let mut want = FArrayBox::filled(region.grow(1), 3, -7.0);
            reference_blend(weights, &coarse, &mut want, region, R2);
            let mut got = FArrayBox::filled(region.grow(1), 3, -7.0);
            let stencil = BlendStencil::build(weights, region, R2, cbx);
            crocco_fab::with_rw(&mut got, |rw| stencil.apply(&coarse, rw));
            let bits = |f: &FArrayBox| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            // Applied again to other data over the same box: still the blend.
            let mut other = coarse.clone();
            other.data_mut().iter_mut().for_each(|v| *v = 1.0 - *v * *v);
            reference_blend(weights, &other, &mut want, region, R2);
            crocco_fab::with_rw(&mut got, |rw| stencil.apply(&other, rw));
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn piecewise_constant_rows_match_the_per_cell_parent_lookup() {
        let cbx = IndexBox::new(IntVect::new(-2, -2, -1), IntVect::new(3, 3, 2));
        let mut coarse = FArrayBox::new(cbx, 2);
        for (n, v) in coarse.data_mut().iter_mut().enumerate() {
            *v = n as f64;
        }
        // Odd start, odd length, negative indices: rows that begin and end
        // mid-parent — at ratio 2, and at an anisotropic ratio with three
        // children per parent in x.
        let region = IndexBox::new(IntVect::new(-3, -1, 0), IntVect::new(5, 3, 3));
        for ratio in [R2, IntVect::new(3, 2, 2)] {
            let mut fine = FArrayBox::filled(region.grow(1), 2, -1.0);
            PiecewiseConstantInterp.interp(&coarse, &mut fine, region, ratio, None, None);
            for c in 0..2 {
                for p in region.grow(1).cells() {
                    let want =
                        if region.contains(p) { coarse.get(p.coarsen(ratio), c) } else { -1.0 };
                    assert_eq!(fine.get(p, c).to_bits(), want.to_bits(), "{ratio:?} {p:?} comp {c}");
                }
            }
        }
    }

    #[test]
    fn conservative_preserves_cell_means() {
        let cbx = IndexBox::new(IntVect::new(-1, -1, -1), IntVect::new(4, 4, 4));
        let mut coarse = FArrayBox::new(cbx, 1);
        // Nontrivial smooth-ish data.
        for p in cbx.cells() {
            let v = (p[0] as f64 * 0.7).sin() + 0.3 * p[1] as f64 - 0.1 * (p[2] as f64).powi(2);
            coarse.set(p, 0, v);
        }
        let cregion = IndexBox::from_extents(4, 4, 4);
        let fregion = cregion.refine(R2);
        let mut fine = FArrayBox::new(fregion, 1);
        ConservativeLinearInterp.interp(&coarse, &mut fine, fregion, R2, None, None);
        for cp in cregion.cells() {
            let children = IndexBox::new(cp, cp).refine(R2);
            let mean: f64 =
                children.cells().map(|p| fine.get(p, 0)).sum::<f64>() / children.num_points() as f64;
            assert!(
                (mean - coarse.get(cp, 0)).abs() < 1e-13,
                "conservation violated at {cp:?}"
            );
        }
    }

    #[test]
    fn conservative_limiter_keeps_new_extrema_bounded() {
        // Around a discontinuity the limited interpolant must not create
        // values outside the local coarse range.
        let cbx = IndexBox::new(IntVect::new(-1, -1, -1), IntVect::new(4, 4, 4));
        let mut coarse = FArrayBox::new(cbx, 1);
        for p in cbx.cells() {
            coarse.set(p, 0, if p[0] < 2 { 0.0 } else { 10.0 });
        }
        let cregion = IndexBox::from_extents(4, 4, 4);
        let fregion = cregion.refine(R2);
        let mut fine = FArrayBox::new(fregion, 1);
        ConservativeLinearInterp.interp(&coarse, &mut fine, fregion, R2, None, None);
        for p in fregion.cells() {
            let v = fine.get(p, 0);
            assert!((-1e-12..=10.0 + 1e-12).contains(&v), "overshoot {v} at {p:?}");
        }
    }

    #[test]
    fn ghost_requirements_reported() {
        assert_eq!(PiecewiseConstantInterp.coarse_ghost(), 0);
        assert_eq!(TrilinearInterp.coarse_ghost(), 1);
        assert!(CurvilinearInterp.needs_coords());
        assert!(!TrilinearInterp.needs_coords());
    }
}

#[cfg(test)]
mod weno_interp_tests {
    use super::*;

    const R2: IntVect = IntVect([2, 2, 2]);

    #[test]
    fn weno_conservative_preserves_cell_means() {
        let cbx = IndexBox::new(IntVect::new(-1, -1, -1), IntVect::new(4, 4, 4));
        let mut coarse = FArrayBox::new(cbx, 1);
        for p in cbx.cells() {
            let v = (0.9 * p[0] as f64).sin() - 0.4 * p[1] as f64 + 0.2 * (p[2] * p[2]) as f64;
            coarse.set(p, 0, v);
        }
        let cregion = IndexBox::from_extents(4, 4, 4);
        let fregion = cregion.refine(R2);
        let mut fine = FArrayBox::new(fregion, 1);
        WenoConservativeInterp.interp(&coarse, &mut fine, fregion, R2, None, None);
        for cp in cregion.cells() {
            let children = IndexBox::new(cp, cp).refine(R2);
            let mean: f64 =
                children.cells().map(|p| fine.get(p, 0)).sum::<f64>() / 8.0;
            assert!(
                (mean - coarse.get(cp, 0)).abs() < 1e-13,
                "mean violated at {cp:?}: {mean} vs {}",
                coarse.get(cp, 0)
            );
        }
    }

    #[test]
    fn weno_conservative_exact_on_linear_fields() {
        let cbx = IndexBox::new(IntVect::new(-1, -1, -1), IntVect::new(4, 4, 4));
        let mut coarse = FArrayBox::new(cbx, 1);
        let f = |x: f64, y: f64, z: f64| 2.0 + 3.0 * x - 1.0 * y + 0.5 * z;
        for p in cbx.cells() {
            coarse.set(p, 0, f(p[0] as f64, p[1] as f64, p[2] as f64));
        }
        let cregion = IndexBox::from_extents(4, 4, 4);
        let fregion = cregion.refine(R2);
        let mut fine = FArrayBox::new(fregion, 1);
        WenoConservativeInterp.interp(&coarse, &mut fine, fregion, R2, None, None);
        for p in fregion.cells() {
            // Fine cell-average of a linear function = value at fine center,
            // expressed in coarse index coordinates.
            let expect = f(
                (p[0] as f64 + 0.5) / 2.0 - 0.5,
                (p[1] as f64 + 0.5) / 2.0 - 0.5,
                (p[2] as f64 + 0.5) / 2.0 - 0.5,
            );
            assert!(
                (fine.get(p, 0) - expect).abs() < 1e-12,
                "at {p:?}: {} vs {expect}",
                fine.get(p, 0)
            );
        }
    }

    #[test]
    fn weno_conservative_damps_slope_at_jumps() {
        // At a discontinuity the nonlinear weights pick the smooth side, so
        // the children spread stays well below the unlimited parabolic one.
        let vals = [1.0, 1.0, 10.0];
        let mut out = Vec::new();
        WenoConservativeInterp::split_pencil(&vals, &mut out);
        assert_eq!(out.len(), 2);
        // Mean preserved.
        assert!((out[0] + out[1] - 2.0 * vals[1]).abs() < 1e-13);
        // Slope collapses toward the smooth (left, zero) difference.
        assert!((out[1] - out[0]).abs() < 0.1, "spread {}", out[1] - out[0]);
    }

    #[test]
    fn weno_conservative_constant_is_exact() {
        let cbx = IndexBox::new(IntVect::new(-1, -1, -1), IntVect::new(2, 2, 2));
        let coarse = FArrayBox::filled(cbx, 2, 4.25);
        let fregion = IndexBox::from_extents(2, 2, 2).refine(R2);
        let mut fine = FArrayBox::new(fregion, 2);
        WenoConservativeInterp.interp(&coarse, &mut fine, fregion, R2, None, None);
        assert!(fine.data().iter().all(|&v| (v - 4.25).abs() < 1e-13));
    }
}
