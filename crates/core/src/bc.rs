//! Physical boundary conditions (the paper's custom `BC_Fill` kernel,
//! Algorithm 2 line 4).

use crate::eos::PerfectGas;
use crate::problems::{dmr, dmr_post_shock, dmr_pre_shock, ramp_inflow, ProblemKind};
use crate::state::{cons, Conserved, NCONS};
use crocco_amr::BoundaryFiller;
use crocco_fab::boxarray::subtract_box;
use crocco_fab::{FabRw, GhostFootprint};
use crocco_geometry::{GridMapping, IndexBox, IntVect, ProblemDomain, RealVect};
use std::sync::Arc;

/// Per-problem physical boundary filler for one AMR level.
///
/// Holds the level's extents and mapping so ghost-cell physical positions can
/// be reconstructed for position-dependent conditions (the DMR's mixed
/// wall/post-shock bottom boundary and time-dependent top boundary).
pub struct PhysicalBc {
    problem: ProblemKind,
    /// Cells per direction at this level.
    extents: IntVect,
    mapping: Arc<dyn GridMapping>,
    /// The constant boundary states and wall geometry of the problems,
    /// evaluated once here instead of once per ghost cell.
    dmr_post: Conserved,
    dmr_pre: Conserved,
    ramp_in: Conserved,
    /// x-station of the ramp corner and the unit normal of the inclined wall
    /// beyond it.
    ramp_corner_x: f64,
    ramp_normal: [f64; 3],
}

impl PhysicalBc {
    /// Creates the filler for one level.
    pub fn new(problem: ProblemKind, gas: PerfectGas, extents: IntVect) -> Self {
        let ramp = crocco_geometry::RampMapping::paper_dmr();
        let th = ramp.ramp_angle;
        PhysicalBc {
            problem,
            extents,
            mapping: problem.mapping(),
            dmr_post: Conserved::from_primitive(&dmr_post_shock(), &gas),
            dmr_pre: Conserved::from_primitive(&dmr_pre_shock(), &gas),
            ramp_in: Conserved::from_primitive(&ramp_inflow(), &gas),
            ramp_corner_x: ramp.corner_x,
            ramp_normal: [-th.sin(), th.cos(), 0.0],
        }
    }

    /// Physical position of cell center `p` at this level.
    fn xphys(&self, p: IntVect) -> RealVect {
        self.mapping.coords(RealVect::new(
            (p[0] as f64 + 0.5) / self.extents[0] as f64,
            (p[1] as f64 + 0.5) / self.extents[1] as f64,
            (p[2] as f64 + 0.5) / self.extents[2] as f64,
        ))
    }
}

/// Copies the conserved state from `src` into `dst` at `p`.
fn set_state(fab: &mut FabRw<'_>, p: IntVect, u: &Conserved) {
    for c in 0..NCONS {
        fab.set(p, c, u.0[c]);
    }
}

/// Zeroth-order extrapolation: ghost takes the nearest interior cell's state.
fn outflow(fab: &mut FabRw<'_>, p: IntVect, interior: IntVect) {
    for c in 0..NCONS {
        let v = fab.get(interior, c);
        fab.set(p, c, v);
    }
}

/// Reflecting slip wall across direction `dir`: mirror the interior cell and
/// negate the normal momentum.
fn slip_wall(fab: &mut FabRw<'_>, p: IntVect, mirror: IntVect, dir: usize) {
    for c in 0..NCONS {
        let mut v = fab.get(mirror, c);
        if c == cons::MX + dir {
            v = -v;
        }
        fab.set(p, c, v);
    }
}

/// Slip wall on an *inclined* surface: mirror the interior cell in
/// computational space (the grid is wall-fitted) and reflect the momentum
/// vector about the physical wall plane with unit normal `n`:
/// `m' = m − 2(m·n)n`. This is what makes a uniform stream feel the ramp.
fn slip_wall_inclined(fab: &mut FabRw<'_>, p: IntVect, mirror: IntVect, n: [f64; 3]) {
    let m = [
        fab.get(mirror, cons::MX),
        fab.get(mirror, cons::MY),
        fab.get(mirror, cons::MZ),
    ];
    let mn = m[0] * n[0] + m[1] * n[1] + m[2] * n[2];
    fab.set(p, cons::RHO, fab.get(mirror, cons::RHO));
    fab.set(p, cons::MX, m[0] - 2.0 * mn * n[0]);
    fab.set(p, cons::MY, m[1] - 2.0 * mn * n[1]);
    fab.set(p, cons::MZ, m[2] - 2.0 * mn * n[2]);
    fab.set(p, cons::ENER, fab.get(mirror, cons::ENER));
}

/// Clamps `p` to the nearest cell inside `bx` (used to find the interior
/// neighbor of a ghost cell).
fn clamp_into(p: IntVect, bx: IndexBox) -> IntVect {
    let mut q = p;
    for d in 0..3 {
        q[d] = q[d].clamp(bx.lo()[d], bx.hi()[d]);
    }
    q
}

/// Mirror image of ghost `p` across the face of `domain` it sits beyond in
/// direction `dir`.
fn mirror_across(p: IntVect, domain: IndexBox, dir: usize) -> IntVect {
    let mut q = p;
    if p[dir] < domain.lo()[dir] {
        q[dir] = 2 * domain.lo()[dir] - 1 - p[dir];
    } else {
        q[dir] = 2 * domain.hi()[dir] + 1 - p[dir];
    }
    q
}

impl PhysicalBc {
    /// Fills one ghost cell `p` of `fab` lying outside `domain` in a
    /// non-periodic direction.
    fn fill_cell(&self, fab: &mut FabRw<'_>, p: IntVect, domain: &ProblemDomain, time: f64) {
        let (gbox, dbx) = (fab.bx(), domain.bx);
        let outside_dirs = Self::outside_dirs(p, domain);
        match self.problem {
            ProblemKind::SodX => {
                // Outflow on both x faces.
                outflow(fab, p, clamp_into(p, dbx));
            }
            ProblemKind::IsentropicVortex => {
                // Fully periodic: nothing to do (defensive outflow).
                outflow(fab, p, clamp_into(p, dbx));
            }
            ProblemKind::DoubleMach => {
                let x = self.xphys(p);
                if outside_dirs[0] {
                    if p[0] < dbx.lo()[0] {
                        // Left: post-shock inflow.
                        set_state(fab, p, &self.dmr_post);
                    } else {
                        // Right: outflow.
                        outflow(fab, p, clamp_into(p, dbx));
                    }
                } else if outside_dirs[1] {
                    if p[1] < dbx.lo()[1] {
                        // Bottom: post-shock upstream of x₀, reflecting
                        // wall downstream (the ramp surface).
                        if x[0] < dmr::X0 {
                            set_state(fab, p, &self.dmr_post);
                        } else {
                            let m = mirror_across(p, dbx, 1);
                            slip_wall(fab, p, clamp_into(m, gbox), 1);
                        }
                    } else {
                        // Top: exact shock position at this time.
                        let u = if x[0] < dmr::shock_x(x[1].min(1.0), time) {
                            &self.dmr_post
                        } else {
                            &self.dmr_pre
                        };
                        set_state(fab, p, u);
                    }
                }
            }
            ProblemKind::Ramp => {
                if outside_dirs[0] && p[0] < dbx.lo()[0] {
                    set_state(fab, p, &self.ramp_in);
                } else if outside_dirs[1] && p[1] < dbx.lo()[1] {
                    // Ramp surface: slip wall with the *local* physical
                    // wall normal — flat upstream of the corner, tilted
                    // by the ramp angle beyond it.
                    let n = if self.xphys(p)[0] <= self.ramp_corner_x {
                        [0.0, 1.0, 0.0]
                    } else {
                        self.ramp_normal
                    };
                    let m = mirror_across(p, dbx, 1);
                    slip_wall_inclined(fab, p, clamp_into(m, gbox), n);
                } else {
                    outflow(fab, p, clamp_into(p, dbx));
                }
            }
        }
    }

    /// Which non-periodic directions `p` lies outside the domain in.
    fn outside_dirs(p: IntVect, domain: &ProblemDomain) -> [bool; 3] {
        std::array::from_fn(|d| {
            !domain.periodic[d] && (p[d] < domain.bx.lo()[d] || p[d] > domain.bx.hi()[d])
        })
    }
}

/// The cells of `gbox` outside `domain` in a non-periodic direction — the
/// physical boundary's, as disjoint slabs. FillBoundary and interpolation
/// own the rest: the domain, through its periodic faces as far as `gbox`
/// reaches. Empty for a box that touches no physical face.
fn outside_slabs(gbox: IndexBox, domain: &ProblemDomain) -> Vec<IndexBox> {
    let (mut lo, mut hi) = (domain.bx.lo(), domain.bx.hi());
    for d in 0..3 {
        if domain.periodic[d] {
            lo[d] = lo[d].min(gbox.lo()[d]);
            hi[d] = hi[d].max(gbox.hi()[d]);
        }
    }
    let mut slabs = Vec::new();
    subtract_box(gbox, IndexBox::new(lo, hi), &mut slabs);
    slabs
}

/// The ghost cells of footprint `ghosts` around `valid` that the physical
/// boundary owns, as disjoint boxes in the order
/// [`PhysicalBc::fill_footprint`] visits them: each outside slab, cut to the
/// footprint.
pub fn boundary_regions(
    valid: IndexBox,
    ghosts: GhostFootprint,
    domain: &ProblemDomain,
) -> Vec<IndexBox> {
    let gbox = valid.grow(ghosts.depth());
    let within = match ghosts {
        GhostFootprint::Shell(_) => vec![gbox],
        GhostFootprint::Faces(_) => ghosts.regions(valid),
    };
    outside_slabs(gbox, domain)
        .into_iter()
        .flat_map(|slab| within.iter().map(move |w| slab.intersection(w)))
        .filter(|r| !r.is_empty())
        .collect()
}

// Almost every ghost a fill writes reads inside-domain cells only, so the
// visit order is free — except at the ramp's wall: the wall ghosts at an
// outflow corner mirror cells that are outflow ghosts of the same pass, and
// take their values from *before* it (the mirror cell `m` of a wall ghost
// `p` has the same x and z and a larger y). `subtract_box` keeps `p` ahead
// of `m`: x-slabs come first and span the box in y and z, so both cells
// share a slab and its x-fastest order; a wall ghost inside the domain in x
// sits in a y-slab, ahead of the z-slab of its mirror. A face footprint has
// no such pair: each of its ghosts lies outside the domain across one face
// only, and its mirror or nearest interior cell is a valid cell.
impl PhysicalBc {
    /// [`fill_view`](BoundaryFiller::fill_view) restricted to the ghost
    /// cells of `ghosts` around `valid` ([`boundary_regions`]): what an RK
    /// stage's halo task writes. A footprint ghost gets bitwise the value
    /// the full-fab fill gives it.
    pub fn fill_footprint(
        &self,
        fab: &mut FabRw<'_>,
        valid: IndexBox,
        ghosts: GhostFootprint,
        domain: &ProblemDomain,
        time: f64,
    ) {
        for region in boundary_regions(valid, ghosts, domain) {
            for p in region.cells() {
                self.fill_cell(fab, p, domain, time);
            }
        }
    }
}

impl BoundaryFiller for PhysicalBc {
    fn fill_view(&self, fab: &mut FabRw<'_>, _valid: IndexBox, domain: &ProblemDomain, time: f64) {
        for slab in outside_slabs(fab.bx(), domain) {
            for p in slab.cells() {
                self.fill_cell(fab, p, domain, time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Primitive;
    use crocco_fab::FArrayBox;

    fn fill_interior(fab: &mut FArrayBox, valid: IndexBox, gas: &PerfectGas) {
        let w = Primitive {
            rho: 2.0,
            vel: [1.0, -0.5, 0.25],
            p: 3.0,
            t: 0.0,
        };
        let u = Conserved::from_primitive(&w, gas);
        crocco_fab::with_rw(fab, |rw| {
            for p in valid.cells() {
                set_state(rw, p, &u);
            }
        });
    }

    /// The loop `fill_view` replaced — every cell of the fab scanned for the
    /// outside ones — kept as its oracle.
    fn fill_full_scan(bc: &PhysicalBc, fab: &mut FArrayBox, domain: &ProblemDomain, time: f64) {
        crocco_fab::with_rw(fab, |rw| {
            for p in rw.bx().cells() {
                if PhysicalBc::outside_dirs(p, domain) != [false; 3] {
                    bc.fill_cell(rw, p, domain, time);
                }
            }
        });
    }

    /// Slab fill ≡ full scan, bitwise, on every cell of the fab: all four
    /// problems, with their own periodicity and with none, a patch on every
    /// face, edge and corner of the domain (and the one touching nothing),
    /// plus a fab that overhangs the whole domain the way a coarse temporary
    /// does. Ghosts start as unrelated values, so a ghost that reads another
    /// ghost sees the visit order; cells the boundary does not own must come
    /// through untouched.
    #[test]
    fn slab_fill_bitwise_matches_the_full_scan() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(12, 12, 12);
        let dbx = IndexBox::from_extents(12, 12, 12);
        let ng = crate::kernels::NGHOST;
        let mut boxes = vec![dbx.grow(2)];
        for corner in IndexBox::from_extents(3, 3, 3).cells() {
            let lo = IntVect::new(4 * corner[0], 4 * corner[1], 4 * corner[2]);
            boxes.push(IndexBox::new(lo, lo + IntVect::splat(3)).grow(ng));
        }
        for problem in [
            ProblemKind::SodX,
            ProblemKind::IsentropicVortex,
            ProblemKind::DoubleMach,
            ProblemKind::Ramp,
        ] {
            let bc = PhysicalBc::new(problem, gas, extents);
            for periodic in [problem.periodicity(), [false; 3]] {
                let domain = ProblemDomain::new(dbx, periodic);
                let mut total = 0;
                for &bx in &boxes {
                    let mut before = FArrayBox::new(bx, NCONS);
                    for (n, v) in before.data_mut().iter_mut().enumerate() {
                        *v = 1.0 + (n as f64 * 0.7548776662).fract();
                    }
                    let (mut slabs, mut scan) = (before.clone(), before.clone());
                    bc.fill(&mut slabs, bx.intersection(&dbx), &domain, 0.03);
                    fill_full_scan(&bc, &mut scan, &domain, 0.03);
                    let bits = |f: &FArrayBox| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&slabs) == bits(&scan), "{problem:?} {periodic:?} {bx:?}");
                    let mut written = 0;
                    for p in bx.cells() {
                        let owned = PhysicalBc::outside_dirs(p, &domain) != [false; 3];
                        for c in 0..NCONS {
                            if slabs.get(p, c).to_bits() != before.get(p, c).to_bits() {
                                assert!(owned, "{problem:?} {periodic:?}: wrote inside cell {p:?}");
                                written += 1;
                            }
                        }
                    }
                    total += written;
                }
                assert_eq!(total > 0, periodic != [true; 3], "{problem:?} {periodic:?}");
            }
        }
    }

    /// A footprint fill writes exactly the footprint's outside-domain
    /// ghosts, each bitwise what the full-fab fill writes there, and leaves
    /// every other cell — edges and corners of a face footprint included —
    /// untouched: for every problem, with and without its periodicity, on a
    /// patch at every face, edge and corner of the domain.
    #[test]
    fn footprint_fill_is_the_full_fill_on_the_footprint_only() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(12, 12, 12);
        let dbx = IndexBox::from_extents(12, 12, 12);
        let ng = crate::kernels::NGHOST;
        for problem in [
            ProblemKind::SodX,
            ProblemKind::IsentropicVortex,
            ProblemKind::DoubleMach,
            ProblemKind::Ramp,
        ] {
            let bc = PhysicalBc::new(problem, gas, extents);
            for periodic in [problem.periodicity(), [false; 3]] {
                let domain = ProblemDomain::new(dbx, periodic);
                for corner in IndexBox::from_extents(3, 3, 3).cells() {
                    let lo = IntVect::new(4 * corner[0], 4 * corner[1], 4 * corner[2]);
                    let valid = IndexBox::new(lo, lo + IntVect::splat(3));
                    let mut before = FArrayBox::new(valid.grow(ng), NCONS);
                    for (n, v) in before.data_mut().iter_mut().enumerate() {
                        *v = 1.0 + (n as f64 * 0.7548776662).fract();
                    }
                    let mut full = before.clone();
                    bc.fill(&mut full, valid, &domain, 0.03);
                    for ghosts in [GhostFootprint::Faces(3), GhostFootprint::Shell(ng)] {
                        let mut got = before.clone();
                        crocco_fab::with_rw(&mut got, |rw| {
                            bc.fill_footprint(rw, valid, ghosts, &domain, 0.03)
                        });
                        for p in before.bx().cells() {
                            let want = if ghosts.contains(valid, p) { &full } else { &before };
                            for c in 0..NCONS {
                                assert_eq!(
                                    got.get(p, c).to_bits(),
                                    want.get(p, c).to_bits(),
                                    "{problem:?} {periodic:?} {ghosts:?} {valid:?} {p:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sod_outflow_extrapolates() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(8, 4, 4);
        let domain = ProblemDomain::new(IndexBox::from_extents(8, 4, 4), [false, true, true]);
        let valid = domain.bx;
        let mut fab = FArrayBox::new(valid.grow(2), NCONS);
        fill_interior(&mut fab, valid, &gas);
        let bc = PhysicalBc::new(ProblemKind::SodX, gas, extents);
        bc.fill(&mut fab, valid, &domain, 0.0);
        // Left ghosts copy the first interior cell.
        let g = IntVect::new(-1, 2, 2);
        let i = IntVect::new(0, 2, 2);
        for c in 0..NCONS {
            assert_eq!(fab.get(g, c), fab.get(i, c), "comp {c}");
        }
        // Periodic y ghosts untouched (still zero).
        assert_eq!(fab.get(IntVect::new(2, -1, 2), cons::RHO), 0.0);
    }

    #[test]
    fn dmr_left_inflow_is_post_shock() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(32, 8, 4);
        let domain = ProblemDomain::new(IndexBox::from_extents(32, 8, 4), [false, false, true]);
        let valid = domain.bx;
        let mut fab = FArrayBox::new(valid.grow(2), NCONS);
        fill_interior(&mut fab, valid, &gas);
        let bc = PhysicalBc::new(ProblemKind::DoubleMach, gas, extents);
        bc.fill(&mut fab, valid, &domain, 0.0);
        let g = IntVect::new(-1, 4, 2);
        let expect = Conserved::from_primitive(&dmr_post_shock(), &gas);
        for c in 0..NCONS {
            assert!((fab.get(g, c) - expect.0[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn dmr_bottom_wall_reflects_normal_momentum() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(32, 8, 4);
        let domain = ProblemDomain::new(IndexBox::from_extents(32, 8, 4), [false, false, true]);
        let valid = domain.bx;
        let mut fab = FArrayBox::new(valid.grow(2), NCONS);
        fill_interior(&mut fab, valid, &gas);
        let bc = PhysicalBc::new(ProblemKind::DoubleMach, gas, extents);
        bc.fill(&mut fab, valid, &domain, 0.0);
        // Bottom ghost beyond x0 (x = 4·(20.5/32) ≈ 2.56 > 1/6): wall.
        let g = IntVect::new(20, -1, 2);
        let m = IntVect::new(20, 0, 2);
        assert_eq!(fab.get(g, cons::RHO), fab.get(m, cons::RHO));
        assert_eq!(fab.get(g, cons::MY), -fab.get(m, cons::MY));
        assert_eq!(fab.get(g, cons::MX), fab.get(m, cons::MX));
        // Bottom ghost before x0 (x = 4·(0.5/32) = 0.0625 < 1/6): post-shock.
        let g2 = IntVect::new(0, -1, 2);
        let expect = Conserved::from_primitive(&dmr_post_shock(), &gas);
        assert!((fab.get(g2, cons::RHO) - expect.0[cons::RHO]).abs() < 1e-12);
    }

    #[test]
    fn dmr_top_boundary_tracks_the_shock_in_time() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(32, 8, 4);
        let domain = ProblemDomain::new(IndexBox::from_extents(32, 8, 4), [false, false, true]);
        let valid = domain.bx;
        let bc = PhysicalBc::new(ProblemKind::DoubleMach, gas, extents);

        let probe = |t: f64| {
            let mut fab = FArrayBox::new(valid.grow(2), NCONS);
            fill_interior(&mut fab, valid, &gas);
            bc.fill(&mut fab, valid, &domain, t);
            // Count post-shock ghost cells along the top row (z = 2).
            let mut count = 0;
            for i in 0..32 {
                let g = IntVect::new(i, 8, 2);
                if (fab.get(g, cons::RHO) - 8.0).abs() < 1e-9 {
                    count += 1;
                }
            }
            count
        };
        let c0 = probe(0.0);
        let c1 = probe(0.05);
        assert!(c1 > c0, "shock must sweep right along the top: {c0} -> {c1}");
        assert!(c0 > 0, "part of the top starts post-shock");
    }

    #[test]
    fn ramp_wall_and_inflow() {
        let gas = PerfectGas::nondimensional();
        let extents = IntVect::new(32, 16, 4);
        let domain = ProblemDomain::new(IndexBox::from_extents(32, 16, 4), [false, false, true]);
        let valid = domain.bx;
        let mut fab = FArrayBox::new(valid.grow(2), NCONS);
        fill_interior(&mut fab, valid, &gas);
        let bc = PhysicalBc::new(ProblemKind::Ramp, gas, extents);
        bc.fill(&mut fab, valid, &domain, 0.0);
        // Inflow.
        let g = IntVect::new(-1, 8, 2);
        let expect = Conserved::from_primitive(&ramp_inflow(), &gas);
        assert!((fab.get(g, cons::MX) - expect.0[cons::MX]).abs() < 1e-12);
        // Flat wall upstream of the corner (x = 4*(4.5/32) = 0.56 < 1).
        let gw = IntVect::new(4, -1, 2);
        let mw = IntVect::new(4, 0, 2);
        assert_eq!(fab.get(gw, cons::MY), -fab.get(mw, cons::MY));
        assert_eq!(fab.get(gw, cons::MX), fab.get(mw, cons::MX));
        // Inclined wall beyond the corner: the wall-normal momentum flips
        // while the tangential momentum is preserved.
        let gi = IntVect::new(24, -1, 2);
        let mi = IntVect::new(24, 0, 2);
        let th = 30f64.to_radians();
        let n = [-th.sin(), th.cos(), 0.0];
        let mg = [fab.get(gi, cons::MX), fab.get(gi, cons::MY), 0.0];
        let mm = [fab.get(mi, cons::MX), fab.get(mi, cons::MY), 0.0];
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        assert!((dot(mg, n) + dot(mm, n)).abs() < 1e-12, "normal momentum must flip");
        let t = [th.cos(), th.sin(), 0.0];
        assert!((dot(mg, t) - dot(mm, t)).abs() < 1e-12, "tangential momentum preserved");
        // Top outflow.
        let gt = IntVect::new(16, 16, 2);
        let it = IntVect::new(16, 15, 2);
        assert_eq!(fab.get(gt, cons::RHO), fab.get(it, cons::RHO));
    }
}
