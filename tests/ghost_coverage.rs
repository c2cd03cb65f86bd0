//! Ghost coverage: every ghost cell an RK stage's kernels read is produced
//! exactly once, and no producer writes a ghost they do not read.
//!
//! The stage fills the footprint the kernels' stencil table yields
//! (`SolverConfig::ghost_footprint`): the face slabs for the WENO sweeps, the
//! full shell when the viscous/LES operator or the V1_0 reference kernels
//! run. Three producers write it — the same-level `FillBoundary` chunks
//! (periodic images included), the two-level gather's interpolated `needed`
//! regions, and the physical boundary's regions. For random layouts
//! (periodic and walled domains, one and two levels, 1/2/4-rank
//! distributions) this suite checks that their union covers
//! `footprint − valid` of every patch exactly once, and that the read box of
//! every sweep direction of every kernel in the table lies inside the
//! footprint. A mutation case drops one chunk and expects the check to fail.

use crocco::amr::fillpatch::resolve_two_level_plans;
use crocco::amr::interp::PiecewiseConstantInterp;
use crocco::fab::plan::fill_boundary_plan_over;
use crocco::fab::{BoxArray, CopyPlan, DistributionMapping, DistributionStrategy, GhostFootprint, MultiFab};
use crocco::geometry::decompose::ChopParams;
use crocco::geometry::{IndexBox, IntVect, ProblemDomain};
use crocco::solver::bc::boundary_regions;
use crocco::solver::kernels::{ghost_footprint, StageKernel, NGHOST};
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel sets a stage can run, each with the footprint the table
/// yields for it.
fn kernel_sets() -> Vec<(Vec<StageKernel>, GhostFootprint)> {
    [
        vec![StageKernel::Weno],
        vec![StageKernel::Weno, StageKernel::Viscous],
        vec![StageKernel::Reference],
    ]
    .into_iter()
    .map(|set| {
        let ghosts = ghost_footprint(&set);
        (set, ghosts)
    })
    .collect()
}

/// A small xorshift generator: layouts are reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random level pair: a coarse level decomposed over the whole domain
/// and a fine level made of random 4³-coarse-cell blocks (refined), so fine
/// patches meet each other, the domain faces and the periodic seams.
struct Layout {
    cdomain: ProblemDomain,
    fdomain: ProblemDomain,
    coarse: Arc<BoxArray>,
    fine: Arc<BoxArray>,
}

fn layout(seed: u64, periodic: [bool; 3]) -> Layout {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let cbx = IndexBox::from_extents(24, 16, 16);
    let cdomain = ProblemDomain::new(cbx, periodic);
    let max = [8, 16][rng.below(2) as usize];
    let coarse = Arc::new(BoxArray::decompose(cbx, ChopParams::new(4, max)));
    let mut blocks = Vec::new();
    for b in IndexBox::from_extents(6, 4, 4).cells() {
        if rng.below(10) < 3 {
            let lo = IntVect::new(4 * b[0], 4 * b[1], 4 * b[2]);
            blocks.push(IndexBox::new(lo, lo + IntVect::splat(3)).refine(IntVect::splat(2)));
        }
    }
    if blocks.is_empty() {
        blocks.push(IndexBox::new(IntVect::splat(8), IntVect::splat(15)));
    }
    Layout {
        cdomain,
        fdomain: ProblemDomain::new(cbx.refine(IntVect::splat(2)), periodic),
        coarse,
        fine: Arc::new(BoxArray::new(blocks)),
    }
}

/// Checks that `writes` (the regions every producer writes into the ghosts
/// of the patch over `valid`) cover `ghosts` around it exactly once and
/// touch nothing else.
fn check_patch(
    valid: IndexBox,
    ghosts: GhostFootprint,
    writes: impl IntoIterator<Item = IndexBox>,
) -> Result<(), String> {
    let mut count: HashMap<IntVect, u32> = HashMap::new();
    for region in writes {
        for p in region.cells() {
            if !ghosts.contains(valid, p) {
                return Err(format!("{valid:?}: {p:?} written outside the {ghosts:?} footprint"));
            }
            *count.entry(p).or_default() += 1;
        }
    }
    for region in ghosts.regions(valid) {
        for p in region.cells() {
            match count.get(&p).copied().unwrap_or(0) {
                1 => {}
                n => return Err(format!("{valid:?}: ghost {p:?} written {n} times")),
            }
        }
    }
    Ok(())
}

/// Coverage of one level: its same-level plan, the two-level `needed`
/// regions of each patch (refined levels), and the boundary regions.
fn check_level(
    ba: &BoxArray,
    domain: &ProblemDomain,
    ghosts: GhostFootprint,
    plan: &CopyPlan,
    needed: &dyn Fn(usize) -> Vec<IndexBox>,
) -> Result<(), String> {
    for i in 0..ba.len() {
        let valid = ba.get(i);
        let chunks = plan.chunks.iter().filter(|c| c.dst_id == i).map(|c| c.region);
        let writes = chunks.chain(needed(i)).chain(boundary_regions(valid, ghosts, domain));
        check_patch(valid, ghosts, writes)?;
    }
    Ok(())
}

/// Both levels of `lay` under footprint `ghosts` on `nranks` ranks: the
/// plans are built exactly as the stage builds them.
fn check_layout(lay: &Layout, ghosts: GhostFootprint, nranks: usize) -> Result<(), String> {
    let strategy = DistributionStrategy::MortonSfc;
    let cdm = Arc::new(DistributionMapping::new(&lay.coarse, nranks, strategy));
    let fdm = Arc::new(DistributionMapping::new(&lay.fine, nranks, strategy));
    let cplan = fill_boundary_plan_over(&lay.coarse, &cdm, &lay.cdomain, ghosts, 1);
    check_level(&lay.coarse, &lay.cdomain, ghosts, &cplan, &|_| Vec::new())?;

    let coarse = MultiFab::new(lay.coarse.clone(), cdm, 1, NGHOST);
    let fine = MultiFab::new(lay.fine.clone(), fdm.clone(), 1, NGHOST);
    let interp = PiecewiseConstantInterp;
    let plans = resolve_two_level_plans(
        &fine,
        &coarse,
        &lay.fdomain,
        &lay.cdomain,
        ghosts,
        IntVect::splat(2),
        &interp,
        None,
        None,
        None,
    );
    let fplan = fill_boundary_plan_over(&lay.fine, &fdm, &lay.fdomain, ghosts, 1);
    check_level(&lay.fine, &lay.fdomain, ghosts, &fplan, &|i| plans.state.needed(i).to_vec())
}

const PERIODICITIES: [[bool; 3]; 3] = [[true; 3], [false; 3], [true, false, true]];

#[test]
fn producers_cover_every_footprint_exactly_once() {
    for seed in 0..3 {
        for periodic in PERIODICITIES {
            let lay = layout(seed, periodic);
            for (set, ghosts) in kernel_sets() {
                for nranks in [1, 2, 4] {
                    if let Err(e) = check_layout(&lay, ghosts, nranks) {
                        panic!("seed {seed} {periodic:?} {set:?} {nranks} ranks: {e}");
                    }
                }
            }
        }
    }
}

/// The WENO-only stage fills face slabs 3 deep; viscous/LES and the
/// reference kernels the full 4-deep shell.
#[test]
fn the_stencil_table_yields_faces_for_weno_and_the_shell_otherwise() {
    let footprints: Vec<GhostFootprint> = kernel_sets().into_iter().map(|(_, g)| g).collect();
    assert_eq!(
        footprints,
        [GhostFootprint::Faces(3), GhostFootprint::Shell(NGHOST), GhostFootprint::Shell(NGHOST)]
    );
}

/// Every sweep direction of every kernel in a set reads inside the
/// footprint that set fills — checked cell by cell, on patches of several
/// shapes.
#[test]
fn every_sweep_reads_inside_its_footprint() {
    let patches = [
        IndexBox::from_extents(8, 8, 8),
        IndexBox::new(IntVect::new(-4, 12, 3), IntVect::new(7, 15, 14)),
        IndexBox::from_extents(1, 5, 2),
    ];
    for (set, ghosts) in kernel_sets() {
        for &valid in &patches {
            for kernel in &set {
                for dir in 0..3 {
                    let read = kernel.reach().read_box(valid, dir);
                    for p in read.cells().filter(|p| !valid.contains(*p)) {
                        assert!(
                            ghosts.contains(valid, p),
                            "{kernel:?} dir {dir} reads {p:?} outside {ghosts:?} of {valid:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The mutation case: a same-level plan with one chunk dropped leaves
/// ghosts unwritten, and the check names them.
#[test]
fn dropping_one_chunk_fails_the_coverage_check() {
    let lay = layout(1, [true; 3]);
    let dm = DistributionMapping::new(&lay.coarse, 2, DistributionStrategy::MortonSfc);
    for (_, ghosts) in kernel_sets() {
        let mut plan = fill_boundary_plan_over(&lay.coarse, &dm, &lay.cdomain, ghosts, 1);
        assert!(check_level(&lay.coarse, &lay.cdomain, ghosts, &plan, &|_| Vec::new()).is_ok());
        let dropped = plan.chunks.remove(plan.chunks.len() / 2);
        let err = check_level(&lay.coarse, &lay.cdomain, ghosts, &plan, &|_| Vec::new())
            .expect_err("a dropped chunk must leave ghosts uncovered");
        assert!(err.contains("written 0 times"), "{err}");
        assert!(dropped.region.num_points() > 0);
    }
}
