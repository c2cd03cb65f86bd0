//! `FillPatch`: ghost-cell filling within and across AMR levels.
//!
//! Adapted, as the paper's implementation is (§III-A), from AMReX's
//! `FillPatchUtil`: [`fill_patch_single_level`] handles the coarsest level
//! (same-level ghost exchange + physical boundary fill), and
//! [`fill_patch_two_levels`] additionally interpolates coarse data into fine
//! ghost cells not covered by the fine level. When the interpolator is the
//! custom curvilinear one, the coordinate MultiFab is `ParallelCopy`-ed into
//! a ghosted temporary first — the paper's global communication bottleneck.
//!
//! Everything a two-level fill derives from the grids alone lives in its
//! cached plan until the next regrid: the uncovered regions, the gather
//! chunk lists, and — for the 8-corner-blend interpolators — the per-cell
//! [`BlendStencil`]s, so the coordinates are gathered (and cross ranks)
//! once per plan and an RK stage's fill is gather + blend.

use crate::interp::{BlendKind, BlendStencil, BlendWeights, Interpolator};
use crocco_fab::plan::{CopyChunk, CopyPlan, GhostFootprint};
use crocco_fab::plan_cache::{CachedPlan, PlanCache, PlanKey, PlanOp};
use crocco_fab::{with_rw, BoxArray, DistributionMapping, FArrayBox, FabRw, MultiFab};
use crocco_fab::exchange::{exchange_chunks, unpack_chunk, Landed};
use crocco_geometry::{IndexBox, IntVect, ProblemDomain};
use crocco_runtime::cluster::CommError;
use crocco_runtime::{parallel_for_each_mut, GroupEndpoint};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Applies physical boundary conditions to one patch (the paper's custom
/// `BC_Fill` kernel).
pub trait BoundaryFiller: Send + Sync {
    /// Fills the ghost cells of `fab` that lie outside `domain` in
    /// non-periodic directions, writing through a raw view — the form the
    /// task-graph halo tasks call while other tasks concurrently read the
    /// same fab's valid cells. `valid` is the patch's valid box. The
    /// implementation must write only outside-domain ghost cells (it may
    /// read any cell of `fab`).
    fn fill_view(&self, fab: &mut FabRw<'_>, valid: IndexBox, domain: &ProblemDomain, time: f64);

    /// [`fill_view`](Self::fill_view) over an exclusively borrowed fab — the
    /// barrier path. Implementors only provide `fill_view`; call sites that
    /// hold a `&mut FArrayBox` keep using this adapter.
    fn fill(&self, fab: &mut FArrayBox, valid: IndexBox, domain: &ProblemDomain, time: f64) {
        crocco_fab::with_rw(fab, |rw| self.fill_view(rw, valid, domain, time));
    }
}

/// A boundary filler that does nothing (fully periodic problems and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpBoundary;

impl BoundaryFiller for NoOpBoundary {
    fn fill_view(
        &self,
        _fab: &mut FabRw<'_>,
        _valid: IndexBox,
        _domain: &ProblemDomain,
        _time: f64,
    ) {
    }
}

/// What a FillPatch call did — the communication record priced by the
/// Summit model in the scaling studies. Plans are shared [`CachedPlan`]s:
/// when a [`PlanCache`] is supplied they alias the cache entries (stats come
/// for free), otherwise they wrap plans built for this call only.
#[derive(Clone, Debug, Default)]
pub struct FillPatchReport {
    /// Same-level neighbor exchange (`FillBoundary`).
    pub fb_plan: Arc<CachedPlan>,
    /// Coarse→fine state gather (the state `ParallelCopy`), if two-level.
    pub pc_plan: Option<Arc<CachedPlan>>,
    /// Coordinate gather for the curvilinear interpolator, if used.
    pub coord_pc_plan: Option<Arc<CachedPlan>>,
    /// Number of fine ghost cells produced by interpolation.
    pub interpolated_cells: u64,
}

/// Execution options for FillPatch: where to memoize communication plans and
/// how many worker threads the data motion / interpolation may use.
///
/// The default (`cache: None, threads: 1`) reproduces the original serial,
/// plan-per-call behavior exactly.
#[derive(Clone, Copy, Debug)]
pub struct FillOpts<'a> {
    /// Plan memoization table (normally the hierarchy's); `None` rebuilds
    /// plans every call.
    pub cache: Option<&'a PlanCache>,
    /// Worker threads for plan execution, interpolation and BC fills.
    pub threads: usize,
}

impl Default for FillOpts<'_> {
    fn default() -> Self {
        FillOpts {
            cache: None,
            threads: 1,
        }
    }
}

/// Aux-cache tag for the two-level state-gather plan.
const AUX_TWO_LEVEL_STATE: u32 = 1;
/// Aux-cache tag for the two-level coordinate-gather plan.
const AUX_TWO_LEVEL_COORDS: u32 = 2;

/// Coarse old-time data for a time-interpolated two-level fill (subcycling,
/// docs/ARCHITECTURE.md §Subcycling): the coarse *old* state and the blend
/// factor `alpha` — the fill time's position in the coarse `[old, new]`
/// interval (0 = old state, 1 = new state). The gather scratch becomes
/// `alpha·new + (1−alpha)·old`, gathered over the **same cached chunk list**
/// as the new state, so time interpolation adds no plan-cache entries and
/// the plan keys stay valid.
#[derive(Clone, Copy)]
pub struct CoarseTimeInterp<'a> {
    /// Coarse state at the old time level (valid cells are read; ghosts are
    /// never gathered).
    pub old: &'a MultiFab,
    /// Blend factor in `[0, 1]`: `alpha = (t_fill − t_old) / (t_new − t_old)`.
    pub alpha: f64,
}

/// Landed cross-rank donor payloads of one coarse→fine gather
/// ([`TwoLevelPlans::exchange`]): [`crocco_fab::pack_chunk`] bytes
/// keyed by *global chunk index* into the state-gather plan (`state`, and
/// `old` for the time-interpolated old state) or the coordinate-gather plan
/// (`coords`). A chunk absent from its map is read from the local fab —
/// bitwise the same bytes either way — so the default (all maps empty) is
/// the single-rank gather. `coords` is `Some` only out of the one exchange
/// per plan that moved coordinates.
#[derive(Debug, Default)]
pub struct RemoteGathers {
    state: Landed,
    coords: Option<Landed>,
    old: Landed,
}

impl RemoteGathers {
    /// `true` if the exchange that produced this ran the coordinate round —
    /// the first one after the plan was built, and no other. Communication
    /// accounting counts the coordinate plan's traffic when this says so.
    pub fn gathered_coords(&self) -> bool {
        self.coords.is_some()
    }
}

/// Packs the remaining inputs the two-level planner reads into the key's
/// client bits: interpolator coarse ghost, coordinate source ghost width,
/// the refinement ratio (each well below 256 in practice) and the kind of
/// blend stencils the entry caches (so two schemes never share an entry
/// whose stencils were built from the other's weights).
fn two_level_aux(interp: &dyn Interpolator, ratio: IntVect, coord_nghost: i64) -> u64 {
    let blend = match interp.blend() {
        None => 0,
        Some(BlendKind::Index) => 1,
        Some(BlendKind::Physical) => 2,
    };
    (interp.coarse_ghost() as u64 & 0xff)
        | ((coord_nghost as u64 & 0xff) << 8)
        | ((ratio[0] as u64 & 0xff) << 16)
        | ((ratio[1] as u64 & 0xff) << 24)
        | ((ratio[2] as u64 & 0xff) << 32)
        | (blend << 40)
}

/// Fills ghosts at the coarsest level: neighbor exchange + physical BCs.
pub fn fill_patch_single_level(
    mf: &mut MultiFab,
    domain: &ProblemDomain,
    bc: &dyn BoundaryFiller,
    time: f64,
) -> FillPatchReport {
    fill_patch_single_level_with(mf, domain, bc, time, FillOpts::default())
}

/// [`fill_patch_single_level`] with explicit [`FillOpts`].
pub fn fill_patch_single_level_with(
    mf: &mut MultiFab,
    domain: &ProblemDomain,
    bc: &dyn BoundaryFiller,
    time: f64,
    opts: FillOpts<'_>,
) -> FillPatchReport {
    let fb_plan = match opts.cache {
        Some(cache) => mf.fill_boundary_cached(domain, cache, opts.threads),
        None => Arc::new(CachedPlan::new(mf.fill_boundary(domain))),
    };
    let ba = mf.boxarray().clone();
    parallel_for_each_mut(mf.fabs_mut(), opts.threads, |i, fab| {
        bc.fill(fab, ba.get(i), domain, time);
    });
    // The BC fill above went through `fabs_mut` (which conservatively marks
    // the data mutated); the whole ghost shell is now in its final state.
    mf.mark_ghosts_filled();
    FillPatchReport {
        fb_plan,
        ..Default::default()
    }
}

/// Fills ghosts at a fine level: interpolate coarse data wherever the fine
/// level has no data, exchange fine-fine ghosts, then apply physical BCs.
///
/// `coarse_coords` / `fine_coords` must be supplied when
/// `interp.needs_coords()`; `fine_coords` must carry at least as many ghost
/// cells as `fine`.
#[allow(clippy::too_many_arguments)]
pub fn fill_patch_two_levels(
    fine: &mut MultiFab,
    coarse: &MultiFab,
    fine_domain: &ProblemDomain,
    coarse_domain: &ProblemDomain,
    ratio: IntVect,
    interp: &dyn Interpolator,
    bc: &dyn BoundaryFiller,
    coarse_bc: &dyn BoundaryFiller,
    coarse_coords: Option<&MultiFab>,
    fine_coords: Option<&MultiFab>,
    time: f64,
) -> FillPatchReport {
    fill_patch_two_levels_with(
        fine,
        coarse,
        fine_domain,
        coarse_domain,
        ratio,
        interp,
        bc,
        coarse_bc,
        coarse_coords,
        fine_coords,
        time,
        None,
        FillOpts::default(),
    )
}

/// [`fill_patch_two_levels`] with explicit [`FillOpts`]: the uncovered-region
/// geometry and both gather plans are memoized in the cache (they only depend
/// on the grids), and the per-patch gather + interpolation loop fans out over
/// `opts.threads` workers.
#[allow(clippy::too_many_arguments)]
pub fn fill_patch_two_levels_with(
    fine: &mut MultiFab,
    coarse: &MultiFab,
    fine_domain: &ProblemDomain,
    coarse_domain: &ProblemDomain,
    ratio: IntVect,
    interp: &dyn Interpolator,
    bc: &dyn BoundaryFiller,
    coarse_bc: &dyn BoundaryFiller,
    coarse_coords: Option<&MultiFab>,
    fine_coords: Option<&MultiFab>,
    time: f64,
    time_interp: Option<CoarseTimeInterp<'_>>,
    opts: FillOpts<'_>,
) -> FillPatchReport {
    let plans = resolve_two_level_plans(
        fine,
        coarse,
        fine_domain,
        coarse_domain,
        GhostFootprint::Shell(fine.nghost()),
        ratio,
        interp,
        coarse_coords,
        fine_coords,
        opts.cache,
    );

    // Per-patch gather + interpolation. Patches are independent (each writes
    // only its own fab), so the loop fans out over the worker pool.
    let interpolated = AtomicU64::new(0);
    {
        let plans = &plans;
        let local = RemoteGathers::default();
        parallel_for_each_mut(fine.fabs_mut(), opts.threads, |i, fab| {
            let cells = crocco_fab::with_rw(fab, |rw| {
                fill_two_level_patch_with_remote(
                    i,
                    rw,
                    plans,
                    coarse,
                    coarse_domain,
                    coarse_bc,
                    time,
                    time_interp,
                    &local,
                )
            });
            interpolated.fetch_add(cells, Ordering::Relaxed);
        });
    }

    // Fine-fine exchange overwrites any interpolated cell that has true
    // fine data available, then physical BCs.
    let fb_plan = match opts.cache {
        Some(cache) => fine.fill_boundary_cached(fine_domain, cache, opts.threads),
        None => Arc::new(CachedPlan::new(fine.fill_boundary(fine_domain))),
    };
    let ba = fine.boxarray().clone();
    parallel_for_each_mut(fine.fabs_mut(), opts.threads, |i, fab| {
        bc.fill(fab, ba.get(i), fine_domain, time);
    });
    // Interpolation + fine-fine exchange + BCs complete: ghosts coherent.
    fine.mark_ghosts_filled();

    FillPatchReport {
        fb_plan,
        pc_plan: Some(plans.state.state_plan().clone()),
        coord_pc_plan: plans.coords.as_ref().map(|cg| cg.coord_plan().clone()),
        interpolated_cells: interpolated.into_inner(),
    }
}

/// The resolved (possibly cache-shared) plans behind one coarse→fine gather
/// — a two-level FillPatch ([`resolve_two_level_plans`]) or a regrid remap
/// ([`resolve_remap_plans`]) — with what a fill through them needs besides
/// the coarse state: the per-patch regions to interpolate with the
/// state-gather plan, the interpolator and ratio, and the coordinate gather
/// when the interpolator reads coordinates. Resolution is pure plan
/// lookup/construction — no field data moves.
pub struct TwoLevelPlans<'a> {
    /// Gather geometry + coarse→fine state-gather plan (+ cached stencils).
    pub state: Arc<TwoLevelPlan>,
    /// Coordinate gather (coordinate-reading interpolators only).
    pub coords: Option<CoordGather<'a>>,
    interp: &'a dyn Interpolator,
    ratio: IntVect,
}

/// The coordinate side of a [`TwoLevelPlans`]: the gather plan and both
/// levels' coordinate MultiFabs. Coordinates are a pure function of the
/// grids, so they are read once per plan — when a patch's stencils are built
/// — and never after.
pub struct CoordGather<'a> {
    plan: Arc<CoordGatherPlan>,
    coarse: &'a MultiFab,
    fine: &'a MultiFab,
}

impl CoordGather<'_> {
    /// The coordinate-gather plan (for communication accounting).
    pub fn coord_plan(&self) -> &Arc<CachedPlan> {
        &self.plan.coords
    }
}

impl TwoLevelPlans<'_> {
    /// Moves the gather chunks whose coarse donor patch lives on another
    /// rank: the state chunks out of `coarse`, and — when a time-interpolated
    /// fill will blend it in — the state chunks again out of `old`. The
    /// first exchange through a plan also moves its coordinate chunks; the
    /// stencils built from them in the fills that follow make every later
    /// coordinate round unnecessary. Each round that runs draws its tag from
    /// `next_tag`, in the order state, coordinates, old state. Whether a
    /// round runs is read off the plan, which every rank built at the same
    /// point of the step loop, so the group always agrees. Collective: every
    /// group member calls it with the same plans. On a group of one nothing
    /// is sent.
    pub fn exchange(
        &self,
        coarse: &MultiFab,
        old: Option<&MultiFab>,
        gep: &GroupEndpoint<'_>,
        next_tag: &mut dyn FnMut() -> u64,
    ) -> Result<RemoteGathers, CommError> {
        let mut round =
            |src: &MultiFab, plan: &CopyPlan| exchange_chunks(src, plan, gep, next_tag());
        let state_plan = &self.state.state.plan;
        Ok(RemoteGathers {
            state: round(coarse, state_plan)?,
            coords: match &self.coords {
                // Relaxed: the flag orders nothing — the plan replica is this
                // rank's own and only its step loop calls `exchange`.
                Some(cg) if !cg.plan.gathered.load(Ordering::Relaxed) => {
                    let landed = round(cg.coarse, &cg.plan.coords.plan)?;
                    cg.plan.gathered.store(true, Ordering::Relaxed);
                    Some(landed)
                }
                _ => None,
            },
            old: match old {
                Some(old) => round(old, state_plan)?,
                None => Landed::default(),
            },
        })
    }

    /// Per fine patch, the `(fab id, source region)` of every state-gather
    /// chunk `rank` reads *locally* out of `old` (fab id = data base
    /// pointer, the stage executor's convention): the reads a
    /// time-interpolated fill makes below the instrumented views, for its
    /// caller to declare on the halo tasks' footprints. Remote chunks arrive
    /// as [`RemoteGathers`] payloads and touch no fab.
    pub fn local_old_reads(&self, rank: usize, old: &MultiFab) -> Vec<Vec<(u64, IndexBox)>> {
        let mut per_patch = vec![Vec::new(); self.state.needed.len()];
        for c in &self.state.state.plan.chunks {
            if c.src_rank == rank {
                let id = old.fab(c.src_id).data().as_ptr() as usize as u64;
                per_patch[c.dst_id].push((id, c.region.shift(-c.shift)));
            }
        }
        per_patch
    }

    /// Patch `i`'s stencils, one per region of `needed[i]`: the coordinate
    /// temporary is gathered here (its remote chunks out of the payloads the
    /// plan's first exchange landed) and dropped with the weights taken.
    fn build_blends(&self, i: usize, remote: &RemoteGathers) -> Vec<BlendStencil> {
        let tl = &*self.state;
        let cbox = tl.cbox[i];
        let coarse_xyz = self.coords.as_ref().map(|cg| {
            let mut c = FArrayBox::new(cbox, 3);
            let (s, e) = cg.plan.ranges[i];
            let landed = remote.coords.as_ref();
            execute_gather_with_remote(cg.coarse, &mut c, &cg.plan.coords.plan.chunks[s..e], s, 3, landed);
            c
        });
        let weights = match (&self.coords, &coarse_xyz) {
            (Some(cg), Some(cc)) => BlendWeights::Physical {
                coarse: cc,
                fine: cg.fine.fab(i),
            },
            _ => BlendWeights::Index,
        };
        tl.needed[i]
            .iter()
            .map(|region| BlendStencil::build(weights, *region, self.ratio, cbox))
            .collect()
    }
}

/// Both levels' coordinates, which a coordinate-reading interpolator must be
/// given.
fn coords_for<'a>(
    interp: &dyn Interpolator,
    coarse_coords: Option<&'a MultiFab>,
    fine_coords: Option<&'a MultiFab>,
) -> Option<(&'a MultiFab, &'a MultiFab)> {
    interp.needs_coords().then(|| {
        coarse_coords
            .zip(fine_coords)
            .expect("a coordinate-reading interpolator needs both levels' coordinates")
    })
}

/// Resolves the two-level plans for a `fine`/`coarse` level pair, through
/// `cache` when supplied (the same keys [`fill_patch_two_levels_with`] uses,
/// so barrier and task-graph paths share entries). Only the ghost cells in
/// `ghosts` are interpolated: the uncovered parts of each face slab, or of
/// the whole shell.
#[allow(clippy::too_many_arguments)]
pub fn resolve_two_level_plans<'a>(
    fine: &MultiFab,
    coarse: &MultiFab,
    fine_domain: &ProblemDomain,
    coarse_domain: &ProblemDomain,
    ghosts: GhostFootprint,
    ratio: IntVect,
    interp: &'a dyn Interpolator,
    coarse_coords: Option<&'a MultiFab>,
    fine_coords: Option<&'a MultiFab>,
    cache: Option<&PlanCache>,
) -> TwoLevelPlans<'a> {
    let ncomp = fine.ncomp();
    let depth = ghosts.depth();
    let coarse_ghost = interp.coarse_ghost();
    let build_state = || {
        // The region of index space where ghost data is *defined*: the
        // domain, extended outward in periodic directions (wrapped data
        // exists there).
        let mut defined = fine_domain.bx;
        for d in 0..3 {
            if fine_domain.periodic[d] {
                defined = defined.grow_lo(d, depth).grow_hi(d, depth);
            }
        }
        // Per patch: the footprint's ghost regions no fine patch (or
        // periodic image of one) covers, read through the coarsened ghosted
        // box plus the interpolator's stencil.
        build_two_level_plan(fine, coarse, coarse_domain, |i| {
            let valid = fine.valid_box(i);
            let grown = valid.grow(depth).intersection(&defined);
            let need = ghosts
                .regions(valid)
                .into_iter()
                .map(|r| r.intersection(&defined))
                .filter(|r| !r.is_empty())
                .flat_map(|r| uncovered_regions(r, fine.boxarray(), fine_domain))
                .collect();
            (need, grown.coarsen(ratio).grow(coarse_ghost))
        })
    };

    // The cache key carries the fine domain (which fixes `defined` and the
    // periodic images) and the ratio; the planner derives everything else
    // from the grids, so a coarse domain inconsistent with `fine_domain /
    // ratio` would alias — assert the standard AMR invariant instead.
    debug_assert_eq!(
        coarse_domain.bx,
        fine_domain.bx.coarsen(ratio),
        "coarse domain must be the fine domain coarsened by the ratio"
    );

    let tl: Arc<TwoLevelPlan> = match cache {
        Some(cache) => {
            let key = PlanKey {
                op: PlanOp::Aux(AUX_TWO_LEVEL_STATE),
                aux: two_level_aux(interp, ratio, 0),
                ghost: ghosts,
                ..PlanKey::parallel_copy(
                    coarse.boxarray(),
                    coarse.distribution(),
                    fine.boxarray(),
                    fine.distribution(),
                    fine_domain,
                    depth,
                    ncomp,
                )
            };
            cache.get_or_build_aux(key, build_state)
        }
        None => Arc::new(build_state()),
    };

    let coords = coords_for(interp, coarse_coords, fine_coords).map(|(ccmf, fcmf)| {
        assert!(
            fcmf.nghost() >= depth,
            "fine coords need >= state ghost width"
        );
        let build = || build_coord_gather(ccmf, &tl, fine.distribution(), coarse_domain);
        let plan = match cache {
            Some(cache) => {
                let key = PlanKey {
                    op: PlanOp::Aux(AUX_TWO_LEVEL_COORDS),
                    aux: two_level_aux(interp, ratio, ccmf.nghost()),
                    ghost: ghosts,
                    ..PlanKey::parallel_copy(
                        ccmf.boxarray(),
                        ccmf.distribution(),
                        fine.boxarray(),
                        fine.distribution(),
                        fine_domain,
                        depth,
                        3,
                    )
                };
                cache.get_or_build_aux(key, build)
            }
            None => Arc::new(build()),
        };
        CoordGather {
            plan,
            coarse: ccmf,
            fine: fcmf,
        }
    });

    TwoLevelPlans {
        state: tl,
        coords,
        interp,
        ratio,
    }
}

/// Resolves the plans of a regrid remap: every *valid* cell of the new level
/// `fine` is interpolated from `coarse` (surviving same-level data is copied
/// over it afterwards), through the coarse footprint
/// `valid.coarsen(ratio).grow(coarse_ghost + 1)`. Built fresh — the grids
/// are new and this plan is used once.
pub fn resolve_remap_plans<'a>(
    fine: &MultiFab,
    coarse: &MultiFab,
    coarse_domain: &ProblemDomain,
    ratio: IntVect,
    interp: &'a dyn Interpolator,
    coarse_coords: Option<&'a MultiFab>,
    fine_coords: Option<&'a MultiFab>,
) -> TwoLevelPlans<'a> {
    let state = Arc::new(build_two_level_plan(fine, coarse, coarse_domain, |i| {
        let valid = fine.valid_box(i);
        (vec![valid], valid.coarsen(ratio).grow(interp.coarse_ghost() + 1))
    }));
    let coords = coords_for(interp, coarse_coords, fine_coords).map(|(ccmf, fcmf)| CoordGather {
        plan: Arc::new(build_coord_gather(ccmf, &state, fine.distribution(), coarse_domain)),
        coarse: ccmf,
        fine: fcmf,
    });
    TwoLevelPlans {
        state,
        coords,
        interp,
        ratio,
    }
}

/// The coarse→fine part of one fine patch's fill: gather the coarse
/// temporary, apply coarse boundary conditions, interpolate every region the
/// plan names for patch `i` (uncovered ghost regions for a FillPatch, the
/// valid box for a regrid remap). Returns the number of interpolated cells.
///
/// Writes through a [`FabRw`] view so the task-graph path can run it inside
/// a halo task while other tasks read the same fab's valid cells. An
/// 8-corner-blend interpolator goes through the plan's cached
/// [`BlendStencil`]s — built from the coordinates on the patch's first fill
/// through this plan, applied on every one; any other scheme interpolates in
/// place through [`Interpolator::interp_view`].
///
/// Gather chunks whose coarse source patch lives on another rank are
/// assembled from `remote` (the result of [`TwoLevelPlans::exchange`] over
/// the same plans) instead of local fab reads; every other chunk must be
/// locally readable. A patch's first fill must therefore follow the plan's
/// first exchange, whose payloads carry the remote coordinate chunks.
#[allow(clippy::too_many_arguments)]
pub fn fill_two_level_patch_with_remote(
    i: usize,
    dst: &mut FabRw<'_>,
    plans: &TwoLevelPlans<'_>,
    coarse: &MultiFab,
    coarse_domain: &ProblemDomain,
    coarse_bc: &dyn BoundaryFiller,
    time: f64,
    time_interp: Option<CoarseTimeInterp<'_>>,
    remote: &RemoteGathers,
) -> u64 {
    let tl = &*plans.state;
    let needed = &tl.needed[i];
    if needed.is_empty() {
        return 0;
    }
    let ncomp = tl.state.plan.ncomp;
    let cbox = tl.cbox[i];
    let mut ctmp = FArrayBox::new(cbox, ncomp);
    let (s, e) = tl.ranges[i];
    execute_gather_with_remote(
        coarse,
        &mut ctmp,
        &tl.state.plan.chunks[s..e],
        s,
        ncomp,
        Some(&remote.state),
    );
    // Time interpolation (subcycling): gather the coarse *old* state over
    // the same chunk list and blend `alpha·new + (1−alpha)·old` in place.
    // `alpha == 1.0` skips the gather entirely, leaving the path bitwise
    // what a plain fill produces.
    if let Some(ti) = time_interp {
        if ti.alpha != 1.0 {
            let mut cold = FArrayBox::new(cbox, ncomp);
            execute_gather_with_remote(
                ti.old,
                &mut cold,
                &tl.state.plan.chunks[s..e],
                s,
                ncomp,
                Some(&remote.old),
            );
            let a = ti.alpha;
            for (n, o) in ctmp.data_mut().iter_mut().zip(cold.data()) {
                *n = a * *n + (1.0 - a) * *o;
            }
        }
    }
    // Physical-exterior cells of the temporary were not gathered
    // (they lie outside every coarse valid box); the coarse-level
    // boundary conditions supply them so interpolation next to
    // walls/inflows has sound source data.
    coarse_bc.fill(
        &mut ctmp,
        cbox.intersection(&coarse_domain.bx),
        coarse_domain,
        time,
    );

    if plans.interp.blend().is_some() {
        for blend in tl.blends[i].get_or_init(|| plans.build_blends(i, remote)) {
            blend.apply(&ctmp, dst);
        }
    } else {
        for region in needed {
            plans.interp.interp_view(&ctmp, dst, *region, plans.ratio, None, None);
        }
    }
    needed.iter().map(|region| region.num_points()).sum()
}

/// The geometry of one coarse→fine gather: which regions of each fine patch
/// need interpolation, the coarse temporary's footprint, and the chunk list
/// of the coarse→fine state gather (the `ParallelCopy`). A FillPatch memoizes
/// it until the grids change.
#[derive(Debug)]
pub struct TwoLevelPlan {
    /// Per-patch regions to interpolate.
    needed: Vec<Vec<IndexBox>>,
    /// Per-patch coarse temporary box (meaningful where `needed` is not
    /// empty).
    cbox: Vec<IndexBox>,
    /// The state-gather plan; chunk `dst_id`s are fine patch indices.
    state: Arc<CachedPlan>,
    /// Per-patch `[start, end)` ranges into `state.plan.chunks`.
    ranges: Vec<(usize, usize)>,
    /// Per patch, the blend stencil of each `needed` region (8-corner-blend
    /// interpolators; ≈ 32 B per interpolated cell): set by the patch's
    /// first fill through this plan, so only patches filled here — the ones
    /// this rank owns — hold any.
    blends: Vec<OnceLock<Vec<BlendStencil>>>,
}

impl TwoLevelPlan {
    /// The state-gather plan (for communication accounting).
    pub fn state_plan(&self) -> &Arc<CachedPlan> {
        &self.state
    }

    /// The regions of fine patch `i` this gather interpolates.
    pub fn needed(&self, i: usize) -> &[IndexBox] {
        &self.needed[i]
    }
}

/// The memoized coordinate-gather companion of a [`TwoLevelPlan`] (only
/// built for coordinate-reading interpolators).
#[derive(Debug)]
struct CoordGatherPlan {
    /// The coordinate-gather plan (3 components).
    coords: Arc<CachedPlan>,
    /// Per-patch `[start, end)` ranges into `coords.plan.chunks`.
    ranges: Vec<(usize, usize)>,
    /// Set by the exchange that moved this plan's cross-rank chunks
    /// ([`TwoLevelPlans::exchange`]): coordinates cross ranks once per plan.
    gathered: AtomicBool,
}

/// Plans the coarse→fine state gather for every fine patch: `per_patch(i)`
/// names the regions of patch `i` to interpolate and the coarse footprint
/// they read through; a patch with no region gathers nothing. Pure geometry
/// — no data moves here.
fn build_two_level_plan(
    fine: &MultiFab,
    coarse: &MultiFab,
    coarse_domain: &ProblemDomain,
    mut per_patch: impl FnMut(usize) -> (Vec<IndexBox>, IndexBox),
) -> TwoLevelPlan {
    let n = fine.nfabs();
    let mut needed = Vec::with_capacity(n);
    let mut cbox = Vec::with_capacity(n);
    let mut ranges = Vec::with_capacity(n);
    let mut chunks = Vec::new();
    for i in 0..n {
        let (need, cb) = per_patch(i);
        let start = chunks.len();
        if !need.is_empty() {
            plan_gather(
                coarse.boxarray(),
                coarse.distribution(),
                coarse.nghost(),
                cb,
                i,
                fine.distribution().owner(i),
                coarse_domain,
                false,
                &mut chunks,
            );
        }
        needed.push(need);
        cbox.push(cb);
        ranges.push((start, chunks.len()));
    }
    TwoLevelPlan {
        needed,
        cbox,
        state: Arc::new(CachedPlan::new(CopyPlan {
            chunks,
            ncomp: fine.ncomp(),
        })),
        ranges,
        blends: (0..n).map(|_| OnceLock::new()).collect(),
    }
}

/// Plans the coordinate gathers matching `tl`'s patch footprints. The source
/// fabs' ghost regions are also read (`include_ghosts`) — sound because
/// coordinates are analytic everywhere, and required so physical-exterior
/// temporary cells get correct coordinates.
fn build_coord_gather(
    ccmf: &MultiFab,
    tl: &TwoLevelPlan,
    fine_dm: &DistributionMapping,
    coarse_domain: &ProblemDomain,
) -> CoordGatherPlan {
    let n = tl.needed.len();
    let mut ranges = Vec::with_capacity(n);
    let mut chunks = Vec::new();
    for i in 0..n {
        let start = chunks.len();
        if !tl.needed[i].is_empty() {
            plan_gather(
                ccmf.boxarray(),
                ccmf.distribution(),
                ccmf.nghost(),
                tl.cbox[i],
                i,
                fine_dm.owner(i),
                coarse_domain,
                true,
                &mut chunks,
            );
        }
        ranges.push((start, chunks.len()));
    }
    CoordGatherPlan {
        coords: Arc::new(CachedPlan::new(CopyPlan { chunks, ncomp: 3 })),
        ranges,
        gathered: AtomicBool::new(false),
    }
}

/// Parts of `probe` not covered by `ba` or any of its periodic images.
fn uncovered_regions(probe: IndexBox, ba: &BoxArray, domain: &ProblemDomain) -> Vec<IndexBox> {
    let mut remaining = vec![probe];
    for shift in domain.periodic_shifts() {
        if remaining.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(remaining.len());
        for r in remaining {
            // Boxes of the array appear shifted by `shift`.
            let hits = ba.intersections(r.shift(-shift));
            if hits.is_empty() {
                next.push(r);
                continue;
            }
            let mut pieces = vec![r];
            for (_, overlap) in hits {
                let cut = overlap.shift(shift);
                let mut nn = Vec::with_capacity(pieces.len());
                for piece in pieces {
                    piece.subtract(cut, &mut nn);
                }
                pieces = nn;
            }
            next.extend(pieces);
        }
        remaining = next;
    }
    remaining
}

/// Plans the copy of every overlapping piece of `src_ba`'s patches into a
/// destination box `dst_box` (fine patch `dst_id`'s coarse temporary), with
/// periodic wrapping. This is the ParallelCopy gather primitive — the one
/// place coarse→fine donor chunks are enumerated (`periodic_shifts` outer,
/// `intersections` inner, a pure function of replicated metadata, so every
/// rank derives the identical list); execution is
/// [`execute_gather_with_remote`].
///
/// With `include_ghosts` the source fabs' ghost regions are also read —
/// only sound when ghost contents are globally consistent (e.g. analytic
/// coordinates).
#[allow(clippy::too_many_arguments)]
fn plan_gather(
    src_ba: &BoxArray,
    src_dm: &DistributionMapping,
    src_nghost: i64,
    dst_box: IndexBox,
    dst_id: usize,
    dst_rank: usize,
    src_domain: &ProblemDomain,
    include_ghosts: bool,
    chunks: &mut Vec<CopyChunk>,
) {
    let g = if include_ghosts { src_nghost } else { 0 };
    for shift in src_domain.periodic_shifts() {
        let probe = dst_box.shift(-shift);
        for (src_id, _) in src_ba.intersections(probe.grow(g)) {
            let src_cover = if include_ghosts {
                src_ba.get(src_id).grow(src_nghost)
            } else {
                src_ba.get(src_id)
            };
            let overlap_src = src_cover.intersection(&probe);
            if overlap_src.is_empty() {
                continue;
            }
            chunks.push(CopyChunk {
                src_id,
                dst_id,
                src_rank: src_dm.owner(src_id),
                dst_rank,
                region: overlap_src.shift(shift),
                shift,
            });
        }
    }
}

/// Executes gather chunks planned by [`plan_gather`]: for each chunk,
/// `dst_fab[region] = src.fab(src_id)[region - shift]`. A chunk whose
/// *global* index (`base + position`) appears in `remote` unpacks the landed
/// wire payload instead of reading the local fab — payload unpack and local
/// copy write identical bytes (component-major le-`f64` round-trip), so the
/// assembled temporary is bitwise-independent of which path each chunk took.
fn execute_gather_with_remote(
    src: &MultiFab,
    dst_fab: &mut FArrayBox,
    chunks: &[CopyChunk],
    base: usize,
    ncomp: usize,
    remote: Option<&Landed>,
) {
    for (k, c) in chunks.iter().enumerate() {
        if let Some(bytes) = remote.and_then(|r| r.get(base + k)) {
            with_rw(dst_fab, |rw| unpack_chunk(rw, c.region, ncomp, bytes));
        } else {
            dst_fab.copy_shifted_from(src.fab(c.src_id), c.region, c.shift, ncomp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_runtime::{tags, LocalCluster};
    use crate::interp::{
        reference_blend, CurvilinearInterp, PiecewiseConstantInterp, TrilinearInterp,
    };
    use crocco_fab::{BoxArray, DistributionMapping};
    use std::sync::Arc;

    /// Linear field in *coarse* cell-center coordinates at any level.
    fn linear_value(level: u32, p: IntVect) -> f64 {
        let scale = (1 << level) as f64;
        let x = (p[0] as f64 + 0.5) / scale;
        let y = (p[1] as f64 + 0.5) / scale;
        let z = (p[2] as f64 + 0.5) / scale;
        2.0 + 3.0 * x - 1.5 * y + 0.5 * z
    }

    fn make_level(boxes: Vec<IndexBox>, ncomp: usize, nghost: i64, level: u32) -> MultiFab {
        let ba = Arc::new(BoxArray::new(boxes));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let mut mf = MultiFab::new(ba, dm, ncomp, nghost);
        for i in 0..mf.nfabs() {
            let b = mf.valid_box(i);
            for p in b.cells() {
                for c in 0..ncomp {
                    let v = linear_value(level, p) + c as f64;
                    mf.fab_mut(i).set(p, c, v);
                }
            }
        }
        mf
    }

    const R2: IntVect = IntVect([2, 2, 2]);

    /// The regrid remap as `Simulation::regrid` runs it: every valid cell of
    /// a fresh copy of `fine`'s grids interpolated from `coarse` through
    /// [`resolve_remap_plans`].
    fn remap<'a>(
        fine: &MultiFab,
        coarse: &MultiFab,
        cdomain: &ProblemDomain,
        interp: &'a dyn Interpolator,
        coords: Option<(&'a MultiFab, &'a MultiFab)>,
    ) -> (MultiFab, TwoLevelPlans<'a>) {
        let (cc, fc) = (coords.map(|(c, _)| c), coords.map(|(_, f)| f));
        let plans = resolve_remap_plans(fine, coarse, cdomain, R2, interp, cc, fc);
        let out = fill_all(fine, &plans, coarse, cdomain, None, &RemoteGathers::default());
        (out, plans)
    }

    /// Runs the coarse→fine part of `plans` on every patch of a zeroed copy
    /// of `fine`'s grids.
    fn fill_all(
        fine: &MultiFab,
        plans: &TwoLevelPlans<'_>,
        coarse: &MultiFab,
        cdomain: &ProblemDomain,
        ti: Option<CoarseTimeInterp<'_>>,
        remote: &RemoteGathers,
    ) -> MultiFab {
        let mut out = MultiFab::new(
            fine.boxarray().clone(),
            fine.distribution().clone(),
            fine.ncomp(),
            fine.nghost(),
        );
        for i in 0..out.nfabs() {
            crocco_fab::with_rw(out.fab_mut(i), |rw| {
                fill_two_level_patch_with_remote(
                    i,
                    rw,
                    plans,
                    coarse,
                    cdomain,
                    &NoOpBoundary,
                    0.0,
                    ti,
                    remote,
                )
            });
        }
        out
    }

    /// The coarse→fine fill as it ran before the plan cached stencils, kept
    /// as the oracle: per patch, the coordinate temporary gathered on every
    /// call, each region interpolated cell by cell — weights re-derived from
    /// the coordinates at every cell — into a scratch fab and copied in.
    fn reference_fill(
        fine: &MultiFab,
        plans: &TwoLevelPlans<'_>,
        coarse: &MultiFab,
        ti: Option<CoarseTimeInterp<'_>>,
    ) -> MultiFab {
        let tl = &*plans.state;
        let ncomp = fine.ncomp();
        let mut out = MultiFab::new(
            fine.boxarray().clone(),
            fine.distribution().clone(),
            ncomp,
            fine.nghost(),
        );
        for i in 0..out.nfabs() {
            if tl.needed[i].is_empty() {
                continue;
            }
            let cbox = tl.cbox[i];
            let (s, e) = tl.ranges[i];
            let gather = |src: &MultiFab| {
                let mut tmp = FArrayBox::new(cbox, ncomp);
                execute_gather_with_remote(src, &mut tmp, &tl.state.plan.chunks[s..e], s, ncomp, None);
                tmp
            };
            let mut ctmp = gather(coarse);
            if let Some(ti) = ti.filter(|ti| ti.alpha != 1.0) {
                let cold = gather(ti.old);
                for (n, o) in ctmp.data_mut().iter_mut().zip(cold.data()) {
                    *n = ti.alpha * *n + (1.0 - ti.alpha) * *o;
                }
            }
            let cc_tmp = plans.coords.as_ref().map(|cg| {
                let mut c = FArrayBox::new(cbox, 3);
                let (s, e) = cg.plan.ranges[i];
                execute_gather_with_remote(cg.coarse, &mut c, &cg.plan.coords.plan.chunks[s..e], s, 3, None);
                c
            });
            for region in &tl.needed[i] {
                let mut scratch = FArrayBox::new(*region, ncomp);
                match (plans.interp.blend(), &plans.coords, &cc_tmp) {
                    (None, ..) => {
                        for c in 0..ncomp {
                            for p in region.cells() {
                                scratch.set(p, c, ctmp.get(p.coarsen(R2), c));
                            }
                        }
                    }
                    (Some(BlendKind::Index), ..) => {
                        reference_blend(BlendWeights::Index, &ctmp, &mut scratch, *region, R2)
                    }
                    (Some(BlendKind::Physical), Some(cg), Some(cc)) => {
                        let weights = BlendWeights::Physical {
                            coarse: cc,
                            fine: cg.fine.fab(i),
                        };
                        reference_blend(weights, &ctmp, &mut scratch, *region, R2);
                    }
                    _ => unreachable!("physical weights come with a coordinate gather"),
                }
                out.fab_mut(i).copy_from(&scratch, *region, 0, 0, ncomp);
            }
        }
        out
    }

    fn bits(mf: &MultiFab) -> Vec<Vec<u64>> {
        (0..mf.nfabs())
            .map(|i| mf.fab(i).data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Every chunk of `plan` packed out of `src`, as an exchange in which
    /// every donor is remote would land them: the plan rerouted so that
    /// rank 0 of two donates every chunk to rank 1, whose landing is kept.
    fn all_landed(src: &MultiFab, plan: &CopyPlan) -> Landed {
        let mut remote = plan.clone();
        remote.chunks.iter_mut().for_each(|c| (c.src_rank, c.dst_rank) = (0, 1));
        let mut landed = LocalCluster::run(2, |ep| {
            exchange_chunks(src, &remote, &GroupEndpoint::full(&ep), tags::round(0, 0))
                .expect("fault-free round")
        });
        landed.pop().expect("rank 1's landing")
    }

    fn poisoned(mf: &MultiFab) -> MultiFab {
        let mut p = mf.clone();
        p.set_val(f64::NAN);
        p
    }

    #[test]
    fn single_level_fillpatch_fills_interior_ghosts() {
        let domain_box = IndexBox::from_extents(16, 8, 8);
        let domain = ProblemDomain::non_periodic(domain_box);
        let mut mf = make_level(
            vec![
                IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7)),
                IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(15, 7, 7)),
            ],
            1,
            2,
            0,
        );
        let report = fill_patch_single_level(&mut mf, &domain, &NoOpBoundary, 0.0);
        assert!(!report.fb_plan.plan.chunks.is_empty());
        // Ghosts of patch 0 inside patch 1 must match the linear field.
        for p in IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(9, 7, 7)).cells() {
            assert_eq!(mf.fab(0).get(p, 0), linear_value(0, p));
        }
    }

    #[test]
    fn two_level_fillpatch_interpolates_uncovered_ghosts() {
        // Coarse level covers the whole domain; one fine patch in the middle.
        let cdom_box = IndexBox::from_extents(16, 16, 8);
        let cdomain = ProblemDomain::non_periodic(cdom_box);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let coarse = make_level(
            vec![cdom_box],
            1,
            2,
            0,
        );
        let mut fine = make_level(
            vec![IndexBox::new(IntVect::new(8, 8, 4), IntVect::new(23, 23, 11))],
            1,
            2,
            1,
        );
        let report = fill_patch_two_levels(
            &mut fine,
            &coarse,
            &fdomain,
            &cdomain,
            IntVect::splat(2),
            &TrilinearInterp,
            &NoOpBoundary,
            &NoOpBoundary,
            None,
            None,
            0.0,
        );
        assert!(report.interpolated_cells > 0);
        assert!(report.pc_plan.is_some());
        assert!(report.coord_pc_plan.is_none());
        // Every ghost cell (all uncovered by fine data, all interior to the
        // fine domain) must now hold the linear field — trilinear is exact
        // on linear data.
        let valid = fine.valid_box(0);
        for p in valid.grow(2).cells() {
            if valid.contains(p) {
                continue;
            }
            let got = fine.fab(0).get(p, 0);
            let expect = linear_value(1, p);
            assert!(
                (got - expect).abs() < 1e-12,
                "ghost {p:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn time_interpolated_fill_blends_coarse_old_and_new() {
        // Subcycling's two-time-level fill: old = linear field, new = old
        // plus a constant offset. A blended fill at alpha must land each
        // interpolated ghost exactly at old + alpha·offset (both the
        // interpolation and the blend are linear), alpha = 1 must be bitwise
        // a plain new-state fill, and alpha = 0 bitwise a plain old-state
        // fill.
        let cdom_box = IndexBox::from_extents(16, 16, 8);
        let cdomain = ProblemDomain::non_periodic(cdom_box);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let old = make_level(vec![cdom_box], 1, 2, 0);
        let mut new = old.clone();
        for i in 0..new.nfabs() {
            let b = new.valid_box(i);
            for p in b.cells() {
                let v = new.fab(i).get(p, 0);
                new.fab_mut(i).set(p, 0, v + 10.0);
            }
        }
        let fine0 = make_level(
            vec![IndexBox::new(IntVect::new(8, 8, 4), IntVect::new(23, 23, 11))],
            1,
            2,
            1,
        );
        let fill = |coarse: &MultiFab, ti: Option<CoarseTimeInterp<'_>>| -> MultiFab {
            let mut fine = fine0.clone();
            fill_patch_two_levels_with(
                &mut fine,
                coarse,
                &fdomain,
                &cdomain,
                IntVect::splat(2),
                &TrilinearInterp,
                &NoOpBoundary,
                &NoOpBoundary,
                None,
                None,
                0.0,
                ti,
                FillOpts::default(),
            );
            fine
        };
        let pure_new = fill(&new, None);
        let pure_old = fill(&old, None);
        let ti = |alpha: f64| CoarseTimeInterp { old: &old, alpha };
        // alpha = 1: bitwise the plain new fill (the old gather is skipped).
        let at_one = fill(&new, Some(ti(1.0)));
        assert_eq!(at_one.fab(0).data(), pure_new.fab(0).data());
        // alpha = 0: bitwise the plain old fill.
        let at_zero = fill(&new, Some(ti(0.0)));
        assert_eq!(at_zero.fab(0).data(), pure_old.fab(0).data());
        // alpha = 0.25: ghosts sit exactly a quarter of the offset above the
        // old-fill values.
        let at_q = fill(&new, Some(ti(0.25)));
        let valid = fine0.valid_box(0);
        let mut checked = 0;
        for p in valid.grow(2).cells() {
            if valid.contains(p) {
                continue;
            }
            let got = at_q.fab(0).get(p, 0);
            let expect = pure_old.fab(0).get(p, 0) + 0.25 * 10.0;
            assert!((got - expect).abs() < 1e-12, "ghost {p:?}: {got} vs {expect}");
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn fine_fine_data_wins_over_interpolation() {
        // Two adjacent fine patches: the shared face ghosts must come from
        // the neighbor (exact), not interpolation.
        let cdom_box = IndexBox::from_extents(16, 8, 8);
        let cdomain = ProblemDomain::non_periodic(cdom_box);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let coarse = make_level(vec![cdom_box], 1, 2, 0);
        let mut fine = make_level(
            vec![
                IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(15, 15, 15)),
                IndexBox::new(IntVect::new(16, 0, 0), IntVect::new(31, 15, 15)),
            ],
            1,
            2,
            1,
        );
        // Poison fine ghosts to catch unfilled cells.
        let poison = -1e30;
        for i in 0..2 {
            let valid = fine.valid_box(i);
            let all = fine.fab(i).bx();
            for p in all.cells() {
                if !valid.contains(p) {
                    fine.fab_mut(i).set(p, 0, poison);
                }
            }
        }
        fill_patch_two_levels(
            &mut fine,
            &coarse,
            &fdomain,
            &cdomain,
            IntVect::splat(2),
            &TrilinearInterp,
            &NoOpBoundary,
            &NoOpBoundary,
            None,
            None,
            0.0,
        );
        // The ghost column of patch 0 at x=16..17 lies inside patch 1: exact.
        for p in IndexBox::new(IntVect::new(16, 0, 0), IntVect::new(17, 15, 15)).cells() {
            assert_eq!(fine.fab(0).get(p, 0), linear_value(1, p));
        }
        // No poison left anywhere interior to the domain.
        for i in 0..2 {
            let valid = fine.valid_box(i);
            for p in valid.grow(2).intersection(&fdomain.bx).cells() {
                assert!(fine.fab(i).get(p, 0) > poison / 2.0, "unfilled {p:?}");
            }
        }
    }

    #[test]
    fn curvilinear_interp_triggers_coordinate_parallel_copy() {
        let cdom_box = IndexBox::from_extents(16, 16, 8);
        let cdomain = ProblemDomain::non_periodic(cdom_box);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let coarse = make_level(vec![cdom_box], 1, 2, 0);
        let mut fine = make_level(
            vec![IndexBox::new(IntVect::new(8, 8, 4), IntVect::new(23, 23, 11))],
            1,
            2,
            1,
        );
        // Uniform physical coordinates at both levels.
        let mut ccoords = MultiFab::new(
            coarse.boxarray().clone(),
            coarse.distribution().clone(),
            3,
            2,
        );
        for i in 0..ccoords.nfabs() {
            let b = ccoords.fab(i).bx();
            for p in b.cells() {
                for d in 0..3 {
                    ccoords.fab_mut(i).set(p, d, p[d] as f64 + 0.5);
                }
            }
        }
        let mut fcoords =
            MultiFab::new(fine.boxarray().clone(), fine.distribution().clone(), 3, 2);
        for i in 0..fcoords.nfabs() {
            let b = fcoords.fab(i).bx();
            for p in b.cells() {
                for d in 0..3 {
                    fcoords.fab_mut(i).set(p, d, (p[d] as f64 + 0.5) / 2.0);
                }
            }
        }
        let report = fill_patch_two_levels(
            &mut fine,
            &coarse,
            &fdomain,
            &cdomain,
            IntVect::splat(2),
            &CurvilinearInterp,
            &NoOpBoundary,
            &NoOpBoundary,
            Some(&ccoords),
            Some(&fcoords),
            0.0,
        );
        let cpc = report.coord_pc_plan.expect("coordinate ParallelCopy missing");
        assert!(!cpc.plan.chunks.is_empty());
        assert_eq!(cpc.plan.ncomp, 3);
        // And the interpolation is exact on the linear field.
        let valid = fine.valid_box(0);
        for p in valid.grow(2).cells() {
            if valid.contains(p) {
                continue;
            }
            assert!((fine.fab(0).get(p, 0) - linear_value(1, p)).abs() < 1e-12);
        }
        // The regrid remap is the same gather over the valid box: it moves
        // coordinates too, and is exact on the linear field in every cell.
        let (remapped, plans) = remap(
            &fine,
            &coarse,
            &cdomain,
            &CurvilinearInterp,
            Some((&ccoords, &fcoords)),
        );
        let cg = plans.coords.as_ref().expect("coordinate gather missing from the remap");
        assert!(!cg.coord_plan().plan.chunks.is_empty());
        drop(plans);
        for p in valid.cells() {
            assert!((remapped.fab(0).get(p, 0) - linear_value(1, p)).abs() < 1e-12);
        }
    }

    /// Builds the curvilinear two-level problem once: clones of `fine` share
    /// grid identity, so repeated fills exercise real cache hits.
    fn curvilinear_setup() -> (MultiFab, MultiFab, MultiFab, MultiFab, ProblemDomain, ProblemDomain)
    {
        let cdom_box = IndexBox::from_extents(16, 16, 8);
        let cdomain = ProblemDomain::new(cdom_box, [false, false, true]);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let coarse = make_level(vec![cdom_box], 1, 2, 0);
        let fine = make_level(
            vec![
                IndexBox::new(IntVect::new(4, 4, 0), IntVect::new(15, 19, 15)),
                IndexBox::new(IntVect::new(16, 4, 0), IntVect::new(27, 19, 15)),
            ],
            1,
            2,
            1,
        );
        let mut ccoords = MultiFab::new(
            coarse.boxarray().clone(),
            coarse.distribution().clone(),
            3,
            2,
        );
        for i in 0..ccoords.nfabs() {
            let b = ccoords.fab(i).bx();
            for p in b.cells() {
                for d in 0..3 {
                    ccoords.fab_mut(i).set(p, d, p[d] as f64 + 0.5);
                }
            }
        }
        let mut fcoords =
            MultiFab::new(fine.boxarray().clone(), fine.distribution().clone(), 3, 2);
        for i in 0..fcoords.nfabs() {
            let b = fcoords.fab(i).bx();
            for p in b.cells() {
                for d in 0..3 {
                    fcoords.fab_mut(i).set(p, d, (p[d] as f64 + 0.5) / 2.0);
                }
            }
        }
        (coarse, fine, ccoords, fcoords, cdomain, fdomain)
    }

    #[test]
    fn cached_parallel_two_level_fill_bitwise_matches_uncached() {
        let (coarse, fine0, ccoords, fcoords, cdomain, fdomain) = curvilinear_setup();
        let run = |opts: FillOpts<'_>| -> (MultiFab, FillPatchReport) {
            let mut fine = fine0.clone();
            let report = fill_patch_two_levels_with(
                &mut fine,
                &coarse,
                &fdomain,
                &cdomain,
                IntVect::splat(2),
                &CurvilinearInterp,
                &NoOpBoundary,
                &NoOpBoundary,
                Some(&ccoords),
                Some(&fcoords),
                0.0,
                None,
                opts,
            );
            (fine, report)
        };
        let (base, base_report) = run(FillOpts::default());
        let cache = PlanCache::new();
        for threads in [1usize, 4] {
            // Every iteration past the first must be served from cache and
            // still agree bitwise with the uncached serial fill.
            for pass in 0..2 {
                let (got, report) = run(FillOpts {
                    cache: Some(&cache),
                    threads,
                });
                for i in 0..base.nfabs() {
                    assert_eq!(
                        got.fab(i).data(),
                        base.fab(i).data(),
                        "threads={threads} pass={pass} patch {i}"
                    );
                }
                assert_eq!(report.fb_plan.plan.chunks, base_report.fb_plan.plan.chunks);
                assert_eq!(
                    report.pc_plan.as_ref().unwrap().plan.chunks,
                    base_report.pc_plan.as_ref().unwrap().plan.chunks
                );
                assert_eq!(
                    report.coord_pc_plan.as_ref().unwrap().plan.chunks,
                    base_report.coord_pc_plan.as_ref().unwrap().plan.chunks
                );
                assert_eq!(report.interpolated_cells, base_report.interpolated_cells);
            }
        }
        // 3 entries (state gather, coord gather, fill-boundary) built once,
        // then reused by the remaining 3 cached runs.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 9);
    }

    /// The epoch model across a full FillPatch: fresh after the fill (even
    /// though BC application mutates through `fabs_mut`), stale again as soon
    /// as the state changes.
    #[cfg(feature = "check")]
    #[test]
    fn fillpatch_leaves_ghosts_fresh_until_next_mutation() {
        let domain_box = IndexBox::from_extents(16, 8, 8);
        let domain = ProblemDomain::non_periodic(domain_box);
        let mut mf = make_level(
            vec![
                IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7)),
                IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(15, 7, 7)),
            ],
            1,
            2,
            0,
        );
        assert!(!mf.ghosts_fresh(), "nothing filled the ghosts yet");
        fill_patch_single_level(&mut mf, &domain, &NoOpBoundary, 0.0);
        assert!(mf.ghosts_fresh());
        mf.assert_ghosts_fresh("kernel after fill"); // must not panic
        let lo = mf.valid_box(0).lo();
        mf.fab_mut(0).set(lo, 0, 9.0); // advance the state…
        assert!(!mf.ghosts_fresh(), "…ghosts must be stale again");
    }

    /// Tentpole acceptance: a kernel running after the fill was *skipped*
    /// (the classic AMR ordering bug) traps instead of consuming stale data.
    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "stale ghost read")]
    fn skipped_fillpatch_traps_the_consuming_kernel() {
        let domain_box = IndexBox::from_extents(16, 8, 8);
        let domain = ProblemDomain::non_periodic(domain_box);
        let mut mf = make_level(
            vec![
                IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7)),
                IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(15, 7, 7)),
            ],
            1,
            2,
            0,
        );
        fill_patch_single_level(&mut mf, &domain, &NoOpBoundary, 0.0);
        let lo = mf.valid_box(0).lo();
        mf.fab_mut(0).set(lo, 0, 9.0); // stage update
        // ... fill_patch_single_level deliberately skipped ...
        mf.assert_ghosts_fresh("stencil kernel"); // the trap
    }

    #[test]
    fn periodic_ghosts_use_wrapped_coarse_data() {
        // z-periodic domain; fine patch spans full z, so its z ghosts wrap.
        let cdom_box = IndexBox::from_extents(16, 16, 4);
        let cdomain = ProblemDomain::new(cdom_box, [false, false, true]);
        let fdomain = cdomain.refine(IntVect::splat(2));
        let coarse = make_level(vec![cdom_box], 1, 2, 0);
        let mut fine = make_level(
            vec![IndexBox::new(IntVect::new(8, 8, 0), IntVect::new(23, 23, 7))],
            1,
            2,
            1,
        );
        fill_patch_two_levels(
            &mut fine,
            &coarse,
            &fdomain,
            &cdomain,
            IntVect::splat(2),
            &TrilinearInterp,
            &NoOpBoundary,
            &NoOpBoundary,
            None,
            None,
            0.0,
        );
        // A z-ghost below the domain must hold the wrapped fine value.
        let p = IntVect::new(12, 12, -1);
        let wrapped = IntVect::new(12, 12, 7);
        assert!(
            (fine.fab(0).get(p, 0) - linear_value(1, wrapped)).abs() < 1e-12,
            "periodic ghost {p:?}"
        );

        // The regrid remap of the same patch reads its z-low and z-high
        // donors through the periodic faces: bitwise what it reads from a
        // non-periodic coarse level tiled with the periodic images.
        let (wrapped_remap, plans) = remap(&fine, &coarse, &cdomain, &TrilinearInterp, None);
        assert!(
            plans.state.state_plan().plan.chunks.iter().any(|c| c.shift != IntVect::ZERO),
            "the remap footprint must wrap"
        );
        let tiled_box = cdom_box.grow_lo(2, 4).grow_hi(2, 4);
        let mut tiled = make_level(vec![tiled_box], 1, 2, 0);
        for p in tiled_box.cells() {
            let image = IntVect::new(p[0], p[1], p[2].rem_euclid(4));
            tiled.fab_mut(0).set(p, 0, coarse.fab(0).get(image, 0));
        }
        let (tiled_remap, _) = remap(
            &fine,
            &tiled,
            &ProblemDomain::non_periodic(tiled_box),
            &TrilinearInterp,
            None,
        );
        let valid_bits = |mf: &MultiFab| -> Vec<u64> {
            let valid = mf.valid_box(0);
            valid.cells().map(|p| mf.fab(0).get(p, 0).to_bits()).collect()
        };
        assert_eq!(valid_bits(&wrapped_remap), valid_bits(&tiled_remap));
    }

    /// Non-uniform coordinates for [`curvilinear_setup`]'s grids (a different
    /// stretch per direction, smooth through the ghosts), so physical
    /// weights differ from index weights in every cell.
    fn stretched_coords(coarse: &MultiFab, fine: &MultiFab) -> (MultiFab, MultiFab) {
        let xmap = |x: f64, d: usize| (x + 8.0).powf(1.0 + 0.2 * d as f64) + 0.05 * x;
        let build = |mf: &MultiFab, scale: f64| {
            let mut c = MultiFab::new(mf.boxarray().clone(), mf.distribution().clone(), 3, 2);
            for i in 0..c.nfabs() {
                for p in c.fab(i).bx().cells() {
                    for d in 0..3 {
                        c.fab_mut(i).set(p, d, xmap((p[d] as f64 + 0.5) / scale, d));
                    }
                }
            }
            c
        };
        (build(coarse, 1.0), build(fine, 2.0))
    }

    /// Overwrites every valid cell with unrelated values, so a cell read
    /// from the wrong place shows.
    fn scramble(mf: &mut MultiFab, salt: i64) {
        for i in 0..mf.nfabs() {
            for p in mf.valid_box(i).cells() {
                for c in 0..mf.ncomp() {
                    let n = p[0] * 131 + p[1] * 31 + p[2] * 7 + c as i64 * 3 + salt * 1009;
                    mf.fab_mut(i).set(p, c, (n as f64 * 0.618).sin());
                }
            }
        }
    }

    /// [`curvilinear_setup`]'s grids (z-periodic, so the ghost gather wraps)
    /// with scrambled coarse new/old states and stretched coordinates.
    struct Scrambled {
        coarse: MultiFab,
        old: MultiFab,
        fine: MultiFab,
        ccoords: MultiFab,
        fcoords: MultiFab,
        cdomain: ProblemDomain,
        fdomain: ProblemDomain,
    }

    impl Scrambled {
        fn new() -> Self {
            let (mut coarse, fine, _, _, cdomain, fdomain) = curvilinear_setup();
            scramble(&mut coarse, 1);
            let mut old = coarse.clone();
            scramble(&mut old, 2);
            let (ccoords, fcoords) = stretched_coords(&coarse, &fine);
            Scrambled {
                coarse,
                old,
                fine,
                ccoords,
                fcoords,
                cdomain,
                fdomain,
            }
        }

        /// The ghost-fill plans (through `cache`) and the regrid-remap plans
        /// of `interp`, reading coarse coordinates from `ccoords`.
        fn plans<'a>(
            &'a self,
            interp: &'a dyn Interpolator,
            ccoords: &'a MultiFab,
            cache: Option<&PlanCache>,
        ) -> [(&'static str, TwoLevelPlans<'a>); 2] {
            let (cc, fc) = (Some(ccoords), Some(&self.fcoords));
            let ghosts = resolve_two_level_plans(
                &self.fine,
                &self.coarse,
                &self.fdomain,
                &self.cdomain,
                GhostFootprint::Faces(self.fine.nghost()),
                R2,
                interp,
                cc,
                fc,
                cache,
            );
            let wraps = |c: &CopyChunk| c.shift != IntVect::ZERO;
            assert!(ghosts.state.state.plan.chunks.iter().any(wraps), "the ghost gather must wrap");
            let remap =
                resolve_remap_plans(&self.fine, &self.coarse, &self.cdomain, R2, interp, cc, fc);
            [("ghost fill", ghosts), ("regrid remap", remap)]
        }
    }

    const ALL_INTERPS: [&dyn Interpolator; 3] =
        [&TrilinearInterp, &CurvilinearInterp, &PiecewiseConstantInterp];

    /// The cached-stencil fill is bitwise the per-cell reference — ghost
    /// fill and regrid remap, the two blend interpolators and injection,
    /// time-interpolated at both ends and the middle. A last fill through
    /// the cached plan with the coarse coordinates poisoned proves they are
    /// read once.
    #[test]
    fn cached_stencil_fill_bitwise_matches_the_per_cell_reference() {
        let s = Scrambled::new();
        let pccoords = poisoned(&s.ccoords);
        let local = RemoteGathers::default();
        for interp in ALL_INTERPS {
            let name = interp.name();
            let cache = PlanCache::new();
            let legs = s.plans(interp, &s.ccoords, Some(&cache));
            for (what, plans) in &legs {
                for alpha in [0.0, 0.5, 1.0] {
                    let ti = Some(CoarseTimeInterp { old: &s.old, alpha });
                    let want = reference_fill(&s.fine, plans, &s.coarse, ti);
                    assert!(
                        want.fab(0).data().iter().any(|v| *v != 0.0),
                        "{name} {what}: nothing was filled"
                    );
                    let got = fill_all(&s.fine, plans, &s.coarse, &s.cdomain, ti, &local);
                    assert_eq!(bits(&got), bits(&want), "{name} {what} alpha={alpha}");
                }
            }
            // The same cache entry, resolved again with the coarse
            // coordinates gone: its stencils already hold all they gave.
            let want = reference_fill(&s.fine, &legs[0].1, &s.coarse, None);
            let [(_, again), _] = s.plans(interp, &pccoords, Some(&cache));
            assert!(Arc::ptr_eq(&again.state, &legs[0].1.state), "{name}: not served from cache");
            let got = fill_all(&s.fine, &again, &s.coarse, &s.cdomain, None, &local);
            assert_eq!(bits(&got), bits(&want), "{name}: coordinates were read again");
        }
    }

    /// The owned-data path: with *every* gather chunk delivered as a
    /// `pack_chunk` payload — and the local coarse fabs poisoned, so a chunk
    /// read locally would show — ghost fill and regrid remap, coordinate
    /// gather (behind the stencil build) and time blend included, reproduce
    /// the all-local result bitwise.
    #[test]
    fn every_chunk_remote_bitwise_matches_every_chunk_local() {
        let s = Scrambled::new();
        let (pcoarse, pccoords, pold) = (poisoned(&s.coarse), poisoned(&s.ccoords), poisoned(&s.old));
        for interp in ALL_INTERPS {
            let name = interp.name();
            // Each side fills through plans of its own, so the remote side's
            // stencils are built from landed coordinate payloads.
            let local_legs = s.plans(interp, &s.ccoords, None);
            let remote_legs = s.plans(interp, &pccoords, None);
            for ((what, local_plans), (_, remote_plans)) in local_legs.iter().zip(&remote_legs) {
                let state_plan = &local_plans.state.state.plan;
                assert!(!state_plan.chunks.is_empty());
                let coord_plan = local_plans.coords.as_ref().map(|cg| &cg.coord_plan().plan);
                assert_eq!(coord_plan.is_some(), interp.needs_coords());
                let remote = RemoteGathers {
                    state: all_landed(&s.coarse, state_plan),
                    coords: coord_plan.map(|plan| all_landed(&s.ccoords, plan)),
                    old: all_landed(&s.old, state_plan),
                };
                let ti = |old| Some(CoarseTimeInterp { old, alpha: 0.25 });
                let none = RemoteGathers::default();
                let local = fill_all(&s.fine, local_plans, &s.coarse, &s.cdomain, ti(&s.old), &none);
                let landed_only =
                    fill_all(&s.fine, remote_plans, &pcoarse, &s.cdomain, ti(&pold), &remote);
                assert!(
                    local.fab(0).data().iter().any(|v| *v != 0.0),
                    "{name} {what}: nothing was filled"
                );
                assert_eq!(bits(&local), bits(&landed_only), "{name} {what}");
            }
        }
    }

    /// One coordinate round per plan: the first exchange through a plan
    /// reports it, later ones — and every exchange of a scheme that reads no
    /// coordinates — do not.
    #[test]
    fn coordinates_are_exchanged_once_per_plan() {
        let (coarse, fine, ccoords, fcoords, cdomain, fdomain) = curvilinear_setup();
        let solo = crocco_runtime::RankEndpoint::solo();
        let gep = GroupEndpoint::full(&solo);
        let cache = PlanCache::new();
        let rounds = |interp: &dyn Interpolator, cache: Option<&PlanCache>| -> Vec<bool> {
            (0..3)
                .map(|n| {
                    let plans = resolve_two_level_plans(
                        &fine, &coarse, &fdomain, &cdomain, GhostFootprint::Shell(fine.nghost()),
                        R2, interp, Some(&ccoords),
                        Some(&fcoords), cache,
                    );
                    let remote = plans
                        .exchange(&coarse, None, &gep, &mut || tags::round(0, n))
                        .expect("solo group");
                    remote.gathered_coords()
                })
                .collect()
        };
        assert_eq!(rounds(&CurvilinearInterp, Some(&cache)), [true, false, false]);
        assert_eq!(rounds(&CurvilinearInterp, None), [true; 3], "a fresh plan every call");
        assert_eq!(rounds(&TrilinearInterp, Some(&cache)), [false; 3]);
    }
}
