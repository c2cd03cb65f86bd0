//! The CRoCCo time-marching driver (Algorithms 1 and 2 of the paper).
//!
//! ```text
//! InitGrid(); InitGridMetrics(); InitFlow();
//! for n = nstart..nend:
//!     if mod(step, regridFreq) == 0: Regrid()
//!     ComputeDt()
//!     RK3()           // per stage, per level: FillPatch, BC_Fill,
//!                     // WENOx/y/z, Viscous, Update; AverageDown at stage 3
//! ```

use crate::backend::BackendKind;
use crate::bc::PhysicalBc;
use crate::config::SolverConfig;
use crate::kernels::{gradient_magnitude, NGHOST};
use crate::config::CoordSource;
use crate::metrics::{
    compute_metrics, generate_coords, read_coords_from_file, write_coords_file, NCOORDS,
    NMETRICS,
};
use crate::reference::weno_flux_reference;
use crate::state::NCONS;
use crocco_amr::fillpatch::{
    fill_patch_single_level_with, fill_patch_two_levels_with, fill_two_level_patch,
    resolve_two_level_plans, CoarseTimeInterp, FillOpts, FillPatchReport, TwoLevelPlans,
};
use crocco_amr::hierarchy::{AmrHierarchy, AmrParams};
use crocco_amr::interp::Interpolator;
use crocco_amr::BoundaryFiller;
use crocco_amr::tagging::TagSet;
use crocco_fab::plan::PlanStats;
use crocco_fab::plan_cache::{PlanKey, PlanOp};
use crocco_fab::{
    band_slabs, fabcheck, run_rk_stage_with_skeleton, tile_boxes, BoxArray, DistributionMapping,
    FArrayBox, FabRd, FabRw, FabView, MultiFab, StageFabs, StageSkeleton, SweepPhase,
};
use crocco_geometry::{GridMapping, IndexBox, IntVect, ProblemDomain, RealVect};
use crocco_perfmodel::Profiler;
use crocco_runtime::{parallel_for_each_mut, parallel_zip_mut};
use crocco_fab::DistributionStrategy;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `PlanOp::Aux` namespace tag for memoized on-node stage skeletons
/// ([`StageSkeleton`]); the AMR two-level plans use tags 1–2.
pub(crate) const AUX_STAGE_SKELETON: u32 = 3;
/// `PlanOp::Aux` namespace tag for memoized distributed stage skeletons
/// (`DistSkeleton`, keyed per rank through the key's `aux` bits).
pub(crate) const AUX_DIST_SKELETON: u32 = 4;
/// `PlanOp::Aux` namespace tag for memoized static schedule verifications of
/// on-node stage skeletons (`VerifyReport`, DESIGN.md §4i).
pub(crate) const AUX_STAGE_VERIFY: u32 = 5;
/// `PlanOp::Aux` namespace tag for memoized static schedule verifications of
/// distributed stages (all ranks + cross-rank checks; keyed by rank count
/// through the key's `aux` bits).
pub(crate) const AUX_DIST_VERIFY: u32 = 6;

/// Williamson low-storage RK3 coefficients.
pub const RK3_A: [f64; 3] = [0.0, -5.0 / 9.0, -153.0 / 128.0];
/// Williamson low-storage RK3 coefficients.
pub const RK3_B: [f64; 3] = [1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0];

/// Per-level field data: the four MultiFabs §III-C enumerates (state, dU,
/// coordinates, 27-component metrics).
pub struct LevelData {
    /// Conserved state (with [`NGHOST`] ghosts).
    pub state: MultiFab,
    /// Low-storage RK accumulator dU.
    pub du: MultiFab,
    /// Physical coordinates (3 components).
    pub coords: MultiFab,
    /// Grid metrics (27 components).
    pub metrics: MultiFab,
    /// Per-patch RHS scratch `L(U)` for the RK stages: allocated once per
    /// regrid and zeroed in place each stage, so the hot loop never touches
    /// the allocator.
    pub(crate) rhs: Vec<FArrayBox>,
    /// The state at the start of the current coarse step, kept while
    /// subcycling so finer levels can time-interpolate their coarse/fine
    /// ghosts between this and `state` (docs/ARCHITECTURE.md §Subcycling).
    /// Swapped (not copied) with `state` at each save; `None` until the
    /// first subcycled step and on levels with nothing finer.
    pub(crate) state_old: Option<MultiFab>,
}

impl LevelData {
    /// Assembles one level's data, sizing the RHS scratch to the state's
    /// valid boxes.
    pub(crate) fn new(state: MultiFab, du: MultiFab, coords: MultiFab, metrics: MultiFab) -> Self {
        let ba = state.boxarray();
        // Under owned-data distribution the RHS scratch follows the state's
        // allocation: unallocated placeholders keep the vector index-aligned
        // with the (replicated) BoxArray while storing nothing for patches
        // other ranks own.
        let rhs = (0..ba.len())
            .map(|i| {
                if state.is_allocated(i) {
                    FArrayBox::new(ba.get(i), NCONS)
                } else {
                    FArrayBox::unallocated(ba.get(i), NCONS)
                }
            })
            .collect();
        LevelData {
            state,
            du,
            coords,
            metrics,
            rhs,
            state_old: None,
        }
    }
}

/// Aggregated communication accounting for one run — the inputs to the
/// Summit network model in the scaling studies.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CommTotals {
    /// FillBoundary message-pair count (off-rank).
    pub fb_messages: u64,
    /// FillBoundary off-rank bytes.
    pub fb_bytes: u64,
    /// State ParallelCopy message pairs.
    pub pc_messages: u64,
    /// State ParallelCopy off-rank bytes.
    pub pc_bytes: u64,
    /// Coordinate ParallelCopy message pairs (curvilinear interpolator only).
    pub coord_pc_messages: u64,
    /// Coordinate ParallelCopy off-rank bytes.
    pub coord_pc_bytes: u64,
    /// Global reductions issued (`ReduceRealMin` in ComputeDt).
    pub reductions: u64,
    /// Fine ghost cells produced by interpolation.
    pub interpolated_cells: u64,
}

impl CommTotals {
    pub(crate) fn absorb_plan(&mut self, stats: &PlanStats, kind: PlanKind) {
        match kind {
            PlanKind::FillBoundary => {
                self.fb_messages += stats.num_messages;
                self.fb_bytes += stats.remote_bytes;
            }
            PlanKind::ParallelCopy => {
                self.pc_messages += stats.num_messages;
                self.pc_bytes += stats.remote_bytes;
            }
            PlanKind::CoordCopy => {
                self.coord_pc_messages += stats.num_messages;
                self.coord_pc_bytes += stats.remote_bytes;
            }
        }
    }
}

pub(crate) enum PlanKind {
    FillBoundary,
    ParallelCopy,
    CoordCopy,
}

/// Summary of an [`Simulation::advance_steps`] run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Steps taken.
    pub steps: u32,
    /// Simulation time reached.
    pub final_time: f64,
    /// Last stable time step.
    pub dt: f64,
    /// Active grid points across all levels after the run.
    pub active_points: u64,
    /// Equivalent uniformly-fine grid points.
    pub equivalent_points: u64,
    /// AMR grid-point reduction (§V-C reports 89–94 % for DMR).
    pub reduction_fraction: f64,
    /// Communication accounting.
    pub comm: CommTotals,
    /// Total cell updates (one full RK step of one cell) across the run.
    /// Lockstep advances every level each step; subcycling advances level
    /// `ℓ` `2^ℓ` times per coarse step — this counter is what the
    /// `fig_subcycle` ablation compares (docs/results/subcycle.md).
    #[serde(default)]
    pub cell_updates: u64,
}

/// A full CRoCCo simulation instance.
pub struct Simulation {
    /// The configuration this run was built from.
    pub cfg: SolverConfig,
    pub(crate) gas: crate::eos::PerfectGas,
    pub(crate) mapping: Arc<dyn GridMapping>,
    pub(crate) hierarchy: AmrHierarchy,
    pub(crate) levels: Vec<LevelData>,
    pub(crate) interp: Box<dyn Interpolator>,
    /// Region profiler (TinyProfiler analog); real wall-clock seconds.
    pub profiler: Profiler,
    /// Communication accounting.
    pub comm: CommTotals,
    /// Per-level coordinate files (populated for `CoordSource::BinaryFile`).
    coord_files: Vec<std::path::PathBuf>,
    /// `Some(rank)` when this instance participates in owned-data
    /// distribution (docs/DISTRIBUTED.md): every `MultiFab` allocates data
    /// only for the patches the `DistributionMapping` assigns to `rank`;
    /// the rest are metadata-only placeholders. `None` (the default, and
    /// always the case outside cluster stepping) replicates every patch.
    pub(crate) owned_rank: Option<usize>,
    pub(crate) time: f64,
    pub(crate) dt: f64,
    pub(crate) step: u32,
    /// Flux registers + recording geometry per coarse/fine level pair
    /// (`subcycle[l]` couples levels `l` and `l+1`). Rebuilt lazily whenever
    /// the grids change; empty unless `cfg.subcycling`.
    pub(crate) subcycle: Vec<crate::subcycle::InterfaceReg>,
    /// Running cell-update total (see [`RunReport::cell_updates`]).
    pub(crate) cell_updates: u64,
    /// Monotone subcycled-exchange slot counter for the owned-data path:
    /// every fill/exchange round inside a subcycled step draws a fresh tag
    /// epoch from this counter so substeps never alias each other's
    /// messages. Identical across ranks by construction.
    pub(crate) sub_slot: u64,
}

impl Simulation {
    /// Builds the simulation: grid, metrics, initial flow, and (for AMR
    /// versions) the initial refined levels.
    pub fn new(cfg: SolverConfig) -> Self {
        let mut sim = Simulation::new_impl(cfg, None);
        // Iteratively grow the initial hierarchy: tag on the initial flow,
        // regrid, re-initialize — until the ladder stops changing.
        if sim.cfg.version.amr_enabled() {
            for _ in 0..sim.cfg.max_levels {
                let tags = sim.compute_tags();
                if !sim.hierarchy.regrid(&tags) {
                    break;
                }
                sim.rebuild_all_levels_from_ic();
            }
        }
        sim
    }

    /// Shared construction body: everything except the initial-regrid loop,
    /// which differs between the serial path (local tags suffice) and
    /// owned-data cluster construction (each rank tags only owned patches,
    /// so the per-round tag sets must be unioned across ranks first —
    /// `Simulation::new_owned` in `cluster_step`).
    pub(crate) fn new_impl(cfg: SolverConfig, owned_rank: Option<usize>) -> Self {
        let gas = cfg.problem.gas();
        let mapping = cfg.problem.mapping();
        let domain0 = ProblemDomain::new(
            IndexBox::from_extents(cfg.extents[0], cfg.extents[1], cfg.extents[2]),
            cfg.problem.periodicity(),
        );
        let params = AmrParams {
            max_levels: cfg.effective_levels(),
            ref_ratio: IntVect::splat(2),
            blocking_factor: cfg.blocking_factor,
            max_grid_size: cfg.max_grid_size,
            grid_eff: cfg.grid_eff,
            n_error_buf: cfg.n_error_buf,
            regrid_freq: cfg.regrid_freq,
            nesting_buffer: cfg.blocking_factor,
        };
        let hierarchy = AmrHierarchy::new(
            domain0,
            params,
            cfg.nranks,
            DistributionStrategy::MortonSfc,
        );
        let interp = cfg
            .interpolator
            .map(|k| k.build())
            .unwrap_or_else(|| cfg.version.interpolator());
        let mut sim = Simulation {
            gas,
            mapping,
            hierarchy,
            levels: Vec::new(),
            interp,
            profiler: Profiler::new(),
            comm: CommTotals::default(),
            coord_files: Vec::new(),
            owned_rank,
            time: 0.0,
            dt: 0.0,
            step: 0,
            subcycle: Vec::new(),
            cell_updates: 0,
            sub_slot: 0,
            cfg,
        };
        sim.prepare_coord_files();
        sim.rebuild_all_levels_from_ic();
        sim
    }

    /// Rebuilds a simulation from a checkpoint: grids come from the saved
    /// box lists, valid data from the saved body, grid metrics are
    /// regenerated from the mapping (coordinates are a pure function of the
    /// grids, per §III-C), and the step/time counters resume.
    pub fn from_checkpoint(cfg: SolverConfig, chk: &crate::io::Checkpoint) -> Self {
        Simulation::from_checkpoint_impl(cfg, chk, None)
    }

    /// Checkpoint restore body, parameterized on the ownership mode. With
    /// `owned_rank = Some(r)` only owned patches allocate and only their
    /// valid data is overwritten from the (globally identical) checkpoint
    /// body — checkpoints stay whole-domain so any surviving rank subset can
    /// restore from them after a crash.
    pub(crate) fn from_checkpoint_impl(
        cfg: SolverConfig,
        chk: &crate::io::Checkpoint,
        owned_rank: Option<usize>,
    ) -> Self {
        let gas = cfg.problem.gas();
        let mapping = cfg.problem.mapping();
        let domain0 = ProblemDomain::new(
            IndexBox::from_extents(cfg.extents[0], cfg.extents[1], cfg.extents[2]),
            cfg.problem.periodicity(),
        );
        let params = AmrParams {
            max_levels: cfg.effective_levels(),
            ref_ratio: IntVect::splat(2),
            blocking_factor: cfg.blocking_factor,
            max_grid_size: cfg.max_grid_size,
            grid_eff: cfg.grid_eff,
            n_error_buf: cfg.n_error_buf,
            regrid_freq: cfg.regrid_freq,
            nesting_buffer: cfg.blocking_factor,
        };
        let hierarchy = AmrHierarchy::from_boxes(
            domain0,
            params,
            cfg.nranks,
            DistributionStrategy::MortonSfc,
            &chk.levels[1..],
        );
        assert_eq!(
            hierarchy.level(0).ba.boxes(),
            &chk.levels[0][..],
            "checkpoint level-0 grids must match the configured decomposition"
        );
        let mut sim = Simulation {
            gas,
            mapping,
            hierarchy,
            levels: Vec::new(),
            interp: cfg
                .interpolator
                .map(|k| k.build())
                .unwrap_or_else(|| cfg.version.interpolator()),
            profiler: Profiler::new(),
            comm: CommTotals::default(),
            coord_files: Vec::new(),
            owned_rank,
            time: chk.time,
            dt: 0.0,
            step: chk.step,
            subcycle: Vec::new(),
            cell_updates: 0,
            sub_slot: 0,
            cfg,
        };
        sim.prepare_coord_files();
        sim.rebuild_all_levels_from_ic();
        // Overwrite valid data with the checkpoint body (owned patches only
        // under owned-data distribution — the rest have no storage).
        for (l, level_data) in chk.data.iter().enumerate() {
            let state = &mut sim.levels[l].state;
            for (i, vals) in level_data.iter().enumerate() {
                if !state.is_allocated(i) {
                    continue;
                }
                let valid = state.valid_box(i);
                let mut it = vals.iter();
                for c in 0..NCONS {
                    for p in valid.cells() {
                        state.fab_mut(i).set(p, c, *it.next().expect("short checkpoint"));
                    }
                }
            }
        }
        sim
    }

    /// Allocates a solver `MultiFab` honouring the sanitizer knobs: signaling
    /// NaNs in every cell when `nan_poison` is on (so an unwritten cell traps
    /// in the next `check_for_nan` sweep instead of smuggling a zero), and the
    /// per-fab `fabcheck` toggle mirroring the config. Under owned-data
    /// distribution only the patches [`owned_rank`](Self::owned_rank) owns
    /// get storage.
    pub(crate) fn alloc_mf(
        &self,
        ba: Arc<BoxArray>,
        dm: Arc<DistributionMapping>,
        ncomp: usize,
        nghost: i64,
    ) -> MultiFab {
        let mut mf = match (self.owned_rank, self.cfg.nan_poison) {
            (Some(r), true) => MultiFab::new_owned_poisoned(ba, dm, ncomp, nghost, r),
            (Some(r), false) => MultiFab::new_owned(ba, dm, ncomp, nghost, r),
            (None, true) => MultiFab::new_poisoned(ba, dm, ncomp, nghost),
            (None, false) => MultiFab::new(ba, dm, ncomp, nghost),
        };
        mf.set_fabcheck(self.cfg.fabcheck);
        mf
    }

    /// Level extents at level `l`.
    pub(crate) fn level_extents(&self, l: usize) -> IntVect {
        let s = self.hierarchy.domain(l).bx.size();
        IntVect::new(s[0], s[1], s[2])
    }

    /// Writes the per-level coordinate files when the configuration asks for
    /// the §III-C binary-file regrid path.
    fn prepare_coord_files(&mut self) {
        if self.cfg.coord_source != CoordSource::BinaryFile {
            return;
        }
        let dir = std::env::temp_dir().join(format!(
            "crocco_coords_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("cannot create coord file dir");
        for l in 0..self.cfg.effective_levels() {
            let path = dir.join(format!("level_{l}.coords"));
            write_coords_file(self.mapping.as_ref(), self.level_extents_static(l), &path)
                .expect("cannot write coordinate file");
            self.coord_files.push(path);
        }
    }

    /// Level extents derived purely from the config (valid before the
    /// hierarchy holds that many levels).
    fn level_extents_static(&self, l: usize) -> IntVect {
        let mut e = self.cfg.extents;
        for _ in 0..l {
            e = e.refine(IntVect::splat(2));
        }
        e
    }

    /// Allocates and initializes one level's grid data (coords + metrics),
    /// honouring the configured coordinate source.
    pub(crate) fn make_level_grid(&self, l: usize) -> (MultiFab, MultiFab) {
        let lev = self.hierarchy.level(l);
        let mut coords = match self.owned_rank {
            Some(r) => {
                MultiFab::new_owned(lev.ba.clone(), lev.dm.clone(), NCOORDS, NGHOST + 2, r)
            }
            None => MultiFab::new(lev.ba.clone(), lev.dm.clone(), NCOORDS, NGHOST + 2),
        };
        match self.cfg.coord_source {
            CoordSource::Memory => {
                generate_coords(self.mapping.as_ref(), self.level_extents(l), &mut coords);
            }
            CoordSource::BinaryFile => {
                read_coords_from_file(
                    &self.coord_files[l],
                    self.mapping.as_ref(),
                    self.level_extents(l),
                    &mut coords,
                )
                .expect("coordinate file read failed");
            }
        }
        let mut metrics = self.alloc_mf(lev.ba.clone(), lev.dm.clone(), NMETRICS, NGHOST);
        compute_metrics(&coords, &mut metrics);
        (coords, metrics)
    }

    /// Initializes one level's state (all cells, ghosts included) from the
    /// problem's initial condition at the stored coordinates.
    fn init_state_from_ic(&self, coords: &MultiFab, state: &mut MultiFab) {
        for i in 0..state.nfabs() {
            if !state.is_allocated(i) {
                continue;
            }
            let bx = state.fab(i).bx();
            for p in bx.cells() {
                let x = RealVect::new(
                    coords.fab(i).get(p, 0),
                    coords.fab(i).get(p, 1),
                    coords.fab(i).get(p, 2),
                );
                let u = self.cfg.problem.initial_state(x, &self.gas);
                for c in 0..NCONS {
                    state.fab_mut(i).set(p, c, u.0[c]);
                }
            }
        }
    }

    /// Rebuilds every level's data directly from the initial condition
    /// (used during hierarchy construction at t = 0).
    pub(crate) fn rebuild_all_levels_from_ic(&mut self) {
        self.levels.clear();
        for l in 0..self.hierarchy.nlevels() {
            let lev = self.hierarchy.level(l);
            let (coords, metrics) = self.make_level_grid(l);
            let mut state = self.alloc_mf(lev.ba.clone(), lev.dm.clone(), NCONS, NGHOST);
            self.init_state_from_ic(&coords, &mut state);
            state.mark_ghosts_filled(); // the IC writes every cell, ghosts included
            let du = self.alloc_mf(lev.ba.clone(), lev.dm.clone(), NCONS, 0);
            self.levels.push(LevelData::new(state, du, coords, metrics));
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Last stable dt.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Steps taken.
    pub fn step_count(&self) -> u32 {
        self.step
    }

    /// Number of active levels.
    pub fn nlevels(&self) -> usize {
        self.hierarchy.nlevels()
    }

    /// The AMR hierarchy (grids and domains).
    pub fn hierarchy(&self) -> &AmrHierarchy {
        &self.hierarchy
    }

    /// Level `l`'s field data.
    pub fn level(&self, l: usize) -> &LevelData {
        &self.levels[l]
    }

    /// Refinement tags per level from the |∇ρ| criterion (§II-B): the scratch
    /// gradient field is thresholded against the configured value. Only
    /// levels that may host a finer one are tagged. Under owned-data
    /// distribution this tags *owned* patches only — the distributed regrid
    /// unions the per-rank sets before clustering.
    pub fn compute_tags(&self) -> Vec<TagSet> {
        let mut out = Vec::new();
        for l in 0..self.hierarchy.nlevels().min(self.cfg.effective_levels() - 1) {
            let state = &self.levels[l].state;
            let mut tags = TagSet::new();
            for i in 0..state.nfabs() {
                if !state.is_allocated(i) {
                    continue;
                }
                let valid = state.valid_box(i);
                let mut g = FArrayBox::new(valid, 1);
                gradient_magnitude(state.fab(i), &mut g, valid, crate::state::cons::RHO);
                for p in valid.cells() {
                    if g.get(p, 0) > self.cfg.tag_threshold {
                        tags.tag(p);
                    }
                }
            }
            out.push(tags);
        }
        out
    }

    /// One full time step (Algorithm 1 loop body).
    pub fn step(&mut self) {
        if self.cfg.version.amr_enabled()
            && self.step > 0
            && self.step.is_multiple_of(self.cfg.regrid_freq)
        {
            let t0 = std::time::Instant::now();
            self.regrid();
            self.profiler.add("Regrid", t0.elapsed().as_secs_f64());
        }
        let t0 = std::time::Instant::now();
        if self.cfg.subcycling {
            self.compute_dt_subcycled();
        } else {
            self.compute_dt();
        }
        self.profiler.add("ComputeDt", t0.elapsed().as_secs_f64());
        if self.cfg.subcycling {
            self.advance_subcycled();
        } else {
            self.rk3();
            self.cell_updates += self.hierarchy.active_points();
        }
        self.step += 1;
        self.time += self.dt;
    }

    /// Advances `n` steps and reports.
    pub fn advance_steps(&mut self, n: u32) -> RunReport {
        for _ in 0..n {
            self.step();
        }
        self.report()
    }

    /// Builds a report of the current run state.
    pub fn report(&self) -> RunReport {
        RunReport {
            steps: self.step,
            final_time: self.time,
            dt: self.dt,
            active_points: self.hierarchy.active_points(),
            equivalent_points: self.hierarchy.equivalent_fine_points(),
            reduction_fraction: self.hierarchy.reduction_fraction(),
            comm: self.comm,
            cell_updates: self.cell_updates,
        }
    }

    /// Regrids and remaps field data onto the new grids (Algorithm 1 line 7).
    pub(crate) fn regrid(&mut self) {
        let tags = self.compute_tags();
        // Refresh coarse ghosts so remap interpolation has sound sources.
        for l in 0..self.hierarchy.nlevels() {
            self.fill_level(l);
        }
        let changed = self.hierarchy.regrid(&tags);
        if !changed {
            return;
        }
        // Remap levels 1.. onto the new grids: interpolate everything from
        // the (already remapped) coarser level, then overwrite with any
        // surviving same-level data.
        let nlev = self.hierarchy.nlevels();
        let mut new_levels: Vec<LevelData> = Vec::with_capacity(nlev);
        // Level 0 grids never change.
        let old0 = std::mem::take(&mut self.levels);
        let mut old_iter: Vec<Option<LevelData>> = old0.into_iter().map(Some).collect();
        new_levels.push(old_iter[0].take().unwrap());
        for l in 1..nlev {
            let lev = self.hierarchy.level(l);
            let (coords, metrics) = self.make_level_grid(l);
            let mut state = self.alloc_mf(lev.ba.clone(), lev.dm.clone(), NCONS, NGHOST);
            // Interpolate the whole valid region from the coarser new level.
            let coarse = &new_levels[l - 1];
            let coarse_domain = self.hierarchy.domain(l - 1);
            let coarse_bc = PhysicalBc::new(
                self.cfg.problem,
                self.gas,
                self.level_extents(l - 1),
            );
            self.interp_full_level(
                &coarse.state,
                &coarse.coords,
                &coords,
                &mut state,
                &coarse_domain,
                &coarse_bc,
            );
            // Overwrite with surviving same-level data.
            if let Some(old) = old_iter.get_mut(l).and_then(|o| o.take()) {
                let domain = self.hierarchy.domain(l);
                let plan = state.parallel_copy_from(&old.state, &domain);
                self.comm.absorb_plan(&plan.stats(), PlanKind::ParallelCopy);
            }
            let du = self.alloc_mf(lev.ba.clone(), lev.dm.clone(), NCONS, 0);
            new_levels.push(LevelData::new(state, du, coords, metrics));
        }
        self.levels = new_levels;
    }

    /// Fills every valid cell of `state` by interpolating `coarse_state`
    /// (used when a brand-new patch appears during regridding).
    fn interp_full_level(
        &self,
        coarse_state: &MultiFab,
        coarse_coords: &MultiFab,
        fine_coords: &MultiFab,
        state: &mut MultiFab,
        coarse_domain: &ProblemDomain,
        coarse_bc: &PhysicalBc,
    ) {
        self.interp_full_level_with_remote(
            coarse_state,
            coarse_coords,
            fine_coords,
            state,
            coarse_domain,
            coarse_bc,
            None,
            None,
        );
    }

    /// The remap-interpolation body, parameterized on remote gather payloads
    /// for owned-data regridding. Chunk indices are global over the
    /// deterministic `(fab, chunk)` enumeration of [`interp_gather_chunks`]
    /// — the same enumeration the distributed regrid uses to decide which
    /// chunks to send — so `remote_state`/`remote_coords` maps (keyed by that
    /// index, produced by `crocco_fab::owned::exchange_chunks`) substitute
    /// bitwise-exactly for the local copies. With `None` maps every chunk
    /// copies locally: the replicated path.
    ///
    /// Under owned-data distribution, fine patches this rank does not own
    /// are skipped (their chunk indices still advance, keeping the global
    /// numbering rank-independent).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn interp_full_level_with_remote(
        &self,
        coarse_state: &MultiFab,
        coarse_coords: &MultiFab,
        fine_coords: &MultiFab,
        state: &mut MultiFab,
        coarse_domain: &ProblemDomain,
        coarse_bc: &PhysicalBc,
        remote_state: Option<&HashMap<usize, Bytes>>,
        remote_coords: Option<&HashMap<usize, Bytes>>,
    ) {
        let ratio = IntVect::splat(2);
        let owned = self.owned_rank.is_some();
        let needs_coords = self.interp.needs_coords();
        let mut state_base = 0usize;
        let mut coord_base = 0usize;
        for i in 0..state.nfabs() {
            let valid = state.valid_box(i);
            let cbox = valid.coarsen(ratio).grow(self.interp.coarse_ghost() + 1);
            let schunks = gather_valid_chunks(coarse_state.boxarray(), cbox, coarse_domain);
            let cchunks = if needs_coords {
                gather_all_chunks(coarse_coords, cbox, coarse_domain)
            } else {
                Vec::new()
            };
            if owned && !state.is_allocated(i) {
                state_base += schunks.len();
                coord_base += cchunks.len();
                continue;
            }
            let mut ctmp = FArrayBox::new(cbox, NCONS);
            for (k, (src_id, region, shift)) in schunks.iter().enumerate() {
                if let Some(payload) = remote_state.and_then(|m| m.get(&(state_base + k))) {
                    crocco_fab::owned::unpack_chunk_into(&mut ctmp, *region, NCONS, payload);
                } else {
                    ctmp.copy_shifted_from(coarse_state.fab(*src_id), *region, *shift, NCONS);
                }
            }
            coarse_bc.fill(
                &mut ctmp,
                cbox.intersection(&coarse_domain.bx),
                coarse_domain,
                self.time,
            );
            let (cc, fc);
            if needs_coords {
                let mut c = FArrayBox::new(cbox, NCOORDS);
                for (k, (src_id, region, shift)) in cchunks.iter().enumerate() {
                    if let Some(payload) = remote_coords.and_then(|m| m.get(&(coord_base + k))) {
                        crocco_fab::owned::unpack_chunk_into(&mut c, *region, NCOORDS, payload);
                    } else {
                        c.copy_shifted_from(coarse_coords.fab(*src_id), *region, *shift, NCOORDS);
                    }
                }
                cc = Some(c);
                fc = Some(fine_coords.fab(i).clone());
            } else {
                cc = None;
                fc = None;
            }
            self.interp.interp(
                &ctmp,
                state.fab_mut(i),
                valid,
                ratio,
                cc.as_ref(),
                fc.as_ref(),
            );
            state_base += schunks.len();
            coord_base += cchunks.len();
        }
    }

    /// `ComputeDt`: the CFL-constrained global minimum time step across all
    /// levels and patches, with the `ReduceRealMin` collective recorded.
    pub(crate) fn compute_dt(&mut self) {
        let mut dt = f64::INFINITY;
        let backend = self.cfg.kernel_backend;
        for lev in &self.levels {
            for i in 0..lev.state.nfabs() {
                let d = backend.compute_dt_patch(
                    lev.state.fab(i),
                    lev.metrics.fab(i),
                    lev.state.valid_box(i),
                    &self.gas,
                    self.cfg.cfl,
                );
                dt = dt.min(d);
            }
        }
        self.comm.reductions += 1;
        assert!(dt.is_finite() && dt > 0.0, "ComputeDt produced dt={dt}");
        self.dt = dt;
    }

    /// FillPatch for one level (single-level at 0, two-level above).
    pub(crate) fn fill_level(&mut self, l: usize) {
        self.fill_level_sub(l, None);
    }

    /// The FillPatch body, parameterized on the subcycling context: `sub`
    /// overrides the boundary-condition time with the substep's start time
    /// and (on refined levels) blends the coarse parent's old/new states for
    /// the ghost interpolation. `None` is the lockstep path, bitwise
    /// unchanged.
    pub(crate) fn fill_level_sub(&mut self, l: usize, sub: Option<&crate::subcycle::SubCtx>) {
        let t0 = std::time::Instant::now();
        let domain = self.hierarchy.domain(l);
        let bc = PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l));
        let bc_time = sub.map_or(self.time, |s| s.t);
        let opts = FillOpts {
            cache: if self.cfg.plan_cache {
                Some(self.hierarchy.plan_cache().as_ref())
            } else {
                None
            },
            threads: self.cfg.threads,
        };
        let report: FillPatchReport = if l == 0 {
            fill_patch_single_level_with(&mut self.levels[0].state, &domain, &bc, bc_time, opts)
        } else {
            let coarse_domain = self.hierarchy.domain(l - 1);
            let coarse_bc =
                PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l - 1));
            let (lo, hi) = self.levels.split_at_mut(l);
            let coarse = &lo[l - 1];
            let fine = &mut hi[0];
            let time_interp = sub.and_then(|s| s.alpha).map(|alpha| CoarseTimeInterp {
                old: coarse
                    .state_old
                    .as_ref()
                    .expect("subcycling saved the coarse old state before its substeps"),
                alpha,
                remote_old: None,
            });
            fill_patch_two_levels_with(
                &mut fine.state,
                &coarse.state,
                &domain,
                &coarse_domain,
                IntVect::splat(2),
                self.interp.as_ref(),
                &bc,
                &coarse_bc,
                Some(&coarse.coords),
                Some(&fine.coords),
                bc_time,
                time_interp,
                opts,
            )
        };
        self.comm
            .absorb_plan(&report.fb_plan.stats, PlanKind::FillBoundary);
        if let Some(p) = &report.pc_plan {
            self.comm.absorb_plan(&p.stats, PlanKind::ParallelCopy);
        }
        if let Some(p) = &report.coord_pc_plan {
            self.comm.absorb_plan(&p.stats, PlanKind::CoordCopy);
        }
        self.comm.interpolated_cells += report.interpolated_cells;
        self.profiler
            .add("FillPatch", t0.elapsed().as_secs_f64());
    }

    /// Algorithm 2: the configured low-storage stages over all levels,
    /// AverageDown at the end of the final stage.
    fn rk3(&mut self) {
        let dt = self.dt;
        let nstages = self.cfg.time_scheme.stages();
        for stage in 0..nstages {
            for l in 0..self.hierarchy.nlevels() {
                if self.cfg.overlap {
                    self.fill_and_advance_overlap(l, stage, dt, None);
                } else {
                    self.fill_level(l);
                    self.advance_level(l, stage, dt);
                }
            }
            if stage == nstages - 1 {
                let t0 = std::time::Instant::now();
                for l in (1..self.hierarchy.nlevels()).rev() {
                    let (lo, hi) = self.levels.split_at_mut(l);
                    crocco_amr::average_down::average_down(
                        &hi[0].state,
                        &mut lo[l - 1].state,
                        IntVect::splat(2),
                    );
                }
                self.profiler
                    .add("AverageDown", t0.elapsed().as_secs_f64());
            }
            if self.cfg.nan_poison {
                for (l, lev) in self.levels.iter().enumerate() {
                    fabcheck::check_for_nan(&lev.state, &format!("RK stage {stage} state L{l}"));
                    fabcheck::check_for_nan(&lev.du, &format!("RK stage {stage} dU L{l}"));
                }
            }
        }
    }

    /// The subcycled analog of [`compute_dt`](Self::compute_dt): level `ℓ`
    /// advances with `dt₀/2^ℓ`, so the coarse step is bounded by the
    /// *scaled* per-level CFL minima, `dt₀ = min_ℓ (2^ℓ · min_patches dt)`.
    /// On a single level this reduces bitwise to the lockstep fold
    /// (`min · 2⁰ = min`).
    pub(crate) fn compute_dt_subcycled(&mut self) {
        let backend = self.cfg.kernel_backend;
        let mut dt = f64::INFINITY;
        for (l, lev) in self.levels.iter().enumerate() {
            let mut m = f64::INFINITY;
            for i in 0..lev.state.nfabs() {
                let d = backend.compute_dt_patch(
                    lev.state.fab(i),
                    lev.metrics.fab(i),
                    lev.state.valid_box(i),
                    &self.gas,
                    self.cfg.cfl,
                );
                m = m.min(d);
            }
            dt = dt.min(m * (1u64 << l) as f64);
        }
        self.comm.reductions += 1;
        assert!(dt.is_finite() && dt > 0.0, "ComputeDt produced dt={dt}");
        self.dt = dt;
    }

    /// Rebuilds the per-pair flux registers and recording geometry iff the
    /// grids changed since the last build (identity-compared through the
    /// BoxArray `Arc`s, the same invalidation token the plan cache keys on).
    pub(crate) fn ensure_subcycle(&mut self) {
        let npairs = self.hierarchy.nlevels() - 1;
        let stale = self.subcycle.len() != npairs
            || (0..npairs).any(|l| {
                !Arc::ptr_eq(&self.subcycle[l].coarse_ba, self.levels[l].state.boxarray())
                    || !Arc::ptr_eq(&self.subcycle[l].fine_ba, self.levels[l + 1].state.boxarray())
            });
        if stale {
            self.subcycle = (0..npairs)
                .map(|l| {
                    crate::subcycle::InterfaceReg::build(
                        self.levels[l].state.boxarray(),
                        self.levels[l + 1].state.boxarray(),
                        self.hierarchy.domain(l).bx,
                        IntVect::splat(2),
                    )
                })
                .collect();
        }
    }

    /// Swap-saves level `ℓ`'s state into its old-time slot before the level
    /// advances, (re)allocating the slot only when the grids changed. After
    /// the swap the fresh `state` buffer is seeded from the old data, so the
    /// in-place RK update continues from the current solution while
    /// `state_old` keeps an untouched copy for time interpolation.
    pub(crate) fn save_old(&mut self, l: usize) {
        let stale = match &self.levels[l].state_old {
            Some(o) => !Arc::ptr_eq(o.boxarray(), self.levels[l].state.boxarray()),
            None => true,
        };
        if stale {
            let ba = self.levels[l].state.boxarray().clone();
            let dm = self.levels[l].state.distribution().clone();
            let mf = self.alloc_mf(ba, dm, NCONS, NGHOST);
            self.levels[l].state_old = Some(mf);
        }
        let LevelData {
            state, state_old, ..
        } = &mut self.levels[l];
        let old = state_old.as_mut().unwrap();
        std::mem::swap(old, state);
        for i in 0..state.nfabs() {
            if !state.is_allocated(i) {
                continue;
            }
            state
                .fab_mut(i)
                .data_mut()
                .copy_from_slice(old.fab(i).data());
        }
    }

    /// Records this level's interface fluxes into the stage accumulation
    /// buffers (barrier path: a dedicated pass between FillPatch and the
    /// stage kernels, when ghosts are fresh and the state is still at the
    /// stage's input time — the overlap path records the same values inside
    /// the per-patch boundary-band sweep tasks).
    fn record_level_fluxes(&self, l: usize, w: f64) {
        if self.subcycle.is_empty() {
            return;
        }
        let gas = self.gas;
        let weno = self.cfg.weno;
        let recon = self.cfg.reconstruction;
        let lev = &self.levels[l];
        if l < self.subcycle.len() {
            let reg = &self.subcycle[l];
            for p in 0..lev.state.nfabs() {
                if !lev.state.is_allocated(p) || reg.coarse_faces[p].is_empty() {
                    continue;
                }
                let mut buf = reg.coarse_buf[p].lock().unwrap();
                crate::subcycle::record_faces(
                    lev.state.fab(p),
                    lev.metrics.fab(p),
                    &reg.coarse_faces[p],
                    w,
                    &mut buf,
                    &gas,
                    weno,
                    recon,
                );
            }
        }
        if l > 0 {
            let reg = &self.subcycle[l - 1];
            for j in 0..lev.state.nfabs() {
                if !lev.state.is_allocated(j) || reg.fine_faces[j].is_empty() {
                    continue;
                }
                let mut buf = reg.fine_buf[j].lock().unwrap();
                crate::subcycle::record_faces(
                    lev.state.fab(j),
                    lev.metrics.fab(j),
                    &reg.fine_faces[j],
                    w,
                    &mut buf,
                    &gas,
                    weno,
                    recon,
                );
            }
        }
    }

    /// One subcycled coarse step: the AMReX-style recursive `timeStep`
    /// (docs/ARCHITECTURE.md §Subcycling). Level 0 takes one step of
    /// `self.dt`; each refined level takes `ref_ratio` substeps of its
    /// parent's `dt/2`, time-interpolating coarse/fine ghosts between the
    /// parent's old and new states, and the accumulated coarse/fine flux
    /// mismatch is refluxed into the parent before AverageDown.
    fn advance_subcycled(&mut self) {
        self.ensure_subcycle();
        let (t, dt) = (self.time, self.dt);
        self.advance_level_recursive(0, t, dt, None);
    }

    /// Advances level `l` from `t` by `dt` (one step of this level), then
    /// recursively takes the two half-`dt` substeps of the next finer level,
    /// refluxes, and averages down. `parent` carries the coarser level's
    /// `(t_old, dt)` for ghost time interpolation.
    fn advance_level_recursive(&mut self, l: usize, t: f64, dt: f64, parent: Option<(f64, f64)>) {
        let nstages = self.cfg.time_scheme.stages();
        let has_finer = l + 1 < self.hierarchy.nlevels();
        if has_finer {
            self.save_old(l);
            self.subcycle[l].register.reset();
            self.subcycle[l].zero_coarse_bufs();
        }
        if l > 0 {
            self.subcycle[l - 1].zero_fine_bufs();
        }
        for stage in 0..nstages {
            let w = self.cfg.time_scheme.net_flux_weight(stage);
            let t_fill = t + self.cfg.time_scheme.stage_time_fraction(stage) * dt;
            let alpha = parent.map(|(pt, pdt)| (t_fill - pt) / pdt);
            let sub = crate::subcycle::SubCtx { t, alpha };
            if self.cfg.overlap {
                self.fill_and_advance_overlap(l, stage, dt, Some(&sub));
            } else {
                self.fill_level_sub(l, Some(&sub));
                self.record_level_fluxes(l, w);
                self.advance_level(l, stage, dt);
            }
            if self.cfg.nan_poison {
                let lev = &self.levels[l];
                fabcheck::check_for_nan(&lev.state, &format!("sub RK stage {stage} state L{l}"));
                fabcheck::check_for_nan(&lev.du, &format!("sub RK stage {stage} dU L{l}"));
            }
        }
        let mut n = 0u64;
        for i in 0..self.levels[l].state.nfabs() {
            n += self.levels[l].state.valid_box(i).num_points();
        }
        self.cell_updates += n;
        if has_finer {
            self.subcycle[l].fold_coarse();
        }
        if l > 0 {
            let (_, pdt) = parent.unwrap();
            self.subcycle[l - 1].fold_fine(dt / pdt);
        }
        if has_finer {
            let fdt = 0.5 * dt;
            for i in 0..2 {
                self.advance_level_recursive(l + 1, t + i as f64 * fdt, fdt, Some((t, dt)));
            }
            let t0 = std::time::Instant::now();
            {
                let reg = &self.subcycle[l].register;
                let LevelData { state, metrics, .. } = &mut self.levels[l];
                reg.reflux(state, metrics, crate::metrics::comp::JAC, dt);
            }
            self.profiler.add("Reflux", t0.elapsed().as_secs_f64());
            let t0 = std::time::Instant::now();
            {
                let (lo, hi) = self.levels.split_at_mut(l + 1);
                crocco_amr::average_down::average_down(
                    &hi[0].state,
                    &mut lo[l].state,
                    IntVect::splat(2),
                );
            }
            self.profiler
                .add("AverageDown", t0.elapsed().as_secs_f64());
        }
    }

    /// Runs the numerics kernels for one level and applies the low-storage
    /// update: `dU ← A·dU + dt·L(U)`, `U ← U + B·dU`.
    fn advance_level(&mut self, l: usize, stage: usize, dt: f64) {
        let t0 = std::time::Instant::now();
        let gas = self.gas;
        let weno = self.cfg.weno;
        let recon = self.cfg.reconstruction;
        let les = self.cfg.les;
        let reference = self.cfg.version.reference_kernels();
        let backend = self.cfg.kernel_backend;
        let tile = self.cfg.tile_size;
        let threads = self.cfg.threads;
        let a = self.cfg.time_scheme.a(stage);
        let b = self.cfg.time_scheme.b(stage);
        let poison = self.cfg.nan_poison;
        let LevelData {
            state,
            du,
            metrics,
            rhs,
            ..
        } = &mut self.levels[l];
        let ba = state.boxarray().clone();
        state.assert_ghosts_fresh("advance_level RK stage kernels");
        // RHS per patch, in parallel, into the level's persistent scratch:
        // each worker owns one rhs fab (zeroed in place, never reallocated).
        {
            let state = &*state;
            parallel_for_each_mut(rhs, threads, |i, rhs| {
                rhs.fill(0.0);
                accumulate_rhs(
                    state.fab(i),
                    metrics.fab(i),
                    rhs,
                    ba.get(i),
                    &gas,
                    weno,
                    recon,
                    les.as_ref(),
                    reference,
                    backend,
                    tile,
                );
            });
        }
        // Low-storage update, walking dU and U in lockstep per patch.
        let rhs = &*rhs;
        parallel_zip_mut(du.fabs_mut(), state.fabs_mut(), threads, |i, dufab, stfab| {
            if poison && a == 0.0 {
                // 0·SNAN is still NaN: a poisoned dU must be dropped
                // explicitly at the first stage, not multiplied away.
                dufab.fill(0.0);
            }
            dufab.lincomb(a, dt, &rhs[i]);
            stfab.lincomb(1.0, b, dufab);
        });
        self.profiler.add("Advance", t0.elapsed().as_secs_f64());
    }

    /// The task-graph execution of one level's RK stage (DESIGN.md §4e):
    /// halo plans are *resolved* (through the shared plan cache) instead of
    /// executed, and [`run_rk_stage`] schedules the per-patch halo copies,
    /// interior sweeps, boundary-band sweeps, and low-storage updates as a
    /// dependency DAG — interior work overlaps with ghost exchange, and only
    /// patch-boundary tasks fence on their neighbours.
    ///
    /// Results are bitwise-identical to `fill_level` + `advance_level`
    /// (`tests/overlap_invariance.rs`); only the inter-patch schedule
    /// changes. Plan resolution and communication accounting stay in the
    /// "FillPatch" profiler region; on cache hits that region is nearly
    /// empty because the halo data motion itself now runs inside "Advance",
    /// hidden behind the interior sweeps.
    fn fill_and_advance_overlap(
        &mut self,
        l: usize,
        stage: usize,
        dt: f64,
        sub: Option<&crate::subcycle::SubCtx>,
    ) {
        let t0 = std::time::Instant::now();
        let gas = self.gas;
        let weno = self.cfg.weno;
        let recon = self.cfg.reconstruction;
        let les = self.cfg.les;
        let reference = self.cfg.version.reference_kernels();
        let backend = self.cfg.kernel_backend;
        let tile = self.cfg.tile_size;
        let a = self.cfg.time_scheme.a(stage);
        let b = self.cfg.time_scheme.b(stage);
        let poison = self.cfg.nan_poison;
        let time = sub.map_or(self.time, |s| s.t);
        let w = self.cfg.time_scheme.net_flux_weight(stage);
        // Interface-flux recording (subcycled steps only): `rec_coarse` is
        // this level's role as the coarse side of the pair above it,
        // `rec_fine` its role as the fine side of the pair below.
        let rec_coarse = (sub.is_some() && l < self.subcycle.len()).then(|| &self.subcycle[l]);
        let rec_fine = (sub.is_some() && l > 0 && !self.subcycle.is_empty())
            .then(|| &self.subcycle[l - 1]);
        let ratio = IntVect::splat(2);
        let domain = self.hierarchy.domain(l);
        let bc = PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l));
        let coarse_ctx = (l > 0).then(|| {
            (
                self.hierarchy.domain(l - 1),
                PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l - 1)),
            )
        });
        // The overlap path always resolves through the hierarchy cache: the
        // graph needs the plan as a *data structure* (its chunks become halo
        // tasks), and the keys match the barrier path's, so both share
        // entries.
        let cache = self.hierarchy.plan_cache().clone();
        let interp = &*self.interp;

        let (lo_levels, hi_levels) = self.levels.split_at_mut(l);
        let fine = &mut hi_levels[0];
        let fb = cache.fill_boundary(
            fine.state.boxarray(),
            fine.state.distribution(),
            &domain,
            fine.state.nghost(),
            fine.state.ncomp(),
        );
        let two: Option<(TwoLevelPlans, &LevelData, ProblemDomain, PhysicalBc)> =
            coarse_ctx.map(|(coarse_domain, coarse_bc)| {
                let coarse = &lo_levels[l - 1];
                let plans = resolve_two_level_plans(
                    &fine.state,
                    &coarse.state,
                    &domain,
                    &coarse_domain,
                    ratio,
                    interp,
                    Some(&coarse.coords),
                    Some(&fine.coords),
                    Some(cache.as_ref()),
                );
                (plans, coarse, coarse_domain, coarse_bc)
            });
        self.comm.absorb_plan(&fb.stats, PlanKind::FillBoundary);
        if let Some((plans, ..)) = &two {
            self.comm
                .absorb_plan(&plans.state.state_plan().stats, PlanKind::ParallelCopy);
            if let Some(cg) = &plans.coords {
                self.comm
                    .absorb_plan(&cg.coord_plan().stats, PlanKind::CoordCopy);
            }
        }
        self.profiler.add("FillPatch", t0.elapsed().as_secs_f64());

        let t1 = std::time::Instant::now();
        let LevelData {
            state,
            du,
            coords,
            metrics,
            rhs,
            ..
        } = fine;
        let ba = state.boxarray().clone();
        let coords = &*coords;
        let metrics = &*metrics;
        let interpolated = AtomicU64::new(0);

        // Coarse-fine ghosts for patch `i` (no-op on the base level). Same
        // gather + coarse-BC + interpolate sequence as the barrier path,
        // through the same resolved plans. Subcycled substeps blend the
        // coarse parent's old/new states at the substep's fill time.
        let ti: Option<CoarseTimeInterp<'_>> = match (&two, sub.and_then(|s| s.alpha)) {
            (Some((_, coarse, _, _)), Some(alpha)) => Some(CoarseTimeInterp {
                old: coarse
                    .state_old
                    .as_ref()
                    .expect("subcycling saved the coarse old state before its substeps"),
                alpha,
                remote_old: None,
            }),
            _ => None,
        };
        // The blend above reads the coarse *old* state below the instrumented
        // views, so declare those reads on each halo task's footprint (and
        // record them for the dynamic detector): per fine patch, the gather
        // chunks it consumes, at their source regions in the old fab (fab id
        // = data base pointer, the executor's id convention). `alpha == 1.0`
        // skips the old-state gather entirely, so there is nothing to
        // declare.
        let extra_halo: Vec<Vec<(u64, IndexBox)>> = match (&two, &ti) {
            (Some((plans, ..)), Some(t)) if t.alpha != 1.0 => {
                let mut per_patch = vec![Vec::new(); state.nfabs()];
                for c in &plans.state.state_plan().plan.chunks {
                    let id = t.old.fab(c.src_id).data().as_ptr() as usize as u64;
                    per_patch[c.dst_id].push((id, c.region.shift(-c.shift)));
                }
                per_patch
            }
            _ => Vec::new(),
        };
        let pre_halo = |i: usize, rw: &mut FabRw<'_>| {
            if let Some((plans, coarse, coarse_domain, coarse_bc)) = &two {
                let cells = fill_two_level_patch(
                    i,
                    rw,
                    plans,
                    &coarse.state,
                    Some(&coarse.coords),
                    Some(coords.fab(i)),
                    coarse_domain,
                    ratio,
                    interp,
                    coarse_bc,
                    time,
                    ti,
                );
                interpolated.fetch_add(cells, Ordering::Relaxed);
            }
        };
        let bc_fill = |i: usize, rw: &mut FabRw<'_>| {
            bc.fill_view(rw, ba.get(i), &domain, time);
        };
        let sweep = |i: usize, u: FabRd<'_>, phase: SweepPhase, rhs: &mut FArrayBox| {
            let valid = ba.get(i);
            let met = metrics.fab(i);
            let interior = valid.grow(-NGHOST);
            match phase {
                SweepPhase::Interior => {
                    rhs.fill(0.0);
                    if !interior.is_empty() {
                        accumulate_rhs(
                            &u, met, rhs, interior, &gas, weno, recon, les.as_ref(), reference,
                            backend, tile,
                        );
                    }
                }
                SweepPhase::BoundaryBand => {
                    for slab in band_slabs(valid, interior) {
                        accumulate_rhs(
                            &u, met, rhs, slab, &gas, weno, recon, les.as_ref(), reference,
                            backend, tile,
                        );
                    }
                    // Subcycled interface-flux recording: the boundary-band
                    // task is the one point in the graph where this patch's
                    // ghosts are filled and its state is still at the stage's
                    // input time. One task per patch per stage, so the lock
                    // is uncontended and the per-face accumulation order is
                    // the same as the barrier path's.
                    if let Some(reg) = rec_coarse {
                        if !reg.coarse_faces[i].is_empty() {
                            let mut buf = reg.coarse_buf[i].lock().unwrap();
                            crate::subcycle::record_faces(
                                &u,
                                met,
                                &reg.coarse_faces[i],
                                w,
                                &mut buf,
                                &gas,
                                weno,
                                recon,
                            );
                        }
                    }
                    if let Some(reg) = rec_fine {
                        if !reg.fine_faces[i].is_empty() {
                            let mut buf = reg.fine_buf[i].lock().unwrap();
                            crate::subcycle::record_faces(
                                &u,
                                met,
                                &reg.fine_faces[i],
                                w,
                                &mut buf,
                                &gas,
                                weno,
                                recon,
                            );
                        }
                    }
                }
            }
        };
        let update = |_i: usize, dufab: &mut FArrayBox, stfab: &mut FArrayBox, rhs: &FArrayBox| {
            if poison && a == 0.0 {
                // 0·SNAN is still NaN: a poisoned dU must be dropped
                // explicitly at the first stage, not multiplied away.
                dufab.fill(0.0);
            }
            dufab.lincomb(a, dt, rhs);
            stfab.lincomb(1.0, b, dufab);
        };
        // The stage graph's *skeleton* (chunk ranges + reader edges) is a
        // pure function of the cached plan, so memoize it next to the plan
        // (same identity-token key, `Aux` namespace) and re-bind only the RK
        // coefficients per stage. Invalidated with the rest of the cache at
        // regrid (DESIGN.md §4f).
        let skel = cache.get_or_build_aux(
            PlanKey {
                op: PlanOp::Aux(AUX_STAGE_SKELETON),
                ..PlanKey::fill_boundary(
                    state.boxarray(),
                    state.distribution(),
                    &domain,
                    state.nghost(),
                    state.ncomp(),
                )
            },
            || StageSkeleton::build(&fb, state.nfabs()),
        );
        // Static schedule verification (DESIGN.md §4i): prove every
        // conflicting task pair of the skeleton ordered, once per (grids,
        // plan) generation — memoized beside the skeleton, so steady-state
        // stages pay one cache hit.
        if self.cfg.taskcheck {
            let report = cache.get_or_build_aux(
                PlanKey {
                    op: PlanOp::Aux(AUX_STAGE_VERIFY),
                    ..PlanKey::fill_boundary(
                        state.boxarray(),
                        state.distribution(),
                        &domain,
                        state.nghost(),
                        state.ncomp(),
                    )
                },
                || {
                    let valid: Vec<IndexBox> =
                        (0..state.nfabs()).map(|i| ba.get(i)).collect();
                    crocco_fab::verify_stage(&fb, &skel, &valid, state.nghost())
                },
            );
            report.assert_clean("on-node RK stage skeleton");
        }
        let sched = self.cfg.schedule();
        run_rk_stage_with_skeleton(
            StageFabs { state, du, rhs },
            &fb,
            &skel,
            sched,
            &extra_halo,
            &pre_halo,
            &bc_fill,
            &sweep,
            &update,
        );
        self.comm.interpolated_cells += interpolated.load(Ordering::Relaxed);
        self.profiler.add("Advance", t1.elapsed().as_secs_f64());
    }

    /// Total integral of conserved component `comp` over the physical domain
    /// at the coarsest level (∫ U dV = Σ U·J): the conservation monitor.
    /// Accumulates flat rows per patch (not per-point `get`), patches in
    /// parallel; the per-patch partials are reduced serially so the result
    /// does not depend on thread count.
    pub fn conserved_integral(&self, comp: usize) -> f64 {
        let lev = &self.levels[0];
        let jac = crate::metrics::comp::JAC;
        let mut partials = vec![0.0f64; lev.state.nfabs()];
        parallel_for_each_mut(&mut partials, self.cfg.threads, |i, acc| {
            let valid = lev.state.valid_box(i);
            let (lo, hi) = (valid.lo(), valid.hi());
            let len = (hi[0] - lo[0] + 1) as usize;
            let fab = lev.state.fab(i);
            let met = lev.metrics.fab(i);
            let mut sum = 0.0;
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    let p0 = IntVect::new(lo[0], j, k);
                    let u = fab.row(p0, comp, len);
                    let w = met.row(p0, jac, len);
                    sum += u.iter().zip(w).map(|(x, y)| x * y).sum::<f64>();
                }
            }
            *acc = sum;
        });
        partials.iter().sum()
    }

    /// `true` if any level contains NaN/∞ in its valid region (on an
    /// owned-data simulation: in the valid region of this rank's patches).
    pub fn has_nonfinite(&self) -> bool {
        self.levels.iter().any(|l| l.state.has_nonfinite())
    }
}

/// Accumulates the stage RHS `L(U)` over `region` of one patch: the three
/// directional WENO fluxes (optimized or reference kernels per the code
/// version) then the viscous/LES flux, in the fixed per-cell operation order
/// every execution path shares — the barrier path passes the whole valid box,
/// the task-graph path the interior box and the boundary-band slabs, and a
/// configured `tile` shape further partitions whichever region arrives.
/// Because every valid cell lies in exactly one such (sub)region the
/// partition is bitwise-irrelevant.
///
/// `backend` selects the kernel implementation (all bitwise-identical);
/// `reference` (the V1.0 "Fortran" kernels) overrides it, since the
/// reference kernels exist precisely to be the unrestructured baseline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn accumulate_rhs(
    u: &impl FabView,
    met: &FArrayBox,
    rhs: &mut FArrayBox,
    region: IndexBox,
    gas: &crate::eos::PerfectGas,
    weno: crate::weno::WenoVariant,
    recon: crate::weno::Reconstruction,
    les: Option<&crate::sgs::Smagorinsky>,
    reference: bool,
    backend: BackendKind,
    tile: Option<IntVect>,
) {
    let tiles = match tile {
        Some(t) => tile_boxes(region, t),
        None => vec![region],
    };
    for reg in tiles {
        if reference {
            for dir in 0..3 {
                weno_flux_reference(u, met, rhs, reg, dir, gas, weno);
            }
            crate::kernels::viscous_flux_les(u, met, rhs, reg, gas, les);
        } else {
            backend.accumulate_rhs(u, met, rhs, reg, gas, weno, recon, les);
        }
    }
}

/// Enumerates the valid-region gather chunks filling `dst_bx` from `src_ba`
/// (periodic-aware): `(src_id, region-in-dst-space, shift)` triples in a
/// deterministic order — a pure function of replicated metadata, so every
/// rank enumerates the identical list. The remap path executes these as
/// local copies; the distributed regrid turns the rank-crossing ones into
/// `CopyChunk` sends keyed by position in this list.
pub(crate) fn gather_valid_chunks(
    src_ba: &BoxArray,
    dst_bx: IndexBox,
    domain: &ProblemDomain,
) -> Vec<(usize, IndexBox, IntVect)> {
    let mut out = Vec::new();
    for shift in domain.periodic_shifts() {
        let probe = dst_bx.shift(-shift);
        for (src_id, overlap) in src_ba.intersections(probe) {
            out.push((src_id, overlap.shift(shift), shift));
        }
    }
    out
}

/// Enumerates valid+ghost gather chunks (for analytic coordinates), in the
/// same deterministic metadata-only order as [`gather_valid_chunks`].
pub(crate) fn gather_all_chunks(
    src: &MultiFab,
    dst_bx: IndexBox,
    domain: &ProblemDomain,
) -> Vec<(usize, IndexBox, IntVect)> {
    let g = src.nghost();
    let mut out = Vec::new();
    for shift in domain.periodic_shifts() {
        let probe = dst_bx.shift(-shift);
        for (src_id, _) in src.boxarray().intersections(probe.grow(g)) {
            let overlap = src.boxarray().get(src_id).grow(g).intersection(&probe);
            if overlap.is_empty() {
                continue;
            }
            out.push((src_id, overlap.shift(shift), shift));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodeVersion, SolverConfig};
    use crate::problems::ProblemKind;
    use crate::state::cons;

    fn sod_cfg() -> SolverConfig {
        SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V1_1)
            .build()
    }

    #[test]
    fn sod_runs_and_stays_finite() {
        let mut sim = Simulation::new(sod_cfg());
        let report = sim.advance_steps(10);
        assert_eq!(report.steps, 10);
        assert!(report.final_time > 0.0);
        assert!(!sim.has_nonfinite());
    }

    #[test]
    fn periodic_directions_conserve_mass_exactly() {
        // Sod is periodic in y/z and outflow in x; before the waves reach
        // the x boundaries, total mass must be conserved to round-off.
        let mut sim = Simulation::new(sod_cfg());
        let m0 = sim.conserved_integral(cons::RHO);
        sim.advance_steps(10);
        let m1 = sim.conserved_integral(cons::RHO);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn dt_respects_cfl_scaling() {
        // Halving the grid spacing must roughly halve dt.
        let mut a = Simulation::new(sod_cfg());
        a.step();
        let cfg2 = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(128, 4, 4)
            .version(CodeVersion::V1_1)
            .build();
        let mut b = Simulation::new(cfg2);
        b.step();
        // Only x refines (y and z keep 4 cells): the wave-speed sum goes
        // from (64 + 16 + 16)·a to (128 + 16 + 16)·a, so dt shrinks by 5/3.
        let ratio = a.dt() / b.dt();
        assert!(
            (ratio - 5.0 / 3.0).abs() < 0.05,
            "dt ratio {ratio}, expected 5/3"
        );
    }

    #[test]
    fn amr_version_creates_fine_levels_on_the_shock() {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V1_2)
            .max_levels(2)
            .build();
        let sim = Simulation::new(cfg);
        assert_eq!(sim.nlevels(), 2, "discontinuity must trigger refinement");
        // The fine level sits around the diaphragm at x = 0.5 (cells ~32·2).
        let fine_hull = sim.hierarchy().level(1).ba.hull();
        assert!(fine_hull.lo()[0] < 64 && fine_hull.hi()[0] > 60,
            "fine level {fine_hull:?} should straddle the diaphragm");
    }

    #[test]
    fn amr_and_single_level_agree_before_waves_reach_interfaces() {
        // With the fine level covering the only active region, the coarse
        // solution under it is the averaged fine solution; the global mass
        // must match the non-AMR run to high accuracy.
        let mut plain = Simulation::new(sod_cfg());
        let cfg_amr = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V1_2)
            .max_levels(2)
            .build();
        let mut amr = Simulation::new(cfg_amr);
        plain.advance_steps(5);
        amr.advance_steps(5);
        let mp = plain.conserved_integral(cons::RHO);
        let ma = amr.conserved_integral(cons::RHO);
        assert!(((mp - ma) / mp).abs() < 1e-6, "mass {mp} vs {ma}");
    }

    #[test]
    fn comm_totals_accumulate() {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V2_0)
            .max_levels(2)
            .nranks(4)
            .build();
        let mut sim = Simulation::new(cfg);
        sim.advance_steps(2);
        let c = sim.comm;
        assert!(c.reductions >= 2);
        assert!(c.interpolated_cells > 0, "two-level fills must interpolate");
        // The curvilinear interpolator must move coordinates.
        assert!(c.coord_pc_messages + c.coord_pc_bytes > 0);
    }

    #[test]
    fn trilinear_version_skips_coordinate_copy() {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V2_1)
            .max_levels(2)
            .nranks(4)
            .build();
        let mut sim = Simulation::new(cfg);
        sim.advance_steps(2);
        assert_eq!(sim.comm.coord_pc_bytes, 0);
        assert_eq!(sim.comm.coord_pc_messages, 0);
    }

    #[test]
    fn profiler_collects_the_paper_regions() {
        let mut sim = Simulation::new(sod_cfg());
        sim.advance_steps(3);
        for region in ["ComputeDt", "FillPatch", "Advance"] {
            assert!(
                sim.profiler.total(region) > 0.0,
                "region {region} missing from profile"
            );
        }
    }
}
