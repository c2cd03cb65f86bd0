//! The CRoCCo simulation instance: grids, metrics, initial flow, restart,
//! and the observers. The time-marching loop (Algorithms 1 and 2 of the
//! paper) lives in [`crate::cluster_step`], once, over a communicator group:
//!
//! ```text
//! InitGrid(); InitGridMetrics(); InitFlow();
//! for n = nstart..nend:
//!     if mod(step, regridFreq) == 0: Regrid()
//!     ComputeDt()
//!     RK3()           // per stage, per level: FillPatch, BC_Fill,
//!                     // WENOx/y/z, Viscous, Update; AverageDown at stage 3
//! ```
//!
//! [`Simulation::new`] + [`Simulation::step`] run it on the calling thread
//! over the group of one ([`RankEndpoint::solo`]); `LocalCluster` +
//! [`Simulation::new_owned`] + [`Simulation::step_cluster`] run the same
//! loop on N rank threads.

use crate::backend::BackendKind;
use crate::config::{CoordSource, SolverConfig};
use crate::kernels::{gradient_magnitude, NGHOST};
use crate::metrics::{
    compute_metrics, generate_coords, read_coords_from_file, write_coords_file, NCOORDS,
    NMETRICS,
};
use crate::reference::weno_flux_reference;
use crate::state::NCONS;
use crocco_amr::hierarchy::{AmrHierarchy, AmrParams};
use crocco_amr::interp::Interpolator;
use crocco_amr::tagging::TagSet;
use crocco_fab::plan::PlanStats;
use crocco_fab::{
    BoxArray, DistributionMapping, DistributionStrategy, FArrayBox, FabView, MultiFab,
};
use crocco_geometry::{GridMapping, IndexBox, IntVect, ProblemDomain, RealVect};
use crocco_runtime::{parallel_for_each_mut, GroupEndpoint, RankEndpoint};
use std::sync::Arc;

/// `PlanOp::Aux` namespace tag for memoized stage skeletons (`DistSkeleton`,
/// keyed per rank through the key's `aux` bits); the AMR two-level plans use
/// tags 1–2.
pub(crate) const AUX_DIST_SKELETON: u32 = 4;
/// `PlanOp::Aux` namespace tag for memoized static schedule verifications
/// (`VerifyReport`: all ranks + cross-rank checks, DESIGN.md §4i; keyed by
/// rank count through the key's `aux` bits).
pub(crate) const AUX_DIST_VERIFY: u32 = 6;

/// Williamson low-storage RK3 coefficients.
pub const RK3_A: [f64; 3] = [0.0, -5.0 / 9.0, -153.0 / 128.0];
/// Williamson low-storage RK3 coefficients.
pub const RK3_B: [f64; 3] = [1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0];

/// Per-level field data: the four MultiFabs §III-C enumerates (state, dU,
/// coordinates, metrics).
pub struct LevelData {
    /// Conserved state (with [`NGHOST`] ghosts).
    pub state: MultiFab,
    /// Low-storage RK accumulator dU.
    pub du: MultiFab,
    /// Physical coordinates (3 components).
    pub coords: MultiFab,
    /// Grid metrics: the [`NMETRICS`] = 10 components the kernels read
    /// (`metrics::comp`); the paper's 27-component layout is modeled, not
    /// stored.
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
        // The RHS scratch follows the state's allocation: unallocated
        // placeholders keep the vector index-aligned with the (replicated)
        // BoxArray while storing nothing for patches other ranks own.
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
#[derive(Clone, Copy, Debug, Default)]
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
    /// Fine ghost cells produced by interpolation on this rank's patches
    /// (the other fields come from replicated plan metadata and are global).
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

/// The step loop's timed regions — the rows of the paper's TinyProfiler
/// tables (Figs. 6–7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// RK-stage kernel sweeps.
    Advance,
    /// Ghost fill: same-level exchange, two-level interpolation, physical BCs.
    FillPatch,
    /// Tag, cluster, remap and redistribute.
    Regrid,
    /// CFL reduction.
    ComputeDt,
    /// Fine-to-coarse restriction.
    AverageDown,
    /// Flux-register correction of the coarse level (subcycling only).
    Reflux,
}

impl Region {
    /// Number of regions.
    pub const COUNT: usize = 6;
    /// Every region, in declaration order.
    pub const ALL: [Region; Region::COUNT] = [
        Region::Advance,
        Region::FillPatch,
        Region::Regrid,
        Region::ComputeDt,
        Region::AverageDown,
        Region::Reflux,
    ];

    /// The region's name in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Region::Advance => "Advance",
            Region::FillPatch => "FillPatch",
            Region::Regrid => "Regrid",
            Region::ComputeDt => "ComputeDt",
            Region::AverageDown => "AverageDown",
            Region::Reflux => "Reflux",
        }
    }
}

/// Wall-clock seconds this rank spent in each [`Region`] (TinyProfiler
/// analog).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionTimes([f64; Region::COUNT]);

impl RegionTimes {
    /// Adds `seconds` to `region`.
    pub fn add(&mut self, region: Region, seconds: f64) {
        self.0[region as usize] += seconds;
    }

    /// Seconds accumulated in `region`.
    pub fn total(&self, region: Region) -> f64 {
        self.0[region as usize]
    }

    /// The regions that were entered, with their seconds, in descending time
    /// — the TinyProfiler report order.
    pub fn report(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<_> = Region::ALL
            .into_iter()
            .map(|r| (r.name(), self.total(r)))
            .filter(|&(_, t)| t > 0.0)
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// Summary of an [`Simulation::advance_steps`] run.
#[derive(Clone, Copy, Debug)]
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
    /// Where this rank's wall-clock time went, by region.
    pub profiler: RegionTimes,
    /// Communication accounting.
    pub comm: CommTotals,
    /// Per-level coordinate files (populated for `CoordSource::BinaryFile`).
    coord_files: Vec<std::path::PathBuf>,
    /// This instance's logical rank in the `cfg.nranks`-rank group
    /// (docs/DISTRIBUTED.md): every `MultiFab` allocates data only for the
    /// patches the `DistributionMapping` assigns to it; the rest are
    /// metadata-only placeholders. On a group of one that is every patch.
    pub(crate) owned_rank: usize,
    pub(crate) time: f64,
    pub(crate) dt: f64,
    pub(crate) step: u32,
    /// Flux registers + recording geometry per coarse/fine level pair
    /// (`subcycle[l]` couples levels `l` and `l+1`). Rebuilt lazily whenever
    /// the grids change; empty unless `cfg.subcycling`.
    pub(crate) subcycle: Vec<crate::subcycle::InterfaceReg>,
    /// Running cell-update total (see [`RunReport::cell_updates`]).
    pub(crate) cell_updates: u64,
    /// The round counter: every rank-crossing round this rank takes part
    /// in draws its tag from it, in the order every rank shares.
    pub(crate) rounds: crate::cluster_step::Rounds,
}

impl Simulation {
    /// Builds the simulation on the calling thread: grid, metrics, initial
    /// flow, and (for AMR versions) the initial refined levels — rank 0 of a
    /// group of one, holding every patch. Multi-rank runs construct with
    /// [`Simulation::new_owned`] on a `LocalCluster`.
    pub fn new(cfg: SolverConfig) -> Self {
        assert_eq!(cfg.nranks, 1, "multi-rank runs construct with new_owned on a LocalCluster");
        let solo = RankEndpoint::solo();
        Simulation::new_owned(cfg, &GroupEndpoint::full(&solo))
            .expect("a group of one has no peer to fail")
    }

    /// Shared construction body: the hierarchy — fresh, or on the grids of
    /// `chk` — with every level initialized from the initial condition and
    /// the counters at zero or at the checkpoint's. The initial-regrid loop
    /// (which needs the group) is `Simulation::new_owned` in `cluster_step`.
    pub(crate) fn build(
        cfg: SolverConfig,
        owned_rank: usize,
        chk: Option<&crate::io::Checkpoint>,
    ) -> Self {
        let domain0 = ProblemDomain::new(
            IndexBox::from_extents(cfg.extents[0], cfg.extents[1], cfg.extents[2]),
            cfg.problem.periodicity(),
        );
        let params = AmrParams {
            max_levels: cfg.effective_levels(),
            ref_ratio: IntVect::splat(2),
            blocking_factor: cfg.blocking_factor,
            max_grid_size: cfg.max_grid_size,
            // AMReX's Berger–Rigoutsos efficiency target and tag buffer.
            grid_eff: 0.7,
            n_error_buf: 2,
            regrid_freq: cfg.regrid_freq,
            nesting_buffer: cfg.blocking_factor,
        };
        let strategy = DistributionStrategy::MortonSfc;
        let hierarchy = match chk {
            None => AmrHierarchy::new(domain0, params, cfg.nranks, strategy),
            Some(chk) => {
                let h =
                    AmrHierarchy::from_boxes(domain0, params, cfg.nranks, strategy, &chk.levels[1..]);
                assert_eq!(
                    h.level(0).ba.boxes(),
                    &chk.levels[0][..],
                    "checkpoint level-0 grids must match the configured decomposition"
                );
                h
            }
        };
        let mut sim = Simulation {
            gas: cfg.problem.gas(),
            mapping: cfg.problem.mapping(),
            hierarchy,
            levels: Vec::new(),
            interp: cfg
                .interpolator
                .map(|k| k.build())
                .unwrap_or_else(|| cfg.version.interpolator()),
            profiler: RegionTimes::default(),
            comm: CommTotals::default(),
            coord_files: Vec::new(),
            owned_rank,
            time: chk.map_or(0.0, |c| c.time),
            dt: 0.0,
            step: chk.map_or(0, |c| c.step),
            subcycle: Vec::new(),
            cell_updates: 0,
            rounds: Default::default(),
            cfg,
        };
        sim.prepare_coord_files();
        sim.rebuild_all_levels_from_ic();
        sim
    }

    /// Rebuilds a simulation from a checkpoint on the calling thread (rank 0
    /// of a group of one): grids come from the saved box lists, valid data
    /// from the saved body, grid metrics are regenerated from the mapping
    /// (coordinates are a pure function of the grids, per §III-C), and the
    /// step/time counters resume.
    pub fn from_checkpoint(cfg: SolverConfig, chk: &crate::io::Checkpoint) -> Self {
        assert_eq!(cfg.nranks, 1, "multi-rank runs restore with from_checkpoint_owned");
        Simulation::from_checkpoint_owned(cfg, chk, 0)
    }

    /// Restores rank `rank`'s share of an `cfg.nranks`-rank simulation from
    /// a (whole-domain) checkpoint: only owned patches allocate and only
    /// their valid data is overwritten from the body. No communication —
    /// every rank restores from the same bytes, which is what lets any
    /// surviving rank subset restore after a crash.
    pub fn from_checkpoint_owned(
        cfg: SolverConfig,
        chk: &crate::io::Checkpoint,
        rank: usize,
    ) -> Self {
        assert!(rank < cfg.nranks, "restore rank out of range");
        let mut sim = Simulation::build(cfg, rank, Some(chk));
        // Overwrite valid data with the checkpoint body (owned patches only —
        // the rest have no storage).
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

    /// Allocates a solver `MultiFab`: signaling NaNs in every cell in the
    /// `check` build (so an unwritten cell traps in the next post-stage
    /// sweep instead of smuggling a zero), zeros otherwise. Only the patches
    /// [`owned_rank`](Self::owned_rank) owns get storage.
    pub(crate) fn alloc_mf(
        &self,
        ba: Arc<BoxArray>,
        dm: Arc<DistributionMapping>,
        ncomp: usize,
        nghost: i64,
    ) -> MultiFab {
        MultiFab::new_owned_poisoned(ba, dm, ncomp, nghost, self.owned_rank)
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

    /// Level `l`'s grid data (coords + metrics) on the hierarchy's current
    /// grids. Both are a pure function of (level, box), so the fabs of every
    /// box that `prev` — the same level's (coords, metrics) one grid
    /// generation back — holds unchanged on this rank are moved over, and
    /// only the rest is allocated, generated (honouring the configured
    /// coordinate source) and has its metrics computed. The fabs taken from
    /// `prev` are left as placeholders.
    pub(crate) fn make_level_grid(
        &self,
        l: usize,
        mut prev: Option<(&mut MultiFab, &mut MultiFab)>,
    ) -> (MultiFab, MultiFab) {
        let lev = self.hierarchy.level(l);
        let owned = |i: usize| lev.dm.owner(i) == self.owned_rank;
        let mut survivors = std::collections::HashMap::new();
        if let Some((prev_coords, _)) = &prev {
            for (j, b) in prev_coords.boxarray().boxes().iter().enumerate() {
                if prev_coords.is_allocated(j) {
                    survivors.insert(*b, j);
                }
            }
        }
        let kept = |i: usize| survivors.get(&lev.ba.get(i)).copied().filter(|_| owned(i));
        let fresh = |i: usize| owned(i) && kept(i).is_none();
        let mut coords =
            MultiFab::new_where(lev.ba.clone(), lev.dm.clone(), NCOORDS, NGHOST + 2, fresh);
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
        // No allocation poison: `compute_metrics` writes every cell of every
        // component it is given.
        let mut metrics =
            MultiFab::new_where(lev.ba.clone(), lev.dm.clone(), NMETRICS, NGHOST, fresh);
        compute_metrics(&coords, &mut metrics);
        if let Some((prev_coords, prev_metrics)) = &mut prev {
            for i in 0..lev.ba.len() {
                if let Some(j) = kept(i) {
                    std::mem::swap(coords.fab_mut(i), prev_coords.fab_mut(j));
                    std::mem::swap(metrics.fab_mut(i), prev_metrics.fab_mut(j));
                }
            }
        }
        (coords, metrics)
    }

    /// Initializes one level's state from the problem's initial condition at
    /// the stored coordinates: the valid cells and the ghosts of the stage's
    /// footprint ([`SolverConfig::ghost_footprint`]), which the tagging at
    /// construction reads before any stage has filled them. Ghosts outside
    /// the footprint are never read, and keep their allocation value — a
    /// signaling NaN in the `check` build, so a read past the footprint
    /// traps.
    fn init_state_from_ic(&self, coords: &MultiFab, state: &mut MultiFab) {
        let ghosts = self.cfg.ghost_footprint();
        for i in 0..state.nfabs() {
            if !state.is_allocated(i) {
                continue;
            }
            let valid = state.valid_box(i);
            let cells = std::iter::once(valid).chain(ghosts.regions(valid));
            for p in cells.flat_map(|b| b.cells()) {
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
        // Only the grid data of the previous round outlives this line: the
        // states are re-initialized anyway, and freeing them first lets the
        // new ones land in the same heap.
        let mut prev: Vec<(MultiFab, MultiFab)> = std::mem::take(&mut self.levels)
            .into_iter()
            .map(|lev| (lev.coords, lev.metrics))
            .collect();
        for l in 0..self.hierarchy.nlevels() {
            let lev = self.hierarchy.level(l);
            let (coords, metrics) = self.make_level_grid(l, prev.get_mut(l).map(|(c, m)| (c, m)));
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
    /// levels that may host a finer one are tagged, and only this rank's
    /// *owned* patches — the regrid unions the per-rank sets before
    /// clustering.
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

    /// One full time step (Algorithm 1 loop body) on the calling thread: the
    /// cluster step loop over the group of one.
    ///
    /// # Panics
    /// If `ComputeDt` produces a non-finite or non-positive step
    /// ([`StageError::NonFiniteDt`](crocco_runtime::StageError::NonFiniteDt)).
    pub fn step(&mut self) {
        self.step_cluster(&RankEndpoint::solo());
    }

    /// Advances `n` steps and reports.
    pub fn advance_steps(&mut self, n: u32) -> RunReport {
        self.advance_steps_cluster(n, &RankEndpoint::solo())
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

    /// Total integral of conserved component `comp` over the physical domain
    /// at the coarsest level (∫ U dV = Σ U·J): the conservation monitor (on
    /// a multi-rank simulation: this rank's patches' share of it).
    /// Accumulates flat rows per patch (not per-point `get`), patches in
    /// parallel; the per-patch partials are reduced serially so the result
    /// does not depend on thread count.
    pub fn conserved_integral(&self, comp: usize) -> f64 {
        let lev = &self.levels[0];
        let jac = crate::metrics::comp::JAC;
        let mut partials = vec![0.0f64; lev.state.nfabs()];
        parallel_for_each_mut(&mut partials, self.cfg.threads, |i, acc| {
            if !lev.state.is_allocated(i) {
                return;
            }
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
/// every schedule shares — a patch swept whole passes its valid box, a split
/// patch the interior box and the boundary-band slabs. Because every valid
/// cell lies in exactly one such region the partition is bitwise-irrelevant.
///
/// `backend` selects the kernel implementation (all bitwise-identical);
/// `reference` (the V1.0 "Fortran" kernels) overrides it, since the
/// reference kernels exist precisely to be the unrestructured baseline.
/// `sink` takes the WENO sweeps' flux-register faces; V1.0 has no AMR, so
/// the reference kernels never get one.
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
    sink: Option<&mut crate::kernels::FaceSink<'_>>,
) {
    if reference {
        debug_assert!(sink.is_none(), "the reference kernels record no register faces");
        for dir in 0..3 {
            weno_flux_reference(u, met, rhs, region, dir, gas, weno);
        }
        crate::kernels::viscous_flux_les(u, met, rhs, region, gas, les);
    } else {
        backend.accumulate_rhs_sink(u, met, rhs, region, gas, weno, recon, les, sink);
    }
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

    /// Communication totals after two steps on a 4-rank cluster. Plan
    /// metadata is replicated, so every rank accounts the global plans'
    /// messages (rank 0's are returned); interpolated cells are counted
    /// where they are produced and are summed over the ranks.
    fn comm_after_two_steps(version: CodeVersion) -> CommTotals {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(version)
            .max_levels(2)
            .nranks(4)
            .build();
        let per_rank = crocco_runtime::LocalCluster::run(4, |ep| {
            let mut sim = Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(&ep))
                .expect("fault-free construction");
            sim.advance_steps_cluster(2, &ep);
            sim.comm
        });
        CommTotals {
            interpolated_cells: per_rank.iter().map(|c| c.interpolated_cells).sum(),
            ..per_rank[0]
        }
    }

    #[test]
    fn comm_totals_accumulate() {
        let c = comm_after_two_steps(CodeVersion::V2_0);
        assert!(c.reductions >= 2);
        assert!(c.interpolated_cells > 0, "two-level fills must interpolate");
        // The curvilinear interpolator must move coordinates.
        assert!(c.coord_pc_messages + c.coord_pc_bytes > 0);
    }

    #[test]
    fn trilinear_version_skips_coordinate_copy() {
        let c = comm_after_two_steps(CodeVersion::V2_1);
        assert_eq!(c.coord_pc_bytes, 0);
        assert_eq!(c.coord_pc_messages, 0);
    }

    #[test]
    fn nonfinite_dt_is_a_typed_error_not_a_panic() {
        let mut sim = Simulation::new(sod_cfg());
        // NaN momentum everywhere: no cell yields a positive wave-speed sum,
        // so no cell bounds the step.
        let state = &mut sim.levels[0].state;
        for i in 0..state.nfabs() {
            let fab = state.fab_mut(i);
            for p in fab.bx().cells() {
                fab.set(p, cons::MX, f64::NAN);
            }
        }
        let solo = RankEndpoint::solo();
        let err = sim
            .try_step_cluster(&GroupEndpoint::full(&solo))
            .expect_err("a state without a CFL bound");
        assert!(
            matches!(err, crocco_runtime::StageError::NonFiniteDt { dt } if dt == f64::INFINITY),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "ComputeDt produced dt=inf");
        assert_eq!(sim.step_count(), 0, "the failed step must not be counted");
    }

    #[test]
    fn profiler_collects_the_paper_regions() {
        let mut sim = Simulation::new(sod_cfg());
        sim.advance_steps(3);
        for region in [Region::ComputeDt, Region::FillPatch, Region::Advance] {
            assert!(
                sim.profiler.total(region) > 0.0,
                "region {region:?} missing from profile"
            );
        }
        // Lockstep never refluxes, and a region never entered is not a row.
        assert!(sim.profiler.report().iter().all(|r| r.0 != "Reflux"));

        // Subcycled two-level Sod: every coarse step closes with a reflux
        // and a restriction, and step 2 regrids.
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(64, 4, 4)
            .version(CodeVersion::V1_2)
            .max_levels(2)
            .regrid_freq(2)
            .subcycling(true)
            .build();
        let mut sim = Simulation::new(cfg);
        assert!(sim.nlevels() > 1, "Sod must refine for this test");
        sim.advance_steps(3);
        for region in Region::ALL {
            assert!(
                sim.profiler.total(region) > 0.0,
                "region {region:?} missing from the subcycled profile"
            );
        }
        let report = sim.profiler.report();
        assert!(
            report.windows(2).all(|w| w[0].1 >= w[1].1),
            "report not in descending time: {report:?}"
        );
        assert_eq!(report.len(), Region::COUNT);
        for region in Region::ALL {
            assert!(report.contains(&(region.name(), sim.profiler.total(region))));
        }
    }
}
