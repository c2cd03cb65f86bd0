//! Solver configuration and the paper's code-version ladder.

use crate::backend::BackendKind;
use crate::integrators::TimeScheme;
use crate::kernels::StageKernel;
use crate::problems::ProblemKind;
use crate::sgs::Smagorinsky;
use crate::weno::{Reconstruction, WenoVariant};
use crocco_amr::{
    ConservativeLinearInterp, CurvilinearInterp, Interpolator, PiecewiseConstantInterp,
    TrilinearInterp, WenoConservativeInterp,
};
use crocco_fab::GhostFootprint;
use crocco_geometry::IntVect;

/// Where regridding gets coordinates for newly created patches (§III-C,
/// "Regridding"): the paper's first implementation serially read them from a
/// binary file at every regrid (noticeable overhead on CPU, worse on GPU);
/// the current one keeps the grid in memory and calls `getCoords()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordSource {
    /// Evaluate/retrieve stored coordinates in memory (`getCoords()`).
    Memory,
    /// Seek-and-read each new patch's coordinates from a per-level binary
    /// file — the measured-slow first implementation.
    BinaryFile,
}

/// Explicit interpolator selection, overriding the version default — the
/// §III-C design axis plus the future-work conservative schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpKind {
    /// AMReX's trilinear (CRoCCo 2.1).
    Trilinear,
    /// The custom curvilinear interpolator with its coordinate ParallelCopy
    /// (CRoCCo 1.2/2.0).
    Curvilinear,
    /// Piecewise-constant injection.
    PiecewiseConstant,
    /// Minmod-limited conservative linear.
    ConservativeLinear,
    /// The §III-C future-work WENO conservative interpolation.
    WenoConservative,
}

impl InterpKind {
    /// Instantiates the interpolator.
    pub fn build(&self) -> Box<dyn Interpolator> {
        match self {
            InterpKind::Trilinear => Box::new(TrilinearInterp),
            InterpKind::Curvilinear => Box::new(CurvilinearInterp),
            InterpKind::PiecewiseConstant => Box::new(PiecewiseConstantInterp),
            InterpKind::ConservativeLinear => Box::new(ConservativeLinearInterp),
            InterpKind::WenoConservative => Box::new(WenoConservativeInterp),
        }
    }
}

/// The CRoCCo version ladder of §V-C. Versions differ in which kernel
/// implementation runs, whether AMR is enabled, which coarse→fine
/// interpolator `FillPatchTwoLevels` uses, and (for performance accounting)
/// which execution backend is modeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeVersion {
    /// C++ AMReX framework + Fortran numerics kernels; AMR disabled, no GPU.
    V1_0,
    /// Fortran kernels swapped for C++ kernels.
    V1_1,
    /// AMR enabled (CPU).
    V1_2,
    /// GPU support added; custom curvilinear interpolator (its coordinate
    /// `ParallelCopy` is the paper's global-communication bottleneck).
    V2_0,
    /// GPU + AMR with AMReX's built-in trilinear interpolator (no global
    /// communication in FillPatch).
    V2_1,
}

impl CodeVersion {
    /// All versions, in the paper's order.
    pub const ALL: [CodeVersion; 5] = [
        CodeVersion::V1_0,
        CodeVersion::V1_1,
        CodeVersion::V1_2,
        CodeVersion::V2_0,
        CodeVersion::V2_1,
    ];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            CodeVersion::V1_0 => "CRoCCo 1.0 (Fortran, no AMR)",
            CodeVersion::V1_1 => "CRoCCo 1.1 (C++, no AMR)",
            CodeVersion::V1_2 => "CRoCCo 1.2 (C++, AMR)",
            CodeVersion::V2_0 => "CRoCCo 2.0 (GPU, AMR, curvilinear interp)",
            CodeVersion::V2_1 => "CRoCCo 2.1 (GPU, AMR, trilinear interp)",
        }
    }

    /// `true` if adaptive mesh refinement is active.
    pub fn amr_enabled(&self) -> bool {
        matches!(self, CodeVersion::V1_2 | CodeVersion::V2_0 | CodeVersion::V2_1)
    }

    /// `true` if kernels run on the (modeled) GPU.
    pub fn gpu(&self) -> bool {
        matches!(self, CodeVersion::V2_0 | CodeVersion::V2_1)
    }

    /// `true` if the reference ("Fortran") kernel implementations run.
    pub fn reference_kernels(&self) -> bool {
        matches!(self, CodeVersion::V1_0)
    }

    /// The coarse→fine interpolator this version uses.
    pub fn interpolator(&self) -> Box<dyn Interpolator> {
        match self {
            CodeVersion::V2_1 => Box::new(TrilinearInterp),
            _ => Box::new(CurvilinearInterp),
        }
    }
}

/// Full solver configuration. Build with [`SolverConfig::builder`].
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// The problem to run.
    pub problem: ProblemKind,
    /// Coarse-level cells per direction.
    pub extents: IntVect,
    /// Total AMR levels (forced to 1 when the version disables AMR).
    pub max_levels: usize,
    /// Code version under test.
    pub version: CodeVersion,
    /// WENO variant (the paper's production scheme is WENO-SYMBO).
    pub weno: WenoVariant,
    /// Reconstruction basis (component-wise or Roe characteristic).
    pub reconstruction: Reconstruction,
    /// Low-storage time integrator (the paper marches with Williamson RK3).
    pub time_scheme: TimeScheme,
    /// Optional Smagorinsky SGS closure (LES mode, §II-A). `None` = DNS.
    pub les: Option<Smagorinsky>,
    /// Coordinate source for new patches at regrid time.
    pub coord_source: CoordSource,
    /// Interpolator override (None = the version's default).
    pub interpolator: Option<InterpKind>,
    /// CFL number (RK3 requires ≤ 1).
    pub cfl: f64,
    /// AMReX blocking factor.
    pub blocking_factor: i64,
    /// AMReX max grid size.
    pub max_grid_size: i64,
    /// Steps between regrids.
    pub regrid_freq: u32,
    /// |∇ρ| threshold for refinement tagging.
    pub tag_threshold: f64,
    /// Rank count of the communicator group the simulation is stepped over:
    /// 1 for [`Simulation::new`], the `LocalCluster` size for
    /// [`Simulation::new_owned`]. Sizes the `DistributionMapping`s.
    ///
    /// [`Simulation::new`]: crate::driver::Simulation::new
    /// [`Simulation::new_owned`]: crate::driver::Simulation::new_owned
    pub nranks: usize,
    /// Host threads for patch loops.
    pub threads: usize,
    /// Execute each RK stage as a dependency task graph (DESIGN.md §4e–§4f):
    /// halo copies, sends and tag-matched receives overlap with kernel
    /// sweeps, and only patch-boundary tasks fence. On by default. `false`
    /// selects the sequential fill → sweep → update phases — the *reference*
    /// schedule the differential matrix's oracle runs (as
    /// [`BackendKind::Scalar`] is for kernels). Results are
    /// bitwise-identical; only the inter-patch schedule changes.
    pub overlap: bool,
    /// Kernel backend for the hot loops (DESIGN.md §4h): the plane-laned
    /// SIMD kernels or the scalar per-point reference. Both are
    /// bitwise-identical on the solution (`tests/invariance_matrix.rs`);
    /// they differ only in throughput. Composes with
    /// [`overlap`](Self::overlap) and the `check` build. Defaults to
    /// [`BackendKind::Lanes`]; [`BackendKind::Scalar`] is the test oracle.
    pub kernel_backend: BackendKind,
    /// Chaos-runtime configuration for cluster stepping (DESIGN.md §4g):
    /// seeded fault injection on the transport plus scheduled rank crashes,
    /// and the checkpoint interval the recovery loop
    /// ([`Simulation::advance_steps_chaos`]) uses. `None` (the default)
    /// disables injection entirely; detection framing is governed by the
    /// cluster the endpoints came from, so a fault-free [`ChaosConfig`]
    /// here must be — and is, by test — bitwise-invisible.
    ///
    /// [`Simulation::advance_steps_chaos`]: crate::driver::Simulation::advance_steps_chaos
    /// [`ChaosConfig`]: crocco_runtime::chaos::ChaosConfig
    pub chaos: Option<crocco_runtime::chaos::ChaosConfig>,
    /// Durable-spill directory for the chaos stepping loop (DESIGN.md §4j):
    /// `Some(dir)` makes rank 0 of the chaos group also write each periodic
    /// checkpoint to disk through the double-buffered atomic writer
    /// (`core::durable`), so a *whole-process* death is recoverable by cold
    /// restart ([`Simulation::from_checkpoint_file_owned`]). Spill failures
    /// degrade gracefully: the run continues on in-memory checkpoints with
    /// a warning. `None` (the default) keeps checkpoints in memory only.
    ///
    /// [`Simulation::from_checkpoint_file_owned`]: crate::driver::Simulation::from_checkpoint_file_owned
    pub spill_dir: Option<std::path::PathBuf>,
    /// Per-level time stepping (docs/ARCHITECTURE.md §Subcycling): level ℓ
    /// advances with its own CFL-limited `dt` — `2^ℓ` substeps per coarse
    /// step at refinement ratio 2 — filling fine ghosts by interpolating the
    /// coarse level *in time* between its old and new states, and repairing
    /// conservation at each coarse/fine interface with an
    /// [`crocco_amr::FluxRegister`] reflux after the substeps. Cuts total
    /// cell-updates on deep hierarchies (docs/results/subcycle.md). With a
    /// single level the subcycled step is bitwise-identical to lockstep
    /// (`tests/invariance_matrix.rs`). Off by default — lockstep (all
    /// levels share the globally minimal `dt`) remains the reference mode.
    pub subcycling: bool,
    /// Adversarial-schedule seed for the stage task graphs: `Some(seed)`
    /// replaces the worker pool with a single-threaded executor running a
    /// seeded arbitrary legal topological linearization (seed 0 =
    /// reverse-priority, the worst case for every "it happens to run in
    /// insertion order" assumption). Results must be — and are, by the
    /// differential matrix — bitwise-identical under any legal schedule.
    /// `None` (the default) uses the normal thread pool.
    pub sched_seed: Option<u64>,
}

impl SolverConfig {
    /// Starts a builder with defaults matching the paper's DMR setup at
    /// test scale.
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder::default()
    }

    /// The state ghost cells every RK stage fills: what the kernels the
    /// stage runs read ([`crate::kernels::ghost_footprint`]) — the V1_0
    /// reference kernels, or the WENO sweeps plus the viscous/LES operator
    /// when the gas is viscous or LES is on.
    pub fn ghost_footprint(&self) -> GhostFootprint {
        let viscous = self.les.is_some() || self.problem.gas().mu_ref != 0.0;
        let kernels: &[StageKernel] = match (self.version.reference_kernels(), viscous) {
            (true, _) => &[StageKernel::Reference],
            (false, true) => &[StageKernel::Weno, StageKernel::Viscous],
            (false, false) => &[StageKernel::Weno],
        };
        crate::kernels::ghost_footprint(kernels)
    }

    /// Effective level count (1 unless the version enables AMR).
    pub fn effective_levels(&self) -> usize {
        if self.version.amr_enabled() {
            self.max_levels
        } else {
            1
        }
    }

    /// The schedule for task-graph stage execution: the configured thread
    /// pool, or a seeded adversarial linearization when
    /// [`sched_seed`](Self::sched_seed) is set.
    pub fn schedule(&self) -> crocco_runtime::Schedule {
        match self.sched_seed {
            Some(seed) => crocco_runtime::Schedule::adversarial(seed),
            None => crocco_runtime::Schedule::pool(self.threads),
        }
    }
}

/// Builder for [`SolverConfig`].
#[derive(Clone, Debug)]
pub struct SolverConfigBuilder {
    cfg: SolverConfig,
}

impl Default for SolverConfigBuilder {
    fn default() -> Self {
        SolverConfigBuilder {
            cfg: SolverConfig {
                problem: ProblemKind::SodX,
                extents: IntVect::new(32, 8, 8),
                max_levels: 1,
                version: CodeVersion::V1_1,
                weno: WenoVariant::Symbo,
                reconstruction: Reconstruction::ComponentWise,
                time_scheme: TimeScheme::Rk3Williamson,
                les: None,
                coord_source: CoordSource::Memory,
                interpolator: None,
                cfl: 0.6,
                blocking_factor: 4,
                max_grid_size: 32,
                regrid_freq: 5,
                tag_threshold: f64::NAN, // resolved from the problem default
                nranks: 1,
                threads: 1,
                overlap: true,
                kernel_backend: BackendKind::default(),
                chaos: None,
                spill_dir: None,
                subcycling: false,
                sched_seed: None,
            },
        }
    }
}

impl SolverConfigBuilder {
    /// Sets the problem.
    pub fn problem(mut self, p: ProblemKind) -> Self {
        self.cfg.problem = p;
        self
    }

    /// Sets the coarse-level extents.
    pub fn extents(mut self, nx: i64, ny: i64, nz: i64) -> Self {
        self.cfg.extents = IntVect::new(nx, ny, nz);
        self
    }

    /// Sets the AMR level count.
    pub fn max_levels(mut self, n: usize) -> Self {
        self.cfg.max_levels = n;
        self
    }

    /// Sets the code version.
    pub fn version(mut self, v: CodeVersion) -> Self {
        self.cfg.version = v;
        self
    }

    /// Sets the WENO variant.
    pub fn weno(mut self, w: WenoVariant) -> Self {
        self.cfg.weno = w;
        self
    }

    /// Sets the reconstruction basis.
    pub fn reconstruction(mut self, r: Reconstruction) -> Self {
        self.cfg.reconstruction = r;
        self
    }

    /// Sets the time integrator.
    pub fn time_scheme(mut self, t: TimeScheme) -> Self {
        self.cfg.time_scheme = t;
        self
    }

    /// Enables LES mode with the given Smagorinsky constant.
    pub fn les(mut self, cs: f64) -> Self {
        self.cfg.les = Some(Smagorinsky { cs });
        self
    }

    /// Sets the regrid-time coordinate source.
    pub fn coord_source(mut self, c: CoordSource) -> Self {
        self.cfg.coord_source = c;
        self
    }

    /// Overrides the interpolator (otherwise the version's default).
    pub fn interpolator(mut self, k: InterpKind) -> Self {
        self.cfg.interpolator = Some(k);
        self
    }

    /// Sets the CFL number.
    pub fn cfl(mut self, c: f64) -> Self {
        self.cfg.cfl = c;
        self
    }

    /// Sets the blocking factor.
    pub fn blocking_factor(mut self, b: i64) -> Self {
        self.cfg.blocking_factor = b;
        self
    }

    /// Sets the maximum grid size.
    pub fn max_grid_size(mut self, m: i64) -> Self {
        self.cfg.max_grid_size = m;
        self
    }

    /// Sets the regrid interval.
    pub fn regrid_freq(mut self, f: u32) -> Self {
        self.cfg.regrid_freq = f;
        self
    }

    /// Sets the tagging threshold (defaults to the problem's).
    pub fn tag_threshold(mut self, t: f64) -> Self {
        self.cfg.tag_threshold = t;
        self
    }

    /// Sets the rank count of the group the simulation is stepped over.
    pub fn nranks(mut self, n: usize) -> Self {
        self.cfg.nranks = n;
        self
    }

    /// Sets the host thread count for patch loops.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Selects the stage schedule: the task graph (default) or, with
    /// `false`, the sequential reference phases.
    pub fn overlap(mut self, on: bool) -> Self {
        self.cfg.overlap = on;
        self
    }

    /// Selects the kernel backend (SIMD lanes, or the scalar reference).
    pub fn kernel_backend(mut self, k: BackendKind) -> Self {
        self.cfg.kernel_backend = k;
        self
    }

    /// Sets the chaos-runtime configuration (fault injection, crash
    /// schedule, checkpoint interval) used by cluster stepping. Pass the
    /// same config to [`LocalCluster::run_with_chaos`] so transport and
    /// solver agree on the fault plan.
    ///
    /// [`LocalCluster::run_with_chaos`]: crocco_runtime::LocalCluster::run_with_chaos
    pub fn chaos(mut self, cfg: crocco_runtime::chaos::ChaosConfig) -> Self {
        self.cfg.chaos = Some(cfg);
        self
    }

    /// Sets the durable-spill directory: periodic chaos checkpoints are
    /// also written to disk (double-buffered, atomic, CRC-sealed) so a
    /// whole-process death is recoverable by cold restart.
    pub fn spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.spill_dir = Some(dir.into());
        self
    }

    /// Enables per-level time stepping with time-interpolated coarse/fine
    /// boundaries and refluxing (off by default — lockstep).
    pub fn subcycling(mut self, on: bool) -> Self {
        self.cfg.subcycling = on;
        self
    }

    /// Runs the stage task graphs under a seeded adversarial schedule (an
    /// arbitrary legal topological linearization) instead of the thread
    /// pool. Seed 0 is reverse-priority order.
    pub fn sched_seed(mut self, seed: u64) -> Self {
        self.cfg.sched_seed = Some(seed);
        self
    }

    /// Finalizes, validating invariants.
    pub fn build(mut self) -> SolverConfig {
        if self.cfg.tag_threshold.is_nan() {
            self.cfg.tag_threshold = self.cfg.problem.tag_threshold();
        }
        let c = &self.cfg;
        assert!(c.max_levels >= 1);
        assert!(c.cfl > 0.0 && c.cfl <= 1.0, "RK3 needs CFL in (0, 1]");
        for d in 0..3 {
            assert!(
                c.extents[d] % c.blocking_factor == 0,
                "extent {} not divisible by blocking factor {}",
                c.extents[d],
                c.blocking_factor
            );
        }
        assert!(c.max_grid_size % c.blocking_factor == 0);
        assert!(c.nranks >= 1 && c.threads >= 1);
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_properties_match_the_paper_table() {
        use CodeVersion::*;
        assert!(!V1_0.amr_enabled() && !V1_0.gpu() && V1_0.reference_kernels());
        assert!(!V1_1.amr_enabled() && !V1_1.gpu() && !V1_1.reference_kernels());
        assert!(V1_2.amr_enabled() && !V1_2.gpu());
        assert!(V2_0.amr_enabled() && V2_0.gpu());
        assert!(V2_1.amr_enabled() && V2_1.gpu());
        assert_eq!(V2_1.interpolator().name(), "trilinear");
        assert_eq!(V2_0.interpolator().name(), "curvilinear");
        assert!(V2_0.interpolator().needs_coords());
        assert!(!V2_1.interpolator().needs_coords());
    }

    #[test]
    fn builder_applies_problem_default_threshold() {
        let cfg = SolverConfig::builder().problem(ProblemKind::DoubleMach).build();
        assert_eq!(cfg.tag_threshold, ProblemKind::DoubleMach.tag_threshold());
        let cfg2 = SolverConfig::builder().tag_threshold(0.5).build();
        assert_eq!(cfg2.tag_threshold, 0.5);
    }

    #[test]
    #[should_panic]
    fn misaligned_extents_rejected() {
        SolverConfig::builder().extents(30, 8, 8).build();
    }

    #[test]
    fn the_task_graph_is_the_default_schedule() {
        assert!(SolverConfig::builder().build().overlap);
        assert!(!SolverConfig::builder().overlap(false).build().overlap);
    }

    #[test]
    fn effective_levels_collapse_without_amr() {
        let cfg = SolverConfig::builder()
            .max_levels(3)
            .version(CodeVersion::V1_1)
            .build();
        assert_eq!(cfg.effective_levels(), 1);
        let cfg = SolverConfig::builder()
            .max_levels(3)
            .version(CodeVersion::V2_1)
            .build();
        assert_eq!(cfg.effective_levels(), 3);
    }
}
