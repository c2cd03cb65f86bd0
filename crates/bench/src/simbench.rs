//! Per-iteration time simulation for every CRoCCo version at Summit scale.
//!
//! For each level the simulator computes the *exact* communication plans the
//! AMR metadata induces (same plan builders the real solver executes), takes
//! the critical rank's message counts, payload bytes, patch list, and cell
//! load, and prices computation with the POWER9/V100 models and
//! communication with the fat-tree model. Regions mirror the paper's
//! TinyProfiler decomposition (Figs. 6–7): `Advance`, `FillPatch` (with
//! `FillBoundary`/`ParallelCopy` × `_nowait`/`_finish` children),
//! `ComputeDt`, `AverageDown`, `Regrid`.

use crate::dmrscale::ScaledCase;
use crocco_fab::plan::{fill_boundary_plan, parallel_copy_plan, PlanStats};
use crocco_perfmodel::kernelspec::{
    compute_dt_spec, interp_spec, stage_kernels, update_spec,
};
use crocco_perfmodel::summit::PAPER_METRIC_COMPONENTS;
use crocco_perfmodel::{CpuBackend, SummitPlatform};
use crocco_solver::CodeVersion;
use std::collections::BTreeMap;

/// Ghost width of the state MultiFab (the solver's `NGHOST`).
const NGHOST: i64 = 4;
/// Conserved components.
const NCONS: usize = 5;
/// RK stages per iteration.
const STAGES: f64 = 3.0;
/// Steps between regrids (the paper regrids on a fixed cadence; cost is
/// amortized into each iteration).
const REGRID_FREQ: f64 = 10.0;

/// A per-region time breakdown for one iteration (seconds).
#[derive(Clone, Debug, Default)]
pub struct IterationBreakdown {
    /// Region name → seconds. Slash-separated children are *included* in
    /// their parent's total (as TinyProfiler inclusive timers are).
    pub regions: BTreeMap<String, f64>,
}

impl IterationBreakdown {
    fn add(&mut self, region: &str, t: f64) {
        *self.regions.entry(region.to_string()).or_default() += t;
    }

    /// Seconds in `region` (0 when absent).
    pub fn get(&self, region: &str) -> f64 {
        self.regions.get(region).copied().unwrap_or(0.0)
    }

    /// Total walltime per iteration: the sum of top-level regions.
    pub fn total(&self) -> f64 {
        self.regions
            .iter()
            .filter(|(k, _)| !k.contains('/'))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Whether a version runs its kernels on GPUs or CPU cores, and which CPU
/// flavor (§IV-A's Fortran/C++ distinction).
fn backend(version: CodeVersion) -> Option<CpuBackend> {
    if version.gpu() {
        None
    } else if version.reference_kernels() {
        Some(CpuBackend::Fortran)
    } else {
        Some(CpuBackend::Cpp)
    }
}

/// MPI ranks a version uses on `nodes` nodes.
pub fn ranks_for(version: CodeVersion, nodes: u32, platform: &SummitPlatform) -> usize {
    if version.gpu() {
        platform.gpu_ranks(nodes)
    } else {
        platform.cpu_ranks(nodes)
    }
}

/// How communication phases are charged against the per-iteration walltime.
///
/// `Additive` is the fenced data path: every `FillBoundary` fence serializes
/// behind the stage's kernels, so comm and compute add. `Overlapped` prices
/// the distributed stage graphs of `crocco_fab::dist_overlap`: halo traffic
/// is driven concurrently with the *interior* sweeps of the owned patches,
/// so only the exposed remainder — `max(0, comm − interior compute)` — lands
/// on the critical path ([`NetworkModel::exposed_time`]).
///
/// [`NetworkModel::exposed_time`]: crocco_perfmodel::NetworkModel::exposed_time
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommPricing {
    /// Fenced: communication serializes after compute (the paper's measured
    /// AMReX `_finish` semantics).
    Additive,
    /// Task-graph overlap: only exposed communication is charged.
    Overlapped,
}

/// Where fab *data* lives across ranks (docs/DISTRIBUTED.md).
///
/// `Owned` is the production model (and what the paper's AMReX runs do):
/// each rank allocates only the patches its `DistributionMapping` assigns
/// it, so memory per rank is O(owned cells) and no stage re-replicates
/// state. `Replicated` prices the test-oracle model the solver used before
/// the owned-data port: every rank holds every patch and each RK stage ends
/// with an `allgather_fabs` broadcast — O(global) memory per rank and an
/// extra all-to-all of the level's valid cells, three times per iteration.
/// `docs/results/owned_dist.md` tabulates the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataModel {
    /// Every rank holds every patch; stages end in an allgather.
    Replicated,
    /// Owner-only storage; state never re-replicates (`allgather_fabs`
    /// deleted from the step loop).
    Owned,
}

/// Modeled fab bytes resident per rank under `data` in the paper's layout:
/// the four MultiFabs (state with `NGHOST` ghosts, `dU` ghost-free,
/// 3-component coordinates with `NGHOST + 2`, the paper's
/// [`PAPER_METRIC_COMPONENTS`]-component metrics with `NGHOST`), summed over
/// the critical rank's owned patches (`Owned`) or every patch
/// (`Replicated`). It prices the paper's allocation, not this solver's,
/// which stores 10 metric components.
pub fn memory_per_rank(case: &ScaledCase, data: DataModel) -> u64 {
    let mut per_rank = vec![0u64; case.nranks];
    for level in &case.levels {
        for (i, &owner) in level.dm.owners().iter().enumerate() {
            let bx = level.ba.get(i);
            let bytes_of = |ncomp: u64, nghost: i64| -> u64 {
                bx.grow(nghost).num_points() * ncomp * std::mem::size_of::<f64>() as u64
            };
            let patch = bytes_of(NCONS as u64, NGHOST)         // state
                + bytes_of(NCONS as u64, 0)                    // dU
                + bytes_of(3, NGHOST + 2)                      // coordinates
                + bytes_of(PAPER_METRIC_COMPONENTS, NGHOST);   // metrics
            match data {
                DataModel::Owned => per_rank[owner] += patch,
                DataModel::Replicated => {
                    for r in per_rank.iter_mut() {
                        *r += patch;
                    }
                }
            }
        }
    }
    per_rank.into_iter().max().unwrap_or(0)
}

/// Critical-rank load metrics of one level.
struct LevelLoad {
    /// Valid cells on the most loaded rank (reductions, AverageDown).
    crit_cells: u64,
    /// Kernel working-set cell counts (valid + ghost) of the critical rank's
    /// patches: §IV-B computes the stencil scratch "including the exterior
    /// ghost points needed to provide a complex stencil for each interior
    /// cell", so small AMR patches pay a large ghost surcharge.
    crit_patches: Vec<u64>,
    /// Interior cells (more than `NGHOST` from every patch face) on the
    /// critical rank: the sweep work that needs no halo data and can overlap
    /// the FillBoundary exchange under [`CommPricing::Overlapped`].
    crit_interior_cells: u64,
}

fn level_load(level: &crate::dmrscale::LevelMeta, nranks: usize) -> LevelLoad {
    let mut cells = vec![0u64; nranks];
    let mut work = vec![0u64; nranks];
    let mut interior = vec![0u64; nranks];
    let mut patches: Vec<Vec<u64>> = vec![Vec::new(); nranks];
    for (i, &owner) in level.dm.owners().iter().enumerate() {
        let bx = level.ba.get(i);
        let n = bx.num_points();
        let grown = bx.grow(NGHOST).num_points();
        cells[owner] += n;
        work[owner] += grown;
        interior[owner] += bx.grow(-NGHOST).num_points();
        patches[owner].push(grown);
    }
    let crit = (0..nranks).max_by_key(|&r| work[r]).unwrap_or(0);
    LevelLoad {
        crit_cells: cells[crit],
        crit_patches: std::mem::take(&mut patches[crit]),
        crit_interior_cells: interior[crit],
    }
}

/// Kernel (Advance) time for one level, one RK stage, on the critical rank.
fn stage_kernel_time(
    load: &LevelLoad,
    version: CodeVersion,
    platform: &SummitPlatform,
) -> f64 {
    match backend(version) {
        None => {
            // GPU: per-patch kernel launches (one ParallelFor per kernel per
            // patch, §IV-B).
            let mut t = 0.0;
            for &cells in &load.crit_patches {
                for spec in stage_kernels() {
                    t += platform.gpu.kernel_time(&spec, cells);
                }
            }
            t
        }
        Some(be) => {
            let work: u64 = load.crit_patches.iter().sum();
            let mut t = 0.0;
            for spec in stage_kernels() {
                t += platform.cpu.kernel_time(&spec, work, 1, be);
            }
            t
        }
    }
}

/// Simulates one iteration of `version` on `case` over `nodes` nodes under
/// the fenced ([`CommPricing::Additive`]) data path.
pub fn simulate_iteration(
    version: CodeVersion,
    case: &ScaledCase,
    platform: &SummitPlatform,
) -> IterationBreakdown {
    simulate_iteration_with(version, case, platform, CommPricing::Additive)
}

/// Simulates one iteration of `version` on `case` under an explicit
/// communication-pricing model and the production owned-data model
/// ([`DataModel::Owned`] — no per-stage allgather).
pub fn simulate_iteration_with(
    version: CodeVersion,
    case: &ScaledCase,
    platform: &SummitPlatform,
    pricing: CommPricing,
) -> IterationBreakdown {
    simulate_iteration_model(version, case, platform, pricing, DataModel::Owned)
}

/// Simulates one iteration under explicit communication-pricing *and* data
/// models. [`DataModel::Replicated`] adds the `Allgather` region: per RK
/// stage, per level, every rank broadcasts its owned valid cells to all
/// peers — the cost the owned-data port deleted from the step loop.
pub fn simulate_iteration_model(
    version: CodeVersion,
    case: &ScaledCase,
    platform: &SummitPlatform,
    pricing: CommPricing,
    data: DataModel,
) -> IterationBreakdown {
    let net = &platform.network;
    let nranks = case.nranks;
    let mut out = IterationBreakdown::default();
    let needs_coords = version.interpolator().needs_coords();

    // Per-level, reused across the three stages.
    struct LevelComm {
        fb: PlanStats,
        pc: Option<PlanStats>,
        load: LevelLoad,
        ghost_shell_cells: u64,
    }
    let mut lcs: Vec<LevelComm> = Vec::new();
    for (l, level) in case.levels.iter().enumerate() {
        let fb = fill_boundary_plan(&level.ba, &level.dm, &level.domain, NGHOST, NCONS).stats();
        let pc = if l > 0 {
            let coarse = &case.levels[l - 1];
            let dst_coarsened = level.ba.coarsen(crocco_geometry::IntVect::splat(2));
            Some(
                parallel_copy_plan(
                    &coarse.ba,
                    &coarse.dm,
                    &dst_coarsened,
                    &level.dm,
                    &coarse.domain,
                    NGHOST / 2 + 1,
                    NCONS,
                )
                .stats(),
            )
        } else {
            None
        };
        let load = level_load(level, nranks);
        // Ghost shell cells on the critical rank (interpolation volume).
        let shell: u64 = load
            .crit_patches
            .iter()
            .map(|&c| {
                // Approximate shell of a cube with the same volume.
                let edge = (c as f64).cbrt();
                (( (edge + 2.0 * NGHOST as f64).powi(3) - edge.powi(3)) as u64).max(1)
            })
            .sum();
        lcs.push(LevelComm {
            fb,
            pc,
            load,
            ghost_shell_cells: shell,
        });
    }

    for (l, lc) in lcs.iter().enumerate() {
        // --- Advance: kernels, 3 stages.
        let t_stage = stage_kernel_time(&lc.load, version, platform);
        let t_adv = STAGES * t_stage;
        out.add("Advance", t_adv);

        // --- FillPatch: FillBoundary every stage. The posting half
        // (`_nowait`) is always on the critical path; under overlapped
        // pricing the payload half (`_finish`) hides behind the interior
        // sweeps — the fraction of stage kernel work on cells that need no
        // halo data.
        let fb_nowait = STAGES * net.alpha * lc.fb.max_rank_msgs as f64;
        let fb_stage = lc.fb.max_rank_recv_bytes as f64 / net.bandwidth;
        let fb_finish = match pricing {
            CommPricing::Additive => STAGES * fb_stage,
            CommPricing::Overlapped => {
                let work: u64 = lc.load.crit_patches.iter().sum();
                let frac = if work > 0 {
                    lc.load.crit_interior_cells as f64 / work as f64
                } else {
                    0.0
                };
                STAGES * net.exposed_time(fb_stage, t_stage * frac)
            }
        };
        out.add("FillPatch/FillBoundary_nowait", fb_nowait);
        out.add("FillPatch/FillBoundary_finish", fb_finish);
        out.add("FillPatch", fb_nowait + fb_finish);

        // --- Allgather (replicated data model only): after every stage the
        // level's state re-replicates — each rank pushes its owned valid
        // cells to all peers and receives everyone else's. Send volume grows
        // linearly with rank count, which is what sinks weak scaling.
        if data == DataModel::Replicated && nranks > 1 {
            let total_cells: u64 = (0..case.levels[l].ba.len())
                .map(|i| case.levels[l].ba.get(i).num_points())
                .sum();
            let cell_bytes = (NCONS * std::mem::size_of::<f64>()) as f64;
            let send = lc.load.crit_cells as f64 * (nranks - 1) as f64 * cell_bytes;
            let recv = (total_cells - lc.load.crit_cells) as f64 * cell_bytes;
            let t_ag = STAGES
                * (net.alpha * (nranks - 1) as f64 + send.max(recv) / net.bandwidth);
            out.add("Allgather", t_ag);
        }

        // --- FillPatch: two-level gathers.
        if let Some(pc) = &lc.pc {
            // State gather: point-to-point payload (the AMReX
            // FillPatchTwoLevels path — no global communication, per §VI-B's
            // contrast with the custom interpolator) plus the schedule
            // construction against the coarse BoxArray.
            let src_boxes = case.levels[l - 1].ba.len() as u64;
            let pc_nowait = STAGES * net.alpha * pc.max_rank_msgs as f64;
            let pc_finish = STAGES
                * (pc.max_rank_recv_bytes as f64 / net.bandwidth
                    + net.parallel_copy_schedule_time(src_boxes, nranks));
            let mut t_pc_nowait = pc_nowait;
            let mut t_pc_finish = pc_finish;
            if needs_coords {
                // Coordinate gather (3 of 5 components' worth of bytes) is a
                // *global* ParallelCopy: congested bandwidth plus the
                // per-box metadata handshake against the source BoxArray.
                let coord_bytes = pc.max_rank_recv_bytes as f64 * 3.0 / 5.0;
                let t_coord = net.parallel_copy_time(
                    pc.max_rank_msgs as f64,
                    coord_bytes,
                    src_boxes,
                    nranks,
                );
                t_pc_nowait += STAGES * net.alpha * pc.max_rank_msgs as f64;
                t_pc_finish += STAGES * (t_coord - net.alpha * pc.max_rank_msgs as f64);
            }
            out.add("FillPatch/ParallelCopy_nowait", t_pc_nowait);
            out.add("FillPatch/ParallelCopy_finish", t_pc_finish);
            out.add("FillPatch", t_pc_nowait + t_pc_finish);

            // Interpolation compute on the ghost shells.
            let t_interp = STAGES
                * match backend(version) {
                    None => platform.gpu.kernel_time(&interp_spec(), lc.ghost_shell_cells),
                    Some(be) => {
                        platform
                            .cpu
                            .kernel_time(&interp_spec(), lc.ghost_shell_cells, 1, be)
                    }
                };
            out.add("FillPatch", t_interp);
        }

        // --- AverageDown: once per iteration, fine→coarse restriction.
        if l > 0 {
            let t_avg = match backend(version) {
                None => platform.gpu.kernel_time(&update_spec(), lc.load.crit_cells / 8),
                Some(be) => platform
                    .cpu
                    .kernel_time(&update_spec(), lc.load.crit_cells / 8, 1, be),
            } + lc
                .pc
                .map(|p| p.max_rank_recv_bytes as f64 / 8.0 / net.bandwidth)
                .unwrap_or(0.0);
            out.add("AverageDown", t_avg);
        }
    }

    // --- ComputeDt: one pass over all levels plus the ReduceRealMin.
    let mut t_dt = 0.0;
    for lc in &lcs {
        t_dt += match backend(version) {
            None => platform.gpu.kernel_time(&compute_dt_spec(), lc.load.crit_cells),
            Some(be) => platform
                .cpu
                .kernel_time(&compute_dt_spec(), lc.load.crit_cells, 1, be),
        };
    }
    t_dt += net.allreduce_time(nranks);
    out.add("ComputeDt", t_dt);

    // --- Regrid: amortized over the regrid cadence. Tagging + clustering
    // metadata is O(total boxes) on every rank; data remap re-runs the
    // two-level gathers once.
    if case.levels.len() > 1 {
        let total_boxes = case.total_boxes() as f64;
        let mut t_regrid = net.meta_per_box * total_boxes * 4.0;
        for lc in &lcs {
            if let Some(pc) = &lc.pc {
                t_regrid += net.parallel_copy_time(
                    pc.max_rank_msgs as f64,
                    pc.max_rank_recv_bytes as f64,
                    total_boxes as u64,
                    nranks,
                );
            }
        }
        out.add("Regrid", t_regrid / REGRID_FREQ);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmrscale::{amr_case, uniform_case};
    use crocco_geometry::IntVect;

    fn platform() -> SummitPlatform {
        SummitPlatform::new()
    }

    #[test]
    fn gpu_is_much_faster_than_cpu_on_the_same_amr_case() {
        let p = platform();
        let nodes = 16;
        let equiv = IntVect::new(1280, 320, 640);
        let cpu_case = amr_case(equiv, ranks_for(CodeVersion::V1_2, nodes, &p));
        let gpu_case = amr_case(equiv, ranks_for(CodeVersion::V2_0, nodes, &p));
        let t_cpu = simulate_iteration(CodeVersion::V1_2, &cpu_case, &p).total();
        let t_gpu = simulate_iteration(CodeVersion::V2_0, &gpu_case, &p).total();
        let speedup = t_cpu / t_gpu;
        assert!(
            speedup > 5.0,
            "GPU speedup {speedup:.1} implausibly small"
        );
    }

    #[test]
    fn amr_beats_uniform_on_cpu_at_low_node_counts() {
        let p = platform();
        let nodes = 16;
        let ranks = ranks_for(CodeVersion::V1_1, nodes, &p);
        let equiv = IntVect::new(1280, 320, 640);
        let t_uniform =
            simulate_iteration(CodeVersion::V1_1, &uniform_case(equiv, ranks), &p).total();
        let t_amr = simulate_iteration(CodeVersion::V1_2, &amr_case(equiv, ranks), &p).total();
        assert!(
            t_uniform / t_amr > 2.0,
            "AMR speedup {} too small",
            t_uniform / t_amr
        );
    }

    #[test]
    fn trilinear_interp_version_is_faster_at_scale() {
        // CRoCCo 2.1 vs 2.0 (Fig. 5 right): dropping the global coordinate
        // ParallelCopy must help, and help more at larger node counts.
        let p = platform();
        let speedup_at = |nodes: u32| {
            let ranks = ranks_for(CodeVersion::V2_0, nodes, &p);
            let equiv = IntVect::new(640 * (nodes as i64).max(1), 320, 320);
            let case = amr_case(equiv, ranks);
            let t20 = simulate_iteration(CodeVersion::V2_0, &case, &p).total();
            let t21 = simulate_iteration(CodeVersion::V2_1, &case, &p).total();
            t20 / t21
        };
        let s_small = speedup_at(4);
        let s_large = speedup_at(64);
        assert!(s_small >= 1.0);
        assert!(
            s_large > s_small,
            "2.1's advantage must grow with scale: {s_small:.3} -> {s_large:.3}"
        );
    }

    #[test]
    fn overlapped_pricing_only_shrinks_exposed_fill_boundary() {
        let p = platform();
        let nodes = 64;
        let ranks = ranks_for(CodeVersion::V2_0, nodes, &p);
        let case = amr_case(IntVect::new(640 * nodes as i64, 320, 320), ranks);
        let add = simulate_iteration_with(CodeVersion::V2_0, &case, &p, CommPricing::Additive);
        let ovl = simulate_iteration_with(CodeVersion::V2_0, &case, &p, CommPricing::Overlapped);
        // Only FillBoundary_finish may change, and only downward.
        assert!(ovl.get("FillPatch/FillBoundary_finish") < add.get("FillPatch/FillBoundary_finish"));
        assert!(ovl.get("FillPatch/FillBoundary_finish") >= 0.0);
        for region in ["Advance", "ComputeDt", "AverageDown", "Regrid",
            "FillPatch/FillBoundary_nowait", "FillPatch/ParallelCopy_finish"] {
            assert_eq!(add.get(region), ovl.get(region), "{region} must be unchanged");
        }
        assert!(ovl.total() < add.total());
    }

    #[test]
    fn owned_data_model_is_the_default_and_beats_replicated() {
        let p = platform();
        let ranks = ranks_for(CodeVersion::V2_0, 64, &p);
        let case = amr_case(IntVect::new(640 * 64, 320, 320), ranks);
        let owned = simulate_iteration_model(
            CodeVersion::V2_0, &case, &p, CommPricing::Additive, DataModel::Owned,
        );
        let repl = simulate_iteration_model(
            CodeVersion::V2_0, &case, &p, CommPricing::Additive, DataModel::Replicated,
        );
        let dflt = simulate_iteration_with(CodeVersion::V2_0, &case, &p, CommPricing::Additive);
        // Owned is the default model, adds no Allgather region, and every
        // other region is identical between the two models.
        assert_eq!(owned.regions, dflt.regions);
        assert_eq!(owned.get("Allgather"), 0.0);
        assert!(repl.get("Allgather") > 0.0);
        assert!(repl.total() > owned.total());
        for region in ["Advance", "FillPatch", "ComputeDt", "AverageDown", "Regrid"] {
            assert_eq!(owned.get(region), repl.get(region), "{region} must be unchanged");
        }
        // The tentpole memory claim at simulated scale: O(owned), not
        // O(global).
        let m_owned = memory_per_rank(&case, DataModel::Owned);
        let m_repl = memory_per_rank(&case, DataModel::Replicated);
        assert!(m_owned * 8 < m_repl, "owned {m_owned} vs replicated {m_repl}");
    }

    #[test]
    fn additive_pricing_matches_legacy_entry_point() {
        let p = platform();
        let case = amr_case(IntVect::new(640, 160, 320), 24);
        let a = simulate_iteration(CodeVersion::V2_1, &case, &p);
        let b = simulate_iteration_with(CodeVersion::V2_1, &case, &p, CommPricing::Additive);
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn breakdown_has_the_papers_regions() {
        let p = platform();
        let case = amr_case(IntVect::new(640, 160, 320), 24);
        let b = simulate_iteration(CodeVersion::V2_1, &case, &p);
        for region in [
            "Advance",
            "FillPatch",
            "ComputeDt",
            "AverageDown",
            "Regrid",
            "FillPatch/FillBoundary_nowait",
            "FillPatch/ParallelCopy_finish",
        ] {
            assert!(b.get(region) > 0.0, "missing region {region}");
        }
        assert!(b.total() > 0.0);
        // Children must not exceed their parent.
        let fp_children: f64 = b
            .regions
            .iter()
            .filter(|(k, _)| k.starts_with("FillPatch/"))
            .map(|(_, v)| v)
            .sum();
        assert!(fp_children <= b.get("FillPatch") * 1.0 + 1e-12);
    }
}
