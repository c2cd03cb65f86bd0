//! The pinned surface: every call the benchmark makes into the solver is in
//! this file (README.md lists the items). Later PRs may not edit
//! `benchmark/`, so anything named here is frozen until the next benchmark
//! issue — which is why nothing on ROADMAP's deletion list appears: no
//! execution-mode setter, no named kernel backend, no profiler, no
//! `RunReport` field. Every workload runs the solver's *default* execution
//! mode; when a later PR changes a default, the workloads follow without an
//! edit here.

use crate::trace::Prober;
use crate::workloads::{Kind, Knobs, Mode, Workload, CKPT_INTERVAL};
use bytes::Bytes;
use crocco_amr::fillpatch::{fill_patch_single_level_with, fill_patch_two_levels_with, FillOpts};
use crocco_amr::{average_down, cluster_tags, ClusterParams};
use crocco_fab::plan::fill_boundary_plan;
use crocco_fab::{FArrayBox, PlanCache};
use crocco_geometry::{IntVect, RealVect};
use crocco_perfmodel::kernelspec::{viscous_spec, weno_spec};
use crocco_runtime::{parallel_for, tags, ChaosConfig, GroupEndpoint, LocalCluster, TaskGraph};
use crocco_solver::bc::PhysicalBc;
use crocco_solver::config::{CodeVersion, InterpKind};
use crocco_solver::durable::{recover, DiskStore, DurableCheckpointer};
use crocco_solver::io::{parse_checkpoint, write_checkpoint_bytes};
use crocco_solver::kernels::NGHOST;
use crocco_solver::problems::{vortex_state, ProblemKind};
use crocco_solver::state::{cons, NCONS};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub use crocco_runtime::RankEndpoint;
pub use crocco_solver::config::SolverConfig;
pub use crocco_solver::driver::Simulation;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The solver configuration of one workload: physical and resource setters
/// only. `spill_dir` is set for the two ramp workloads (both checkpoint to
/// disk once so `restart_s` means the same thing on each). `Replicated`
/// drops the rank count, transport and spill directory: the one-rank,
/// all-patches view of the same problem that the layer probes of the
/// two-rank workloads run on.
pub fn build_config(w: &Workload, k: &Knobs, view: View<'_>) -> SolverConfig {
    let b = SolverConfig::builder();
    let (problem, b) = match w.kind {
        Kind::Dmr3Serial => (
            ProblemKind::DoubleMach,
            b.extents(96, 24, 8)
                .version(CodeVersion::V2_0)
                .max_levels(3)
                .blocking_factor(4)
                .max_grid_size(32)
                .regrid_freq(w.regrid_freq)
                .cfl(0.6 * k.cfl),
        ),
        Kind::Ramp2R2 | Kind::Ramp2R2Durable => (
            ProblemKind::Ramp,
            b.extents(96, 48, 8)
                .version(CodeVersion::V2_0)
                .max_levels(2)
                .blocking_factor(4)
                .max_grid_size(16)
                .regrid_freq(w.regrid_freq)
                .cfl(0.5 * k.cfl)
                .threads(1),
        ),
        Kind::Vortex3SubT2 => (
            ProblemKind::IsentropicVortex,
            b.extents(24, 24, 8)
                .version(CodeVersion::V2_0)
                .max_levels(3)
                .blocking_factor(4)
                .max_grid_size(16)
                .regrid_freq(w.regrid_freq)
                .interpolator(InterpKind::PiecewiseConstant)
                .cfl(0.4 * k.cfl)
                .subcycling(true)
                .threads(2),
        ),
        Kind::Vortex1LesUniform => (
            ProblemKind::IsentropicVortex,
            b.extents(64, 64, 16)
                .version(CodeVersion::V1_1)
                .max_grid_size(32)
                .cfl(0.4 * k.cfl)
                .les(0.16 * k.les),
        ),
    };
    let mut b = b
        .problem(problem)
        .tag_threshold(problem.tag_threshold() * k.tag);
    if let View::AsRun { spill_dir } = view {
        b = b.nranks(w.nranks);
        if w.mode == Mode::Durable {
            b = b.chaos(chaos_config());
        }
        if let Some(dir) = spill_dir {
            b = b.spill_dir(dir);
        }
    }
    let cfg = b.build();
    assert_eq!(
        cfg.effective_levels(),
        w.max_levels,
        "workload table out of step with its config"
    );
    assert_eq!(cfg.subcycling, w.subcycling);
    cfg
}

/// The fault-free framed transport: framing, CRC, acks — no injected faults.
fn chaos_config() -> ChaosConfig {
    ChaosConfig {
        checkpoint_interval: CKPT_INTERVAL,
        ..ChaosConfig::default()
    }
}

/// Which configuration of a workload [`build_config`] returns.
#[derive(Clone, Copy)]
pub enum View<'a> {
    /// As the timed run uses it.
    AsRun { spill_dir: Option<&'a Path> },
    /// One rank holding every patch.
    Replicated,
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

pub fn new_serial(cfg: &SolverConfig) -> Simulation {
    Simulation::new(cfg.clone())
}

pub fn step(sim: &mut Simulation) {
    sim.step();
}

/// Constructs this rank's share of an owned-data simulation (collective).
pub fn new_owned(cfg: &SolverConfig, ep: &RankEndpoint) -> Simulation {
    Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(ep)).expect("fault-free construction")
}

pub fn advance_cluster(sim: &mut Simulation, n: u32, ep: &RankEndpoint) {
    // The returned report is ignored on purpose (its fields are not pinned).
    let _ = sim.advance_steps_cluster(n, ep);
}

/// Advances `n` steps under the checkpointing loop; returns
/// `(spills, spill_failures, crashed_or_recovered)`.
pub fn advance_chaos(sim: &mut Simulation, n: u32, ep: &RankEndpoint) -> (u32, u32, bool) {
    let r = sim.advance_steps_chaos(n, ep);
    (r.spills, r.spill_failures, r.crashed || r.recoveries > 0)
}

/// A barrier: the dt allreduce with a throw-away value.
pub fn barrier(ep: &RankEndpoint) {
    black_box(ep.allreduce_f64(0.0, f64::min));
}

/// Runs `f` on `nranks` rank threads; `framed` selects the fault-free chaos
/// transport. Returns the per-rank results and the transport's retransmit
/// count (0 on the plain transport).
pub fn run_cluster<R: Send>(
    nranks: usize,
    framed: bool,
    f: impl Fn(RankEndpoint) -> R + Sync,
) -> (Vec<R>, u64) {
    if framed {
        let (out, rt) = LocalCluster::run_with_chaos(nranks, chaos_config(), f);
        let retransmits = rt
            .stats
            .retransmits
            .load(std::sync::atomic::Ordering::Relaxed);
        (out, retransmits)
    } else {
        (LocalCluster::run(nranks, f), 0)
    }
}

pub fn checkpoint_bytes(sim: &Simulation) -> Vec<u8> {
    write_checkpoint_bytes(sim)
}

/// Checkpoint bytes → replicated simulation ready to step.
pub fn restore_serial(cfg: &SolverConfig, bytes: &[u8]) -> Result<Simulation, String> {
    let chk = parse_checkpoint(bytes).map_err(|e| e.to_string())?;
    Ok(Simulation::from_checkpoint(cfg.clone(), &chk))
}

/// Cold restart of rank `rank` from the spill directory.
pub fn restart_owned(cfg: &SolverConfig, dir: &Path, rank: usize) -> Result<Simulation, String> {
    Simulation::from_checkpoint_file_owned(cfg.clone(), dir, rank)
        .map(|(sim, _info)| sim)
        .map_err(|e| e.to_string())
}

/// The raw bytes of the newest valid checkpoint in `dir` (the slot the
/// recovery ladder picks).
pub fn newest_spilled_bytes(dir: &Path) -> Result<Vec<u8>, String> {
    let store = DiskStore::new(dir).map_err(|e| e.to_string())?;
    let rec = recover(&store).map_err(|e| e.to_string())?;
    std::fs::read(dir.join(&rec.slot)).map_err(|e| format!("{}: {e}", rec.slot))
}

// ---------------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------------

pub fn sim_time(sim: &Simulation) -> f64 {
    sim.time()
}

pub fn step_count(sim: &Simulation) -> u32 {
    sim.step_count()
}

/// Cell updates one coarse step performs on the current grids, counted by
/// the harness: Σ_ℓ valid cells × (2^ℓ substeps when subcycling, else 1).
/// (`RunReport::cell_updates` stays 0 under lockstep cluster stepping —
/// README.md, "Known gaps".) The hierarchy is replicated metadata, so this
/// is the global count on every rank.
pub fn cell_updates_per_step(sim: &Simulation) -> u64 {
    let sub = sim.cfg.subcycling;
    (0..sim.nlevels())
        .map(|l| sim.hierarchy().level(l).ba.num_points() * if sub { 1 << l } else { 1 })
        .sum()
}

/// Valid cells per level.
pub fn level_cells(sim: &Simulation) -> Vec<u64> {
    (0..sim.nlevels())
        .map(|l| sim.hierarchy().level(l).ba.num_points())
        .collect()
}

/// Valid cells of the patches this simulation holds data for.
pub fn owned_cells(sim: &Simulation) -> u64 {
    (0..sim.nlevels())
        .map(|l| {
            let st = &sim.level(l).state;
            (0..st.nfabs())
                .filter(|&i| st.is_allocated(i))
                .map(|i| st.valid_box(i).num_points())
                .sum::<u64>()
        })
        .sum()
}

pub fn reduction_frac(sim: &Simulation) -> f64 {
    sim.hierarchy().reduction_fraction()
}

/// `(hits, misses)` of the hierarchy's plan cache.
pub fn plan_cache_counts(sim: &Simulation) -> (u64, u64) {
    let c = sim.hierarchy().plan_cache();
    (c.hits(), c.misses())
}

/// `(messages, bytes)` that crossed ranks so far, from the solver's
/// communication accounting.
pub fn comm_counts(sim: &Simulation) -> (u64, u64) {
    let c = &sim.comm;
    (
        c.fb_messages + c.pc_messages + c.coord_pc_messages,
        c.fb_bytes + c.pc_bytes + c.coord_pc_bytes,
    )
}

pub fn total_mass(sim: &Simulation) -> f64 {
    sim.conserved_integral(cons::RHO)
}

/// Per-patch summary of the state a simulation holds: what the correctness
/// gate and the state hash are built from. Only *allocated* patches are
/// visited — `Simulation::has_nonfinite()` indexes the unallocated
/// placeholders of an owned-data simulation and panics (README.md, "Known
/// gaps").
#[derive(Clone, Debug, PartialEq)]
pub struct PatchDigest {
    pub level: usize,
    pub patch: usize,
    pub cells: u64,
    pub finite: bool,
    pub sum_rho: f64,
    pub sumsq_rho: f64,
    /// FNV-1a over the valid cells' bit patterns, component-major.
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn patch_digests(sim: &Simulation) -> Vec<PatchDigest> {
    let mut out = Vec::new();
    for l in 0..sim.nlevels() {
        let st = &sim.level(l).state;
        for i in (0..st.nfabs()).filter(|&i| st.is_allocated(i)) {
            let (fab, valid) = (st.fab(i), st.valid_box(i));
            let mut d = PatchDigest {
                level: l,
                patch: i,
                cells: valid.num_points(),
                finite: !fab.has_nonfinite(valid),
                sum_rho: 0.0,
                sumsq_rho: 0.0,
                hash: FNV_OFFSET,
            };
            for c in 0..NCONS {
                for p in valid.cells() {
                    let v = fab.get(p, c);
                    d.hash = fnv1a(d.hash, &v.to_bits().to_le_bytes());
                    if c == cons::RHO {
                        d.sum_rho += v;
                        d.sumsq_rho += v * v;
                    }
                }
            }
            out.push(d);
        }
    }
    out
}

/// One hash over per-patch hashes in level/patch order, so a two-rank run
/// (digests merged from both ranks) and a serial run of the same state agree.
pub fn state_hash(digests: &[PatchDigest]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.hash.to_le_bytes()))
}

/// RMS density error of level 0 against the exact isentropic vortex at the
/// simulation's time (level 0 holds the averaged-down fine solution).
pub fn vortex_l2_rho(sim: &Simulation) -> f64 {
    let (lev, t) = (sim.level(0), sim.time());
    let (mut sum, mut n) = (0.0, 0u64);
    for i in (0..lev.state.nfabs()).filter(|&i| lev.state.is_allocated(i)) {
        let (u, x) = (lev.state.fab(i), lev.coords.fab(i));
        for p in lev.state.valid_box(i).cells() {
            let pos = RealVect::new(x.get(p, 0), x.get(p, 1), x.get(p, 2));
            let e = u.get(p, cons::RHO) - vortex_state(pos, t).rho;
            sum += e * e;
            n += 1;
        }
    }
    (sum / n as f64).sqrt()
}

// ---------------------------------------------------------------------------
// Layer probes: one headline function per layer, timed from outside on the
// workload's end-state grids and data. Every probe takes a replicated
// (one-rank) simulation.
// ---------------------------------------------------------------------------

pub struct KernelProbe {
    /// Valid cells swept per call (the finest level).
    pub cells: u64,
    /// Bytes of state + metrics + rhs the largest probed patch touches.
    pub patch_working_set: usize,
    pub weno_s: f64,
    pub rhs_s: f64,
    /// `None` where the workload runs no viscous/LES term: the kernel
    /// early-returns there and a rate would be meaningless.
    pub viscous_s: Option<f64>,
    pub compute_dt_s: f64,
    /// Computed (not measured) flops and DRAM bytes per cell of one RHS
    /// evaluation, from `perfmodel::kernelspec`.
    pub flops_per_cell: f64,
    pub bytes_per_cell: f64,
}

/// `core::backend`: the configured backend's kernels over every patch of the
/// finest level, single thread.
pub fn probe_kernels(sim: &Simulation, pr: &mut Prober) -> KernelProbe {
    let cfg = &sim.cfg;
    let backend = cfg.kernel_backend;
    let gas = cfg.problem.gas();
    let lev = sim.level(sim.nlevels() - 1);
    let n = lev.state.nfabs();
    let mut rhs: Vec<FArrayBox> = (0..n)
        .map(|i| FArrayBox::new(lev.state.valid_box(i), NCONS))
        .collect();
    let cells: u64 = (0..n).map(|i| lev.state.valid_box(i).num_points()).sum();
    let patch_working_set = (0..n)
        .map(|i| {
            8 * (lev.state.fab(i).data().len()
                + lev.metrics.fab(i).data().len()
                + rhs[i].data().len())
        })
        .max()
        .unwrap_or(0);

    let weno_s = pr.median_secs("core.backend.weno", || {
        for (i, r) in rhs.iter_mut().enumerate() {
            for dir in 0..3 {
                backend.weno_flux_recon(
                    lev.state.fab(i),
                    lev.metrics.fab(i),
                    r,
                    lev.state.valid_box(i),
                    dir,
                    &gas,
                    cfg.weno,
                    cfg.reconstruction,
                );
            }
        }
    });
    let rhs_s = pr.median_secs("core.backend.rhs", || {
        for (i, r) in rhs.iter_mut().enumerate() {
            backend.accumulate_rhs(
                lev.state.fab(i),
                lev.metrics.fab(i),
                r,
                lev.state.valid_box(i),
                &gas,
                cfg.weno,
                cfg.reconstruction,
                cfg.les.as_ref(),
            );
        }
    });
    let viscous_s = cfg.les.as_ref().map(|sgs| {
        pr.median_secs("core.backend.viscous", || {
            for (i, r) in rhs.iter_mut().enumerate() {
                backend.viscous_flux_les(
                    lev.state.fab(i),
                    lev.metrics.fab(i),
                    r,
                    lev.state.valid_box(i),
                    &gas,
                    Some(sgs),
                );
            }
        })
    });
    let compute_dt_s = pr.median_secs("core.backend.compute_dt", || {
        let mut dt = f64::INFINITY;
        for i in 0..n {
            dt = dt.min(backend.compute_dt_patch(
                lev.state.fab(i),
                lev.metrics.fab(i),
                lev.state.valid_box(i),
                &gas,
                cfg.cfl,
            ));
        }
        black_box(dt);
    });
    black_box(&rhs);

    let visc = if cfg.les.is_some() {
        Some(viscous_spec())
    } else {
        None
    };
    let weno = weno_spec(0);
    KernelProbe {
        cells,
        patch_working_set,
        weno_s,
        rhs_s,
        viscous_s,
        compute_dt_s,
        flops_per_cell: 3.0 * weno.flops_per_cell + visc.map_or(0.0, |v| v.flops_per_cell),
        bytes_per_cell: 3.0 * weno.dram_bytes_per_cell
            + visc.map_or(0.0, |v| v.dram_bytes_per_cell),
    }
}

pub struct FabProbe {
    pub plan_build_s: f64,
    pub fill_boundary_s: f64,
    /// Bytes the executed FillBoundary plan moves (from plan stats: computed).
    pub fill_boundary_bytes: u64,
    pub parallel_copy_s: f64,
    /// Patches on the probed (finest) level.
    pub patches: usize,
}

/// `fab`: FillBoundary plan construction and execution, and a same-grid
/// ParallelCopy, on the finest level's `BoxArray` and state.
pub fn probe_fab(sim: &Simulation, pr: &mut Prober) -> FabProbe {
    let l = sim.nlevels() - 1;
    let (hl, domain) = (sim.hierarchy().level(l), sim.hierarchy().domain(l));
    let threads = sim.cfg.threads;
    let src = &sim.level(l).state;
    let mut mf = src.clone();
    let mut plan = fill_boundary_plan(&hl.ba, &hl.dm, &domain, NGHOST, NCONS);
    let plan_build_s = pr.median_secs("fab.plan_build", || {
        plan = fill_boundary_plan(&hl.ba, &hl.dm, &domain, NGHOST, NCONS);
    });
    let stats = plan.stats();
    let fill_boundary_s = pr.median_secs("fab.fill_boundary", || mf.execute_plan(&plan, threads));
    let cache = PlanCache::new();
    let parallel_copy_s = pr.median_secs("fab.parallel_copy", || {
        black_box(mf.parallel_copy_from_cached(src, &domain, &cache, threads));
    });
    FabProbe {
        plan_build_s,
        fill_boundary_s,
        fill_boundary_bytes: stats.local_bytes + stats.remote_bytes,
        parallel_copy_s,
        patches: hl.ba.len(),
    }
}

pub struct AmrProbe {
    /// FillPatch seconds per level, as the step loop calls it: single-level
    /// on level 0, two-level (the workload's interpolator, coordinate gather
    /// included where it needs one) on the rest.
    pub fillpatch_s: Vec<f64>,
    /// Ghost cells the finest level's FillPatch produced per call
    /// (interpolated cells for a two-level fill, exchanged cells otherwise).
    pub finest_ghost_cells: u64,
    /// AverageDown seconds per fine level (index 0 = level 1 → 0); empty on
    /// a single-level run.
    pub average_down_s: Vec<f64>,
    pub tag_s: f64,
    /// `None` on a single-level run (nothing to cluster).
    pub cluster_s: Option<f64>,
    pub cluster_boxes: usize,
    /// Buffered tagged cells ÷ cells of the boxes clustering covers them with.
    pub grid_efficiency: f64,
}

/// `amr`: FillPatch per level, AverageDown, tagging and Berger–Rigoutsos
/// clustering on the end-state hierarchy.
pub fn probe_amr(sim: &Simulation, pr: &mut Prober) -> AmrProbe {
    let cfg = &sim.cfg;
    let gas = cfg.problem.gas();
    let hier = sim.hierarchy();
    let nlev = sim.nlevels();
    let interp = cfg
        .interpolator
        .map_or_else(|| cfg.version.interpolator(), |k| k.build());
    let ratio = IntVect::splat(2);
    let extents = |l: usize| hier.domain(l).bx.size();
    let cache = PlanCache::new();
    let opts = FillOpts {
        cache: Some(&cache),
        threads: cfg.threads,
    };
    let t = sim.time();

    let mut fillpatch_s = Vec::new();
    let mut finest_ghost_cells = 0;
    for l in 0..nlev {
        let domain = hier.domain(l);
        let bc = PhysicalBc::new(cfg.problem, gas, extents(l));
        let mut fine = sim.level(l).state.clone();
        let name = format!("amr.fillpatch.l{l}");
        if l == 0 {
            let mut bytes = 0;
            fillpatch_s.push(pr.median_secs(&name, || {
                let rep = fill_patch_single_level_with(&mut fine, &domain, &bc, t, opts);
                bytes = rep.fb_plan.stats.local_bytes + rep.fb_plan.stats.remote_bytes;
            }));
            finest_ghost_cells = bytes / (8 * NCONS as u64);
        } else {
            let coarse = sim.level(l - 1);
            let coarse_domain = hier.domain(l - 1);
            let coarse_bc = PhysicalBc::new(cfg.problem, gas, extents(l - 1));
            let fine_coords = &sim.level(l).coords;
            fillpatch_s.push(pr.median_secs(&name, || {
                let rep = fill_patch_two_levels_with(
                    &mut fine,
                    &coarse.state,
                    &domain,
                    &coarse_domain,
                    ratio,
                    interp.as_ref(),
                    &bc,
                    &coarse_bc,
                    Some(&coarse.coords),
                    Some(fine_coords),
                    t,
                    None,
                    opts,
                );
                finest_ghost_cells = rep.interpolated_cells;
            }));
        }
    }

    let mut average_down_s = Vec::new();
    for l in 1..nlev {
        let mut coarse = sim.level(l - 1).state.clone();
        let fine = &sim.level(l).state;
        average_down_s.push(pr.median_secs(&format!("amr.average_down.l{l}"), || {
            average_down(fine, &mut coarse, ratio);
        }));
    }

    let mut tag_sets = sim.compute_tags();
    let tag_s = pr.median_secs("amr.tag", || tag_sets = sim.compute_tags());
    // Cluster the finest taggable level's tags with the parameters
    // `AmrHierarchy::regrid` derives from the hierarchy's own.
    let (mut cluster_s, mut cluster_boxes, mut grid_efficiency) = (None, 0, 0.0);
    if let Some((l, tags)) = tag_sets.iter().enumerate().next_back() {
        let p = &hier.params;
        let domain = hier.domain(l).bx;
        let buffered = tags.buffer(p.n_error_buf, domain);
        let cp = ClusterParams {
            efficiency: p.grid_eff,
            blocking_factor: p.blocking_factor,
            max_grid_size: (p.max_grid_size / 2).max(p.blocking_factor),
            domain,
        };
        let mut boxes = Vec::new();
        cluster_s =
            Some(pr.median_secs("amr.cluster_tags", || boxes = cluster_tags(&buffered, cp)));
        cluster_boxes = boxes.len();
        let covered: u64 = boxes.iter().map(|b| b.num_points()).sum();
        grid_efficiency = if covered == 0 {
            0.0
        } else {
            buffered.len() as f64 / covered as f64
        };
    }
    AmrProbe {
        fillpatch_s,
        finest_ghost_cells,
        average_down_s,
        tag_s,
        cluster_s,
        cluster_boxes,
        grid_efficiency,
    }
}

pub struct IoProbe {
    pub encode_s: f64,
    pub bytes: usize,
    pub parse_s: f64,
    pub restore_s: f64,
    pub spill_s: f64,
    pub recover_s: f64,
}

/// `core::io`, `core::driver` restore and `core::durable`: encode, parse,
/// restore, spill (fsync'd slot + manifest) and the recovery ladder, on the
/// end-state checkpoint. `dir` is a scratch directory inside the checkout.
pub fn probe_io(sim: &Simulation, dir: &Path, pr: &mut Prober) -> Result<IoProbe, String> {
    let cfg = &sim.cfg;
    let mut bytes = write_checkpoint_bytes(sim);
    let encode_s = pr.median_secs("core.io.encode", || bytes = write_checkpoint_bytes(sim));
    let mut chk = parse_checkpoint(&bytes).map_err(|e| e.to_string())?;
    let parse_s = pr.median_secs("core.io.parse", || {
        chk = parse_checkpoint(&bytes).expect("bytes parsed a moment ago");
    });
    let restore_s = pr.median_secs("core.driver.restore", || {
        black_box(Simulation::from_checkpoint(cfg.clone(), &chk));
    });
    let mut spiller = DurableCheckpointer::open(dir, None).map_err(|e| e.to_string())?;
    let mut spill_err = None;
    let spill_s = pr.median_secs("core.durable.spill", || {
        if let Err(e) = spiller.spill(sim.step_count(), &bytes) {
            spill_err = Some(e.to_string());
        }
    });
    if let Some(e) = spill_err {
        return Err(format!("spill failed: {e}"));
    }
    let store = DiskStore::new(dir).map_err(|e| e.to_string())?;
    let mut recover_err = None;
    let recover_s = pr.median_secs("core.durable.recover", || match recover(&store) {
        Ok(r) => {
            black_box(r.checkpoint.step);
        }
        Err(e) => recover_err = Some(e.to_string()),
    });
    if let Some(e) = recover_err {
        return Err(format!("recover failed: {e}"));
    }
    Ok(IoProbe {
        encode_s,
        bytes: bytes.len(),
        parse_s,
        restore_s,
        spill_s,
        recover_s,
    })
}

pub struct WireProbe {
    /// Half the round trip of an 8-byte message, seconds.
    pub pingpong_s: f64,
    /// One-way seconds to pack, send, receive and unpack 1 MiB.
    pub mib_s: f64,
    pub allreduce_s: f64,
    pub retransmits: u64,
}

/// `runtime::cluster` (plain) or `runtime::chaos` (framed, fault-free): two
/// rank threads, `send`/`recv_matched`/`allreduce_f64`. Workload-independent.
pub fn probe_wire(framed: bool) -> WireProbe {
    const SMALL_ITERS: usize = 2000;
    const BIG_ITERS: usize = 40;
    const BIG: usize = 1 << 20;
    let (out, retransmits) = run_cluster(2, framed, |ep| {
        let (me, peer) = (ep.rank(), 1 - ep.rank());
        let mut index = 0usize;
        let mut round_trip = |payload: &[u8], sink: &mut [u8]| {
            let tag = tags::halo(0, 0, index);
            index += 1;
            if me == 0 {
                ep.send(peer, tag, Bytes::copy_from_slice(payload));
                let back = ep.recv_matched(peer, tag);
                sink.copy_from_slice(back.as_ref());
            } else {
                let got = ep.recv_matched(peer, tag);
                sink.copy_from_slice(got.as_ref());
                ep.send(peer, tag, Bytes::copy_from_slice(sink));
            }
        };
        let median_of = |iters: usize, f: &mut dyn FnMut()| {
            f();
            let samples: Vec<f64> = (0..iters)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            crate::trace::median(&samples)
        };
        let (small, mut small_sink) = ([7u8; 8], [0u8; 8]);
        let pingpong_s = median_of(SMALL_ITERS, &mut || round_trip(&small, &mut small_sink)) / 2.0;
        let (big, mut big_sink) = (vec![3u8; BIG], vec![0u8; BIG]);
        let mib_s = median_of(BIG_ITERS, &mut || round_trip(&big, &mut big_sink)) / 2.0;
        let allreduce_s = median_of(SMALL_ITERS, &mut || {
            black_box(ep.allreduce_f64(me as f64, f64::min));
        });
        (pingpong_s, mib_s, allreduce_s)
    });
    let (pingpong_s, mib_s, allreduce_s) = out[0];
    WireProbe {
        pingpong_s,
        mib_s,
        allreduce_s,
        retransmits,
    }
}

/// `runtime::taskgraph`: seconds per task to build and run `n` no-op tasks,
/// as a dependency chain or an independent fan, on `threads` workers.
pub fn probe_taskgraph(n: usize, chain: bool, threads: usize) -> f64 {
    let t0 = Instant::now();
    let mut g = TaskGraph::new();
    let mut prev = None;
    for i in 0..n {
        let deps: Vec<_> = if chain {
            prev.iter().cloned().collect()
        } else {
            Vec::new()
        };
        prev = Some(g.add_task(&deps, move || {
            black_box(i);
        }));
    }
    g.run(threads);
    t0.elapsed().as_secs_f64() / n as f64
}

/// `runtime::pool`: seconds for one fork-join over 64 trivial items.
pub fn probe_fork_join(threads: usize) -> f64 {
    let t0 = Instant::now();
    parallel_for(64, threads, |i| {
        black_box(i);
    });
    t0.elapsed().as_secs_f64()
}
