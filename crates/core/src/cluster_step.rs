//! The time-step loop (Algorithms 1 and 2 of the paper), once, over a
//! communicator group: each rank advances only the patches its
//! `DistributionMapping` owns and halo data crosses ranks as real
//! tag-matched messages (DESIGN.md §4f, docs/DISTRIBUTED.md). On-node
//! stepping ([`Simulation::step`]) is this loop over the group of one
//! ([`RankEndpoint::solo`]): every collective is the identity and nothing is
//! sent.
//!
//! The execution model is *replicated metadata, owned data*: every rank
//! holds identical grid metadata (BoxArrays, DistributionMappings, plans) —
//! the paper's "replicated metadata" AMReX regime, §III-B — while fab
//! *data* lives only on its owner ([`Simulation::new_owned`]): each rank
//! allocates O(owned cells), every RK stage moves halo and coarse→fine
//! gather data through cached plans ([`run_dist_rk_stage`], task graph or
//! fenced reference per [`SolverConfig::overlap`], plus
//! [`TwoLevelPlans::exchange`] for the two-level gathers), `AverageDown`
//! restricts across ranks ([`average_down_dist`]), and regrid runs
//! distributed: rank-local tagging on owned patches, a sorted-bytes tag
//! union, the deterministic Berger–Rigoutsos clustering every rank replays
//! identically, then the remap — the same two-level gather over the new
//! level's valid boxes — and a redistribution of surviving data along the
//! old→new `ParallelCopy` plan.
//!
//! `ComputeDt` is the one true collective: each rank reduces its owned
//! patches, then [`GroupEndpoint::allreduce_f64`] combines the exact `min`
//! (order-free, so bitwise-reproducible at any rank count).
//!
//! # Rounds
//!
//! Every rank-crossing round — construction and regrid tag unions, remap
//! gathers and redistribution, the per-stage two-level gathers and halo
//! round, reflux shipping, average-down, the checkpoint gather — is named by
//! the next value of one counter, `Rounds`, which every rank of the group
//! advances in the same order because it runs the same rounds in the same
//! order. The tag is [`tags::round`] of the group's generation and that
//! value; a receive matches on `(sender, tag)`, so a tag need not name the
//! sender, the level or what the round carries.
//!
//! [`SolverConfig::overlap`]: crate::config::SolverConfig::overlap
//! [`average_down_dist`]: crocco_amr::average_down::average_down_dist

use crate::bc::PhysicalBc;
use crate::driver::{
    accumulate_rhs, LevelData, PlanKind, Region, RunReport, Simulation, AUX_DIST_SKELETON,
    AUX_DIST_VERIFY,
};
use crate::io::{checkpoint_header, patch_body_bytes, seal_checkpoint};
use crate::kernels::{FaceSink, NGHOST};
use crate::state::NCONS;
use crocco_amr::average_down::average_down_dist;
use crocco_amr::fillpatch::{
    fill_two_level_patch_with_remote, resolve_remap_plans, resolve_two_level_plans,
    CoarseTimeInterp, RemoteGathers, TwoLevelPlans,
};
use crocco_amr::tagging::TagSet;
use crocco_fab::exchange::{exchange, redistribute, Layout};
use crocco_fab::plan_cache::{PlanKey, PlanOp};
use crocco_fab::{
    band_slabs, run_dist_rk_stage, DistSkeleton, DistStage, FArrayBox, FabRd, FabRw,
    StageFabs, SweepPhase,
};
use crocco_geometry::{IntVect, ProblemDomain};
use crocco_runtime::chaos::CrashPhase;
use crocco_runtime::cluster::CommError;
use crocco_runtime::{tags, CommGroup, GroupEndpoint, RankEndpoint, StageError};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counter that names a `Simulation`'s rank-crossing rounds (module
/// doc, "Rounds"). It starts at 0 with every `Simulation`, so a rebuilt one
/// restarts it, in a new communicator generation.
#[derive(Debug, Default)]
pub(crate) struct Rounds(u64);

impl Rounds {
    /// The tag of the next round in `gep`'s generation.
    pub(crate) fn next(&mut self, gep: &GroupEndpoint<'_>) -> u64 {
        let n = self.0;
        self.0 += 1;
        tags::round(gep.generation(), n)
    }
}

/// What [`Simulation::advance_steps_chaos`] did to survive the run: how
/// often it checkpointed, whether this rank was the one that crashed, and
/// every rollback it executed (DESIGN.md §4g).
#[derive(Clone, Debug, Default)]
pub struct ChaosRunReport {
    /// `true` if *this* rank fail-stopped (scheduled crash or local kernel
    /// panic) — its `Simulation` is abandoned mid-step and must not be read.
    pub crashed: bool,
    /// Number of fault-triggered rollback + group-shrink recoveries.
    pub recoveries: u32,
    /// Number of in-memory checkpoints taken.
    pub checkpoints: u32,
    /// The step counter each recovery rolled back to (one entry per
    /// recovery; two faults inside one checkpoint interval produce two
    /// identical entries).
    pub rollback_steps: Vec<u32>,
    /// Largest serialized checkpoint, in bytes (the per-rank snapshot cost
    /// `perfmodel::resilience` prices).
    pub checkpoint_bytes: usize,
    /// Durable spills sealed to disk (slot + manifest both landed) — only
    /// counted on the spilling rank (logical rank 0 of the chaos group).
    pub spills: u32,
    /// Spill attempts abandoned (disk-full, or transient errors outlasting
    /// the retry budget). Each one degrades gracefully: the step loop
    /// continues on in-memory checkpoints alone.
    pub spill_failures: u32,
}

impl Simulation {
    /// Constructs this rank's share of a simulation over `gep`'s group: fab
    /// data is allocated only for the patches `gep.rank()` owns, and the
    /// initial regrid loop runs distributed — each round tags owned patches,
    /// unions the tag sets across ranks (sorted-byte exchange, so every rank
    /// holds the identical set), and replays the deterministic
    /// Berger–Rigoutsos clustering in lockstep. Every rank therefore derives
    /// the same hierarchy at any group size, while touching only O(owned
    /// cells) of data. `cfg.nranks` must equal `gep.nranks()`.
    pub fn new_owned(
        cfg: crate::config::SolverConfig,
        gep: &GroupEndpoint<'_>,
    ) -> Result<Self, StageError> {
        assert_eq!(cfg.nranks, gep.nranks(), "cfg.nranks must match the group size");
        let mut sim = Self::build(cfg, gep.rank(), None);
        // Iteratively grow the initial hierarchy: tag on the initial flow,
        // regrid, re-initialize — until the ladder stops changing.
        if sim.cfg.version.amr_enabled() {
            for _ in 0..sim.cfg.max_levels {
                let mut tag_sets = sim.compute_tags();
                sim.exchange_tag_union(gep, &mut tag_sets)?;
                if !sim.hierarchy.regrid(&tag_sets) {
                    break;
                }
                sim.rebuild_all_levels_from_ic();
            }
        }
        Ok(sim)
    }

    /// Unions per-level tag sets across all ranks in place. Each rank sends
    /// every peer one message holding its sorted tag bytes for every level
    /// and absorbs theirs; set-union is order-free, so all ranks end with
    /// the identical `TagSet` and the downstream clustering stays in
    /// lockstep. Tag-set sizes are known only to their sender, so the round
    /// is a counted layout.
    fn exchange_tag_union(
        &mut self,
        gep: &GroupEndpoint<'_>,
        tag_sets: &mut [TagSet],
    ) -> Result<(), StageError> {
        let (me, n, nl) = (gep.rank(), gep.nranks(), tag_sets.len());
        let tag = self.rounds.next(gep);
        // Item `src·nl + l` is rank `src`'s level-`l` set, broadcast to all.
        let routes = (0..n * nl).flat_map(|item| (0..n).map(move |dst| (item, item / nl, dst)));
        let layout = Layout::counted(me, routes);
        let landed = exchange(gep, &layout, tag, &mut |item, out| {
            out.extend_from_slice(&tag_sets[item % nl].to_sorted_bytes());
        })?;
        for (l, t) in tag_sets.iter_mut().enumerate() {
            for src in (0..n).filter(|&src| src != me) {
                let Some(bytes) = landed.get(src * nl + l) else {
                    continue;
                };
                t.absorb_bytes(bytes).map_err(|e| CommError::MalformedPayload {
                    src,
                    tag,
                    expected: e.len.next_multiple_of(24),
                    got: e.len,
                })?;
            }
        }
        Ok(())
    }

    /// Regrids and remaps field data onto the new grids (Algorithm 1 line
    /// 7): tag owned patches, union tags across ranks, replay the
    /// deterministic clustering, then remap each new level — a two-level
    /// FillPatch over its *valid* boxes (`resolve_remap_plans`: the same
    /// coarse→fine gather, exchange and interpolation the RK stages use for
    /// ghosts), overwritten with surviving same-level data along the old→new
    /// `ParallelCopy` plan via [`redistribute`].
    ///
    /// Only valid cells are remapped; ghosts are rebuilt by the next RK
    /// stage's FillPatch.
    fn regrid(&mut self, gep: &GroupEndpoint<'_>) -> Result<(), StageError> {
        let mut tag_sets = self.compute_tags();
        self.exchange_tag_union(gep, &mut tag_sets)?;
        if !self.hierarchy.regrid(&tag_sets) {
            return Ok(());
        }
        let ratio = IntVect::splat(2);
        let cache = self.hierarchy.plan_cache().clone();
        let mut old_levels: Vec<Option<LevelData>> =
            std::mem::take(&mut self.levels).into_iter().map(Some).collect();
        // Level 0 grids never change: reuse its data wholesale.
        self.levels.push(old_levels[0].take().expect("level 0 always exists"));
        for l in 1..self.hierarchy.nlevels() {
            let lev = self.hierarchy.level(l);
            let (ba, dm) = (lev.ba.clone(), lev.dm.clone());
            let domain = self.hierarchy.domain(l);
            let coarse_domain = self.hierarchy.domain(l - 1);
            let coarse_bc = PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l - 1));
            let old_grid = old_levels
                .get_mut(l)
                .and_then(Option::as_mut)
                .map(|old| (&mut old.coords, &mut old.metrics));
            let (coords, metrics) = self.make_level_grid(l, old_grid);
            let mut state = self.alloc_mf(ba.clone(), dm.clone(), NCONS, NGHOST);
            let coarse = &self.levels[l - 1];
            let plans = resolve_remap_plans(
                &state,
                &coarse.state,
                &coarse_domain,
                ratio,
                &*self.interp,
                Some(&coarse.coords),
                Some(&coords),
            );
            let remote = plans.exchange(&coarse.state, None, gep, &mut || self.rounds.next(gep))?;
            for i in 0..state.nfabs() {
                if !state.is_allocated(i) {
                    continue;
                }
                crocco_fab::with_rw(state.fab_mut(i), |rw| {
                    fill_two_level_patch_with_remote(
                        i,
                        rw,
                        &plans,
                        &coarse.state,
                        &coarse_domain,
                        &coarse_bc,
                        self.time,
                        None,
                        &remote,
                    )
                });
            }
            drop(plans);
            // Overwrite with surviving same-level data, then drop the old
            // level here rather than when the function returns: a regrid
            // never holds more than one superseded level.
            if let Some(old) = old_levels.get_mut(l).and_then(Option::take) {
                let plan = cache.parallel_copy(
                    old.state.boxarray(),
                    old.state.distribution(),
                    state.boxarray(),
                    state.distribution(),
                    &domain,
                    0,
                    NCONS,
                );
                self.comm.absorb_plan(&plan.stats, PlanKind::ParallelCopy);
                redistribute(&old.state, &mut state, &plan.plan, gep, self.rounds.next(gep))?;
            }
            let du = self.alloc_mf(ba, dm, NCONS, 0);
            self.levels.push(LevelData::new(state, du, coords, metrics));
        }
        Ok(())
    }

    /// Serializes the whole-domain checkpoint from owned data: every rank
    /// broadcasts its owned patch bodies — one message per peer — and
    /// assembles all patches in hierarchy order, so all ranks seal
    /// byte-identical snapshots (the invariant chaos recovery relies on).
    fn checkpoint_bytes_cluster(&mut self, gep: &GroupEndpoint<'_>) -> Result<Vec<u8>, StageError> {
        let rank = self.owned_rank;
        let tag = self.rounds.next(gep);
        // Every patch body gets its slot in (level, patch) order: owned
        // bodies are serialised in place, a peer's when its message lands.
        let mut w = checkpoint_header(self);
        let mut slots = Vec::new();
        for lev in &self.levels {
            let owners = lev.state.distribution();
            for i in 0..lev.state.nfabs() {
                let owner = owners.owner(i);
                let start = w.len();
                if owner == rank {
                    w.extend_from_slice(&patch_body_bytes(&lev.state, i));
                } else {
                    w.resize(start + lev.state.valid_box(i).num_points() as usize * NCONS * 8, 0);
                }
                slots.push((start..w.len(), owner));
            }
        }
        let n = gep.nranks();
        let routes = slots.iter().enumerate().flat_map(|(k, (slot, owner))| {
            (0..n).map(move |dst| (k, *owner, dst, slot.len()))
        });
        let layout = Layout::new(rank, routes);
        let landed = exchange(gep, &layout, tag, &mut |k, out| {
            out.extend_from_slice(&w[slots[k].0.clone()])
        })?;
        for (k, (slot, _)) in slots.into_iter().enumerate() {
            if let Some(body) = landed.get(k) {
                w[slot].copy_from_slice(body);
            }
        }
        Ok(seal_checkpoint(w))
    }

    /// One full time step on a cluster rank (Algorithm 1 loop body). Every
    /// rank of the cluster must call this in lockstep with an identically
    /// configured, identically advanced `Simulation`. Faults are
    /// unrecoverable here (the endpoint's full-group view); chaos runs go
    /// through [`Simulation::advance_steps_chaos`].
    pub fn step_cluster(&mut self, ep: &RankEndpoint) {
        match self.try_step_cluster(&GroupEndpoint::full(ep)) {
            Ok(()) => {}
            Err(e @ StageError::NonFiniteDt { .. }) => panic!("{e}"),
            Err(e) => panic!("communication fault outside the chaos recovery loop: {e}"),
        }
    }

    /// One full time step over `gep`'s communicator group, surfacing
    /// injected crashes, detected communication faults and a non-finite
    /// time step as typed errors the caller can act on.
    pub fn try_step_cluster(&mut self, gep: &GroupEndpoint<'_>) -> Result<(), StageError> {
        assert_eq!(
            gep.nranks(),
            self.cfg.nranks,
            "group size must match cfg.nranks (the DistributionMapping rank count)"
        );
        assert_eq!(
            gep.rank(),
            self.owned_rank,
            "endpoint logical rank must match the simulation's owned rank"
        );
        self.crash_check(gep, CrashPhase::StepStart)?;
        if self.cfg.version.amr_enabled()
            && self.step > 0
            && self.step.is_multiple_of(self.cfg.regrid_freq)
        {
            let t0 = std::time::Instant::now();
            self.regrid(gep)?;
            self.profiler.add(Region::Regrid, t0.elapsed().as_secs_f64());
        }
        self.crash_check(gep, CrashPhase::AfterRegrid)?;
        let t0 = std::time::Instant::now();
        self.compute_dt(gep)?;
        self.profiler.add(Region::ComputeDt, t0.elapsed().as_secs_f64());
        self.crash_check(gep, CrashPhase::AfterDt)?;
        if self.cfg.subcycling {
            self.ensure_subcycle();
            let (t, dt) = (self.time, self.dt);
            self.advance_level_recursive(0, t, dt, None, gep)?;
        } else {
            self.rk_stages(gep)?;
            // Global count: every rank reports the same total whatever it
            // owns.
            self.cell_updates += self.hierarchy.active_points();
        }
        self.step += 1;
        self.time += self.dt;
        Ok(())
    }

    /// Test hook for the `check` build's chaos scenario: silently corrupts
    /// the metrics of the first level-0 patch owned by `rank` (the NaN a
    /// flipped bit in device memory would plant). The next RK stage folds
    /// it into the right-hand side, and the post-stage finite sweep traps —
    /// exercising the panic-to-fail-stop conversion in
    /// [`Simulation::advance_steps_chaos`].
    #[cfg(feature = "check")]
    pub fn poison_metrics_for_test(&mut self, rank: usize) {
        let lev = &mut self.levels[0];
        let owners = lev.metrics.distribution().clone();
        for i in 0..lev.metrics.nfabs() {
            if owners.owner(i) == rank {
                let p = lev.metrics.valid_box(i).lo();
                lev.metrics.fab_mut(i).set(p, 0, f64::NAN);
                return;
            }
        }
        panic!("rank {rank} owns no level-0 patch to poison");
    }

    /// Fails this rank with [`StageError::CrashInjected`] if the chaos
    /// config schedules a crash for `(physical rank, step, phase)`.
    fn crash_check(&self, gep: &GroupEndpoint<'_>, phase: CrashPhase) -> Result<(), StageError> {
        if let Some(chaos) = &self.cfg.chaos {
            if chaos.crash_at(gep.physical_rank(), self.step, phase).is_some() {
                return Err(StageError::CrashInjected);
            }
        }
        Ok(())
    }

    /// Advances `n` steps on a cluster rank and reports.
    pub fn advance_steps_cluster(&mut self, n: u32, ep: &RankEndpoint) -> RunReport {
        for _ in 0..n {
            self.step_cluster(ep);
        }
        self.report()
    }

    /// Advances to `self.step + n` under the chaos runtime: periodic
    /// in-memory checkpoints, fail-stop on scheduled crashes (and on local
    /// kernel panics, e.g. the `check` build's NaN trap), and
    /// checkpoint-rollback recovery on detected peer faults (DESIGN.md §4g).
    ///
    /// Recovery protocol, executed independently but identically by every
    /// survivor (all agreement is derived from shared deterministic state,
    /// never negotiated):
    ///
    /// 1. bump the communicator generation (stamped into every round tag, so
    ///    replayed pre-fault traffic can never match post-fault receives),
    /// 2. shrink the group by the cluster's dead ranks and run a
    ///    barrier allreduce over the survivors; if the barrier itself faults
    ///    or another member died meanwhile, re-scan and retry — every
    ///    survivor retries the same number of times, keeping the collective
    ///    sequence counter (which never rolls back) aligned,
    /// 3. purge stale unexpected packets from older generations,
    /// 4. restore the last in-memory checkpoint into a fresh `Simulation`
    ///    whose `nranks` is the shrunken group size (the load balancer
    ///    re-partitions over the survivors), and resume stepping.
    ///
    /// Checkpoints are taken only at step boundaries:
    /// `Simulation::checkpoint_bytes_cluster` gathers owned patch bodies
    /// across the group so every rank seals the same whole-domain snapshot
    /// — which is what lets any surviving subset
    /// restore after a crash without the dead rank's memory. The gather
    /// runs inside the fault boundary: a peer death during checkpointing
    /// routes to the same rollback as a death mid-step. (A dying rank
    /// always completes the gather before its crash point — crashes inject
    /// at step phase boundaries and panics happen inside RK stages, both
    /// strictly after the gather — so landed snapshots are never torn.)
    ///
    /// A non-finite time step ([`StageError::NonFiniteDt`]) is fail-stop
    /// like a crash: every rank sees the same allreduced value, so a
    /// rollback would only reach it again.
    pub fn advance_steps_chaos(&mut self, n: u32, ep: &RankEndpoint) -> ChaosRunReport {
        let target = self.step + n;
        let interval = self
            .cfg
            .chaos
            .as_ref()
            .map_or(u32::MAX, |c| c.checkpoint_interval.max(1));
        let mut report = ChaosRunReport::default();
        // Durable spill (DESIGN.md §4j): every rank opens the spiller —
        // after a group shrink a *different* physical rank may become
        // logical rank 0 and take over spilling (the resume-aware slot
        // rotation reads the manifest, so the takeover never clobbers the
        // only good slot). A directory that cannot be opened degrades to
        // in-memory-only checkpoints with a warning, like any other spill
        // failure.
        let mut spiller = self.cfg.spill_dir.as_ref().and_then(|dir| {
            let plan = self.cfg.chaos.as_ref().and_then(|c| c.storage.clone());
            match crate::durable::DurableCheckpointer::open(dir, plan) {
                Ok(sp) => Some(sp),
                Err(e) => {
                    report.spill_failures += 1;
                    eprintln!(
                        "[crocco] durable spill disabled: cannot open {}: {e}; \
                         continuing on in-memory checkpoints",
                        dir.display()
                    );
                    None
                }
            }
        });
        let mut group = CommGroup::full(self.cfg.nranks);
        let mut generation: u64 = 0;
        let mut snapshot: Vec<u8> = Vec::new();
        let mut snapshot_step: Option<u32> = None;
        while self.step < target {
            let gep = GroupEndpoint::new(ep, group.clone(), generation);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || -> Result<(), StageError> {
                    if snapshot_step != Some(self.step)
                        && (snapshot_step.is_none() || self.step.is_multiple_of(interval))
                    {
                        snapshot = self.checkpoint_bytes_cluster(&gep)?;
                        snapshot_step = Some(self.step);
                        report.checkpoints += 1;
                        report.checkpoint_bytes = report.checkpoint_bytes.max(snapshot.len());
                        // One durable copy per checkpoint: every rank holds
                        // the identical sealed bytes after the gather, so
                        // the group's logical rank 0 spills for all.
                        if gep.rank() == 0 {
                            if let Some(sp) = spiller.as_mut() {
                                match sp.spill(self.step, &snapshot) {
                                    Ok(_) => report.spills += 1,
                                    Err(e) => {
                                        report.spill_failures += 1;
                                        eprintln!(
                                            "[crocco] durable spill failed at step {}: {e}; \
                                             continuing on in-memory checkpoints",
                                            self.step
                                        );
                                    }
                                }
                            }
                        }
                    }
                    self.try_step_cluster(&gep)
                },
            ));
            drop(gep);
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(StageError::CrashInjected | StageError::NonFiniteDt { .. })) | Err(_) => {
                    // This rank fail-stops: scheduled crash, a time step no
                    // rollback can repair, or a local kernel panic (poisoned
                    // NaN in the `check` build) treated as one. Mark it dead
                    // so blocked peers' waits fault.
                    ep.mark_dead();
                    report.crashed = true;
                    return report;
                }
                Ok(Err(_fault)) => {
                    // A peer died (RankDead, or a timeout caused by its
                    // silence). Re-form the group and roll back.
                    report.recoveries += 1;
                    generation += 1;
                    loop {
                        let survivors = ep.survivors(&group);
                        ep.cancel_posted();
                        let barrier = GroupEndpoint::new(ep, survivors.clone(), generation);
                        let ok = barrier.allreduce_f64(1.0, f64::min).is_ok();
                        // A death *during* the barrier can leave some
                        // survivors completed and others faulted; both
                        // re-scan and retry so everyone consumes the same
                        // collective sequence numbers.
                        if ok && barrier.fault().is_none() {
                            group = survivors;
                            break;
                        }
                    }
                    ep.purge_stale_unexpected(generation);
                    let chk = crate::io::parse_checkpoint(&snapshot)
                        .expect("in-memory checkpoint cannot be corrupt");
                    let mut cfg = self.cfg.clone();
                    cfg.nranks = group.len();
                    // The shrunken group renumbers logical ranks: this rank
                    // re-owns the patches its *new* logical rank maps to in
                    // the re-partitioned DistributionMapping.
                    let new_rank = group
                        .logical(ep.rank())
                        .expect("a survivor is always in its own group");
                    *self = Simulation::from_checkpoint_owned(cfg, &chk, new_rank);
                    report.rollback_steps.push(self.step);
                    snapshot_step = Some(self.step);
                }
            }
        }
        report
    }

    /// `ComputeDt`: the CFL-constrained minimum over *owned* patches,
    /// combined across ranks with an exact `min` reduction — bitwise the
    /// global minimum at any rank count. Subcycled, level `ℓ` advances with
    /// `dt₀/2^ℓ`, so the coarse step is bounded by the *scaled* per-level
    /// minima, `dt₀ = min_ℓ (2^ℓ · min_patches dt)`; the scale is a power of
    /// two (exact) and commutes with the order-free `min`, and lockstep is
    /// the same fold with scale 1.
    fn compute_dt(&mut self, gep: &GroupEndpoint<'_>) -> Result<(), StageError> {
        let backend = self.cfg.kernel_backend;
        let mut dt = f64::INFINITY;
        for (l, lev) in self.levels.iter().enumerate() {
            let scale = if self.cfg.subcycling { (1u64 << l) as f64 } else { 1.0 };
            for i in (0..lev.state.nfabs()).filter(|&i| lev.state.is_allocated(i)) {
                let d = backend.compute_dt_patch(
                    lev.state.fab(i),
                    lev.metrics.fab(i),
                    lev.state.valid_box(i),
                    &self.gas,
                    self.cfg.cfl,
                );
                dt = dt.min(d * scale);
            }
        }
        let dt = gep.allreduce_f64(dt, f64::min)?;
        self.comm.reductions += 1;
        if !(dt.is_finite() && dt > 0.0) {
            return Err(StageError::NonFiniteDt { dt });
        }
        self.dt = dt;
        Ok(())
    }

    /// Traps a non-finite value in level `l`'s owned state or dU after an RK
    /// stage (the `check` build's post-stage sweep; non-owned patches hold
    /// no data).
    fn assert_level_finite(&self, l: usize, what: &str) {
        let lev = &self.levels[l];
        for (name, mf) in [("state", &lev.state), ("dU", &lev.du)] {
            for i in (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)) {
                assert!(
                    !mf.fab(i).has_nonfinite(mf.valid_box(i)),
                    "check: non-finite in {what} {name} L{l} patch {i}"
                );
            }
        }
    }

    /// The subcycled coarse step: the AMReX-style recursive `timeStep`
    /// (docs/ARCHITECTURE.md §Subcycling; worked 2-rank timeline in
    /// docs/DISTRIBUTED.md §Subcycled steps). Advances level `l` from `t` by
    /// `dt` on this rank's owned patches, then recursively takes the two
    /// half-`dt` substeps of the next finer level — time-interpolating its
    /// coarse/fine ghosts between this level's old and new states — ships
    /// fine register parts to coarse owners, refluxes the accumulated
    /// coarse/fine flux mismatch, and averages down across ranks. `parent`
    /// carries the coarser level's `(t_old, dt)` for the ghost
    /// interpolation. The phase order (and hence every round's tag) is
    /// identical on every rank.
    fn advance_level_recursive(
        &mut self,
        l: usize,
        t: f64,
        dt: f64,
        parent: Option<(f64, f64)>,
        gep: &GroupEndpoint<'_>,
    ) -> Result<(), StageError> {
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
            let t_fill = t + self.cfg.time_scheme.stage_time_fraction(stage) * dt;
            let alpha = parent.map(|(pt, pdt)| (t_fill - pt) / pdt);
            let sub = crate::subcycle::SubCtx { t, alpha };
            self.fill_and_advance(l, stage, dt, gep, Some(&sub))?;
            if cfg!(feature = "check") {
                self.assert_level_finite(l, &format!("sub RK stage {stage}"));
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
        if let Some((_, pdt)) = parent {
            self.subcycle[l - 1].fold_fine(dt / pdt);
        }
        if has_finer {
            let fdt = 0.5 * dt;
            for i in 0..2 {
                self.advance_level_recursive(l + 1, t + i as f64 * fdt, fdt, Some((t, dt)), gep)?;
            }
            let t0 = std::time::Instant::now();
            self.ship_fine_parts(l, gep)?;
            {
                let reg = &self.subcycle[l].register;
                let LevelData { state, metrics, .. } = &mut self.levels[l];
                reg.reflux(state, metrics, crate::metrics::comp::JAC, dt);
            }
            self.profiler.add(Region::Reflux, t0.elapsed().as_secs_f64());
            let t0 = std::time::Instant::now();
            let tag = self.rounds.next(gep);
            let (lo, hi) = self.levels.split_at_mut(l + 1);
            average_down_dist(&hi[0].state, &mut lo[l].state, IntVect::splat(2), gep, tag)?;
            self.profiler.add(Region::AverageDown, t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Ships the fine-side register sums of level pair `l` from fine-patch
    /// owners to coarse-patch owners (one message per peer), merging each
    /// landed part onto the receiver's all-zero fine accumulators — bitwise
    /// the single-rank fold, since every register face has exactly one fine
    /// contributor patch (asserted in `subcycle::tests`). Pairs owned by one
    /// rank are already folded locally and move nothing.
    fn ship_fine_parts(&mut self, l: usize, gep: &GroupEndpoint<'_>) -> Result<(), StageError> {
        let tag = self.rounds.next(gep);
        let fine_dm = self.levels[l + 1].state.distribution().clone();
        let coarse_dm = self.levels[l].state.distribution().clone();
        let reg = &mut self.subcycle[l];
        let routes = reg.fine_ship.iter().enumerate().map(|(k, (j, p, slots))| {
            (k, fine_dm.owner(*j), coarse_dm.owner(*p), slots.len() * NCONS * 8)
        });
        let layout = Layout::new(gep.rank(), routes);
        let (ship, register) = (&reg.fine_ship, &mut reg.register);
        let landed = exchange(gep, &layout, tag, &mut |k, out| {
            for &slot in &ship[k].2 {
                for x in register.fine_part(slot) {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        })?;
        for (k, (_, _, slots)) in ship.iter().enumerate() {
            let Some(bytes) = landed.get(k) else {
                continue;
            };
            let (words, _) = bytes.as_chunks::<8>();
            for (&slot, part) in slots.iter().zip(words.chunks_exact(NCONS)) {
                let part: [f64; NCONS] = std::array::from_fn(|n| f64::from_le_bytes(part[n]));
                register.add_fine_part(slot, &part);
            }
        }
        Ok(())
    }

    /// Algorithm 2: per stage, per level, one RK stage; AverageDown at the
    /// end of the final stage. The state stays distributed throughout —
    /// halos and coarse→fine gathers cross ranks through plans, and
    /// `AverageDown` restricts owned fine patches into owned coarse patches
    /// over the wire ([`average_down_dist`]).
    fn rk_stages(&mut self, gep: &GroupEndpoint<'_>) -> Result<(), StageError> {
        let dt = self.dt;
        let nstages = self.cfg.time_scheme.stages();
        for stage in 0..nstages {
            for l in 0..self.hierarchy.nlevels() {
                self.fill_and_advance(l, stage, dt, gep, None)?;
            }
            if stage == nstages - 1 {
                let t0 = std::time::Instant::now();
                for l in (1..self.hierarchy.nlevels()).rev() {
                    let tag = self.rounds.next(gep);
                    let (lo, hi) = self.levels.split_at_mut(l);
                    let (fine, coarse) = (&hi[0].state, &mut lo[l - 1].state);
                    average_down_dist(fine, coarse, IntVect::splat(2), gep, tag)?;
                }
                self.profiler.add(Region::AverageDown, t0.elapsed().as_secs_f64());
            }
            if cfg!(feature = "check") {
                for l in 0..self.levels.len() {
                    self.assert_level_finite(l, &format!("RK stage {stage}"));
                }
            }
        }
        Ok(())
    }

    /// One level's RK stage — FillPatch, the numerics kernels and the
    /// low-storage update `dU ← A·dU + dt·L(U)`, `U ← U + B·dU` — handed to
    /// [`run_dist_rk_stage`]: halo plans are *resolved* through the shared
    /// plan cache (their chunks become the stage's halo copies, sends and
    /// receives) and the physics arrives as per-patch closures. The rank's
    /// [`DistSkeleton`] is memoized in the plan cache (`Aux` namespace,
    /// rank in the key's `aux` bits) and survives until regrid invalidates
    /// it, so steady-state stages skip the topology derivation entirely.
    ///
    /// Plan resolution, gather exchanges and communication accounting stay
    /// in the "FillPatch" profiler region; the halo data motion itself runs
    /// inside "Advance".
    fn fill_and_advance(
        &mut self,
        l: usize,
        stage: usize,
        dt: f64,
        ep: &GroupEndpoint<'_>,
        sub: Option<&crate::subcycle::SubCtx>,
    ) -> Result<(), StageError> {
        let t0 = std::time::Instant::now();
        let gas = self.gas;
        let weno = self.cfg.weno;
        let recon = self.cfg.reconstruction;
        let les = self.cfg.les;
        let reference = self.cfg.version.reference_kernels();
        let backend = self.cfg.kernel_backend;
        let a = self.cfg.time_scheme.a(stage);
        let b = self.cfg.time_scheme.b(stage);
        let w = self.cfg.time_scheme.net_flux_weight(stage);
        let time = sub.map_or(self.time, |s| s.t);
        let ratio = IntVect::splat(2);
        // The ghost cells this stage's kernels read: every producer below —
        // same-level chunks, coarse→fine interpolation, physical BCs — fills
        // these and nothing else.
        let ghosts = self.cfg.ghost_footprint();
        // Interface-flux recording (subcycling): immutable field borrows of
        // the registers, disjoint from the `levels` split below.
        let rec_coarse = (sub.is_some() && l < self.subcycle.len()).then(|| &self.subcycle[l]);
        let rec_fine =
            (sub.is_some() && l > 0 && !self.subcycle.is_empty()).then(|| &self.subcycle[l - 1]);
        let domain = self.hierarchy.domain(l);
        let bc = PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l));
        let coarse_ctx = (l > 0).then(|| {
            (
                self.hierarchy.domain(l - 1),
                PhysicalBc::new(self.cfg.problem, self.gas, self.level_extents(l - 1)),
            )
        });
        let cache = self.hierarchy.plan_cache().clone();
        let interp = &*self.interp;

        let (lo_levels, hi_levels) = self.levels.split_at_mut(l);
        let LevelData {
            state,
            du,
            coords,
            metrics,
            rhs,
            ..
        } = &mut hi_levels[0];
        let (coords, metrics) = (&*coords, &*metrics);
        let fb = cache.fill_boundary_over(
            state.boxarray(),
            state.distribution(),
            &domain,
            ghosts,
            state.ncomp(),
        );
        let two: Option<(TwoLevelPlans<'_>, &LevelData, ProblemDomain, PhysicalBc)> =
            coarse_ctx.map(|(coarse_domain, coarse_bc)| {
                let coarse = &lo_levels[l - 1];
                let plans = resolve_two_level_plans(
                    state,
                    &coarse.state,
                    &domain,
                    &coarse_domain,
                    ghosts,
                    ratio,
                    interp,
                    Some(&coarse.coords),
                    Some(coords),
                    Some(cache.as_ref()),
                );
                (plans, coarse, coarse_domain, coarse_bc)
            });
        self.comm.absorb_plan(&fb.stats, PlanKind::FillBoundary);
        if let Some((plans, ..)) = &two {
            self.comm
                .absorb_plan(&plans.state.state_plan().stats, PlanKind::ParallelCopy);
        }
        // Subcycled two-level fills blend the coarse *old* state in
        // (`alpha == 1` is bitwise the plain fill and reads none of it).
        let ti: Option<CoarseTimeInterp<'_>> = match (&two, sub.and_then(|s| s.alpha)) {
            (Some((_, coarse, ..)), Some(alpha)) => Some(CoarseTimeInterp {
                old: coarse
                    .state_old
                    .as_ref()
                    .expect("subcycling saved the coarse old state before its substeps"),
                alpha,
            }),
            _ => None,
        };
        let blended_old = ti.filter(|t| t.alpha != 1.0).map(|t| t.old);
        // The coarse→fine gather sources live on their owners, so move the
        // plans' cross-rank chunks up front — the payloads feed
        // `fill_two_level_patch_with_remote` inside the stage tasks.
        let remote = match &two {
            Some((plans, coarse, ..)) => {
                plans.exchange(&coarse.state, blended_old, ep, &mut || self.rounds.next(ep))?
            }
            None => RemoteGathers::default(),
        };
        // Coordinates cross ranks in the first exchange after a regrid and
        // in no other; the totals count them when they move.
        if let Some(cg) = two.as_ref().and_then(|(plans, ..)| plans.coords.as_ref()) {
            if remote.gathered_coords() {
                self.comm
                    .absorb_plan(&cg.coord_plan().stats, PlanKind::CoordCopy);
            }
        }
        // The blend reads the coarse old state below the instrumented views,
        // so its local reads are declared on each halo task's footprint (and
        // recorded for the dynamic detector).
        let extra_halo = match (&two, blended_old) {
            (Some((plans, ..)), Some(old)) => plans.local_old_reads(ep.rank(), old),
            _ => Vec::new(),
        };
        // The rank's graph skeleton, memoized beside the plan it was derived
        // from; regrid invalidates both together.
        let fb_key = PlanKey::fill_boundary(
            state.boxarray(),
            state.distribution(),
            &domain,
            ghosts,
            state.ncomp(),
        );
        let skel = cache.get_or_build_aux(
            PlanKey {
                op: PlanOp::Aux(AUX_DIST_SKELETON),
                aux: ep.rank() as u64,
                ..fb_key
            },
            || DistSkeleton::build(&fb, state.distribution().owners(), ep.rank()),
        );
        // Static verification of the *whole* stage (every rank's graph
        // rebuilt from the replicated owner map, plus tag-completeness and
        // cross-rank acyclicity, DESIGN.md §4i). Every rank runs the
        // identical deterministic check once per (grids, plan, nranks)
        // generation — memoized, regrid-invalidated, microseconds.
        cache
            .get_or_build_aux(
                PlanKey {
                    op: PlanOp::Aux(AUX_DIST_VERIFY),
                    aux: ep.nranks() as u64,
                    ..fb_key
                },
                || {
                    let ba = state.boxarray();
                    let valid: Vec<crocco_geometry::IndexBox> =
                        (0..ba.len()).map(|i| ba.get(i)).collect();
                    crocco_fab::verify_dist(
                        &fb,
                        state.distribution().owners(),
                        ep.nranks(),
                        &valid,
                        ghosts,
                    )
                },
            )
            .assert_clean("RK stage skeletons");
        self.profiler.add(Region::FillPatch, t0.elapsed().as_secs_f64());

        let t1 = std::time::Instant::now();
        let ba = state.boxarray().clone();
        let interpolated = AtomicU64::new(0);

        let pre_halo = |i: usize, rw: &mut FabRw<'_>| {
            if let Some((plans, coarse, coarse_domain, coarse_bc)) = &two {
                let cells = fill_two_level_patch_with_remote(
                    i,
                    rw,
                    plans,
                    &coarse.state,
                    coarse_domain,
                    coarse_bc,
                    time,
                    ti,
                    &remote,
                );
                interpolated.fetch_add(cells, Ordering::Relaxed);
            }
        };
        let bc_fill = |i: usize, rw: &mut FabRw<'_>| {
            bc.fill_footprint(rw, ba.get(i), ghosts, &domain, time);
        };
        let sweep = |i: usize, u: FabRd<'_>, phase: SweepPhase, rhs: &mut FArrayBox| {
            let valid = ba.get(i);
            let met = metrics.fab(i);
            let interior = valid.grow(-NGHOST);
            if phase != SweepPhase::BoundaryBand {
                rhs.fill(0.0);
            }
            // Subcycled interface-flux recording: the WENO sweeps hand the
            // fluxes of this patch's register faces to its stage buffers,
            // each face from the one region that owns it
            // (`kernels::FaceSink`). A patch's sweeps are ordered, so each
            // lock is uncontended and the per-face accumulation order is
            // schedule-independent.
            let recorded = [
                rec_coarse.map(|r| (&r.coarse_faces[i], &r.coarse_buf[i])),
                rec_fine.map(|r| (&r.fine_faces[i], &r.fine_buf[i])),
            ];
            let mut bufs: Vec<_> = recorded
                .into_iter()
                .flatten()
                .filter(|(faces, _)| !faces.is_empty())
                .map(|(faces, buf)| (faces, crate::subcycle::lock(buf)))
                .collect();
            let mut accumulate = |region| {
                let mut sink = (!bufs.is_empty()).then(|| {
                    bufs.iter_mut()
                        .fold(FaceSink::new(valid, w), |sink, (faces, buf)| sink.with(faces, buf))
                });
                accumulate_rhs(
                    &u, met, rhs, region, &gas, weno, recon, les.as_ref(), reference, backend,
                    sink.as_mut(),
                );
            };
            match phase {
                SweepPhase::Whole => accumulate(valid),
                SweepPhase::Interior if interior.is_empty() => {}
                SweepPhase::Interior => accumulate(interior),
                SweepPhase::BoundaryBand => {
                    band_slabs(valid, interior).into_iter().for_each(accumulate)
                }
            }
        };
        let update = |_i: usize, dufab: &mut FArrayBox, stfab: &mut FArrayBox, rhs: &FArrayBox| {
            if cfg!(feature = "check") && a == 0.0 {
                // 0·SNAN is still NaN: a poisoned dU must be dropped
                // explicitly at the first stage, not multiplied away.
                dufab.fill(0.0);
            }
            dufab.lincomb(a, dt, rhs);
            stfab.lincomb(1.0, b, dufab);
        };
        let st = DistStage {
            ep,
            tag: self.rounds.next(ep),
            overlap: self.cfg.overlap,
            sched: self.cfg.schedule(),
            ghosts,
        };
        run_dist_rk_stage(
            StageFabs { state, du, rhs },
            &fb,
            &skel,
            &st,
            &extra_halo,
            &pre_halo,
            &bc_fill,
            &sweep,
            &update,
        )?;
        self.comm.interpolated_cells += interpolated.load(Ordering::Relaxed);
        self.profiler.add(Region::Advance, t1.elapsed().as_secs_f64());
        Ok(())
    }
}
