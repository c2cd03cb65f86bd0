//! The RK-stage executor: one level's fill → sweep → update for the patches
//! this rank owns, over a [`GroupEndpoint`] of any size.
//!
//! Each rank executes only the patches its
//! [`DistributionMapping`](crate::distribution::DistributionMapping)
//! assigns to it; halo chunks whose source and destination live on different
//! ranks travel through the exchange engine ([`crate::exchange`]): one
//! message per peer per stage, all under the stage's round tag
//! ([`DistStage::tag`]). On-node stepping is the same executor over a group
//! of one ([`crocco_runtime::RankEndpoint::solo`]): every chunk is local,
//! nothing is sent (DESIGN.md §4e–§4f; the paper's §IV-B GPU-aware-MPI
//! overlap).
//!
//! Two schedules share one [`DistSkeleton`]:
//!
//! * **graph** (`DistStage::overlap`, the default) — one [`TaskGraph`] per
//!   stage, built from the skeleton's task list ([`DistSkeleton::tasks`]),
//!   which is derived once from the *cached* `FillBoundary` plan:
//!
//!   ```text
//!     send[m]     = pack every chunk for peer m → one send  (no dependencies)
//!     recv[m]     = event: peer m's message landed and decoded (Inbox::is_ready)
//!     halo[i]     = pre_halo(i) → chunks into i → bc_fill(i)   after recv[m] of every peer feeding i
//!     sweep[i]    = sweep(i, Whole)                    after halo[i]
//!     update[i]   = update(i)    after sweep[i], halo[j] for every local j whose
//!                                chunks read i, and send[m] for every m packing out of i
//!   ```
//!
//!   `halo[i]` waits on whole peer messages, not on its own chunks: the
//!   transport delivers a message atomically, so no chunk of it is
//!   readable before all of it is. A patch whose halo task waits on a
//!   receive is swept as `interior[i]` (no dependencies) and `boundary[i]`
//!   (after `halo[i]` and `interior[i]`) instead of `sweep[i]`, so its
//!   ghost-independent core overlaps with the wire. Only patch-boundary
//!   tasks fence; there is no per-stage barrier. The executor adds the
//!   list's tasks in order with the list's edges and picks each closure by
//!   the task's [`TaskKind`]; it derives no edge of its own.
//! * **fenced** — the *reference* schedule the differential matrix's
//!   oracle runs (as the scalar backend is for kernels): one fenced
//!   [`exchange`] round over the same layout, then fill → whole sweep →
//!   update as sequential loops.
//!
//! Both produce bitwise-identical state at any rank count: every cell is
//! written by the same arithmetic in the same per-cell order, and
//! `f64 → le-bytes → f64` round-trips exactly (`tests/invariance_matrix.rs`,
//! across regrids at 1/2/4 ranks on one to three levels).
//!
//! # Ownership contract
//!
//! Callers keep *metadata* replicated — every rank holds identical
//! `BoxArray`s, `DistributionMapping`s, and cached plans — but data is
//! **owned**: an owned MultiFab ([`crate::MultiFab::new_owned`]) allocates storage
//! only for the patches this rank's mapping entry assigns to it, and both
//! schedules dereference exactly the owned patches (local chunks have an
//! owned source and destination; remote payloads unpack into owned ghosts),
//! so the non-owned [`crate::fab::FArrayBox::unallocated`] placeholders are
//! never touched. Cross-rank motion outside the stage graphs (FillPatch
//! coarse gathers, regrid redistribution, checkpoint assembly) goes through
//! the same engine's fenced rounds ([`crate::exchange`]).
//!
//! # Safety argument
//!
//! All concurrent access goes through raw views ([`FabRd`]/[`FabRw`],
//! `copy_chunk_raw`) so no `&`/`&mut FArrayBox` is materialized while
//! another task touches the same fab. Disjointness of *unordered* tasks:
//!
//! * two halo tasks write different patches' ghost shells and read only
//!   valid cells of source patches (a `FillBoundary` plan invariant, proven
//!   per-execution in the `check` build); coarse-fine interpolation in
//!   `pre_halo` writes only regions of patch `i` uncovered by fine data;
//! * `interior[i]` reads only patch `i`'s valid cells (the sweep region is
//!   shrunk by the ghost width so the widest stencil stays inside valid
//!   data) and writes only `rhs[i]`, which no other task touches until
//!   `boundary[i]`; `sweep[i]` is ordered after `halo[i]` outright;
//! * `send[m]` *reads* valid cells of the source patches of its chunks;
//!   `update[i]` (the only writer of valid cells of `i`) depends on every
//!   send reading `i`, so the read completes first;
//! * receive events touch no fab at all — the message parks in the
//!   [`Inbox`] until each `halo[i]` it feeds (their dependents) unpacks its
//!   chunks into ghost cells of `i`;
//! * `update[i]` is, by its dependency set, the *last* task to touch patch
//!   `i`'s state, `du` and `rhs` fabs, so it may safely materialize
//!   `&mut FArrayBox` for the per-patch arithmetic;
//! * non-owned patches are never dereferenced at all (every chunk with a
//!   non-owned source is received off the wire instead).
//!
//! Every dependency edge is a happens-before edge (the executor's ready
//! queue hands tasks over under a mutex), so ordered accesses never race.
//! [`crate::taskcheck`] maps the same task list to declared footprints and
//! proves the argument per (grids, plan).

// Allowlisted unsafe surface of the workspace (`cargo xtask lint`): raw
// views let graph tasks touch disjoint fab regions concurrently.
#![allow(unsafe_code)]

use crate::exchange::{exchange, pack_chunk, unpack_chunk, Inbox, Layout, Msg};
use crate::fab::FArrayBox;
use crate::multifab::{copy_chunk_raw, MultiFab, RawFab};
use crate::plan::{CopyChunk, CopyPlan, GhostFootprint};
use crate::plan_cache::CachedPlan;
#[cfg(feature = "check")]
use crate::taskcheck::{dist_rank_schedule, inbox_ids, FabIds};
use crate::view::{FabRd, FabRw};
use crocco_geometry::IndexBox;
use crocco_runtime::taskcheck::record_access;
use crocco_runtime::{GroupEndpoint, Schedule, StageError, TaskGraph, TaskHandle};

/// Which part of a patch a kernel sweep covers.
///
/// A patch is swept either in one [`Whole`](SweepPhase::Whole) call or as an
/// [`Interior`](SweepPhase::Interior) + [`BoundaryBand`](SweepPhase::BoundaryBand)
/// pair. The split exists to hide *remote* halo latency behind the interior
/// sweep, and costs recomputed stencil-halo primitives at every slab seam,
/// so the executor splits exactly the patches whose halo task waits on a
/// receive and sweeps every other patch whole. Every valid cell lies in
/// exactly one swept region either way, so the choice is bitwise-invisible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepPhase {
    /// The whole valid box in one call, after the patch's halo task. The
    /// sweep must zero the patch's RHS fab first.
    Whole,
    /// The ghost-independent core: the valid box shrunk by the ghost width.
    /// Runs with no dependencies. The sweep must also zero the patch's RHS
    /// fab first — the phase always runs, even when the core is empty.
    Interior,
    /// The boundary band (valid minus interior), whose stencils reach into
    /// ghost cells. Runs after the patch's halo task and its interior sweep.
    BoundaryBand,
}

/// The per-level fabs one RK stage reads and writes.
pub struct StageFabs<'a> {
    /// Conserved state: ghosts filled by halo tasks, valid cells updated
    /// last.
    pub state: &'a mut MultiFab,
    /// Low-storage RK accumulator (no ghosts).
    pub du: &'a mut MultiFab,
    /// Per-patch RHS scratch, one fab per patch.
    pub rhs: &'a mut [FArrayBox],
}

/// Decomposes `valid` minus `interior` into disjoint axis-aligned slabs
/// (x-low/high full-face slabs, then y slabs restricted to the interior's x
/// range, then z slabs restricted to the interior's x–y range). Returns
/// `[valid]` when the interior is empty. Every band cell lands in exactly
/// one slab, so sweeping the slabs accumulates each cell's RHS exactly once
/// — in the same per-cell operation order as one sweep over `valid`.
pub fn band_slabs(valid: IndexBox, interior: IndexBox) -> Vec<IndexBox> {
    if interior.is_empty() {
        return vec![valid];
    }
    debug_assert!(valid.contains_box(&interior));
    let mut slabs = Vec::with_capacity(6);
    let mut core = valid;
    for dir in 0..3 {
        let lo_gap = interior.lo()[dir] - core.lo()[dir];
        if lo_gap > 0 {
            slabs.push(core.grow_hi(dir, lo_gap - core.size()[dir]));
        }
        let hi_gap = core.hi()[dir] - interior.hi()[dir];
        if hi_gap > 0 {
            slabs.push(core.grow_lo(dir, hi_gap - core.size()[dir]));
        }
        core = core.grow_lo(dir, -lo_gap).grow_hi(dir, -hi_gap);
    }
    debug_assert_eq!(core, interior);
    slabs
}

/// What one task of a rank's stage graph does; the executor picks the
/// task's closure by its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Packs every chunk of message `layout.sends[m]` and sends it.
    Send(usize),
    /// An event: message `layout.recvs[m]` has landed and decoded. It
    /// touches no fab.
    Recv(usize),
    /// The ghost shell of owned patch `i`: coarse-fine interpolation, its
    /// plan chunks (local copies and landed payloads), physical BCs.
    Halo(usize),
    /// The RHS sweep of owned patch `i` over the phase's region.
    Sweep(usize, SweepPhase),
    /// The low-storage update of owned patch `i`: the last task to touch
    /// its state, `du` and RHS fabs.
    Update(usize),
}

/// One task of a rank's stage graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageTask {
    /// What the task does.
    pub kind: TaskKind,
    /// Positions in [`DistSkeleton::tasks`] of the tasks it waits for:
    /// all earlier, ascending, deduplicated.
    pub deps: Vec<usize>,
}

/// The rank-local, stage-invariant structure of a level's distributed RK
/// stage: which patches this rank owns, which plan chunks write each ghost
/// shell, the per-peer messages of its halo round, and the stage's task
/// list. Derived once per (plan, rank) and memoized in the plan cache
/// (`PlanOp::Aux`), so per-stage construction re-binds only RK coefficients
/// and the round tag.
#[derive(Clone, Debug, Default)]
pub struct DistSkeleton {
    /// The rank this skeleton was built for.
    pub rank: usize,
    /// Patch indices owned by `rank`, ascending.
    pub owned: Vec<usize>,
    /// Per destination patch: the contiguous `[s, e)` chunk range of the
    /// plan that writes its ghost shell (`(0, 0)` when none).
    pub chunk_range: Vec<(usize, usize)>,
    /// The stage's halo round ([`Layout::of_plan`]): one message per peer
    /// this rank sends to, one per peer it receives from.
    pub layout: Layout,
    /// The graph schedule's tasks in insertion order: a send per
    /// `layout.sends` message, a receive event per `layout.recvs` message,
    /// the halo task of every owned patch, then each owned patch's sweep(s)
    /// and update. The executor adds exactly these tasks with these edges,
    /// and the verifier ([`crate::taskcheck`]) proves exactly this list.
    pub tasks: Vec<StageTask>,
}

impl DistSkeleton {
    /// Derives the rank-`rank` skeleton of `fb` for a level whose patches
    /// are assigned by `owner` (one rank per patch); the task list's edges
    /// are the module-level graph.
    pub fn build(fb: &CachedPlan, owner: &[usize], rank: usize) -> Self {
        let npatches = owner.len();
        let chunks = &fb.plan.chunks;
        let owned: Vec<usize> = (0..npatches).filter(|&i| owner[i] == rank).collect();
        let mut chunk_range = vec![(0usize, 0usize); npatches];
        for &(s, e) in &fb.groups {
            if s < e {
                chunk_range[chunks[s].dst_id] = (s, e);
            }
        }
        let layout = Layout::of_plan(rank, &fb.plan);
        let mut tasks = Vec::new();
        // Per source patch, the tasks reading its valid cells: the sends
        // packing out of it, then the halos copying out of it locally.
        let plan = (chunks.as_slice(), npatches);
        let mut readers = message_tasks(&mut tasks, &layout.sends, plan, TaskKind::Send, |c| {
            c.src_id
        });
        let feeds = message_tasks(&mut tasks, &layout.recvs, plan, TaskKind::Recv, |c| {
            c.dst_id
        });
        let mut halo = vec![usize::MAX; npatches];
        for &i in &owned {
            halo[i] = push_task(&mut tasks, TaskKind::Halo(i), feeds[i].clone());
        }
        for c in chunks
            .iter()
            .filter(|c| c.src_rank == rank && c.dst_rank == rank)
        {
            readers[c.src_id].push(halo[c.dst_id]);
        }
        for &i in &owned {
            let sweep = |phase| TaskKind::Sweep(i, phase);
            let swept = if feeds[i].is_empty() {
                push_task(&mut tasks, sweep(SweepPhase::Whole), vec![halo[i]])
            } else {
                let core = push_task(&mut tasks, sweep(SweepPhase::Interior), Vec::new());
                push_task(
                    &mut tasks,
                    sweep(SweepPhase::BoundaryBand),
                    vec![halo[i], core],
                )
            };
            let mut deps = std::mem::take(&mut readers[i]);
            deps.push(swept);
            push_task(&mut tasks, TaskKind::Update(i), deps);
        }
        DistSkeleton {
            rank,
            owned,
            chunk_range,
            layout,
            tasks,
        }
    }
}

/// Appends a task of `kind` waiting on `deps` and returns its position.
fn push_task(tasks: &mut Vec<StageTask>, kind: TaskKind, mut deps: Vec<usize>) -> usize {
    deps.sort_unstable();
    deps.dedup();
    tasks.push(StageTask { kind, deps });
    tasks.len() - 1
}

/// Appends one `kind(m)` task per message and returns, for each of the
/// plan's `npatches` patches, the positions of the tasks whose message names
/// a chunk with that `patch` (deduplicated by the tail, as messages ascend).
fn message_tasks(
    tasks: &mut Vec<StageTask>,
    msgs: &[Msg],
    (chunks, npatches): (&[CopyChunk], usize),
    kind: fn(usize) -> TaskKind,
    patch: fn(&CopyChunk) -> usize,
) -> Vec<Vec<usize>> {
    let mut per: Vec<Vec<usize>> = vec![Vec::new(); npatches];
    for (m, msg) in msgs.iter().enumerate() {
        let t = push_task(tasks, kind(m), Vec::new());
        for &c in &msg.items {
            let list = &mut per[patch(&chunks[c])];
            if list.last() != Some(&t) {
                list.push(t);
            }
        }
    }
    per
}

/// Per-stage identity of one distributed execution: the endpoint to move
/// bytes through, the round tag every rank draws identically, and the
/// schedule flavor.
///
/// The endpoint is a [`GroupEndpoint`]: all ranks here are *logical* ranks
/// within the current communicator group, so after a chaos recovery shrinks
/// the group the same stepping code runs unchanged over the survivors.
pub struct DistStage<'a> {
    /// This rank's group-scoped cluster endpoint.
    pub ep: &'a GroupEndpoint<'a>,
    /// The halo round's tag ([`crocco_runtime::tags::round`]), the same on
    /// every rank.
    pub tag: u64,
    /// `true` → task-graph overlap; `false` → sequential fenced phases.
    pub overlap: bool,
    /// Schedule for the overlapped graph — thread pool or seeded
    /// adversarial linearization (the fenced path is always serial).
    pub sched: Schedule,
    /// The ghost cells the stage's kernels read: the footprint `fb` was
    /// built over, and what the halo tasks declare they write.
    pub ghosts: GhostFootprint,
}

/// Executes one RK stage over a level for this rank, under the graph or the
/// fenced reference schedule per `st.overlap`.
///
/// `fb` is the level's cached `FillBoundary` plan (resolved, not executed);
/// its chunks become the halo copies, sends and receives, and its `src_id`s
/// the update fences. The caller supplies the physics through four
/// closures, invoked only for patches `skel` assigns to this rank:
///
/// * `pre_halo(i, rw)` — coarse-fine FillPatch work for patch `i` (gather +
///   coarse BC + interpolation), writing only uncovered ghost regions of
///   `i`; a no-op on the base level.
/// * `bc_fill(i, rw)` — physical boundary conditions for patch `i`, writing
///   only outside-domain ghost cells of `i`.
/// * `sweep(i, u, phase, rhs)` — RHS accumulation over the phase's region
///   of patch `i` ([`SweepPhase`]), reading `u` (this patch only) and
///   writing `rhs`.
/// * `update(i, du, state, rhs)` — the per-patch low-storage update,
///   writing only valid cells of `state`.
///
/// On exit the owned patches' valid cells and `du` are current; ghosts are
/// stale.
///
/// A detected fault — dead group member, starved receive, or a panicking
/// kernel task — returns a typed [`StageError`] instead of hanging peers;
/// partially-written fabs are then meaningless and the caller must roll
/// back to a checkpoint (DESIGN.md §4g).
///
/// `extra_halo` declares per-patch read-only `(fab id, region)` pairs the
/// `pre_halo` closure touches beyond the same-level exchange — on subcycled
/// substeps, the *locally read* coarse old-state regions the
/// time-interpolated FillPatch blends (docs/ARCHITECTURE.md §Subcycling;
/// remote chunks arrive as pre-exchanged payloads and touch no fab). Each
/// pair is added to that patch's halo-task footprint and recorded for the
/// dynamic detector, so the declared schedule stays honest about every fab
/// the stage reads. Pass `&[]` when there is nothing extra; otherwise one
/// entry per patch. Footprints exist only on the graph schedule of a
/// `check` build; the fenced one ignores the declarations.
#[allow(clippy::too_many_arguments)]
pub fn run_dist_rk_stage(
    fabs: StageFabs<'_>,
    fb: &CachedPlan,
    skel: &DistSkeleton,
    st: &DistStage<'_>,
    extra_halo: &[Vec<(u64, IndexBox)>],
    pre_halo: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    bc_fill: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    sweep: &(dyn Fn(usize, FabRd<'_>, SweepPhase, &mut FArrayBox) + Sync),
    update: &(dyn Fn(usize, &mut FArrayBox, &mut FArrayBox, &FArrayBox) + Sync),
) -> Result<(), StageError> {
    let n = fabs.state.nfabs();
    assert_eq!(fabs.du.nfabs(), n, "state/du patch-count mismatch");
    assert_eq!(fabs.rhs.len(), n, "state/rhs patch-count mismatch");
    assert_eq!(skel.chunk_range.len(), n, "skeleton/patch-count mismatch");
    assert_eq!(skel.rank, st.ep.rank(), "skeleton built for another rank");
    assert!(
        extra_halo.is_empty() || extra_halo.len() == n,
        "extra halo reads must cover every patch or none"
    );
    // The `check` build proves the halo plan alias-free before running it.
    fabs.state.check_plan_gated(&fb.plan, true);
    if st.overlap {
        run_overlapped(
            fabs, &fb.plan, skel, st, extra_halo, pre_halo, bc_fill, sweep, update,
        )
    } else {
        run_fenced(fabs, &fb.plan, skel, st, pre_halo, bc_fill, sweep, update)
    }
}

/// The fenced reference schedule: one fenced exchange round over the
/// skeleton's layout, then fill, sweep and update as strict sequential loops
/// over owned patches.
#[allow(clippy::too_many_arguments)]
fn run_fenced(
    fabs: StageFabs<'_>,
    plan: &CopyPlan,
    skel: &DistSkeleton,
    st: &DistStage<'_>,
    pre_halo: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    bc_fill: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    sweep: &(dyn Fn(usize, FabRd<'_>, SweepPhase, &mut FArrayBox) + Sync),
    update: &(dyn Fn(usize, &mut FArrayBox, &mut FArrayBox, &FArrayBox) + Sync),
) -> Result<(), StageError> {
    let ncomp = plan.ncomp;
    let rank = skel.rank;
    let n = fabs.state.nfabs();

    // One raw view per patch, every later access derived from the slice
    // base pointer (same provenance discipline as the graph schedule).
    // The whole function is sequential, so the views never race; they exist
    // so local chunk copies may read one patch while writing another.
    let state_base = fabs.state.fabs_mut().as_mut_ptr();
    let state_raw: Vec<RawFab> = (0..n)
        // SAFETY: `i < n` indexes the live slice; the `&mut` is temporary.
        .map(|i| unsafe { RawFab::capture(&mut *state_base.add(i)) })
        .collect();

    let landed = exchange(st.ep, &skel.layout, st.tag, &mut |c, out| {
        let chunk = &plan.chunks[c];
        // SAFETY: sequential read of the source patch's valid cells.
        let src = unsafe { FabRd::from_raw(state_raw[chunk.src_id]) };
        pack_chunk(&src, chunk.region, chunk.shift, ncomp, out);
    })?;

    // Fill phase, in plan order within each owned patch's chunk range:
    // local chunks copy directly, remote chunks unpack their landed bytes.
    for &i in &skel.owned {
        // SAFETY: sequential phase — the view is the only live access path.
        let mut rw = unsafe { FabRw::from_raw(state_raw[i]) };
        pre_halo(i, &mut rw);
        let (s, e) = skel.chunk_range[i];
        for (c, chunk) in plan.chunks.iter().enumerate().take(e).skip(s) {
            if chunk.src_rank == rank {
                // SAFETY: reads valid cells of the source patch, writes
                // ghost cells of patch `i`; no concurrency in this phase.
                unsafe {
                    copy_chunk_raw(
                        &state_raw[chunk.dst_id],
                        &state_raw[chunk.src_id],
                        chunk.region,
                        chunk.shift,
                        ncomp,
                    )
                };
            } else if let Some(bytes) = landed.get(c) {
                unpack_chunk(&mut rw, chunk.region, ncomp, bytes);
            }
        }
        bc_fill(i, &mut rw);
    }

    // Sweep and update phases — plain sequential loops over owned patches.
    // Every ghost is filled, so no patch has anything to hide: sweep whole.
    for &i in &skel.owned {
        // SAFETY: read-only view; nothing mutates the patch in this phase.
        let u = unsafe { FabRd::from_raw(state_raw[i]) };
        sweep(i, u, SweepPhase::Whole, &mut fabs.rhs[i]);
    }
    let du_base = fabs.du.fabs_mut().as_mut_ptr();
    for &i in &skel.owned {
        // SAFETY: sequential; these are the only live references, each
        // derived fresh from its slice base pointer.
        let st_fab = unsafe { &mut *state_base.add(i) };
        // SAFETY: as above.
        let du = unsafe { &mut *du_base.add(i) };
        update(i, du, st_fab, &fabs.rhs[i]);
    }
    Ok(())
}

/// List of raw fab views shareable across worker threads.
struct RawList<'a>(&'a [RawFab]);
// SAFETY: the raw pointers inside are dereferenced only inside graph tasks
// whose conflicting accesses are ordered by dependency edges (module-level
// safety argument); sending the list to workers cannot itself race.
unsafe impl Send for RawList<'_> {}
// SAFETY: shared references expose only `Copy` geometry and raw pointers;
// all dereferences are governed by the task-graph ordering above.
unsafe impl Sync for RawList<'_> {}

impl RawList<'_> {
    #[inline]
    fn get(&self, i: usize) -> &RawFab {
        &self.0[i]
    }
}

/// Base pointer of a fab slice, shareable across worker threads.
#[derive(Clone, Copy)]
struct BasePtr(*mut FArrayBox);
// SAFETY: dereferenced only by `update` tasks, each the unique last task
// touching its element (module-level argument).
unsafe impl Send for BasePtr {}
// SAFETY: as for `Send` — each element is touched by exactly one ordered
// task chain.
unsafe impl Sync for BasePtr {}

impl BasePtr {
    // Accessor (rather than direct `.0` field access in the task closures):
    // edition-2021 closures capture disjoint fields, and capturing the bare
    // `*mut` would bypass the `Send`/`Sync` wrapper.
    #[inline]
    fn get(self) -> *mut FArrayBox {
        self.0
    }
}

/// The graph schedule: the skeleton's task list added to one task graph in
/// list order, with the list's edges and each task's closure picked by its
/// kind. The progress pump ([`GroupEndpoint::pump`]) delivers messages and
/// [`Inbox::poll`] fails the stage on a malformed one.
#[allow(clippy::too_many_arguments)]
fn run_overlapped(
    fabs: StageFabs<'_>,
    plan: &CopyPlan,
    skel: &DistSkeleton,
    st: &DistStage<'_>,
    extra_halo: &[Vec<(u64, IndexBox)>],
    pre_halo: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    bc_fill: &(dyn Fn(usize, &mut FabRw<'_>) + Sync),
    sweep: &(dyn Fn(usize, FabRd<'_>, SweepPhase, &mut FArrayBox) + Sync),
    update: &(dyn Fn(usize, &mut FArrayBox, &mut FArrayBox, &FArrayBox) + Sync),
) -> Result<(), StageError> {
    let n = fabs.state.nfabs();
    let ncomp = plan.ncomp;
    let rank = skel.rank;

    // Raw captures. Going through the slice base pointer keeps every later
    // `&mut FArrayBox` an independent derivation from the same provenance
    // root, so expired per-capture borrows are never revived. `fabs_mut()`
    // also bumps the `check` build's data epoch: after the stage the ghosts
    // are (correctly) considered stale, exactly as on the fenced path.
    let state_base = BasePtr(fabs.state.fabs_mut().as_mut_ptr());
    let state_raw: Vec<RawFab> = (0..n)
        // SAFETY: `i < n` indexes the live slice; the `&mut` is temporary
        // and expires before any task runs.
        .map(|i| unsafe { RawFab::capture(&mut *state_base.get().add(i)) })
        .collect();
    let state_list = &RawList(&state_raw);
    let du_base = BasePtr(fabs.du.fabs_mut().as_mut_ptr());
    let rhs_base = BasePtr(fabs.rhs.as_mut_ptr());

    let chunks = &plan.chunks;
    let layout = &skel.layout;
    // Post every receive before building the graph: one per peer, decoded
    // when it lands, fired as an event, drained by the halo tasks it feeds.
    let inbox = &Inbox::post(st.ep, layout, st.tag);

    #[cfg(feature = "check")]
    let mut declared = Declared::live(
        plan,
        skel,
        &(0..n).map(|i| fabs.state.valid_box(i)).collect::<Vec<_>>(),
        st.ghosts,
        &FabIds {
            state: state_raw.iter().map(|r| r.ptr as usize as u64).collect(),
            rhs: (0..n)
                .map(|i| rhs_base.get().wrapping_add(i) as usize as u64)
                .collect(),
            du: (0..n)
                .map(|i| du_base.get().wrapping_add(i) as usize as u64)
                .collect(),
            inbox: inbox_ids(layout.recvs.len()),
        },
        extra_halo,
    );
    #[cfg(not(feature = "check"))]
    let mut declared = Declared {};

    let mut graph = TaskGraph::new();
    let mut handles: Vec<TaskHandle> = Vec::with_capacity(skel.tasks.len());
    for (t, task) in skel.tasks.iter().enumerate() {
        let deps: Vec<TaskHandle> = task.deps.iter().map(|&d| handles[d]).collect();
        let handle = match task.kind {
            TaskKind::Send(m) => {
                let ep = st.ep;
                declared.add(&mut graph, t, &deps, move || {
                    let msg = &layout.sends[m];
                    let body = layout.pack(msg, &mut |c, out| {
                        let chunk = &chunks[c];
                        // SAFETY: reads valid cells of the (owned) source
                        // patch; its only writer, `update[src_id]`, depends
                        // on this task.
                        let src = unsafe { FabRd::from_raw(*state_list.get(chunk.src_id)) };
                        pack_chunk(&src, chunk.region, chunk.shift, ncomp, out);
                    });
                    ep.send(msg.peer, st.tag, body);
                })
            }
            TaskKind::Recv(m) => {
                debug_assert!(deps.is_empty(), "a receive event waits on nothing");
                graph.add_event(move || inbox.is_ready(m))
            }
            TaskKind::Halo(i) => {
                let (s, e) = skel.chunk_range[i];
                let extras = extra_halo.get(i).map_or(&[][..], Vec::as_slice);
                declared.add(&mut graph, t, &deps, move || {
                    // The time-interpolated fill inside `pre_halo` reads its
                    // extra fabs below the instrumented views — record the
                    // declared reads explicitly so the dynamic detector sees
                    // them.
                    for &(id, bx) in extras {
                        record_access(id, false, bx);
                    }
                    // SAFETY: writes only ghost cells of patch `i` (plan
                    // invariant + pre_halo/bc_fill contracts); unordered
                    // tasks read only valid cells, and all later access
                    // depends on this task.
                    let mut rw = unsafe { FabRw::from_raw(*state_list.get(i)) };
                    // Coarse-fine interpolation, then same-level chunks,
                    // then physical BCs (BC corner mirrors may read ghosts
                    // the chunks just wrote).
                    pre_halo(i, &mut rw);
                    for (c, chunk) in chunks.iter().enumerate().take(e).skip(s) {
                        if chunk.src_rank == rank {
                            // SAFETY: reads valid cells of the source patch,
                            // writes ghost cells of patch `i` — disjoint from
                            // every unordered access (module-level argument).
                            unsafe {
                                copy_chunk_raw(
                                    state_list.get(chunk.dst_id),
                                    state_list.get(chunk.src_id),
                                    chunk.region,
                                    chunk.shift,
                                    ncomp,
                                )
                            };
                        } else if let Some((m, bytes)) = layout.recv_slot(c) {
                            let body = inbox
                                .body(m)
                                .expect("receive event fired before its halo task");
                            unpack_chunk(&mut rw, chunk.region, ncomp, &body[bytes]);
                        }
                    }
                    bc_fill(i, &mut rw);
                })
            }
            TaskKind::Sweep(i, phase) => declared.add(&mut graph, t, &deps, move || {
                // SAFETY: read-only view. `Interior` reads only valid cells,
                // which unordered tasks never write; `Whole` and
                // `BoundaryBand` also read ghosts, ordered after `halo[i]` by
                // the dependency edge.
                let u = unsafe { FabRd::from_raw(*state_list.get(i)) };
                // SAFETY: `rhs[i]` is touched only by the chain
                // sweeps → update, ordered by dependency edges.
                let rhs_i = unsafe { &mut *rhs_base.get().add(i) };
                sweep(i, u, phase, rhs_i);
            }),
            TaskKind::Update(i) => {
                let sid = state_raw[i].ptr as usize as u64;
                let vb = fabs.state.valid_box(i);
                declared.add(&mut graph, t, &deps, move || {
                    // SAFETY: every reader of patch `i`'s state — its own
                    // sweeps, each local halo copy out of `i`, and each send
                    // packing out of `i` — is a dependency, so this is the
                    // unique last task touching these three fabs and may
                    // hold real references.
                    let st_fab = unsafe { &mut *state_base.get().add(i) };
                    // SAFETY: `du[i]` is touched by this task alone.
                    let du = unsafe { &mut *du_base.get().add(i) };
                    // SAFETY: the writers of `rhs[i]` are dependencies (see
                    // above).
                    let rhs_i = unsafe { &*rhs_base.get().add(i) };
                    // The update writes through `&mut FArrayBox`, below the
                    // instrumented views — record the state write
                    // explicitly so the dynamic detector sees it.
                    record_access(sid, true, vb);
                    update(i, du, st_fab, rhs_i);
                })
            }
        };
        handles.push(handle);
    }

    let ep = st.ep;
    graph.try_run(st.sched, &mut || {
        ep.pump()?;
        Ok(inbox.poll()?)
    })
}

/// The declared footprints of one stage's tasks, in skeleton order, with
/// live fab ids: what the dynamic detector (the `check` build) audits
/// every executed access against. Nothing else reads a footprint, so the
/// default build derives none and adds each task bare.
struct Declared {
    #[cfg(feature = "check")]
    footprints: Vec<crocco_runtime::taskcheck::Footprint>,
}

impl Declared {
    /// The verifier's footprints ([`crate::taskcheck::dist_rank_schedule`])
    /// over live ids, each halo task's `extra_halo` reads added.
    #[cfg(feature = "check")]
    fn live(
        plan: &CopyPlan,
        skel: &DistSkeleton,
        valid: &[IndexBox],
        ghosts: GhostFootprint,
        ids: &FabIds,
        extra_halo: &[Vec<(u64, IndexBox)>],
    ) -> Self {
        let spec = dist_rank_schedule(plan, skel, valid, ghosts, ids).spec;
        let footprints = skel
            .tasks
            .iter()
            .enumerate()
            .map(|(t, task)| {
                let mut fp = spec.footprint(t).clone();
                if let TaskKind::Halo(i) = task.kind {
                    for &(id, bx) in extra_halo.get(i).into_iter().flatten() {
                        fp = fp.reads(id, (0, plan.ncomp), bx);
                    }
                }
                fp
            })
            .collect();
        Declared { footprints }
    }

    /// Adds skeleton task `t` to `graph`, with its footprint if declared.
    fn add<'env, F>(
        &mut self,
        graph: &mut TaskGraph<'env>,
        t: usize,
        deps: &[TaskHandle],
        f: F,
    ) -> TaskHandle
    where
        F: FnOnce() + Send + 'env,
    {
        #[cfg(feature = "check")]
        {
            graph.add_task_with(deps, std::mem::take(&mut self.footprints[t]), f)
        }
        #[cfg(not(feature = "check"))]
        {
            let _ = t;
            graph.add_task(deps, f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::distribution::{DistributionMapping, DistributionStrategy};
    use crate::exchange::tests::fill_linear;
    use crate::plan_cache::PlanCache;
    use crate::view::FabView;
    use crocco_geometry::decompose::ChopParams;
    use crocco_geometry::{IndexBox, IntVect, ProblemDomain};
    use crocco_runtime::{tags, LocalCluster};
    use std::sync::Arc;

    /// A 16×8×8 domain chopped into 8³ patches, distributed round-robin.
    fn setup(nranks: usize) -> (Arc<BoxArray>, Arc<DistributionMapping>, ProblemDomain) {
        let domain = ProblemDomain::non_periodic(IndexBox::from_extents(16, 8, 8));
        let ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(4, 8)));
        let dm = Arc::new(DistributionMapping::new(
            &ba,
            nranks,
            DistributionStrategy::RoundRobin,
        ));
        (ba, dm, domain)
    }

    #[test]
    fn chunk_pack_roundtrips_bitwise() {
        let (ba, dm, domain) = setup(1);
        let mut mf = MultiFab::new(ba, dm, 2, 2);
        fill_linear(&mut mf);
        let plan = mf.fill_boundary(&domain);
        let chunk = plan.chunks.iter().find(|c| !c.region.is_empty()).unwrap();
        // Through the raw views the stage tasks use.
        // SAFETY: exclusive access in a single-threaded test; the region
        // lies in the fab boxes by plan construction.
        let src = unsafe { FabRd::from_raw(RawFab::capture_const(mf.fab(chunk.src_id))) };
        let mut payload = Vec::new();
        pack_chunk(&src, chunk.region, chunk.shift, 2, &mut payload);
        assert_eq!(payload.len() as u64, chunk.bytes(2));
        // Unpacking into a scratch destination must match a direct copy.
        let mut direct = mf.fab(chunk.dst_id).clone();
        for c in 0..2 {
            for p in chunk.region.cells() {
                direct.set(p, c, mf.fab(chunk.src_id).get(p - chunk.shift, c));
            }
        }
        let mut via_bytes = mf.fab(chunk.dst_id).clone();
        // SAFETY: as above.
        let mut dst = unsafe { FabRw::from_raw(RawFab::capture(&mut via_bytes)) };
        unpack_chunk(&mut dst, chunk.region, 2, &payload);
        assert_eq!(via_bytes.data(), direct.data());
    }

    #[test]
    fn skeleton_partitions_every_remote_chunk_exactly_once() {
        let (ba, dm, domain) = setup(3);
        let cache = PlanCache::new();
        let fb = cache.fill_boundary(&ba, &dm, &domain, 2, 1);
        let mut recv_total = 0;
        let mut send_total = 0;
        let (mut recv_edges, mut send_edges) = (0, 0);
        for rank in 0..3 {
            let skel = DistSkeleton::build(&fb, dm.owners(), rank);
            assert_eq!(skel.rank, rank);
            recv_total += skel.layout.recvs.iter().map(|m| m.items.len()).sum::<usize>();
            send_total += skel.layout.sends.iter().map(|m| m.items.len()).sum::<usize>();
            for &i in &skel.owned {
                assert_eq!(dm.owner(i), rank);
            }
            for task in &skel.tasks {
                for &d in &task.deps {
                    match (task.kind, skel.tasks[d].kind) {
                        // Receive events feed owned patches only, each a
                        // message that really carries a chunk into the patch.
                        (TaskKind::Halo(i), TaskKind::Recv(m)) => {
                            assert_eq!(dm.owner(i), rank, "receive targets a non-owned patch");
                            let items = &skel.layout.recvs[m].items;
                            assert!(items.iter().any(|&c| fb.plan.chunks[c].dst_id == i));
                            recv_edges += 1;
                        }
                        // Send fences point back at their source patches.
                        (TaskKind::Update(i), TaskKind::Send(m)) => {
                            let items = &skel.layout.sends[m].items;
                            assert!(items.iter().any(|&c| fb.plan.chunks[c].src_id == i));
                            send_edges += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        let remote = fb.plan.chunks.iter().filter(|c| !c.is_local()).count();
        assert!(remote > 0, "setup must produce rank-crossing chunks");
        assert!(
            recv_edges > 0 && send_edges > 0,
            "remote chunks must gate halos and fence updates"
        );
        assert_eq!(recv_total, remote, "each remote chunk received once");
        assert_eq!(send_total, remote, "each remote chunk sent once");
    }

    #[test]
    fn band_slabs_partition_the_band() {
        let valid = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(15, 11, 9));
        let interior = valid.grow(-4);
        let slabs = band_slabs(valid, interior);
        assert_eq!(slabs.len(), 6);
        let total: u64 = slabs.iter().map(|s| s.num_points()).sum();
        assert_eq!(total, valid.num_points() - interior.num_points());
        // Disjointness: pairwise empty intersections, none meets interior.
        for (a, s) in slabs.iter().enumerate() {
            assert!(s.intersection(&interior).is_empty());
            for t in &slabs[a + 1..] {
                assert!(s.intersection(t).is_empty(), "{s:?} overlaps {t:?}");
            }
        }
    }

    #[test]
    fn band_slabs_empty_interior_returns_valid() {
        let valid = IndexBox::from_extents(6, 6, 6);
        assert_eq!(band_slabs(valid, valid.grow(-4)), vec![valid]);
    }

    #[test]
    fn band_slabs_one_sided_interior() {
        // Interior flush against the low faces: only high-side slabs.
        let valid = IndexBox::from_extents(8, 8, 8);
        let interior = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 3, 3));
        let slabs = band_slabs(valid, interior);
        let total: u64 = slabs.iter().map(|s| s.num_points()).sum();
        assert_eq!(total, valid.num_points() - interior.num_points());
        for s in &slabs {
            assert!(s.intersection(&interior).is_empty());
        }
    }

    /// The fenced and the graph schedule both reproduce a
    /// single-address-space reference stage bitwise on a real 2-rank
    /// cluster (patches with remote ghosts split, the rest swept whole). The sweep is a cross-patch stencil, so wrong or missing
    /// halo traffic corrupts the comparison.
    #[test]
    fn distributed_stage_matches_local_execution_bitwise() {
        let ncomp = 2usize;
        let nghost = 2i64;
        let (ba, dm, domain) = setup(2);

        // Reference: fill ghosts, then state += stencil(state) over valid.
        let mut reference = MultiFab::new(ba.clone(), dm.clone(), ncomp, nghost);
        fill_linear(&mut reference);
        let plan = reference.fill_boundary(&domain);
        reference.execute_plan(&plan, 1);
        let snapshot: Vec<FArrayBox> = (0..reference.nfabs())
            .map(|i| reference.fab(i).clone())
            .collect();
        for (i, u) in snapshot.iter().enumerate() {
            let vb = reference.valid_box(i);
            let fab = reference.fab_mut(i);
            for c in 0..ncomp {
                for p in vb.cells() {
                    let lap = u.get(p + IntVect::new(1, 0, 0), c)
                        + u.get(p - IntVect::new(1, 0, 0), c)
                        - 2.0 * u.get(p, c);
                    fab.set(p, c, u.get(p, c) + 0.125 * lap);
                }
            }
        }

        for overlap in [false, true] {
            let ba = ba.clone();
            let dm = dm.clone();
            let results = LocalCluster::run(2, |ep| {
                let cache = PlanCache::new();
                // The stencil reaches along x only: the stage fills (and
                // sends) face ghosts alone, against a full-shell reference.
                let ghosts = GhostFootprint::Faces(nghost);
                let fb = cache.fill_boundary_over(&ba, &dm, &domain, ghosts, ncomp);
                let skel = DistSkeleton::build(&fb, dm.owners(), ep.rank());
                let mut state = MultiFab::new(ba.clone(), dm.clone(), ncomp, nghost);
                fill_linear(&mut state);
                let mut du = MultiFab::new(ba.clone(), dm.clone(), ncomp, 0);
                let mut rhs: Vec<FArrayBox> = (0..ba.len())
                    .map(|i| FArrayBox::new(ba.get(i), ncomp))
                    .collect();
                let gep = GroupEndpoint::full(&ep);
                let st = DistStage {
                    ep: &gep,
                    tag: tags::round(0, 7),
                    overlap,
                    sched: Schedule::pool(2),
                    ghosts,
                };
                let sweep = |_i: usize, u: FabRd<'_>, phase: SweepPhase, rhs: &mut FArrayBox| {
                    let valid = u.bx().grow(-nghost);
                    let interior = valid.grow(-nghost);
                    let regions = match phase {
                        SweepPhase::Whole => {
                            rhs.fill(0.0);
                            vec![valid]
                        }
                        SweepPhase::Interior => {
                            rhs.fill(0.0);
                            vec![interior]
                        }
                        SweepPhase::BoundaryBand => band_slabs(valid, interior),
                    };
                    for region in regions {
                        for c in 0..ncomp {
                            for p in region.cells() {
                                let lap = u.get(p + IntVect::new(1, 0, 0), c)
                                    + u.get(p - IntVect::new(1, 0, 0), c)
                                    - 2.0 * u.get(p, c);
                                rhs.set(p, c, 0.125 * lap);
                            }
                        }
                    }
                };
                let update =
                    |_i: usize, _du: &mut FArrayBox, state: &mut FArrayBox, rhs: &FArrayBox| {
                        let vb = state.bx().grow(-nghost);
                        for c in 0..ncomp {
                            for p in vb.cells() {
                                let v = state.get(p, c) + rhs.get(p, c);
                                state.set(p, c, v);
                            }
                        }
                    };
                run_dist_rk_stage(
                    StageFabs {
                        state: &mut state,
                        du: &mut du,
                        rhs: &mut rhs,
                    },
                    &fb,
                    &skel,
                    &st,
                    &[],
                    &|_i, _rw| {},
                    &|_i, _rw| {},
                    &sweep,
                    &update,
                )
                .expect("fault-free stage");
                state
            });
            // Each rank updated exactly the patches it owns.
            for i in 0..reference.nfabs() {
                let vb = reference.valid_box(i);
                let (got, want) = (results[dm.owner(i)].fab(i), reference.fab(i));
                for c in 0..ncomp {
                    for p in vb.cells() {
                        assert_eq!(
                            got.get(p, c).to_bits(),
                            want.get(p, c).to_bits(),
                            "overlap={overlap} patch={i} cell {p:?} diverged"
                        );
                    }
                }
            }
        }
    }
}
