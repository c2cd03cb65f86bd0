//! Schedule specs and static verification for the RK-stage task graphs
//! (DESIGN.md §4i).
//!
//! [`crate::dist_overlap`] runs one task graph per RK stage; its safety
//! argument is prose. This module turns the prose into a checkable
//! artifact: it maps a skeleton's task list ([`DistSkeleton::tasks`], the
//! list the executor adds to its graph in order) to a
//! [`ScheduleSpec`](crocco_runtime::taskcheck::ScheduleSpec) — the list's
//! own dependency edges, plus a declared [`Footprint`] per task built from
//! the exact plan regions the executor copies — whose
//! [`verify`](crocco_runtime::taskcheck::ScheduleSpec::verify) then proves
//! every conflicting pair ordered. No edge is derived here, so the proof is
//! about the graph that runs.
//! [`verify_dist`] replays the mapping for *all* ranks (skeletons are pure
//! metadata, identically replicated) and additionally proves
//! tag-completeness and cross-rank acyclicity via [`verify_cross_rank`]; on
//! a group of one that is the on-node graph and the cross-rank part is
//! vacuous.
//!
//! The mapping is parameterized over fab identities ([`FabIds`]): the
//! memoized static pass uses symbolic ids (patch index + space tag), while
//! a `check` build of the executor instantiates it with live
//! allocation base pointers and attaches the footprints to its
//! [`TaskGraph`](crocco_runtime::TaskGraph) tasks for the dynamic detector
//! — one derivation serves both, so the declared footprints cannot drift
//! from the verified ones.
//!
//! Footprint shapes, per patch `i` with valid box `V` and the stage's ghost
//! footprint `G` ([`GhostFootprint`]: the face slabs or the full shell),
//! `B = V.grow(G.depth())`:
//!
//! * `halo[i]` reads `B` of `i` (BC corner mirrors read ghosts and valid
//!   cells), writes the footprint's ghost regions `G(V)` (pre-halo
//!   interpolation, chunk copies, BC fills — and nothing outside them), and
//!   reads `region - shift` of every *locally copied* source patch in its
//!   chunk range — valid cells, by the FillBoundary plan invariant (remote
//!   chunks arrive as payloads).
//! * `sweep[i]` (a patch swept whole) and `boundary[i]` read `B` (their
//!   stencils reach into ghosts) and write `rhs[i]`.
//! * `interior[i]` reads `V` (the sweep region is shrunk by the ghost width,
//!   so the widest stencil stays inside valid cells) and writes `rhs[i]`.
//! * `update[i]` reads `rhs[i]` and writes `V` of `i` and `du[i]` — the
//!   writes whose ordering against every reader of `i` is exactly what its
//!   fences on the local halo copies and sends out of `i` exist to
//!   guarantee.
//! * `send[m]` reads `region - shift` of the source patch of every chunk in
//!   its peer's message.
//! * `recv[m]` writes `inbox[m]` — the landed message, addressed by the
//!   destination regions of the chunks it carries — and `halo[i]` reads
//!   `inbox[m]` over each remote chunk of its range that message `m`
//!   carries: the unpack is a declared access, so a halo task that lost its
//!   receive edge is an unordered pair like any other.
//!
//! Channels are `(src, dst)` rank pairs ([`channel`]): a stage sends one
//! message per pair, so a dropped send leaves exactly one receive
//! unmatched.

use crate::dist_overlap::{DistSkeleton, SweepPhase, TaskKind};
use crate::plan::{CopyPlan, GhostFootprint};
use crate::plan_cache::CachedPlan;
use crocco_geometry::IndexBox;
use crocco_runtime::taskcheck::{Footprint, RankSchedule};
use crocco_runtime::{verify_cross_rank, Violation};
use std::fmt;

/// Fab identities for one spec instantiation: one id per patch for the
/// state, RHS-scratch, and `du` spaces, and one per received message for
/// the `inbox` space. Ids are opaque — the verifier only compares them for
/// equality — but must be distinct across every `(space, index)` pair.
#[derive(Clone, Debug)]
pub struct FabIds {
    /// Per-patch state fab ids.
    pub state: Vec<u64>,
    /// Per-patch RHS-scratch fab ids.
    pub rhs: Vec<u64>,
    /// Per-patch `du` fab ids.
    pub du: Vec<u64>,
    /// Per received message (position in the layout's `recvs`), the id of
    /// its landed payload.
    pub inbox: Vec<u64>,
}

impl FabIds {
    /// Symbolic ids for the memoized static pass: patch index tagged with a
    /// per-space high bit well clear of patch counts.
    pub fn symbolic(npatches: usize) -> FabIds {
        FabIds {
            state: (0..npatches).map(|i| i as u64).collect(),
            rhs: (0..npatches).map(|i| (1 << 32) | i as u64).collect(),
            du: (0..npatches).map(|i| (2 << 32) | i as u64).collect(),
            inbox: inbox_ids(npatches),
        }
    }
}

/// Symbolic ids of `n` landed messages — payloads live in no fab, so live
/// instantiations name them symbolically too. A rank receives at most one
/// message per peer and every peer owns a patch, so `npatches` ids cover
/// any rank's receives.
pub(crate) fn inbox_ids(n: usize) -> Vec<u64> {
    (0..n).map(|m| (3 << 32) | m as u64).collect()
}

/// The footprint of `skel`'s halo task for patch `i`: reads the patch's
/// full box, its locally copied chunk-range sources and the landed messages
/// carrying its remote chunks, writes the ghost footprint.
fn halo_footprint(
    plan: &CopyPlan,
    skel: &DistSkeleton,
    i: usize,
    valid: &[IndexBox],
    ghosts: GhostFootprint,
    ids: &FabIds,
) -> Footprint {
    let comp = (0, plan.ncomp);
    let bx = valid[i].grow(ghosts.depth());
    let mut fp = Footprint::new(format!("halo[{i}]")).reads(ids.state[i], comp, bx);
    for region in ghosts.regions(valid[i]) {
        fp = fp.writes(ids.state[i], comp, region);
    }
    let (s, e) = skel.chunk_range[i];
    for (k, c) in plan.chunks.iter().enumerate().take(e).skip(s) {
        // Locally copied chunks read a source fab; remote chunks read their
        // message's payload (their ghost writes are already covered by the
        // footprint above).
        if c.src_rank == skel.rank {
            fp = fp.reads(ids.state[c.src_id], comp, c.region.shift(-c.shift));
        } else if let Some((m, _)) = skel.layout.recv_slot(k) {
            fp = fp.reads(ids.inbox[m], comp, c.region);
        }
    }
    fp
}

/// The channel key of the `(src, dst)` rank pair: one halo message per pair
/// per stage, so the pair identifies it.
pub fn channel(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// One rank's slice of the stage graph
/// ([`crate::dist_overlap::run_dist_rk_stage`] with `overlap = true`): the
/// skeleton's task list ([`DistSkeleton::tasks`]) with its own edges, each
/// task given its declared footprint, each send and receive its
/// [`channel`].
pub fn dist_rank_schedule(
    plan: &CopyPlan,
    skel: &DistSkeleton,
    valid: &[IndexBox],
    ghosts: GhostFootprint,
    ids: &FabIds,
) -> RankSchedule {
    let comp = (0, plan.ncomp);
    let chunks = &plan.chunks;
    let mut rs = RankSchedule::default();
    for (t, task) in skel.tasks.iter().enumerate() {
        let fp = match task.kind {
            TaskKind::Send(m) => {
                let msg = &skel.layout.sends[m];
                rs.sends.push((t, channel(skel.rank, msg.peer)));
                let mut fp = Footprint::new(format!("send[{}]", msg.peer));
                for &c in &msg.items {
                    let chunk = &chunks[c];
                    fp = fp.reads(
                        ids.state[chunk.src_id],
                        comp,
                        chunk.region.shift(-chunk.shift),
                    );
                }
                fp
            }
            TaskKind::Recv(m) => {
                let msg = &skel.layout.recvs[m];
                rs.recvs.push((t, channel(msg.peer, skel.rank)));
                let mut fp = Footprint::new(format!("recv[{}]", msg.peer));
                for &c in &msg.items {
                    fp = fp.writes(ids.inbox[m], comp, chunks[c].region);
                }
                fp
            }
            TaskKind::Halo(i) => halo_footprint(plan, skel, i, valid, ghosts, ids),
            TaskKind::Sweep(i, SweepPhase::Interior) => Footprint::new(format!("interior[{i}]"))
                .reads(ids.state[i], comp, valid[i])
                .writes(ids.rhs[i], comp, valid[i]),
            TaskKind::Sweep(i, phase) => {
                let label = if phase == SweepPhase::Whole {
                    "sweep"
                } else {
                    "boundary"
                };
                Footprint::new(format!("{label}[{i}]"))
                    .reads(ids.state[i], comp, valid[i].grow(ghosts.depth()))
                    .writes(ids.rhs[i], comp, valid[i])
            }
            TaskKind::Update(i) => Footprint::new(format!("update[{i}]"))
                .reads(ids.rhs[i], comp, valid[i])
                .writes(ids.state[i], comp, valid[i])
                .writes(ids.du[i], comp, valid[i]),
        };
        rs.spec.add(&task.deps, fp);
    }
    rs
}

/// The outcome of one static verification pass over a real skeleton: what
/// the plan cache memoizes beside the skeleton and the step loop consults
/// once per (grids, plan) generation.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Total tasks across all verified schedules.
    pub tasks: usize,
    /// Conflicting region pairs checked against happens-before.
    pub pairs_checked: u64,
    /// Violations found (empty ⇔ the schedule is proven sound).
    pub violations: Vec<Violation>,
    /// Wall-clock cost of the verification, microseconds.
    pub micros: u64,
}

impl VerifyReport {
    /// `true` when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed if the report is not clean — the
    /// step loop's response to a broken skeleton (fail loudly at first
    /// verification, not as a bitwise divergence later).
    pub fn assert_clean(&self, what: &str) {
        assert!(
            self.is_clean(),
            "taskcheck: schedule verification failed for {what}:\n{}",
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks, {} conflict pairs checked, {} violation(s), {} µs",
            self.tasks,
            self.pairs_checked,
            self.violations.len(),
            self.micros
        )
    }
}

/// Statically verifies the *whole* stage: rebuilds every rank's
/// skeleton from the replicated metadata (`owner` map), verifies each
/// rank's graph, and proves tag-completeness plus cross-rank acyclicity of
/// the union — the lost-wakeup/deadlock check no single rank can run alone.
pub fn verify_dist(
    fb: &CachedPlan,
    owner: &[usize],
    nranks: usize,
    valid: &[IndexBox],
    ghosts: GhostFootprint,
) -> VerifyReport {
    let t0 = std::time::Instant::now();
    let ids = FabIds::symbolic(valid.len());
    let ranks: Vec<RankSchedule> = (0..nranks)
        .map(|r| {
            dist_rank_schedule(&fb.plan, &DistSkeleton::build(fb, owner, r), valid, ghosts, &ids)
        })
        .collect();
    let mut tasks = 0;
    let mut pairs_checked = 0;
    let mut violations = Vec::new();
    for rs in &ranks {
        tasks += rs.spec.len();
        let v = rs.spec.verify();
        pairs_checked += v.pairs_checked;
        violations.extend(v.violations);
    }
    violations.extend(verify_cross_rank(&ranks));
    VerifyReport {
        tasks,
        pairs_checked,
        violations,
        micros: t0.elapsed().as_micros() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::distribution::{DistributionMapping, DistributionStrategy};
    use crate::plan_cache::PlanCache;
    use crocco_geometry::decompose::ChopParams;
    use crocco_geometry::ProblemDomain;
    use std::sync::Arc;

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

    fn valid_boxes(ba: &BoxArray) -> Vec<IndexBox> {
        (0..ba.len()).map(|i| ba.get(i)).collect()
    }

    #[test]
    fn real_skeletons_verify_clean_at_multiple_rank_counts() {
        for (nranks, ghosts) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|n| [(n, GhostFootprint::Shell(2)), (n, GhostFootprint::Faces(2))])
        {
            let (ba, dm, domain) = setup(nranks);
            let cache = PlanCache::new();
            let fb = cache.fill_boundary_over(&ba, &dm, &domain, ghosts, 2);
            let valid = valid_boxes(&ba);
            let report = verify_dist(&fb, dm.owners(), nranks, &valid, ghosts);
            report.assert_clean("test skeleton");
            assert!(report.pairs_checked > 0, "stage must have conflict pairs");
            if nranks == 1 {
                // No receive to wait on: halo, one whole sweep, update.
                assert_eq!(report.tasks, 3 * ba.len());
            } else {
                assert!(report.tasks > 3 * ba.len(), "remote halos add tasks");
            }
        }
    }

    #[test]
    fn deleting_a_reader_edge_is_flagged_as_the_exact_pair() {
        let (ba, dm, domain) = setup(1);
        let cache = PlanCache::new();
        let nghost = 2;
        let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
        let mut skel = DistSkeleton::build(&fb, dm.owners(), 0);
        // Drop one update fence from the task list: halo[d] reads patch i
        // while update[i] rewrites it, now unordered.
        let (t, halo_d, i, d) = skel
            .tasks
            .iter()
            .enumerate()
            .find_map(|(t, task)| {
                let TaskKind::Update(i) = task.kind else { return None };
                task.deps.iter().find_map(|&h| match skel.tasks[h].kind {
                    TaskKind::Halo(d) if d != i => Some((t, h, i, d)),
                    _ => None,
                })
            })
            .expect("setup must produce a cross-patch reader");
        skel.tasks[t].deps.retain(|&x| x != halo_d);
        let valid = valid_boxes(&ba);
        let ids = FabIds::symbolic(valid.len());
        let violations = dist_rank_schedule(&fb.plan, &skel, &valid, GhostFootprint::Shell(nghost), &ids)
            .spec
            .verify()
            .violations;
        assert!(!violations.is_empty(), "deleted edge must be flagged");
        let hit = violations.iter().any(|v| match v {
            Violation::UnorderedConflict {
                first_label,
                second_label,
                ..
            } => {
                first_label == &format!("halo[{d}]") && second_label == &format!("update[{i}]")
                    || second_label == &format!("halo[{d}]")
                        && first_label == &format!("update[{i}]")
            }
            _ => false,
        });
        assert!(
            hit,
            "expected halo[{d}]/update[{i}] in {violations:?}"
        );
    }

    #[test]
    fn dropping_a_send_makes_a_receive_unmatched() {
        let (ba, dm, domain) = setup(2);
        let cache = PlanCache::new();
        let nghost = 2;
        let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
        let valid = valid_boxes(&ba);
        let ids = FabIds::symbolic(valid.len());
        let mut ranks: Vec<RankSchedule> = (0..2)
            .map(|r| {
                dist_rank_schedule(
                    &fb.plan,
                    &DistSkeleton::build(&fb, dm.owners(), r),
                    &valid,
                    GhostFootprint::Shell(nghost),
                    &ids,
                )
            })
            .collect();
        let dropped = ranks[0].sends.pop().expect("rank 0 must send something").1;
        let violations = verify_cross_rank(&ranks);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::ChannelMismatch { chan, sends: 0, recvs: 1 } if *chan == dropped
            )),
            "lost send on channel {dropped} must be flagged: {violations:?}"
        );
    }
}
