//! Schedule specs and static verification for the RK-stage task graphs
//! (DESIGN.md §4i).
//!
//! [`crate::dist_overlap`] hand-wires one task graph per RK stage; its
//! safety argument is prose. This module turns the prose into a checkable
//! artifact: for each skeleton it derives a [`ScheduleSpec`] — the same
//! tasks, in the same insertion order, with the same dependency edges, plus
//! a declared [`Footprint`] per task built from the exact plan regions the
//! executor copies — and [`ScheduleSpec::verify`] then proves every
//! conflicting pair ordered. [`verify_dist`] replays the derivation for
//! *all* ranks (skeletons are pure metadata, identically replicated) and
//! additionally proves tag-completeness and cross-rank acyclicity via
//! [`verify_cross_rank`]; on a group of one that is the on-node graph and
//! the cross-rank part is vacuous.
//!
//! The spec builder is parameterized over fab identities ([`FabIds`]): the
//! memoized static pass uses symbolic ids (patch index + space tag), while
//! the executor instantiates the same spec with live allocation base
//! pointers and attaches its footprints to its
//! [`TaskGraph`](crocco_runtime::TaskGraph) tasks — one derivation serves
//! both, so the declared footprints cannot drift from the verified ones.
//! The executor also asserts (under the `taskcheck` feature) that the graph
//! it built has exactly the spec's dependency lists.
//!
//! Footprint shapes, per patch `i` with valid box `V`, full box
//! `B = V.grow(nghost)`:
//!
//! * `halo[i]` reads `B` of `i` (BC corner mirrors read ghosts and valid
//!   cells), writes the ghost shell `B \ V` (pre-halo interpolation, chunk
//!   copies, BC fills), and reads `region - shift` of every *locally copied*
//!   source patch in its chunk range — valid cells, by the FillBoundary
//!   plan invariant (remote chunks arrive as payloads).
//! * `sweep[i]` (a patch swept whole) and `boundary[i]` read `B` (their
//!   stencils reach into ghosts) and write `rhs[i]`.
//! * `interior[i]` reads `V` (the sweep region is shrunk by the ghost width,
//!   so the widest stencil stays inside valid cells) and writes `rhs[i]`.
//! * `update[i]` reads `rhs[i]` and writes `V` of `i` and `du[i]` — the
//!   writes whose ordering against every reader of `i` is exactly what the
//!   `readers`/`send_readers` fences exist to guarantee.
//! * `send[m]` reads `region - shift` of the source patch of every chunk in
//!   its peer's message; receive events touch nothing.
//!
//! Channels are `(src, dst)` rank pairs ([`channel`]): a stage sends one
//! message per pair, so a dropped send leaves exactly one receive
//! unmatched.

use crate::dist_overlap::DistSkeleton;
use crate::plan::CopyPlan;
use crate::plan_cache::CachedPlan;
use crocco_geometry::IndexBox;
use crocco_runtime::taskcheck::{subtract, Footprint, RankSchedule, ScheduleSpec};
use crocco_runtime::{verify_cross_rank, Violation};
use std::fmt;

/// Fab identities for one spec instantiation: one id per patch for the
/// state, RHS-scratch, and `du` spaces. Ids are opaque — the verifier only
/// compares them for equality — but must be distinct across every
/// `(space, patch)` pair.
#[derive(Clone, Debug)]
pub struct FabIds {
    /// Per-patch state fab ids.
    pub state: Vec<u64>,
    /// Per-patch RHS-scratch fab ids.
    pub rhs: Vec<u64>,
    /// Per-patch `du` fab ids.
    pub du: Vec<u64>,
}

impl FabIds {
    /// Symbolic ids for the memoized static pass: patch index tagged with a
    /// per-space high bit well clear of patch counts.
    pub fn symbolic(npatches: usize) -> FabIds {
        FabIds {
            state: (0..npatches).map(|i| i as u64).collect(),
            rhs: (0..npatches).map(|i| (1 << 32) | i as u64).collect(),
            du: (0..npatches).map(|i| (2 << 32) | i as u64).collect(),
        }
    }
}

/// The footprint of rank `rank`'s halo task for patch `i`: reads the patch's
/// full box and its locally copied chunk-range sources, writes the ghost
/// shell.
fn halo_footprint(
    plan: &CopyPlan,
    chunk_range: (usize, usize),
    rank: usize,
    i: usize,
    valid: &[IndexBox],
    nghost: i64,
    ids: &FabIds,
) -> Footprint {
    let comp = (0, plan.ncomp);
    let bx = valid[i].grow(nghost);
    let mut fp = Footprint::new(format!("halo[{i}]")).reads(ids.state[i], comp, bx);
    for shell in subtract(bx, valid[i]) {
        fp = fp.writes(ids.state[i], comp, shell);
    }
    let (s, e) = chunk_range;
    for c in &plan.chunks[s..e] {
        // Only locally copied chunks read a source fab; remote chunks
        // arrive as payloads (their ghost writes are already covered by the
        // shell above).
        if c.src_rank == rank {
            fp = fp.reads(ids.state[c.src_id], comp, c.region.shift(-c.shift));
        }
    }
    fp
}

/// The sweep task(s) and the update task of patch `i`, appended in executor
/// insertion order: one whole sweep behind the halo task, or — for a
/// `split` patch — an interior sweep with no dependencies and a
/// boundary-band sweep behind both. `halo_i`, `reader_halos` and
/// `send_deps` are the spec indices of the patch's fences.
#[allow(clippy::too_many_arguments)]
fn sweeps_and_update(
    spec: &mut ScheduleSpec,
    i: usize,
    split: bool,
    valid: &[IndexBox],
    nghost: i64,
    ncomp: usize,
    halo_i: usize,
    reader_halos: &[usize],
    send_deps: &[usize],
    ids: &FabIds,
) {
    let comp = (0, ncomp);
    let bx = valid[i].grow(nghost);
    let ghost_reader = |label: String| {
        Footprint::new(label)
            .reads(ids.state[i], comp, bx)
            .writes(ids.rhs[i], comp, valid[i])
    };
    let swept = if split {
        let interior = spec.add(
            &[],
            Footprint::new(format!("interior[{i}]"))
                .reads(ids.state[i], comp, valid[i])
                .writes(ids.rhs[i], comp, valid[i]),
        );
        spec.add(&[halo_i, interior], ghost_reader(format!("boundary[{i}]")))
    } else {
        spec.add(&[halo_i], ghost_reader(format!("sweep[{i}]")))
    };
    let mut deps = vec![swept];
    deps.extend_from_slice(reader_halos);
    deps.extend_from_slice(send_deps);
    spec.add(
        &deps,
        Footprint::new(format!("update[{i}]"))
            .reads(ids.rhs[i], comp, valid[i])
            .writes(ids.state[i], comp, valid[i])
            .writes(ids.du[i], comp, valid[i]),
    );
}

/// The channel key of the `(src, dst)` rank pair: one halo message per pair
/// per stage, so the pair identifies it.
pub fn channel(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// One rank's slice of the stage graph
/// ([`crate::dist_overlap::run_dist_rk_stage`] with `overlap = true`): one
/// send task and one receive event per peer (with its [`channel`]), then
/// the halo task of every owned patch, then its sweep(s) and update, in
/// executor insertion order.
pub fn dist_rank_schedule(
    plan: &CopyPlan,
    skel: &DistSkeleton,
    valid: &[IndexBox],
    nghost: i64,
    ids: &FabIds,
) -> RankSchedule {
    let comp = (0, plan.ncomp);
    let chunks = &plan.chunks;
    let mut rs = RankSchedule::default();
    let mut send_tasks = Vec::with_capacity(skel.layout.sends.len());
    for msg in &skel.layout.sends {
        let mut fp = Footprint::new(format!("send[{}]", msg.peer));
        for &c in &msg.items {
            let chunk = &chunks[c];
            fp = fp.reads(ids.state[chunk.src_id], comp, chunk.region.shift(-chunk.shift));
        }
        let t = rs.spec.add(&[], fp);
        rs.sends.push((t, channel(skel.rank, msg.peer)));
        send_tasks.push(t);
    }
    let mut recv_events = Vec::with_capacity(skel.layout.recvs.len());
    for msg in &skel.layout.recvs {
        let t = rs.spec.add(&[], Footprint::new(format!("recv[{}]", msg.peer)));
        rs.recvs.push((t, channel(msg.peer, skel.rank)));
        recv_events.push(t);
    }
    let n = valid.len();
    let mut halo = vec![usize::MAX; n];
    for &i in &skel.owned {
        let fp = halo_footprint(plan, skel.chunk_range[i], skel.rank, i, valid, nghost, ids);
        let deps: Vec<usize> = skel.feeds[i].iter().map(|&m| recv_events[m]).collect();
        halo[i] = rs.spec.add(&deps, fp);
    }
    for &i in &skel.owned {
        let reader_halos: Vec<usize> = skel.readers[i].iter().map(|&d| halo[d]).collect();
        let send_deps: Vec<usize> = skel.send_readers[i].iter().map(|&m| send_tasks[m]).collect();
        sweeps_and_update(
            &mut rs.spec,
            i,
            skel.is_split(i),
            valid,
            nghost,
            plan.ncomp,
            halo[i],
            &reader_halos,
            &send_deps,
            ids,
        );
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
    nghost: i64,
) -> VerifyReport {
    let t0 = std::time::Instant::now();
    let ids = FabIds::symbolic(valid.len());
    let ranks: Vec<RankSchedule> = (0..nranks)
        .map(|r| {
            dist_rank_schedule(&fb.plan, &DistSkeleton::build(fb, owner, r), valid, nghost, &ids)
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

/// Asserts the executor-built graph has exactly the spec's dependency
/// structure (labels and footprints aside) — the anti-drift check run by
/// the executor under the `taskcheck` feature: if graph construction and
/// spec derivation ever disagree, the static proof would be about the wrong
/// graph.
pub fn assert_spec_matches(graph: &ScheduleSpec, spec: &ScheduleSpec, what: &str) {
    assert_eq!(
        graph.len(),
        spec.len(),
        "taskcheck drift: {what}: graph has {} tasks, spec {}",
        graph.len(),
        spec.len()
    );
    for i in 0..graph.len() {
        assert_eq!(
            graph.deps(i),
            spec.deps(i),
            "taskcheck drift: {what}: task {i} ('{}') dependency mismatch",
            spec.label(i)
        );
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
        for nranks in [1usize, 2, 4] {
            let (ba, dm, domain) = setup(nranks);
            let cache = PlanCache::new();
            let nghost = 2;
            let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
            let valid = valid_boxes(&ba);
            let report = verify_dist(&fb, dm.owners(), nranks, &valid, nghost);
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
        // Drop one update fence: halo[d] reads patch i while update[i]
        // rewrites it, now unordered.
        let (i, d) = skel
            .readers
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.iter().find(|&&d| d != i).map(|&d| (i, d)))
            .expect("setup must produce a cross-patch reader");
        skel.readers[i].retain(|&x| x != d);
        let valid = valid_boxes(&ba);
        let ids = FabIds::symbolic(valid.len());
        let violations = dist_rank_schedule(&fb.plan, &skel, &valid, nghost, &ids)
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
                    nghost,
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
