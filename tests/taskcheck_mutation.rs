//! Mutation self-test for the taskcheck layer (DESIGN.md §4i): seed a
//! concurrency bug by deleting one dependency edge from a *real* RK-stage
//! skeleton's task list — the list the executor runs and the verifier
//! proves — and prove both detection layers catch it — the static schedule
//! verifier names the exact unordered pair, and (under the `taskcheck`
//! feature) the dynamic race detector traps the same mutation when the
//! graph actually executes. A verifier that cannot see a seeded bug proves
//! nothing about the graphs it declares clean.

use crocco::fab::{
    dist_rank_schedule, BoxArray, DistSkeleton, DistributionMapping, DistributionStrategy, FabIds,
    GhostFootprint, PlanCache, TaskKind,
};
#[cfg(feature = "taskcheck")]
use crocco::fab::{FArrayBox, MultiFab};
use crocco::geometry::decompose::ChopParams;
use crocco::geometry::{IndexBox, ProblemDomain};
use crocco::runtime::taskcheck::{verify_cross_rank, RankSchedule, Violation};
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

/// Deletes one update-fence edge from the task list: `halo[d] → update[s]`
/// with `d != s`. `halo[d]` reads `state[s]`, so the read is left
/// unordered against `update[s]`'s write. Returns the mutated skeleton and
/// `(s, d)`.
fn delete_update_fence(skel: &DistSkeleton) -> (DistSkeleton, usize, usize) {
    for (t, task) in skel.tasks.iter().enumerate() {
        let TaskKind::Update(s) = task.kind else {
            continue;
        };
        for &h in &task.deps {
            if let TaskKind::Halo(d) = skel.tasks[h].kind {
                if d != s {
                    let mut mutated = skel.clone();
                    mutated.tasks[t].deps.retain(|&x| x != h);
                    return (mutated, s, d);
                }
            }
        }
    }
    panic!("plan has no cross-patch reader edge to mutate");
}

#[test]
fn static_verifier_flags_a_deleted_update_fence() {
    let (ba, dm, domain) = setup(1);
    let cache = PlanCache::new();
    let nghost = 2;
    let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
    let valid: Vec<IndexBox> = (0..ba.len()).map(|i| ba.get(i)).collect();

    // The on-node graph: the one-rank skeleton's schedule.
    let ids = FabIds::symbolic(valid.len());
    let violations = |skel: &DistSkeleton| {
        dist_rank_schedule(&fb.plan, skel, &valid, GhostFootprint::Shell(nghost), &ids)
            .spec
            .verify()
            .violations
    };
    let skel = DistSkeleton::build(&fb, dm.owners(), 0);
    assert!(violations(&skel).is_empty(), "unmutated stage skeleton");

    let (mutated, s, d) = delete_update_fence(&skel);
    let found = violations(&mutated);
    assert!(
        !found.is_empty(),
        "deleting the {d}-reads-{s} fence must not verify clean"
    );
    let halo = format!("halo[{d}]");
    let update = format!("update[{s}]");
    assert!(
        found.iter().any(|v| matches!(
            v,
            Violation::UnorderedConflict {
                first_label,
                second_label,
                fab,
                ..
            } if first_label == &halo && second_label == &update && *fab == s as u64
        )),
        "verifier must name the exact pair ({halo}, {update}) on state fab {s}: {found:?}"
    );
}

#[test]
fn static_verifier_flags_a_halo_that_lost_its_receive() {
    let (ba, dm, domain) = setup(2);
    let cache = PlanCache::new();
    let nghost = 2;
    let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
    let valid: Vec<IndexBox> = (0..ba.len()).map(|i| ba.get(i)).collect();
    let ids = FabIds::symbolic(valid.len());
    let violations = |skel: &DistSkeleton| {
        dist_rank_schedule(&fb.plan, skel, &valid, GhostFootprint::Shell(nghost), &ids)
            .spec
            .verify()
            .violations
    };
    let skel = DistSkeleton::build(&fb, dm.owners(), 0);
    assert!(violations(&skel).is_empty(), "unmutated stage skeleton");

    // A split patch: its halo waits on the receives that carry its remote
    // chunks. Strip those edges — the unpack now reads a message that may
    // not have landed.
    let (t, i) = skel
        .tasks
        .iter()
        .enumerate()
        .find_map(|(t, task)| match task.kind {
            TaskKind::Halo(i) if !task.deps.is_empty() => Some((t, i)),
            _ => None,
        })
        .expect("a two-rank plan must split a patch across ranks");
    let mut mutated = skel.clone();
    let recvs = std::mem::take(&mut mutated.tasks[t].deps);
    let found = violations(&mutated);
    let halo = format!("halo[{i}]");
    for r in recvs {
        let TaskKind::Recv(m) = skel.tasks[r].kind else {
            panic!("a halo task waits on receive events only");
        };
        let recv = format!("recv[{}]", skel.layout.recvs[m].peer);
        assert!(
            found.iter().any(|v| matches!(
                v,
                Violation::UnorderedConflict {
                    first_label,
                    second_label,
                    fab,
                    ..
                } if first_label == &recv && second_label == &halo && *fab == ids.inbox[m]
            )),
            "verifier must name the pair ({recv}, {halo}) on inbox message {m}: {found:?}"
        );
    }
}

#[test]
fn cross_rank_verifier_flags_a_deleted_send() {
    let (ba, dm, domain) = setup(2);
    let cache = PlanCache::new();
    let nghost = 2;
    let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, 2);
    let valid: Vec<IndexBox> = (0..ba.len()).map(|i| ba.get(i)).collect();
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
    assert!(verify_cross_rank(&ranks).is_empty(), "unmutated ranks clean");

    // Drop one send's channel registration: the matching recv now waits on
    // a message nobody sends — the lost-wakeup shape.
    let r = ranks
        .iter()
        .position(|rs| !rs.sends.is_empty())
        .expect("a two-rank plan must cross the rank boundary");
    let (_, chan) = ranks[r].sends.pop().expect("sends nonempty");
    let violations = verify_cross_rank(&ranks);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::ChannelMismatch {
                chan: c,
                sends: 0,
                recvs: 1
            } if *c == chan
        )),
        "tag-completeness must flag channel {chan}: {violations:?}"
    );
}

/// The dynamic backstop catches the same seeded bug at runtime: the mutated
/// task list drives a real executor run, and the race tracker flags the
/// executed-but-unordered halo read vs. state update. Feature-gated — with
/// `taskcheck` off the recorder compiles to nothing.
#[cfg(feature = "taskcheck")]
#[test]
fn dynamic_detector_traps_the_same_mutation_at_runtime() {
    use crocco::fab::{run_dist_rk_stage, DistStage, StageFabs};
    use crocco::runtime::{GroupEndpoint, RankEndpoint, Schedule};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (ba, dm, domain) = setup(1);
    let cache = PlanCache::new();
    let nghost = 2;
    let ncomp = 2;
    let fb = cache.fill_boundary(&ba, &dm, &domain, nghost, ncomp);
    let skel = DistSkeleton::build(&fb, dm.owners(), 0);
    let (mutated, ..) = delete_update_fence(&skel);

    let run = |skel: &DistSkeleton| {
        let mut state = MultiFab::new(ba.clone(), dm.clone(), ncomp, nghost);
        let mut du = MultiFab::new(ba.clone(), dm.clone(), ncomp, 0);
        let mut rhs: Vec<FArrayBox> = (0..ba.len())
            .map(|i| FArrayBox::new(ba.get(i), ncomp))
            .collect();
        let solo = RankEndpoint::solo();
        let gep = GroupEndpoint::full(&solo);
        let st = DistStage {
            ep: &gep,
            level: 0,
            epoch: 0,
            overlap: true,
            sched: Schedule::adversarial(0),
            ghosts: GhostFootprint::Shell(nghost),
        };
        run_dist_rk_stage(
            StageFabs {
                state: &mut state,
                du: &mut du,
                rhs: &mut rhs,
            },
            &fb,
            skel,
            &st,
            &[],
            &|_, _| {},
            &|_, _| {},
            &|_, _, _, _| {},
            &|_, _, _, _| {},
        )
        .expect("stage failed");
    };

    // Control: the honest skeleton executes clean.
    run(&skel);

    let err = catch_unwind(AssertUnwindSafe(|| run(&mutated)))
        .expect_err("mutated skeleton must trap at runtime");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("taskcheck"), "unexpected panic message: {msg}");
}
