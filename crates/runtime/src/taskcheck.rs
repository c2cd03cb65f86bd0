//! Static schedule verification and dynamic race detection for the
//! task-graph runtime (DESIGN.md §4i).
//!
//! The RK-stage graphs built by the fab layer ([`crate::taskgraph`]) are
//! hand-wired: every happens-before edge exists because the author reasoned
//! about which task touches which cells. A single missing edge is a silent
//! data race that the fab sanitizer (which guards *data*, not *schedules*)
//! cannot see. This module makes the reasoning checkable:
//!
//! * **Footprints** — each task may declare the `(fab id, component range,
//!   box)` regions it reads and writes ([`Footprint`]). The fab executors
//!   derive them from the same plan regions they already copy.
//! * **Static verifier** — [`ScheduleSpec::verify`] computes graph
//!   reachability (bitset transitive closure) and proves every conflicting
//!   task pair (W∩W or R∩W on geometrically overlapping regions) is ordered
//!   by a happens-before path. [`verify_cross_rank`] extends the proof to
//!   distributed skeletons: every receive event has exactly one matching
//!   send across ranks (tag-completeness — a lost wakeup is a hang), and the
//!   cross-rank union of the per-rank DAGs plus send→recv edges is acyclic.
//! * **Dynamic backstop** — in the `check` build (the `check` cargo
//!   feature), the executor timestamps every task with its reachability set (a vector
//!   clock over the graph) and the fab views record the regions they
//!   *actually* touch; at graph completion, unordered overlapping accesses
//!   and under-declared footprints panic with both task labels and the
//!   offending box. This catches what the static pass must trust: that
//!   declared footprints are honest.
//!
//! Violations are typed ([`Violation`]) and name both tasks and the box, so
//! a broken skeleton fails loudly at first verification, not as a flaky
//! bitwise divergence three PRs later.

use crocco_geometry::IndexBox;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// How a task touches a declared region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The task only reads the region.
    Read,
    /// The task writes (or reads and writes) the region.
    Write,
}

/// One declared region of a task's footprint: a fab identity, a component
/// range `[comp.0, comp.1)`, and a cell box.
///
/// Fab ids are opaque `u64`s — the static spec builders use symbolic ids
/// (space tag + patch index) while the dynamic detector keys on allocation
/// base pointers; the verifier only ever compares ids for equality.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    /// Opaque fab identity.
    pub fab: u64,
    /// Half-open component range.
    pub comp: (usize, usize),
    /// The cells touched.
    pub bx: IndexBox,
}

impl Region {
    /// `true` when the two regions touch a common (fab, component, cell).
    pub fn overlaps(&self, other: &Region) -> bool {
        self.fab == other.fab
            && self.comp.0 < other.comp.1
            && other.comp.0 < self.comp.1
            && self.bx.intersects(&other.bx)
    }
}

/// The declared data footprint of one task: a label for diagnostics plus
/// the regions it reads and writes.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// Human-readable task name (e.g. `halo[3]`), used in diagnostics.
    pub label: String,
    accesses: Vec<(Access, Region)>,
}

impl Footprint {
    /// An empty footprint carrying only a diagnostic label.
    pub fn new(label: impl Into<String>) -> Self {
        Footprint {
            label: label.into(),
            accesses: Vec::new(),
        }
    }

    /// Adds a read region (builder style). Empty boxes are dropped.
    pub fn reads(mut self, fab: u64, comp: (usize, usize), bx: IndexBox) -> Self {
        if !bx.is_empty() {
            self.accesses.push((Access::Read, Region { fab, comp, bx }));
        }
        self
    }

    /// Adds a written region (builder style). Empty boxes are dropped.
    pub fn writes(mut self, fab: u64, comp: (usize, usize), bx: IndexBox) -> Self {
        if !bx.is_empty() {
            self.accesses.push((Access::Write, Region { fab, comp, bx }));
        }
        self
    }

    /// The declared accesses.
    pub fn accesses(&self) -> &[(Access, Region)] {
        &self.accesses
    }

    /// `true` when no region is declared.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// A typed schedule-soundness violation, naming the tasks and the offending
/// box — what [`ScheduleSpec::verify`] and [`verify_cross_rank`] report.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two tasks with conflicting declared regions (at least one write, on
    /// a geometric overlap) have no happens-before path between them.
    UnorderedConflict {
        /// Index of the earlier-inserted task.
        first: usize,
        /// Its diagnostic label.
        first_label: String,
        /// Index of the later-inserted task.
        second: usize,
        /// Its diagnostic label.
        second_label: String,
        /// The fab both regions belong to.
        fab: u64,
        /// The overlapping cells.
        bx: IndexBox,
    },
    /// A communication channel (tag) is not matched one-to-one across the
    /// ranks: a receive with no (or several) sends is a lost wakeup — the
    /// receiving rank hangs; a send with no receive is silent data loss.
    ChannelMismatch {
        /// The channel key (the `(src, dst)` rank pair on the halo path).
        chan: u64,
        /// How many tasks send on this channel, across all ranks.
        sends: usize,
        /// How many events receive on this channel, across all ranks.
        recvs: usize,
    },
    /// The union of the per-rank DAGs and the matched send→recv edges
    /// contains a cycle: every listed task waits (transitively) on itself.
    CrossRankCycle {
        /// `(rank, task label)` of tasks on the cycle (capped for brevity).
        tasks: Vec<(usize, String)>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnorderedConflict {
                first,
                first_label,
                second,
                second_label,
                fab,
                bx,
            } => write!(
                f,
                "unordered conflicting accesses: task {first} ('{first_label}') and task \
                 {second} ('{second_label}') both touch fab {fab:#x} over {bx:?} with no \
                 happens-before path"
            ),
            Violation::ChannelMismatch { chan, sends, recvs } => write!(
                f,
                "channel {chan} is not matched one-to-one: {sends} send(s), {recvs} \
                 receive(s) across the ranks"
            ),
            Violation::CrossRankCycle { tasks } => {
                write!(f, "cross-rank wait cycle through:")?;
                for (r, l) in tasks {
                    write!(f, " rank{r}:'{l}'")?;
                }
                Ok(())
            }
        }
    }
}

/// The outcome of one static verification pass.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// Every violation found (empty ⇔ the schedule is proven race-free with
    /// respect to its declared footprints).
    pub violations: Vec<Violation>,
    /// Number of potentially-conflicting region pairs that were checked
    /// against the happens-before relation.
    pub pairs_checked: u64,
}

/// A pure description of a task graph — per-task dependency lists and
/// declared footprints — decoupled from the closures that execute it, so it
/// can be derived from a skeleton once, verified, and memoized.
///
/// Dependencies must point backwards (`dep < task index`), mirroring the
/// acyclic-by-construction invariant of [`crate::taskgraph::TaskGraph`].
#[derive(Clone, Debug, Default)]
pub struct ScheduleSpec {
    tasks: Vec<SpecTask>,
}

#[derive(Clone, Debug)]
struct SpecTask {
    deps: Vec<usize>,
    fp: Footprint,
}

impl ScheduleSpec {
    /// An empty spec.
    pub fn new() -> Self {
        ScheduleSpec::default()
    }

    /// Appends a task with the given dependencies and footprint; returns its
    /// index. Dependencies are sorted and deduplicated.
    ///
    /// # Panics
    /// Panics if any dependency does not reference an earlier task.
    pub fn add(&mut self, deps: &[usize], fp: Footprint) -> usize {
        let idx = self.tasks.len();
        let mut deps = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        assert!(
            deps.last().is_none_or(|&d| d < idx),
            "spec dependencies must point backwards"
        );
        self.tasks.push(SpecTask { deps, fp });
        idx
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The (sorted, deduplicated) dependency list of task `i`.
    pub fn deps(&self, i: usize) -> &[usize] {
        &self.tasks[i].deps
    }

    /// The diagnostic label of task `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.tasks[i].fp.label
    }

    /// The declared footprint of task `i`.
    pub fn footprint(&self, i: usize) -> &Footprint {
        &self.tasks[i].fp
    }

    /// Proves (or refutes) that every pair of conflicting declared accesses
    /// is ordered by a happens-before path: the static core of taskcheck.
    ///
    /// Reachability is a bitset transitive closure (one pass, since deps
    /// point backwards); conflicts are enumerated per fab id so unrelated
    /// fabs never meet. Soundness and completeness against a brute-force
    /// oracle are property-tested below.
    pub fn verify(&self) -> Verification {
        let anc = ancestor_closure(&self.dep_lists());
        // Bucket every declared access by fab id.
        let mut by_fab: HashMap<u64, Vec<(usize, Access, Region)>> = HashMap::new();
        for (t, task) in self.tasks.iter().enumerate() {
            for &(a, r) in &task.fp.accesses {
                by_fab.entry(r.fab).or_default().push((t, a, r));
            }
        }
        let mut violations = Vec::new();
        let mut pairs_checked = 0u64;
        let mut seen_pairs: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        let mut fabs: Vec<&u64> = by_fab.keys().collect();
        fabs.sort_unstable();
        for fab in fabs {
            let accs = &by_fab[fab];
            for (i, &(ta, aa, ra)) in accs.iter().enumerate() {
                for &(tb, ab, rb) in &accs[i + 1..] {
                    if ta == tb || (aa == Access::Read && ab == Access::Read) {
                        continue;
                    }
                    if !ra.overlaps(&rb) {
                        continue;
                    }
                    pairs_checked += 1;
                    if ordered(&anc, ta, tb) {
                        continue;
                    }
                    let (first, second) = if ta < tb { (ta, tb) } else { (tb, ta) };
                    if seen_pairs.insert((first, second)) {
                        violations.push(Violation::UnorderedConflict {
                            first,
                            first_label: self.label(first).to_string(),
                            second,
                            second_label: self.label(second).to_string(),
                            fab: *fab,
                            bx: ra.bx.intersection(&rb.bx),
                        });
                    }
                }
            }
        }
        violations.sort_by_key(|v| match v {
            Violation::UnorderedConflict { first, second, .. } => (*first, *second),
            _ => (usize::MAX, usize::MAX),
        });
        Verification {
            violations,
            pairs_checked,
        }
    }

    fn dep_lists(&self) -> Vec<&[usize]> {
        self.tasks.iter().map(|t| t.deps.as_slice()).collect()
    }
}

/// One rank's slice of a distributed schedule: its task spec plus which of
/// its tasks send and which of its event tasks receive on each channel key
/// (the plan chunk index on the halo path).
#[derive(Clone, Debug, Default)]
pub struct RankSchedule {
    /// The rank-local task DAG with footprints.
    pub spec: ScheduleSpec,
    /// `(task index, channel)` for every sending task.
    pub sends: Vec<(usize, u64)>,
    /// `(task index, channel)` for every receiving event task.
    pub recvs: Vec<(usize, u64)>,
}

/// Proves the cross-rank soundness of a distributed schedule: every channel
/// is matched one-to-one (tag-completeness — a receive with no send is a
/// lost-wakeup hang, caught *before* execution), and the union of per-rank
/// DAGs plus matched send→recv edges is acyclic (Kahn's algorithm).
pub fn verify_cross_rank(ranks: &[RankSchedule]) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Channel tally across all ranks: `(rank, task)` senders and receivers.
    type ChannelTally = (Vec<(usize, usize)>, Vec<(usize, usize)>);
    let mut chans: BTreeMap<u64, ChannelTally> = BTreeMap::new();
    for (r, rs) in ranks.iter().enumerate() {
        for &(t, c) in &rs.sends {
            chans.entry(c).or_default().0.push((r, t));
        }
        for &(t, c) in &rs.recvs {
            chans.entry(c).or_default().1.push((r, t));
        }
    }
    for (&chan, (sends, recvs)) in &chans {
        if sends.len() != 1 || recvs.len() != 1 {
            violations.push(Violation::ChannelMismatch {
                chan,
                sends: sends.len(),
                recvs: recvs.len(),
            });
        }
    }
    // Kahn over the union graph: per-rank dependency edges plus one
    // send→recv edge per exactly-matched channel.
    let offsets: Vec<usize> = ranks
        .iter()
        .scan(0usize, |acc, rs| {
            let o = *acc;
            *acc += rs.spec.len();
            Some(o)
        })
        .collect();
    let total: usize = ranks.iter().map(|rs| rs.spec.len()).sum();
    let mut indeg = vec![0usize; total];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (r, rs) in ranks.iter().enumerate() {
        for t in 0..rs.spec.len() {
            let node = offsets[r] + t;
            for &d in rs.spec.deps(t) {
                succs[offsets[r] + d].push(node);
                indeg[node] += 1;
            }
        }
    }
    for (sends, recvs) in chans.values() {
        if let (&[(sr, st)], &[(rr, rt)]) = (sends.as_slice(), recvs.as_slice()) {
            succs[offsets[sr] + st].push(offsets[rr] + rt);
            indeg[offsets[rr] + rt] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..total).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop() {
        done += 1;
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if done < total {
        let mut tasks = Vec::new();
        for (r, rs) in ranks.iter().enumerate() {
            for t in 0..rs.spec.len() {
                if indeg[offsets[r] + t] > 0 && tasks.len() < 8 {
                    tasks.push((r, rs.spec.label(t).to_string()));
                }
            }
        }
        violations.push(Violation::CrossRankCycle { tasks });
    }
    violations
}

/// Ancestor bitsets: `anc[i]` has bit `j` set iff task `j` happens-before
/// task `i`. One pass suffices because dependencies point backwards.
fn ancestor_closure(deps: &[&[usize]]) -> Vec<Vec<u64>> {
    let n = deps.len();
    let words = n.div_ceil(64);
    let mut anc = vec![vec![0u64; words]; n];
    for (i, deps_i) in deps.iter().enumerate() {
        for &d in *deps_i {
            // anc[i] |= anc[d]; anc[i] |= {d}
            let (head, tail) = anc.split_at_mut(i);
            for (w, &a) in tail[0].iter_mut().zip(&head[d]) {
                *w |= a;
            }
            tail[0][d / 64] |= 1u64 << (d % 64);
        }
    }
    anc
}

/// `true` when a happens-before path orders `a` and `b` (either direction).
fn ordered(anc: &[Vec<u64>], a: usize, b: usize) -> bool {
    anc[a][b / 64] & (1u64 << (b % 64)) != 0 || anc[b][a / 64] & (1u64 << (a % 64)) != 0
}

/// Records that the currently-executing graph task touched `bx` of the fab
/// identified by `fab` (the fab layer passes the allocation base pointer).
///
/// Outside the `check` build this is a no-op that the compiler
/// removes entirely; with it on, the access lands in the running graph's
/// race tracker (no-op outside a graph task, e.g. on the barrier path).
/// Only fabs declared by at least one of the graph's footprints are kept:
/// accesses to anything else — task-local temporaries, another AMR level's
/// fabs quiescent for the whole stage — are out of the schedule's scope and
/// are discarded rather than reported as under-declarations.
#[cfg(not(feature = "check"))]
#[inline(always)]
pub fn record_access(_fab: u64, _write: bool, _bx: IndexBox) {}

#[cfg(feature = "check")]
pub use dynamic::record_access;

#[cfg(feature = "check")]
pub(crate) use dynamic::{RunTracker, TaskScope};

/// The dynamic backstop: reachability "vector clocks" per task plus a
/// thread-local recorder the fab views feed. Compiled only in the `check`
/// build.
#[cfg(feature = "check")]
mod dynamic {
    use super::{ancestor_closure, ordered, Access, Footprint};
    use crocco_geometry::IndexBox;
    use std::cell::RefCell;
    use std::sync::{Arc, Mutex};

    /// Per-run race tracker: the graph's happens-before closure, declared
    /// footprints, and every region the tasks actually touched.
    pub(crate) struct RunTracker {
        anc: Vec<Vec<u64>>,
        footprints: Vec<Footprint>,
        /// Every fab id some footprint declares, sorted. The detector checks
        /// only these: an access to a fab *no* task declares is out-of-graph
        /// data the schedule does not arbitrate — task-local temporaries
        /// (whose heap addresses can be reused across unordered tasks,
        /// which would read as a race) or another level's fabs, quiescent
        /// for this graph's whole run by the driver's level-advance
        /// structure rather than by edges of this graph.
        known: Vec<u64>,
        recs: Mutex<Vec<Rec>>,
    }

    /// One task's coalesced touches of one fab.
    struct Rec {
        task: usize,
        fab: u64,
        write: bool,
        boxes: Vec<IndexBox>,
    }

    struct Recorder {
        tracker: Arc<RunTracker>,
        task: usize,
        entries: Vec<(u64, bool, Vec<IndexBox>)>,
    }

    thread_local! {
        static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    }

    /// RAII guard marking the current thread as executing graph task
    /// `task`; dropping it (including during unwind) flushes the recorded
    /// accesses into the tracker.
    pub(crate) struct TaskScope;

    impl TaskScope {
        pub(crate) fn enter(tracker: &Arc<RunTracker>, task: usize) -> TaskScope {
            CURRENT.with(|c| {
                let mut c = c.borrow_mut();
                debug_assert!(c.is_none(), "nested graph task scopes");
                *c = Some(Recorder {
                    tracker: Arc::clone(tracker),
                    task,
                    entries: Vec::new(),
                });
            });
            TaskScope
        }
    }

    impl Drop for TaskScope {
        fn drop(&mut self) {
            let rec = CURRENT.with(|c| c.borrow_mut().take());
            if let Some(rec) = rec {
                let mut recs = rec.tracker.recs.lock().expect("taskcheck recs poisoned");
                for (fab, write, boxes) in rec.entries {
                    // Accesses to fabs no footprint declares are out of this
                    // graph's scope (see `RunTracker::known`).
                    if rec.tracker.known.binary_search(&fab).is_err() {
                        continue;
                    }
                    recs.push(Rec {
                        task: rec.task,
                        fab,
                        write,
                        boxes,
                    });
                }
            }
        }
    }

    /// See the feature-off stub for the contract.
    #[inline]
    pub fn record_access(fab: u64, write: bool, bx: IndexBox) {
        if bx.is_empty() {
            return;
        }
        CURRENT.with(|c| {
            let mut c = c.borrow_mut();
            let Some(rec) = c.as_mut() else { return };
            if let Some((_, _, boxes)) = rec
                .entries
                .iter_mut()
                .find(|(f, w, _)| *f == fab && *w == write)
            {
                push_coalesced(boxes, bx);
            } else {
                rec.entries.push((fab, write, vec![bx]));
            }
        });
    }

    /// Appends `b`, merging with recent boxes where the union stays a box —
    /// per-cell `get`/`set` streams collapse into rows and rows into slabs,
    /// keeping the record compact *and exact* (a bounding box would
    /// over-approximate a ghost shell into the valid region and report
    /// false races).
    fn push_coalesced(boxes: &mut Vec<IndexBox>, b: IndexBox) {
        for prev in boxes.iter().rev().take(8) {
            if prev.contains_box(&b) {
                return;
            }
        }
        if let Some(last) = boxes.last_mut() {
            if let Some(m) = box_union(*last, b) {
                *last = m;
                // A row completing a slab may now merge with its predecessor.
                if boxes.len() >= 2 {
                    let m = boxes[boxes.len() - 1];
                    let p = boxes[boxes.len() - 2];
                    if let Some(m2) = box_union(p, m) {
                        boxes.pop();
                        *boxes.last_mut().expect("nonempty") = m2;
                    }
                }
                return;
            }
        }
        boxes.push(b);
    }

    /// The union of two boxes when it is itself a box (equal extents on all
    /// axes but one, overlapping or adjacent on that one).
    fn box_union(a: IndexBox, b: IndexBox) -> Option<IndexBox> {
        let mut diff = None;
        for dir in 0..3 {
            if a.lo()[dir] != b.lo()[dir] || a.hi()[dir] != b.hi()[dir] {
                if diff.is_some() {
                    return None;
                }
                diff = Some(dir);
            }
        }
        let Some(dir) = diff else { return Some(a) };
        if a.lo()[dir] > b.hi()[dir] + 1 || b.lo()[dir] > a.hi()[dir] + 1 {
            return None;
        }
        let mut lo = a.lo();
        let mut hi = a.hi();
        lo[dir] = lo[dir].min(b.lo()[dir]);
        hi[dir] = hi[dir].max(b.hi()[dir]);
        Some(IndexBox::new(lo, hi))
    }

    impl RunTracker {
        pub(crate) fn new(deps: Vec<Vec<usize>>, footprints: Vec<Footprint>) -> Arc<RunTracker> {
            let dep_refs: Vec<&[usize]> = deps.iter().map(|d| d.as_slice()).collect();
            let mut known: Vec<u64> = footprints
                .iter()
                .flat_map(|fp| fp.accesses().iter().map(|&(_, reg)| reg.fab))
                .collect();
            known.sort_unstable();
            known.dedup();
            Arc::new(RunTracker {
                anc: ancestor_closure(&dep_refs),
                footprints,
                known,
                recs: Mutex::new(Vec::new()),
            })
        }

        fn label(&self, t: usize) -> String {
            let l = &self.footprints[t].label;
            if l.is_empty() {
                format!("task {t}")
            } else {
                format!("'{l}'")
            }
        }

        /// Post-run audit: panics on any unordered pair of overlapping
        /// recorded accesses with at least one write (a race that *actually
        /// executed*), and on any recorded access escaping its task's
        /// declared footprint (an under-declaration the static pass would
        /// have trusted).
        pub(crate) fn check(&self) {
            let recs = self.recs.lock().expect("taskcheck recs poisoned");
            for (i, a) in recs.iter().enumerate() {
                for b in &recs[i + 1..] {
                    if a.task == b.task || a.fab != b.fab || !(a.write || b.write) {
                        continue;
                    }
                    if ordered(&self.anc, a.task, b.task) {
                        continue;
                    }
                    for ba in &a.boxes {
                        for bb in &b.boxes {
                            assert!(
                                !ba.intersects(bb),
                                "taskcheck: dynamic race: {} and {} both touched {:?} of fab \
                                 {:#x} with no happens-before path",
                                self.label(a.task),
                                self.label(b.task),
                                ba.intersection(bb),
                                a.fab,
                            );
                        }
                    }
                }
            }
            for r in recs.iter() {
                let fp = &self.footprints[r.task];
                if fp.is_empty() {
                    continue;
                }
                for bx in &r.boxes {
                    let mut rest = vec![*bx];
                    for &(acc, reg) in fp.accesses() {
                        if reg.fab != r.fab || (r.write && acc == Access::Read) {
                            continue;
                        }
                        let mut next = Vec::with_capacity(rest.len());
                        for b in rest {
                            b.subtract(reg.bx, &mut next);
                        }
                        rest = next;
                        if rest.is_empty() {
                            break;
                        }
                    }
                    assert!(
                        rest.is_empty(),
                        "taskcheck: under-declared footprint: {} {} {:?} of fab {:#x} outside \
                         its declared regions",
                        self.label(r.task),
                        if r.write { "wrote" } else { "read" },
                        rest.first(),
                        r.fab,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_geometry::IntVect;
    use proptest::prelude::*;

    fn bx(lo: [i64; 3], hi: [i64; 3]) -> IndexBox {
        IndexBox::new(
            IntVect::new(lo[0], lo[1], lo[2]),
            IntVect::new(hi[0], hi[1], hi[2]),
        )
    }

    #[test]
    fn ordered_conflicts_verify_clean() {
        let mut s = ScheduleSpec::new();
        let w = s.add(
            &[],
            Footprint::new("writer").writes(0, (0, 2), bx([0, 0, 0], [3, 3, 3])),
        );
        s.add(
            &[w],
            Footprint::new("reader").reads(0, (0, 2), bx([1, 1, 1], [2, 2, 2])),
        );
        let v = s.verify();
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert_eq!(v.pairs_checked, 1);
    }

    #[test]
    fn unordered_write_read_is_flagged_with_the_box() {
        let mut s = ScheduleSpec::new();
        s.add(
            &[],
            Footprint::new("writer").writes(7, (0, 1), bx([0, 0, 0], [3, 3, 3])),
        );
        s.add(
            &[],
            Footprint::new("reader").reads(7, (0, 1), bx([2, 0, 0], [5, 3, 3])),
        );
        let v = s.verify();
        assert_eq!(v.violations.len(), 1);
        assert_eq!(
            v.violations[0],
            Violation::UnorderedConflict {
                first: 0,
                first_label: "writer".into(),
                second: 1,
                second_label: "reader".into(),
                fab: 7,
                bx: bx([2, 0, 0], [3, 3, 3]),
            }
        );
    }

    #[test]
    fn disjoint_and_read_read_pairs_are_not_conflicts() {
        let mut s = ScheduleSpec::new();
        s.add(
            &[],
            Footprint::new("a")
                .writes(0, (0, 1), bx([0, 0, 0], [1, 1, 1]))
                .reads(1, (0, 1), bx([0, 0, 0], [9, 9, 9])),
        );
        s.add(
            &[],
            Footprint::new("b")
                .writes(0, (0, 1), bx([2, 0, 0], [3, 1, 1]))
                .reads(1, (0, 1), bx([0, 0, 0], [9, 9, 9])),
        );
        // Different components never conflict either.
        s.add(
            &[],
            Footprint::new("c").writes(0, (1, 2), bx([0, 0, 0], [1, 1, 1])),
        );
        assert!(s.verify().violations.is_empty());
    }

    #[test]
    fn transitive_ordering_counts() {
        // 0 -> 1 -> 2; 0 and 2 conflict but are ordered through 1.
        let mut s = ScheduleSpec::new();
        let a = s.add(
            &[],
            Footprint::new("a").writes(0, (0, 1), bx([0, 0, 0], [3, 3, 3])),
        );
        let b = s.add(&[a], Footprint::new("b"));
        s.add(
            &[b],
            Footprint::new("c").writes(0, (0, 1), bx([0, 0, 0], [3, 3, 3])),
        );
        assert!(s.verify().violations.is_empty());
    }

    /// The dynamic backstop's coverage check subtracts declared boxes from
    /// touched ones; a halo task's ghost shell (full box minus valid box)
    /// must come out as disjoint pieces covering exactly the shell.
    #[test]
    fn subtract_partitions_the_ghost_shell() {
        let outer = bx([-2, -2, -2], [9, 9, 9]);
        let inner = bx([0, 0, 0], [7, 7, 7]);
        let mut shell = Vec::new();
        outer.subtract(inner, &mut shell);
        let total: u64 = shell.iter().map(|b| b.num_points()).sum();
        assert_eq!(total, outer.num_points() - inner.num_points());
        for (i, a) in shell.iter().enumerate() {
            assert!(!a.intersects(&inner));
            for b in &shell[i + 1..] {
                assert!(!a.intersects(b), "{a:?} overlaps {b:?}");
            }
        }
        // Disjoint cut returns the original box; covering cut returns none.
        let mut out = Vec::new();
        inner.subtract(bx([20, 0, 0], [21, 1, 1]), &mut out);
        assert_eq!(out, vec![inner]);
        out.clear();
        inner.subtract(outer, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn channel_mismatches_are_flagged() {
        let mut a = RankSchedule::default();
        let s0 = a.spec.add(&[], Footprint::new("send[0]"));
        a.sends.push((s0, 0));
        let mut b = RankSchedule::default();
        let r0 = b.spec.add(&[], Footprint::new("recv[0]"));
        let r1 = b.spec.add(&[], Footprint::new("recv[1]"));
        b.recvs.push((r0, 0));
        b.recvs.push((r1, 1)); // no matching send: a lost wakeup
        let v = verify_cross_rank(&[a, b]);
        assert_eq!(
            v,
            vec![Violation::ChannelMismatch {
                chan: 1,
                sends: 0,
                recvs: 1
            }]
        );
    }

    #[test]
    fn cross_rank_cycles_are_detected() {
        // rank0: recv(1) -> send(0); rank1: recv(0) -> send(1) — a classic
        // cross-rank deadlock that each rank's DAG alone cannot see.
        let mut a = RankSchedule::default();
        let ar = a.spec.add(&[], Footprint::new("recv[1]"));
        let as_ = a.spec.add(&[ar], Footprint::new("send[0]"));
        a.recvs.push((ar, 1));
        a.sends.push((as_, 0));
        let mut b = RankSchedule::default();
        let br = b.spec.add(&[], Footprint::new("recv[0]"));
        let bs = b.spec.add(&[br], Footprint::new("send[1]"));
        b.recvs.push((br, 0));
        b.sends.push((bs, 1));
        let v = verify_cross_rank(&[a, b]);
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::CrossRankCycle { tasks } if tasks.len() == 4));
    }

    #[test]
    fn matched_channels_and_dag_verify_clean() {
        let mut a = RankSchedule::default();
        let s0 = a.spec.add(&[], Footprint::new("send[0]"));
        a.sends.push((s0, 0));
        let mut b = RankSchedule::default();
        let r0 = b.spec.add(&[], Footprint::new("recv[0]"));
        b.spec.add(&[r0], Footprint::new("halo"));
        b.recvs.push((r0, 0));
        assert!(verify_cross_rank(&[a, b]).is_empty());
    }

    /// Brute-force oracle: all conflicting pairs by direct region scan, all
    /// ordered pairs by DFS. Deliberately index-style — it should read as
    /// the definition, not as an optimized implementation.
    #[allow(clippy::needless_range_loop)]
    fn oracle_unordered_conflicts(s: &ScheduleSpec) -> Vec<(usize, usize)> {
        let n = s.len();
        let mut reach = vec![vec![false; n]; n];
        for i in 0..n {
            // DFS ancestors of i.
            let mut stack: Vec<usize> = s.deps(i).to_vec();
            while let Some(d) = stack.pop() {
                if !reach[i][d] {
                    reach[i][d] = true;
                    stack.extend_from_slice(s.deps(d));
                }
            }
        }
        let mut out = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let conflict = s.footprint(a).accesses().iter().any(|&(aa, ra)| {
                    s.footprint(b).accesses().iter().any(|&(ab, rb)| {
                        (aa == Access::Write || ab == Access::Write) && ra.overlaps(&rb)
                    })
                });
                if conflict && !reach[a][b] && !reach[b][a] {
                    out.push((a, b));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bitset verifier flags exactly the pairs a brute-force
        /// pairwise oracle flags: sound (no false negatives) and complete
        /// (no false positives).
        #[test]
        fn verifier_matches_brute_force_oracle(
            raw_deps in prop::collection::vec(prop::collection::vec(any::<usize>(), 0..3), 1..24),
            raw_accs in prop::collection::vec(
                prop::collection::vec(
                    (0u64..3, any::<bool>(), 0i64..6, 1i64..4, 0usize..2),
                    0..3,
                ),
                1..24,
            ),
        ) {
            let mut s = ScheduleSpec::new();
            for (i, d) in raw_deps.iter().enumerate() {
                let deps: Vec<usize> = if i == 0 {
                    Vec::new()
                } else {
                    d.iter().map(|&r| r % i).collect()
                };
                let mut fp = Footprint::new(format!("t{i}"));
                for &(fab, write, lo, len, comp) in
                    raw_accs.get(i).map(Vec::as_slice).unwrap_or(&[])
                {
                    let b = bx([lo, 0, 0], [lo + len - 1, 1, 1]);
                    fp = if write {
                        fp.writes(fab, (comp, comp + 1), b)
                    } else {
                        fp.reads(fab, (comp, comp + 1), b)
                    };
                }
                s.add(&deps, fp);
            }
            let got: Vec<(usize, usize)> = s
                .verify()
                .violations
                .iter()
                .filter_map(|v| match v {
                    Violation::UnorderedConflict { first, second, .. } => Some((*first, *second)),
                    _ => None,
                })
                .collect();
            let want = oracle_unordered_conflicts(&s);
            prop_assert_eq!(got, want);
        }
    }
}
