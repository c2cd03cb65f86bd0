//! A small dependency-tracking task executor — the one on-node executor.
//!
//! Work is submitted as *tasks* with explicit predecessor handles, and a
//! pool of workers drains whatever is ready — there is no barrier between
//! phases. The fab layer runs every RK stage as one graph built from the
//! skeleton its cached communication plans derive, so a patch's
//! boundary-band sweep waits only for *its own* halo task while interior
//! sweeps of every patch start immediately (the comm/compute overlap of
//! task-based AMR runtimes, arXiv:2508.05020, and STREAmS-2,
//! arXiv:2304.05494). [`crate::pool`]'s fork-join loops are graphs without
//! edges on the same runner.
//!
//! Design points:
//!
//! * **Acyclic by construction.** A task's dependencies are handles returned
//!   by earlier `add_task` calls, so a dependency's index is always smaller
//!   than the dependent's — no cycle detection is needed at run time, and
//!   insertion order is a valid topological order.
//! * **Epoch-checked handles.** Every graph draws a process-unique id;
//!   handles remember it and `add_task` panics on a handle minted by a
//!   different graph (a cheap sanitizer-style assertion that catches
//!   accidentally-reused handles across stages).
//! * **Panic propagation.** A panicking task aborts the drain; the first
//!   payload is re-thrown from [`TaskGraph::run`] on the caller's thread,
//!   unchanged — so a panicking body of a fork-join loop panics its caller
//!   with its own message.
//! * **One runner.** Every schedule drains one ready set under one mutex,
//!   whose `pop` is the schedule. The calling thread is a worker and the
//!   only thread that pumps progress and polls events — between jobs,
//!   events first — and a pool of `threads` adds `threads − 1` helpers that
//!   only pop and run jobs. One-thread pools and the adversarial schedules
//!   spawn nothing: the caller alone takes the lowest-index ready job
//!   (insertion order whenever no event is pending), or the adversarial
//!   pick.

use crate::cluster::CommError;
use crate::taskcheck::Footprint;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How a built [`TaskGraph`] is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// The production executor: the calling thread plus `threads − 1`
    /// helper threads (none when `threads <= 1`) drain ready tasks, lowest
    /// ready index first.
    Pool {
        /// Worker count.
        threads: usize,
    },
    /// The adversarial executor: single-threaded, but free to pick *any*
    /// legal topological linearization. Seed 0 is the deterministic
    /// worst-case reverse-priority order (always the highest-index ready
    /// task — the mirror image of insertion order); any other seed drives a
    /// splitmix64 stream of arbitrary legal choices. The invariance suites
    /// use this to prove results are bitwise-identical under any schedule
    /// the dependency edges permit (DESIGN.md §4i).
    Adversarial {
        /// Choice seed (`0` = reverse-priority).
        seed: u64,
    },
}

impl Schedule {
    /// The production pool schedule.
    pub fn pool(threads: usize) -> Schedule {
        Schedule::Pool { threads }
    }

    /// A seeded adversarial schedule (see [`Schedule::Adversarial`]).
    pub fn adversarial(seed: u64) -> Schedule {
        Schedule::Adversarial { seed }
    }
}

/// A recoverable failure of one distributed RK-stage execution — what
/// [`TaskGraph::try_run`] returns instead of hanging peers or
/// unwinding through the stepping loop. The chaos stepping loop answers any
/// of these with checkpoint rollback (DESIGN.md §4g).
#[derive(Clone, Debug, PartialEq)]
pub enum StageError {
    /// The progress pump detected a communication fault (dead rank,
    /// starved receive, queue overflow).
    Comm(CommError),
    /// A kernel task panicked (e.g. the `check` build's NaN trap); the panic
    /// was contained and converted instead of unwinding past blocked peers.
    TaskPanic {
        /// The panic payload, rendered to a string.
        message: String,
    },
    /// The chaos plan scheduled this rank to crash here (fail-stop).
    CrashInjected,
    /// `ComputeDt` reduced to a time step that is not finite and positive.
    /// Every rank sees the same allreduced value, so this is fail-stop too:
    /// a rollback would reach it again.
    NonFiniteDt {
        /// The offending global time step.
        dt: f64,
    },
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Comm(e) => write!(f, "communication fault: {e}"),
            StageError::TaskPanic { message } => write!(f, "kernel task panicked: {message}"),
            StageError::CrashInjected => write!(f, "injected rank crash"),
            StageError::NonFiniteDt { dt } => write!(f, "ComputeDt produced dt={dt}"),
        }
    }
}

impl std::error::Error for StageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for StageError {
    fn from(e: CommError) -> Self {
        StageError::Comm(e)
    }
}

/// How one graph execution failed, internally: a task panic keeps its
/// original payload (so the infallible runner can rethrow it unchanged),
/// while a pump failure carries the typed stage error.
enum Failure {
    Panic(Box<dyn std::any::Any + Send>),
    Pump(StageError),
}

/// Renders a panic payload the way `std::thread` would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mints process-unique graph ids (the handle "epoch").
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// An opaque reference to a task previously added to a [`TaskGraph`], used
/// to declare dependencies of later tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskHandle {
    graph: u64,
    idx: usize,
}

/// A submitted task's boxed closure.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// An event task's readiness predicate (e.g. "has this posted receive
/// completed?"). Polled by the calling thread, never by helpers.
type EventPred<'env> = Box<dyn FnMut() -> bool + Send + 'env>;

/// What a task does when it becomes ready.
enum Work<'env> {
    /// An ordinary closure, executed once by a worker.
    Job(Job<'env>),
    /// An external event: *finished* (releasing its dependents) when the
    /// predicate first returns true. Costs no worker time.
    Event(EventPred<'env>),
}

/// One submitted task: its work and deduplicated predecessor indices.
struct Task<'env> {
    work: Work<'env>,
    deps: Vec<usize>,
}

/// A dependency graph of `FnOnce` tasks, executed by [`TaskGraph::run`].
///
/// The `'env` lifetime lets tasks borrow from the caller's stack, as with
/// scoped threads: the graph cannot outlive the data its tasks capture.
pub struct TaskGraph<'env> {
    id: u64,
    tasks: Vec<Task<'env>>,
    /// Declared data footprints, aligned with `tasks` (default =
    /// undeclared); only the dynamic detector reads them.
    #[cfg(feature = "check")]
    footprints: Vec<Footprint>,
}

impl<'env> TaskGraph<'env> {
    /// Creates an empty graph with a fresh id.
    pub fn new() -> Self {
        TaskGraph {
            id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            tasks: Vec::new(),
            #[cfg(feature = "check")]
            footprints: Vec::new(),
        }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task that may start only after every task in `deps` has
    /// finished, and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if any handle in `deps` was created by a different graph.
    pub fn add_task<F>(&mut self, deps: &[TaskHandle], f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'env,
    {
        self.push(deps, Work::Job(Box::new(f)), None)
    }

    /// Like [`TaskGraph::add_task`], with a declared data [`Footprint`]: the
    /// `(fab, component range, box)` regions the closure reads and writes.
    /// In the `check` build the dynamic detector audits the
    /// closure's executed accesses against it; otherwise it is dropped. It
    /// never affects execution.
    pub fn add_task_with<F>(&mut self, deps: &[TaskHandle], fp: Footprint, f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'env,
    {
        self.push(deps, Work::Job(Box::new(f)), Some(fp))
    }

    /// Adds an *event* task — a dependency stand-in for an external
    /// completion (a posted nonblocking receive, an accelerator fence) —
    /// and returns its handle for use as a predecessor of later tasks.
    ///
    /// The event finishes when `ready` first returns true; the runner polls
    /// it between invocations of the progress pump passed to
    /// [`TaskGraph::try_run`] (which is what makes the condition
    /// advance — e.g. `GroupEndpoint::pump` matching arrived packets).
    /// Events consume no worker: the caller polls them between jobs and
    /// helpers keep draining compute tasks while the condition is pending.
    pub fn add_event<F>(&mut self, ready: F) -> TaskHandle
    where
        F: FnMut() -> bool + Send + 'env,
    {
        self.push(&[], Work::Event(Box::new(ready)), None)
    }

    /// Appends a task with deduplicated predecessor indices; `fp` is kept
    /// only for the dynamic detector.
    fn push(&mut self, deps: &[TaskHandle], work: Work<'env>, fp: Option<Footprint>) -> TaskHandle {
        let mut dep_idx = Vec::with_capacity(deps.len());
        for d in deps {
            assert_eq!(
                d.graph, self.id,
                "TaskHandle belongs to a different TaskGraph (stale handle?)"
            );
            dep_idx.push(d.idx);
        }
        dep_idx.sort_unstable();
        dep_idx.dedup();
        let idx = self.tasks.len();
        self.tasks.push(Task {
            work,
            deps: dep_idx,
        });
        #[cfg(feature = "check")]
        self.footprints.push(fp.unwrap_or_default());
        #[cfg(not(feature = "check"))]
        drop(fp);
        TaskHandle {
            graph: self.id,
            idx,
        }
    }

    /// Executes every task, honouring dependencies, on the calling thread
    /// plus up to `threads − 1` helpers. Returns when all tasks have
    /// finished; re-throws the first task panic, with its original payload,
    /// after the helpers have stopped.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains event tasks — those only make sense
    /// with a progress pump, so use [`TaskGraph::try_run`].
    pub fn run(self, threads: usize) {
        assert!(
            !self.tasks.iter().any(|t| matches!(t.work, Work::Event(_))),
            "graphs with event tasks need try_run (a progress pump)"
        );
        match self.run_inner(Schedule::pool(threads), &mut || Ok(())) {
            Ok(()) => {}
            Err(Failure::Panic(p)) => resume_unwind(p),
            Err(Failure::Pump(_)) => unreachable!("infallible pump cannot fail"),
        }
    }

    /// Executes every task under the given [`Schedule`] with `progress`
    /// pumped between event polls — the runner for graphs whose
    /// [`TaskGraph::add_event`] gates depend on external state (e.g.
    /// `GroupEndpoint::pump` matching arrived halo packets). The pump may
    /// fail (a detected communication fault) and task panics are contained:
    /// both come back as a typed [`StageError`] instead of hanging peer
    /// ranks or unwinding through the stepping loop. On error, helpers stop
    /// after their current task and unstarted tasks are dropped.
    ///
    /// The calling thread runs ready jobs itself, polls the event
    /// predicates between them, and pumps `progress` only when no job is
    /// ready, so a pending event never holds back a job that does not depend
    /// on it; helper threads (a pool of `threads > 1`) only run jobs, so no
    /// worker ever blocks on communication.
    pub fn try_run(
        self,
        sched: Schedule,
        progress: &mut (dyn FnMut() -> Result<(), StageError> + '_),
    ) -> Result<(), StageError> {
        match self.run_inner(sched, progress) {
            Ok(()) => Ok(()),
            Err(Failure::Panic(p)) => Err(StageError::TaskPanic {
                message: panic_message(p.as_ref()),
            }),
            Err(Failure::Pump(e)) => Err(e),
        }
    }

    /// Builds the dynamic race tracker for this graph (a no-op token when
    /// outside the `check` build).
    fn make_tracker(&self) -> Tracker {
        #[cfg(feature = "check")]
        {
            let deps: Vec<Vec<usize>> = self.tasks.iter().map(|t| t.deps.clone()).collect();
            crate::taskcheck::RunTracker::new(deps, self.footprints.clone())
        }
        #[cfg(not(feature = "check"))]
        Tracker
    }

    /// The one runner behind [`TaskGraph::run`] and [`TaskGraph::try_run`]:
    /// Kahn's algorithm over one shared ready set. The calling thread drains
    /// it and owns the events and the pump ([`Runner::lead`]); a pool's
    /// helpers drain it too ([`Runner::help`]). Panics are always caught and
    /// returned with their original payload, so [`TaskGraph::run`] can
    /// rethrow them unchanged; a failure drops the remaining tasks — the
    /// fault-tolerant caller rolls the whole stage back anyway.
    fn run_inner(
        self,
        sched: Schedule,
        progress: &mut (dyn FnMut() -> Result<(), StageError> + '_),
    ) -> Result<(), Failure> {
        let n = self.tasks.len();
        if n == 0 {
            return Ok(());
        }
        let tracker = self.make_tracker();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = Vec::with_capacity(n);
        let mut ready = ReadyJobs::new(sched);
        let mut jobs = Vec::with_capacity(n);
        // Events have no dependencies (add_event invariant), so all of them
        // are pollable from the start and never enter the ready set.
        let mut events = Vec::new();
        for (i, t) in self.tasks.into_iter().enumerate() {
            indeg.push(t.deps.len());
            for &d in &t.deps {
                succs[d].push(i);
            }
            match t.work {
                Work::Job(job) => {
                    if t.deps.is_empty() {
                        ready.push(i);
                    }
                    jobs.push(Some(job));
                }
                Work::Event(pred) => {
                    jobs.push(None);
                    events.push((i, pred));
                }
            }
        }
        let helpers = match sched {
            Schedule::Pool { threads } => threads.min(n).saturating_sub(1),
            Schedule::Adversarial { .. } => 0,
        };
        let runner = Runner {
            queue: Mutex::new(Queue {
                ready,
                jobs,
                indeg,
                left: n,
                failure: None,
                closed: false,
            }),
            wake: Condvar::new(),
            succs,
            helpers,
            tracker,
        };
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| runner.help());
            }
            // However the caller leaves its loop — unwinding out of a
            // panicking pump included — the helpers are released first, so
            // the scope's join cannot wait on them forever.
            let led = catch_unwind(AssertUnwindSafe(|| runner.lead(events, progress)));
            let mut q = runner.lock();
            q.closed = true;
            runner.wake.notify_all();
            drop(q);
            if let Err(p) = led {
                resume_unwind(p);
            }
        });
        let q = runner.queue.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = q.failure {
            return Err(f);
        }
        check_tracker(&runner.tracker);
        Ok(())
    }
}

/// The run state every worker shares, under the one mutex.
struct Queue<'env> {
    /// Ready jobs; their `pop` is the schedule.
    ready: ReadyJobs,
    /// Unstarted jobs by task index (`None` for events and started jobs).
    jobs: Vec<Option<Job<'env>>>,
    /// Unfinished predecessors per task.
    indeg: Vec<usize>,
    /// Tasks not yet finished.
    left: usize,
    /// The first failure; once set, every worker stops.
    failure: Option<Failure>,
    /// The caller has left its loop: helpers stop too.
    closed: bool,
}

impl Queue<'_> {
    /// `true` once no worker should take another job.
    fn over(&self) -> bool {
        self.left == 0 || self.failure.is_some() || self.closed
    }
}

/// One graph execution: the shared queue, the condvar idle helpers (and the
/// caller, while only helpers can move the run on) sleep on, and the
/// immutable successor lists.
struct Runner<'env> {
    queue: Mutex<Queue<'env>>,
    wake: Condvar,
    succs: Vec<Vec<usize>>,
    /// Helper threads running beside the caller (0: nobody waits on `wake`).
    helpers: usize,
    tracker: Tracker,
}

impl<'env> Runner<'env> {
    /// Locks the queue. No lock is held across a task closure (they run
    /// under `catch_unwind`), so a poisoned lock still guards a consistent
    /// queue and is taken as is.
    fn lock(&self) -> MutexGuard<'_, Queue<'env>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps on the queue until a release, completion or failure.
    fn wait<'a>(&'a self, q: MutexGuard<'a, Queue<'env>>) -> MutexGuard<'a, Queue<'env>> {
        self.wake.wait(q).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes sleepers, if anyone can be sleeping.
    fn notify(&self, all: bool) {
        if self.helpers > 0 {
            if all {
                self.wake.notify_all();
            } else {
                self.wake.notify_one();
            }
        }
    }

    /// Counts task `i` finished and readies the dependents it released.
    fn finish(&self, q: &mut Queue<'env>, i: usize) {
        for &s in &self.succs[i] {
            q.indeg[s] -= 1;
            if q.indeg[s] == 0 {
                q.ready.push(s);
                self.notify(false);
            }
        }
        q.left -= 1;
        if q.left == 0 {
            self.notify(true);
        }
    }

    /// Records a failure (the first one wins) and stops every worker.
    fn fail(&self, q: &mut Queue<'env>, failure: Failure) {
        if q.failure.is_none() {
            q.failure = Some(failure);
        }
        self.notify(true);
    }

    /// Runs ready job `i` with the queue unlocked and records its outcome;
    /// returns the queue locked again.
    fn run_job<'a>(
        &'a self,
        mut q: MutexGuard<'a, Queue<'env>>,
        i: usize,
    ) -> MutexGuard<'a, Queue<'env>> {
        let Some(job) = q.jobs[i].take() else {
            unreachable!("ready set holds a non-job or a started job")
        };
        drop(q);
        let scope = enter_scope(&self.tracker, i);
        let result = catch_unwind(AssertUnwindSafe(job));
        drop(scope);
        let mut q = self.lock();
        match result {
            Ok(()) => self.finish(&mut q, i),
            Err(payload) => self.fail(&mut q, Failure::Panic(payload)),
        }
        q
    }

    /// A helper's loop: pop and run ready jobs until the run is over.
    fn help(&self) {
        let mut q = self.lock();
        while !q.over() {
            q = match q.ready.pop() {
                Some(i) => self.run_job(q, i),
                None => self.wait(q),
            };
        }
    }

    /// The caller's loop: a helper's loop that also owns the events and the
    /// pump. Events are polled first, because firing one may release new
    /// ready jobs; because a ready job always runs in preference to pumping,
    /// every pack/send job a pending receive transitively needs drains
    /// before this rank waits on it, wherever in the graph it was inserted.
    fn lead(
        &self,
        mut events: Vec<(usize, EventPred<'env>)>,
        progress: &mut (dyn FnMut() -> Result<(), StageError> + '_),
    ) {
        loop {
            let mut fired = false;
            let mut k = 0;
            while k < events.len() {
                if (events[k].1)() {
                    let (i, _) = events.swap_remove(k);
                    self.finish(&mut self.lock(), i);
                    fired = true;
                } else {
                    k += 1;
                }
            }
            let mut q = self.lock();
            if q.over() {
                return;
            }
            match q.ready.pop() {
                Some(i) => drop(self.run_job(q, i)),
                None if fired => {}
                None if events.is_empty() => {
                    // Only the helpers' running jobs can move the run on.
                    debug_assert!(self.helpers > 0, "no ready task on an incomplete DAG");
                    drop(self.wait(q));
                }
                None => {
                    drop(q);
                    if let Err(e) = progress() {
                        self.fail(&mut self.lock(), Failure::Pump(e));
                        return;
                    }
                    self.nap();
                }
            }
        }
    }

    /// The caller's pause after a pump that moved nothing: it gives the
    /// CPU to the peers whose messages are awaited, or sleeps until a
    /// helper releases a job (events wake only through the pump, so the
    /// sleep is short).
    fn nap(&self) {
        if self.helpers == 0 {
            std::thread::yield_now();
        } else {
            let q = self.lock();
            drop(self.wake.wait_timeout(q, Duration::from_micros(50)));
        }
    }
}

/// The ready set of the runner; its `pop` is the schedule.
enum ReadyJobs {
    /// Lowest index first: insertion order wherever the edges allow it.
    InOrder(BinaryHeap<Reverse<usize>>),
    /// Highest index first: the mirror image of insertion order.
    ReverseOrder(BinaryHeap<usize>),
    /// Any ready job, drawn from a splitmix64 stream (the `u64` state).
    Seeded(Vec<usize>, u64),
}

impl ReadyJobs {
    /// The empty ready set whose `pop` order is `sched`.
    fn new(sched: Schedule) -> Self {
        match sched {
            Schedule::Pool { .. } => ReadyJobs::InOrder(BinaryHeap::new()),
            Schedule::Adversarial { seed: 0 } => ReadyJobs::ReverseOrder(BinaryHeap::new()),
            Schedule::Adversarial { seed } => ReadyJobs::Seeded(Vec::new(), seed),
        }
    }

    fn push(&mut self, i: usize) {
        match self {
            ReadyJobs::InOrder(h) => h.push(Reverse(i)),
            ReadyJobs::ReverseOrder(h) => h.push(i),
            ReadyJobs::Seeded(v, _) => v.push(i),
        }
    }

    fn pop(&mut self) -> Option<usize> {
        match self {
            ReadyJobs::InOrder(h) => h.pop().map(|Reverse(i)| i),
            ReadyJobs::ReverseOrder(h) => h.pop(),
            ReadyJobs::Seeded(v, _) if v.is_empty() => None,
            ReadyJobs::Seeded(v, rng) => {
                let pos = (splitmix64(rng) % v.len() as u64) as usize;
                Some(v.swap_remove(pos))
            }
        }
    }
}

/// One step of the splitmix64 generator — the adversarial schedule's choice
/// stream (tiny, seedable, and dependency-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Dynamic-tracker plumbing: a real reachability/footprint tracker in the
/// `check` build, a zero-sized token outside it — so the executor
/// paths stay free of `cfg` noise.
#[cfg(feature = "check")]
type Tracker = std::sync::Arc<crate::taskcheck::RunTracker>;
#[cfg(not(feature = "check"))]
#[derive(Clone, Copy)]
struct Tracker;

#[cfg(feature = "check")]
use crate::taskcheck::TaskScope;
#[cfg(not(feature = "check"))]
struct TaskScope;

// A (no-op) Drop keeps the executors' explicit `drop(scope)` flush points
// meaningful in both builds (clippy::drop_non_drop).
#[cfg(not(feature = "check"))]
impl Drop for TaskScope {
    fn drop(&mut self) {}
}

#[cfg(feature = "check")]
fn enter_scope(tracker: &Tracker, task: usize) -> TaskScope {
    TaskScope::enter(tracker, task)
}

#[cfg(not(feature = "check"))]
fn enter_scope(_tracker: &Tracker, _task: usize) -> TaskScope {
    TaskScope
}

#[cfg(feature = "check")]
fn check_tracker(tracker: &Tracker) {
    tracker.check();
}

#[cfg(not(feature = "check"))]
fn check_tracker(_tracker: &Tracker) {}

impl Default for TaskGraph<'_> {
    fn default() -> Self {
        TaskGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64 as TestAtomicU64};

    /// Runs `deps[i] -> i` graphs and records the order tasks executed in.
    fn record_order(deps: &[Vec<usize>], threads: usize) -> Vec<usize> {
        let order = Mutex::new(Vec::new());
        let mut g = TaskGraph::new();
        let mut handles: Vec<TaskHandle> = Vec::new();
        for (i, d) in deps.iter().enumerate() {
            let hd: Vec<TaskHandle> = d.iter().map(|&j| handles[j]).collect();
            let order = &order;
            handles.push(g.add_task(&hd, move || {
                order.lock().unwrap().push(i);
            }));
        }
        g.run(threads);
        order.into_inner().unwrap()
    }

    /// Asserts `order` is a permutation of `0..deps.len()` that respects
    /// every dependency.
    fn assert_topological(deps: &[Vec<usize>], order: &[usize]) {
        assert_eq!(order.len(), deps.len(), "not every task ran");
        let mut pos = vec![usize::MAX; deps.len()];
        for (p, &t) in order.iter().enumerate() {
            assert_eq!(pos[t], usize::MAX, "task {t} ran twice");
            pos[t] = p;
        }
        for (i, d) in deps.iter().enumerate() {
            for &j in d {
                assert!(
                    pos[j] < pos[i],
                    "task {i} ran before its dependency {j}: {order:?}"
                );
            }
        }
    }

    #[test]
    fn chain_executes_in_dependency_order() {
        let deps: Vec<Vec<usize>> = (0..64).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
        for threads in [1, 4] {
            let order = record_order(&deps, threads);
            assert_eq!(order, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn diamond_dependencies_fence_the_join() {
        // 0 -> {1, 2} -> 3
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        for threads in [1, 2, 4] {
            let order = record_order(&deps, threads);
            assert_topological(&deps, &order);
            assert_eq!(order[0], 0);
            assert_eq!(order[3], 3);
        }
    }

    #[test]
    fn independent_tasks_all_run() {
        let count = TestAtomicU64::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..100 {
            let count = &count;
            g.add_task(&[], move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        g.run(8);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn duplicate_deps_are_deduplicated() {
        let mut g = TaskGraph::new();
        let a = g.add_task(&[], || {});
        let h = g.add_task(&[a, a, a], || {});
        assert_eq!(h, h);
        assert_eq!(g.len(), 2);
        g.run(2);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        g.run(4);
    }

    #[test]
    fn panic_in_task_propagates_to_caller() {
        for threads in [1, 4] {
            let ran_dependent = TestAtomicU64::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut g = TaskGraph::new();
                let bad = g.add_task(&[], || panic!("task exploded"));
                let ran = &ran_dependent;
                g.add_task(&[bad], move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                g.run(threads);
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "task exploded");
            assert_eq!(
                ran_dependent.load(Ordering::Relaxed),
                0,
                "dependents of a panicked task must not run"
            );
        }
    }

    #[test]
    fn the_caller_is_a_worker_beside_threads_minus_one_helpers() {
        for threads in [2usize, 4] {
            // `threads` tasks that each hold their worker until the caller
            // has run one: at most `threads − 1` helpers can hold a task, so
            // the caller must take one or the run stalls (a wait capped at
            // 10 s turns a stall into a failure).
            let caller = std::thread::current().id();
            let caller_ran = AtomicBool::new(false);
            let seen = Mutex::new(Vec::new());
            let mut g = TaskGraph::new();
            for _ in 0..threads * 4 {
                let (caller_ran, seen) = (&caller_ran, &seen);
                g.add_task(&[], move || {
                    let me = std::thread::current().id();
                    seen.lock().unwrap().push(me);
                    if me == caller {
                        caller_ran.store(true, Ordering::Release);
                    }
                    let t0 = std::time::Instant::now();
                    while !caller_ran.load(Ordering::Acquire) {
                        assert!(t0.elapsed().as_secs() < 10, "the caller never ran a job");
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                });
            }
            g.run(threads);
            let mut ids = seen.into_inner().unwrap();
            assert_eq!(ids.len(), threads * 4);
            assert!(ids.contains(&caller), "threads={threads}: caller ran no job");
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            assert!(
                ids.len() <= threads,
                "threads={threads}: jobs ran on {} OS threads",
                ids.len()
            );
        }
    }

    #[test]
    fn for_each_mut_hands_every_element_with_its_index_to_one_call() {
        for threads in [2usize, 4] {
            let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); 37];
            crate::pool::parallel_for_each_mut(&mut items, threads, |i, item| {
                item.0 = i;
                item.1 += 1;
            });
            for (i, &(idx, calls)) in items.iter().enumerate() {
                assert_eq!((idx, calls), (i, 1), "threads={threads}, element {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different TaskGraph")]
    fn cross_graph_handle_is_rejected() {
        let mut a = TaskGraph::new();
        let ha = a.add_task(&[], || {});
        let mut b = TaskGraph::new();
        b.add_task(&[ha], || {});
    }

    #[test]
    fn event_gates_release_dependents_when_the_pump_fires() {
        for threads in [1usize, 4] {
            // The "packet" arrives on the third progress pump.
            let pumps = TestAtomicU64::new(0);
            let arrived = AtomicBool::new(false);
            let order = Mutex::new(Vec::new());
            let mut g = TaskGraph::new();
            let ev = g.add_event(|| arrived.load(Ordering::Acquire));
            let order_ref = &order;
            g.add_task(&[ev], move || order_ref.lock().unwrap().push("boundary"));
            g.add_task(&[], move || order_ref.lock().unwrap().push("interior"));
            g.try_run(Schedule::pool(threads), &mut || {
                if pumps.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                    arrived.store(true, Ordering::Release);
                }
                Ok(())
            })
            .unwrap();
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), 2, "threads={threads}: {order:?}");
            assert!(pumps.load(Ordering::Relaxed) >= 3);
            assert!(order.contains(&"boundary") && order.contains(&"interior"));
        }
    }

    #[test]
    fn immediately_ready_events_cost_nothing() {
        for threads in [1usize, 2] {
            let ran = TestAtomicU64::new(0);
            let mut g = TaskGraph::new();
            let ev = g.add_event(|| true);
            let ran_ref = &ran;
            g.add_task(&[ev], move || {
                ran_ref.fetch_add(1, Ordering::Relaxed);
            });
            g.try_run(Schedule::pool(threads), &mut || Ok(())).unwrap();
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn compute_tasks_drain_while_an_event_is_pending() {
        // 32 independent compute tasks plus one event that only fires after
        // every compute task ran: if workers blocked on the event, this
        // would deadlock.
        let done = TestAtomicU64::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..32 {
            let done = &done;
            g.add_task(&[], move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let done_ref = &done;
        let ev = g.add_event(move || done_ref.load(Ordering::Relaxed) == 32);
        let done_ref = &done;
        g.add_task(&[ev], move || {
            done_ref.fetch_add(100, Ordering::Relaxed);
        });
        g.try_run(Schedule::pool(4), &mut || Ok(())).unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 132);
    }

    #[test]
    fn an_event_may_precede_the_job_that_fires_it() {
        // The event is inserted first and fires only once a later-inserted
        // job (a rank's own send, say) has run. Every single-threaded
        // schedule must run that job instead of waiting on the event; the
        // pump gives up after a few calls so a wrong executor fails, not
        // hangs.
        for sched in [
            Schedule::pool(1),
            Schedule::adversarial(0),
            Schedule::adversarial(0xC0FFEE),
        ] {
            let sent = AtomicBool::new(false);
            let order = Mutex::new(Vec::new());
            let (sent_ref, order_ref) = (&sent, &order);
            let mut pumps = 0;
            let mut g = TaskGraph::new();
            let ev = g.add_event(move || sent_ref.load(Ordering::Acquire));
            g.add_task(&[ev], move || order_ref.lock().unwrap().push("unpack"));
            g.add_task(&[], move || {
                sent_ref.store(true, Ordering::Release);
                order_ref.lock().unwrap().push("send");
            });
            g.try_run(sched, &mut || {
                pumps += 1;
                if pumps > 8 {
                    return Err(StageError::Comm(CommError::RankDead { rank: 0 }));
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{sched:?} waited on the event: {e}"));
            assert_eq!(order.into_inner().unwrap(), ["send", "unpack"], "{sched:?}");
        }
    }

    #[test]
    #[should_panic(expected = "need try_run")]
    fn plain_run_rejects_event_graphs() {
        let mut g = TaskGraph::new();
        g.add_event(|| true);
        g.run(2);
    }

    #[test]
    fn try_run_converts_task_panics_to_stage_errors() {
        for threads in [1usize, 4] {
            let ran_dependent = TestAtomicU64::new(0);
            let mut g = TaskGraph::new();
            let bad = g.add_task(&[], || panic!("NaN detected in stage kernel"));
            let ran = &ran_dependent;
            g.add_task(&[bad], move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            let err = g
                .try_run(Schedule::pool(threads), &mut || Ok(()))
                .expect_err("panic must become a stage error");
            assert_eq!(
                err,
                StageError::TaskPanic {
                    message: "NaN detected in stage kernel".into()
                },
                "threads={threads}"
            );
            assert_eq!(ran_dependent.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn try_run_surfaces_pump_faults_and_aborts() {
        for threads in [1usize, 4] {
            let fault = StageError::Comm(CommError::RankDead { rank: 2 });
            let released = TestAtomicU64::new(0);
            let mut g = TaskGraph::new();
            // An event that never fires: only the pump fault can end the run.
            let ev = g.add_event(|| false);
            let released_ref = &released;
            g.add_task(&[ev], move || {
                released_ref.fetch_add(1, Ordering::Relaxed);
            });
            let fault_clone = fault.clone();
            let err = g
                .try_run(Schedule::pool(threads), &mut || Err(fault_clone.clone()))
                .expect_err("pump fault must end the run");
            assert_eq!(err, fault, "threads={threads}");
            assert_eq!(
                released.load(Ordering::Relaxed),
                0,
                "tasks gated on the dead event must not run"
            );
        }
    }

    #[test]
    fn try_run_completes_clean_graphs() {
        let done = TestAtomicU64::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            let done = &done;
            g.add_task(&[], move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        g.try_run(Schedule::pool(4), &mut || Ok(())).unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 16);
    }

    /// Like [`record_order`], under an arbitrary schedule.
    fn record_order_sched(deps: &[Vec<usize>], sched: Schedule) -> Vec<usize> {
        let order = Mutex::new(Vec::new());
        let mut g = TaskGraph::new();
        let mut handles: Vec<TaskHandle> = Vec::new();
        for (i, d) in deps.iter().enumerate() {
            let hd: Vec<TaskHandle> = d.iter().map(|&j| handles[j]).collect();
            let order = &order;
            handles.push(g.add_task(&hd, move || {
                order.lock().unwrap().push(i);
            }));
        }
        g.try_run(sched, &mut || Ok(())).unwrap();
        order.into_inner().unwrap()
    }

    #[test]
    fn adversarial_seed_zero_is_reverse_priority() {
        // Independent tasks: the worst-case order is exactly reversed
        // insertion order, the mirror image of the one-thread pool's order.
        let deps: Vec<Vec<usize>> = (0..16).map(|_| vec![]).collect();
        let order = record_order_sched(&deps, Schedule::adversarial(0));
        assert_eq!(order, (0..16).rev().collect::<Vec<_>>());
    }

    #[test]
    fn adversarial_schedules_respect_dependencies() {
        // diamond + a tail chain
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2], vec![3], vec![]];
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let order = record_order_sched(&deps, Schedule::adversarial(seed));
            assert_topological(&deps, &order);
        }
    }

    #[test]
    fn adversarial_runner_handles_events_and_errors() {
        // Event gate under the adversarial runner: the "packet" arrives on
        // the third pump, exactly like the pool-path event test.
        let pumps = TestAtomicU64::new(0);
        let arrived = AtomicBool::new(false);
        let ran = TestAtomicU64::new(0);
        let mut g = TaskGraph::new();
        let ev = g.add_event(|| arrived.load(Ordering::Acquire));
        let ran_ref = &ran;
        g.add_task(&[ev], move || {
            ran_ref.fetch_add(1, Ordering::Relaxed);
        });
        g.try_run(Schedule::adversarial(3), &mut || {
            if pumps.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                arrived.store(true, Ordering::Release);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);

        // Panics become typed stage errors, same as the pool runner.
        let mut g = TaskGraph::new();
        g.add_task(&[], || panic!("kernel blew up"));
        let err = g
            .try_run(Schedule::adversarial(0), &mut || Ok(()))
            .expect_err("panic must surface");
        assert_eq!(
            err,
            StageError::TaskPanic {
                message: "kernel blew up".into()
            }
        );
    }

    /// Dynamic detector integration: unordered overlapping writes recorded
    /// during execution trip the post-run audit on every executor path;
    /// ordered graphs pass it; and accesses to fabs no footprint declares
    /// are out of the schedule's scope and never trap (task-local scratch,
    /// other-level data).
    #[cfg(feature = "check")]
    #[test]
    fn dynamic_detector_traps_executed_races() {
        use crate::taskcheck::{record_access, Footprint};
        use crocco_geometry::{IndexBox, IntVect};
        let bx = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 3, 3));
        let fp = |l: &str| Footprint::new(l).writes(1, (0, 1), bx);
        for sched in [
            Schedule::pool(1),
            Schedule::pool(4),
            Schedule::adversarial(0),
        ] {
            // Two unordered tasks writing the same box of the same fab.
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut g = TaskGraph::new();
                g.add_task_with(&[], fp("w1"), move || record_access(1, true, bx));
                g.add_task_with(&[], fp("w2"), move || record_access(1, true, bx));
                g.try_run(sched, &mut || Ok(())).unwrap();
            }));
            let msg = panic_message(result.expect_err("race must trap").as_ref());
            assert!(msg.contains("taskcheck"), "unexpected panic: {msg}");

            // The same accesses with an ordering edge pass.
            let mut g = TaskGraph::new();
            let a = g.add_task_with(&[], fp("w1"), move || record_access(1, true, bx));
            g.add_task_with(&[a], fp("w2"), move || record_access(1, true, bx));
            g.try_run(sched, &mut || Ok(())).unwrap();

            // Unordered overlapping writes to a fab *no* footprint declares
            // are out-of-graph data the schedule does not arbitrate: clean.
            let mut g = TaskGraph::new();
            g.add_task_with(&[], fp("w1"), move || record_access(99, true, bx));
            g.add_task_with(&[], fp("w2"), move || record_access(99, true, bx));
            g.try_run(sched, &mut || Ok(())).unwrap();
        }
    }

    /// Dynamic detector integration: a task with a declared footprint that
    /// touches cells outside it is an under-declaration the static pass
    /// would have trusted — the audit traps it.
    #[cfg(feature = "check")]
    #[test]
    fn dynamic_detector_traps_underdeclared_footprints() {
        use crate::taskcheck::{record_access, Footprint};
        use crocco_geometry::{IndexBox, IntVect};
        let declared = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 3, 3));
        let outside = IndexBox::new(IntVect::new(10, 0, 0), IntVect::new(11, 1, 1));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = TaskGraph::new();
            g.add_task_with(&[], Footprint::new("liar").writes(5, (0, 1), declared), move || {
                record_access(5, true, outside);
            });
            g.run(1);
        }));
        let msg = panic_message(result.expect_err("under-declaration must trap").as_ref());
        assert!(msg.contains("under-declared"), "unexpected panic: {msg}");

        // Honest declaration passes.
        let mut g = TaskGraph::new();
        g.add_task_with(&[], Footprint::new("honest").writes(5, (0, 1), declared), move || {
            record_access(5, true, declared);
        });
        g.run(1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random DAGs (deps always point to earlier tasks) execute in
        /// topological order on the serial, threaded, and adversarial paths.
        #[test]
        fn random_dags_execute_topologically(
            raw in prop::collection::vec(prop::collection::vec(any::<usize>(), 0..4), 1..40),
            threads in prop::sample::select(vec![1usize, 2, 4, 8]),
            seed in any::<u64>(),
        ) {
            let deps: Vec<Vec<usize>> = raw
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    if i == 0 {
                        Vec::new()
                    } else {
                        d.iter().map(|&r| r % i).collect()
                    }
                })
                .collect();
            let order = record_order(&deps, threads);
            assert_topological(&deps, &order);
            let order = record_order_sched(&deps, Schedule::adversarial(seed));
            assert_topological(&deps, &order);
        }
    }

    /// The soundness bridge between the static and dynamic passes: any graph
    /// the static verifier declares clean must execute without tripping the
    /// dynamic race detector, on any legal linearization, when every task
    /// touches exactly what it declared.
    #[cfg(feature = "check")]
    mod clean_graphs {
        use super::*;
        use crate::taskcheck::{record_access, Footprint};
        use crocco_geometry::{IndexBox, IntVect};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn verifier_clean_graphs_never_trip_the_dynamic_detector(
                raw_deps in prop::collection::vec(prop::collection::vec(any::<usize>(), 0..3), 1..16),
                raw_accs in prop::collection::vec(
                    prop::collection::vec(
                        (0u64..3, any::<bool>(), 0i64..6, 1i64..4),
                        0..3,
                    ),
                    1..16,
                ),
                seed in any::<u64>(),
            ) {
                let n = raw_deps.len();
                let mut fps = Vec::with_capacity(n);
                let mut deps_list = Vec::with_capacity(n);
                for (i, d) in raw_deps.iter().enumerate() {
                    let deps: Vec<usize> = if i == 0 {
                        Vec::new()
                    } else {
                        d.iter().map(|&r| r % i).collect()
                    };
                    let mut fp = Footprint::new(format!("t{i}"));
                    for &(fab, write, lo, len) in
                        raw_accs.get(i).map(Vec::as_slice).unwrap_or(&[])
                    {
                        let b = IndexBox::new(
                            IntVect::new(lo, 0, 0),
                            IntVect::new(lo + len - 1, 1, 1),
                        );
                        fp = if write {
                            fp.writes(fab, (0, 1), b)
                        } else {
                            fp.reads(fab, (0, 1), b)
                        };
                    }
                    fps.push(fp);
                    deps_list.push(deps);
                }
                // Only verifier-clean graphs are in scope.
                let mut spec = crate::taskcheck::ScheduleSpec::new();
                for (deps, fp) in deps_list.iter().zip(&fps) {
                    spec.add(deps, fp.clone());
                }
                if spec.verify().violations.is_empty() {
                    // Each task touches exactly its declared regions; a trap
                    // here would be a false positive in the dynamic detector.
                    for sched in [Schedule::pool(2), Schedule::adversarial(seed)] {
                        let mut g = TaskGraph::new();
                        let mut handles: Vec<TaskHandle> = Vec::with_capacity(n);
                        for (deps, fp) in deps_list.iter().zip(&fps) {
                            let accs: Vec<(bool, u64, IndexBox)> = fp
                                .accesses()
                                .iter()
                                .map(|&(a, r)| {
                                    (a == crate::taskcheck::Access::Write, r.fab, r.bx)
                                })
                                .collect();
                            let dep_handles: Vec<TaskHandle> =
                                deps.iter().map(|&d| handles[d]).collect();
                            handles.push(g.add_task_with(&dep_handles, fp.clone(), move || {
                                for &(w, fab, bx) in &accs {
                                    record_access(fab, w, bx);
                                }
                            }));
                        }
                        g.try_run(sched, &mut || Ok(())).unwrap();
                    }
                }
            }
        }
    }
}
