//! A real threaded message-passing cluster.
//!
//! `LocalCluster` spawns one OS thread per rank, wired all-to-all with
//! `std::sync::mpsc` channels carrying [`Bytes`] payloads. It exists to prove
//! the distributed code path — pack ghost region, send, receive, unpack —
//! with real concurrency at laptop scale; what the same plans cost at Summit
//! scale is priced in closed form by `crocco-bench` (DESIGN.md §3).
//!
//! Every receive completes through one engine: [`GroupEndpoint::pump`] is
//! one turn of it, [`GroupEndpoint::wait`] turns until its handle completes.
//! The fail-stop detector is the cluster's, on either transport, so a dead
//! peer ends every blocked wait with [`CommError::RankDead`], never a hang.
//!
//! In *chaos mode* ([`LocalCluster::run_with_chaos`]) the same endpoints run
//! over an adversarial transport (see [`crate::chaos`] and DESIGN.md §4g):
//! every payload is framed with a length + CRC32 header and a per-(src,dst)
//! sequence number, a stalled receive retries with receiver-driven
//! retransmit and exponential backoff until its deadline, and
//! detected-but-unrepairable faults surface as typed [`CommError`]s.
//! [`CommGroup`]/[`GroupEndpoint`] layer *logical* ranks over the physical
//! endpoints so the solver can re-form a smaller communicator after a rank
//! dies.

use crate::chaos::{decode_frame, encode_frame, ChaosConfig, ChaosRuntime};
use bytes::Bytes;
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A tagged message between ranks.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending rank.
    pub src: usize,
    /// User tag (e.g. a box id).
    pub tag: u64,
    /// Payload.
    pub payload: Bytes,
}

/// The tag namespace the distributed solver uses over [`RankEndpoint`]s.
///
/// Three kinds of traffic share the `u64`, told apart by the top two bits.
/// *Rounds* ([`tags::round`]) carry every rank-crossing exchange of the
/// solver: halo rounds, coarse→fine gathers, redistributions, reflux parts,
/// restrictions, tag unions and checkpoint bodies. Every rank numbers its
/// rounds with one counter it advances in the same order as its peers, so
/// round `n` names the same exchange everywhere; a receiver matches on
/// `(src, tag)`, so the tag names neither sender nor level nor purpose.
/// *Collectives* ([`tags::collective`]) number their phases by the
/// endpoint's own sequence. *Halo* tags ([`tags::halo`]) name a message by
/// `(epoch, level, src)`; only hand-written point-to-point traffic uses
/// them (the benchmark's wire probe).
///
/// Under chaos recovery bits 52–55 of a round or halo tag carry the
/// communicator *generation*: after a rollback the survivors bump the
/// generation, so packets replayed from before the crash can never
/// tag-match post-recovery receives — stragglers are filtered at decode
/// time by [`tags::generation_of`].
pub mod tags {
    /// Traffic-class discriminant: a halo message ([`halo`]).
    pub const KIND_HALO: u64 = 1;
    /// Traffic-class discriminant: a collective phase message.
    pub const KIND_COLL: u64 = 3;

    /// Tag of round `n` in communicator generation `generation`: the
    /// generation in bits 52–55, `n` (mod 2⁵²) below it, the kind bits
    /// clear. Both wrap — safe at test scale, where a handful of recoveries
    /// happen and no round is in flight 2⁵² rounds later.
    pub fn round(generation: u64, n: u64) -> u64 {
        ((generation & 0xF) << 52) | (n & ((1 << 52) - 1))
    }

    /// Tag of the halo message rank `src` sends for `level` during epoch
    /// `epoch` (16 bits; its top 4 are the generation). The solver's own
    /// halo rounds are [`round`]s.
    pub fn halo(epoch: u64, level: usize, src: usize) -> u64 {
        debug_assert!(src < (1 << 32), "tag index overflows 32 bits");
        (KIND_HALO << 62) | ((epoch & 0xFFFF) << 40) | (((level as u64) & 0xFF) << 32) | src as u64
    }

    /// Tag for phase `phase` (0 = reduce, 1 = broadcast) of the `seq`-th
    /// collective on an endpoint.
    pub fn collective(seq: u64, phase: u64) -> u64 {
        (KIND_COLL << 62) | ((seq & 0x1FFF_FFFF_FFFF_FFFF) << 1) | (phase & 1)
    }

    /// The traffic-class discriminant of `tag` (0 for a round, `KIND_HALO`
    /// or `KIND_COLL`).
    pub fn kind_of(tag: u64) -> u64 {
        tag >> 62
    }

    /// The communicator generation carried in a round or halo tag
    /// (meaningless for collective tags, whose bit layout differs).
    pub fn generation_of(tag: u64) -> u64 {
        (tag >> 52) & 0xF
    }
}

/// A detected, unrepairable communication fault (DESIGN.md §4g). Drop,
/// duplication, corruption, and delay faults are repaired inside the
/// transport and never surface; these errors are what escapes to the
/// stepping loop, which answers with checkpoint rollback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A fail-stopped rank was detected in the communicator.
    RankDead {
        /// The physical rank that died.
        rank: usize,
    },
    /// A matched receive exhausted its deadline despite retransmit retries.
    Timeout {
        /// Source rank of the starved receive.
        src: usize,
        /// Tag of the starved receive.
        tag: u64,
        /// Milliseconds waited before giving up.
        waited_ms: u64,
        /// Retransmit retries issued before giving up.
        retries: u32,
    },
    /// The unexpected-message queue hit its bound (a flood of unmatched
    /// tags; see [`RankEndpoint::set_unexpected_cap`]).
    QueueOverflow {
        /// The configured queue bound.
        cap: usize,
    },
    /// A received payload had the wrong length for the decoder consuming it
    /// (a tag collision delivering a foreign packet, or corruption that
    /// slipped past the transport's repair layer). The packet crossed the
    /// wire, so its shape is not a local invariant this rank may assert.
    MalformedPayload {
        /// Source rank of the offending packet.
        src: usize,
        /// Tag under which it was matched.
        tag: u64,
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Timeout {
                src,
                tag,
                waited_ms,
                retries,
            } => write!(
                f,
                "receive from rank {src} tag {tag:#x} timed out after {waited_ms} ms ({retries} retries)"
            ),
            CommError::QueueOverflow { cap } => {
                write!(f, "unexpected-message queue overflowed its bound of {cap}")
            }
            CommError::MalformedPayload {
                src,
                tag,
                expected,
                got,
            } => write!(
                f,
                "payload from rank {src} tag {tag:#x} is {got} bytes, decoder needs {expected}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Completion handle of a nonblocking receive posted with
/// [`RankEndpoint::irecv`] — the `MPI_Request` analog. Cheap to clone; all
/// clones observe the same completion.
#[derive(Clone)]
pub struct RecvHandle {
    slot: Arc<OnceLock<Bytes>>,
    src: usize,
    tag: u64,
}

impl RecvHandle {
    /// The delivered payload, if the receive has completed ([`Bytes`] clones
    /// are reference-counted slices, not copies).
    pub fn payload(&self) -> Option<Bytes> {
        self.slot.get().cloned()
    }

    /// The source rank this receive matches.
    pub fn src(&self) -> usize {
        self.src
    }

    /// The tag this receive matches.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// A receive posted before its packet arrived: `(src, tag)` to match, and
/// the slot to complete.
struct PostedRecv {
    src: usize,
    tag: u64,
    slot: Arc<OnceLock<Bytes>>,
}

/// Per-source duplicate suppressor: the set of transport sequence numbers
/// already accepted from one sender, kept compact as a contiguous prefix
/// plus a sparse out-of-order tail. Retransmits re-deliver pristine frames,
/// so replays are expected traffic; this is what keeps them invisible above
/// the transport.
#[derive(Default)]
struct SeqTracker {
    /// All sequence numbers `< contig` have been accepted.
    contig: u64,
    /// Accepted sequence numbers `>= contig` (out-of-order arrivals).
    sparse: BTreeSet<u64>,
}

impl SeqTracker {
    /// Records `seq`; returns `true` iff it was fresh (first acceptance).
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.contig || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&self.contig) {
            self.contig += 1;
        }
        true
    }
}

/// Default bound on the unexpected-message queue — far above anything the
/// solver's bounded-outstanding traffic produces, low enough that a runaway
/// flood fails fast instead of exhausting memory.
const DEFAULT_UNEXPECTED_CAP: usize = 16_384;

/// MPI-style matching state: receives posted before arrival, and packets
/// that arrived before any matching receive was posted (the *unexpected
/// message queue*). Both are searched in order, so matching is
/// earliest-posted against earliest-arrived — deterministic under the
/// per-sender FIFO the channels guarantee.
struct MatchState {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Packet>,
    /// Per-source transport sequence trackers (chaos mode only).
    seen: Vec<SeqTracker>,
    /// Bound on `unexpected`; exceeding it is a typed error.
    cap: usize,
}

impl MatchState {
    fn new(nranks: usize) -> Self {
        MatchState {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            seen: (0..nranks).map(|_| SeqTracker::default()).collect(),
            cap: DEFAULT_UNEXPECTED_CAP,
        }
    }
}

/// How long an idle wait blocks on its channel between turns of the receive
/// engine (an arriving packet ends the block at once).
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Locks `m` through poisoning: the guarded queues are valid between any
/// two of their operations, and a panicked rank is fail-stopped anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fail-stops physical rank `rank`: flips its alive flag — every peer's
/// next turn of the receive engine observes it — and, on the chaos
/// transport, drops the retransmit store's links touching it.
fn fail_stop(alive: &[AtomicBool], chaos: Option<&ChaosRuntime>, rank: usize) {
    alive[rank].store(false, Ordering::Release);
    if let Some(ch) = chaos {
        ch.forget_rank(rank);
    }
}

/// One rank's communication endpoint.
pub struct RankEndpoint {
    rank: usize,
    nranks: usize,
    senders: Vec<Sender<Packet>>,
    /// The rank's inbound channel (behind a lock: std receivers are not
    /// `Sync`, and the graph's helper threads share the endpoint).
    receiver: Mutex<Receiver<Packet>>,
    matcher: Mutex<MatchState>,
    /// The cluster's fail-stop detector: one flag per physical rank, shared
    /// by every endpoint of the run, on either transport.
    alive: Arc<[AtomicBool]>,
    /// Collective sequence counter: all ranks call collectives in the same
    /// order (they are collective), so counters advance in lockstep and the
    /// derived tags agree across ranks. Never rolled back by recovery — at
    /// recovery entry every survivor has consumed the same collective, so
    /// the counters stay in lockstep through a rollback.
    coll_seq: AtomicU64,
    /// The shared chaos runtime, when this endpoint runs in chaos mode.
    chaos: Option<Arc<ChaosRuntime>>,
    /// Per-destination transport sequence counters (chaos mode framing).
    send_seq: Vec<AtomicU64>,
    /// Current communicator generation; halo/gather packets carrying an
    /// older generation are discarded at decode time (rollback stragglers).
    generation: AtomicU64,
}

impl RankEndpoint {
    fn new(
        rank: usize,
        senders: Vec<Sender<Packet>>,
        receiver: Receiver<Packet>,
        alive: Arc<[AtomicBool]>,
        chaos: Option<Arc<ChaosRuntime>>,
    ) -> Self {
        let nranks = senders.len();
        RankEndpoint {
            rank,
            nranks,
            senders,
            receiver: Mutex::new(receiver),
            matcher: Mutex::new(MatchState::new(nranks)),
            alive,
            coll_seq: AtomicU64::new(0),
            chaos,
            send_seq: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The communicator group of one: rank 0 of 1 on the calling thread, its
    /// single channel looping back to itself. On-node stepping
    /// (`Simulation::step`) runs the cluster step loop over this endpoint —
    /// every collective degenerates to the identity and no plan chunk
    /// crosses a rank, so nothing is ever sent.
    pub fn solo() -> Self {
        let (tx, rx) = channel();
        Self::new(0, vec![tx], rx, Arc::new([AtomicBool::new(true)]), None)
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Fail-stops this rank: every peer blocked on it, or on a group
    /// containing it, faults with [`CommError::RankDead`] at its next turn.
    /// The stepping loop calls this on a scheduled crash or a caught panic;
    /// an uncaught panic is marked by [`LocalCluster`] itself.
    pub fn mark_dead(&self) {
        fail_stop(&self.alive, self.chaos.as_deref(), self.rank);
    }

    /// `group` without its fail-stopped members: what recovery shrinks to.
    pub fn survivors(&self, group: &CommGroup) -> CommGroup {
        let alive = |r: &usize| self.alive[*r].load(Ordering::Acquire);
        CommGroup::new(group.members().iter().copied().filter(alive).collect())
    }

    /// Rebinds the bound on the unexpected-message queue (see
    /// [`CommError::QueueOverflow`]).
    pub fn set_unexpected_cap(&self, cap: usize) {
        assert!(cap > 0);
        lock(&self.matcher).cap = cap;
    }

    /// Sends `payload` to `dst` with `tag`. Sending to self is allowed (the
    /// packet is delivered through the same queue). In chaos mode the
    /// payload is framed (length + CRC32 + sequence number) and routed
    /// through the fault plan. On either transport a send to a rank that is
    /// gone (its channel closed) is not an error — the send vanishes, as on
    /// a real fabric; a peer waiting on that rank learns of its death from
    /// the fail-stop detector.
    pub fn send(&self, dst: usize, tag: u64, payload: Bytes) {
        match &self.chaos {
            None => {
                let _ = self.senders[dst].send(Packet {
                    src: self.rank,
                    tag,
                    payload,
                });
            }
            Some(ch) => {
                let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
                let frame = encode_frame(seq, &payload);
                ch.route(self.rank, dst, tag, seq, frame);
            }
        }
    }

    /// Posts a nonblocking, tag-matched receive for the next packet from
    /// `src` carrying `tag`, returning its completion handle (the
    /// `MPI_Irecv` analog). If a matching packet already sits in the
    /// unexpected-message queue the handle completes immediately.
    pub fn irecv(&self, src: usize, tag: u64) -> RecvHandle {
        let slot = Arc::new(OnceLock::new());
        let mut m = lock(&self.matcher);
        let queued = m
            .unexpected
            .iter()
            .position(|p| p.src == src && p.tag == tag)
            .and_then(|pos| m.unexpected.remove(pos));
        match queued {
            Some(pkt) => {
                slot.set(pkt.payload).ok();
            }
            None => m.posted.push_back(PostedRecv {
                src,
                tag,
                slot: slot.clone(),
            }),
        }
        RecvHandle { slot, src, tag }
    }

    /// Delivers `pkt` to the earliest matching posted receive, or queues it
    /// as unexpected (bounded). Returns `true` when a posted receive
    /// completed.
    fn deliver(m: &mut MatchState, pkt: Packet) -> Result<bool, CommError> {
        let posted = m
            .posted
            .iter()
            .position(|r| r.src == pkt.src && r.tag == pkt.tag)
            .and_then(|pos| m.posted.remove(pos));
        if let Some(r) = posted {
            r.slot.set(pkt.payload).ok();
            return Ok(true);
        }
        if m.unexpected.len() >= m.cap {
            return Err(CommError::QueueOverflow { cap: m.cap });
        }
        m.unexpected.push_back(pkt);
        Ok(false)
    }

    /// Validates and absorbs one raw packet from the channel. Non-chaos
    /// packets pass straight to the matcher. Chaos-mode frames are decoded
    /// first: damaged frames trigger a link retransmit and vanish; accepted
    /// frames are acknowledged (clearing the sender-side pristine copy),
    /// duplicate-suppressed by sequence number, and generation-filtered
    /// (halo/gather/owned-exchange stragglers from before a rollback are
    /// discarded; only collective tags, whose bit layout differs, are
    /// exempt).
    fn absorb(&self, m: &mut MatchState, pkt: Packet) -> Result<bool, CommError> {
        let Some(ch) = &self.chaos else {
            return Self::deliver(m, pkt);
        };
        match decode_frame(&pkt.payload) {
            Err(_) => {
                ch.stats.frame_rejects.fetch_add(1, Ordering::Relaxed);
                // A NACK: the damaged frame has arrived, so no retry interval
                // has to pass before its pristine copy is asked for again.
                ch.retransmit(Some(pkt.src), self.rank, Instant::now(), Duration::ZERO);
                Ok(false)
            }
            Ok((seq, payload)) => {
                ch.ack(pkt.src, self.rank, seq);
                if !m.seen[pkt.src].insert(seq) {
                    ch.stats.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                let kind = tags::kind_of(pkt.tag);
                if kind != tags::KIND_COLL
                    && tags::generation_of(pkt.tag) != self.generation.load(Ordering::Relaxed)
                {
                    ch.stats.stale_discards.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                Self::deliver(
                    m,
                    Packet {
                        src: pkt.src,
                        tag: pkt.tag,
                        payload,
                    },
                )
            }
        }
    }

    /// Absorbs every packet buffered in the channel, matching each against
    /// the posted receives; when the channel holds none, first blocks up to
    /// `idle` for one (zero never blocks). In chaos mode, due delayed frames
    /// are released first. Returns `Ok(true)` when at least one packet was
    /// absorbed — completing a posted receive or landing in the
    /// unexpected-message queue.
    fn drain(&self, idle: Duration) -> Result<bool, CommError> {
        if let Some(ch) = &self.chaos {
            ch.pump_delayed();
        }
        let rx = lock(&self.receiver);
        let first = match rx.try_recv() {
            Ok(pkt) => Some(pkt),
            Err(_) if idle > Duration::ZERO => rx.recv_timeout(idle).ok(),
            Err(_) => None,
        };
        let Some(first) = first else {
            return Ok(false);
        };
        let mut m = lock(&self.matcher);
        self.absorb(&mut m, first)?;
        while let Ok(pkt) = rx.try_recv() {
            self.absorb(&mut m, pkt)?;
        }
        Ok(true)
    }

    /// Blocking tag-matched receive over the full group
    /// ([`GroupEndpoint::recv_matched`]); a fault — a dead rank anywhere in
    /// the cluster — is a `communication fault` panic.
    pub fn recv_matched(&self, src: usize, tag: u64) -> Bytes {
        GroupEndpoint::full(self)
            .recv_matched(src, tag)
            .expect("communication fault")
    }

    /// Cancels every posted receive, returning how many were abandoned.
    /// Recovery calls this before rollback: posts belonging to the aborted
    /// step must not linger to swallow post-recovery packets.
    pub fn cancel_posted(&self) -> usize {
        let mut m = lock(&self.matcher);
        let n = m.posted.len();
        m.posted.clear();
        n
    }

    /// Drops queued unexpected halo/gather/owned-exchange packets whose tag
    /// carries a generation other than `generation` (pre-rollback stragglers
    /// that were already matched into the queue). Collective packets are kept —
    /// collective sequence numbers stay in lockstep through recovery, so a
    /// queued collective packet is either still wanted or rots harmlessly
    /// under a never-reused tag. Returns how many packets were purged.
    pub fn purge_stale_unexpected(&self, generation: u64) -> usize {
        let mut m = lock(&self.matcher);
        let before = m.unexpected.len();
        m.unexpected.retain(|p| {
            let kind = tags::kind_of(p.tag);
            kind == tags::KIND_COLL || tags::generation_of(p.tag) == generation
        });
        let purged = before - m.unexpected.len();
        if let Some(ch) = &self.chaos {
            ch.stats
                .stale_discards
                .fetch_add(purged as u64, Ordering::Relaxed);
        }
        purged
    }
}

/// A process-local cluster of rank threads.
pub struct LocalCluster;

impl LocalCluster {
    /// Runs `f` on `nranks` rank threads and returns each rank's result in
    /// rank order. A rank's panic reaches the caller with its own payload;
    /// see [`Self::run_with_chaos`] for which rank's.
    pub fn run<R, F>(nranks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(RankEndpoint) -> R + Sync,
    {
        let (txs, rxs) = Self::wire(nranks);
        Self::run_inner(txs, rxs, None, f)
    }

    /// Runs `f` on `nranks` rank threads over the chaos transport configured
    /// by `cfg`: framed payloads, fault injection per the seeded plan, and
    /// deadline-bounded receives. Also returns the shared [`ChaosRuntime`]
    /// so callers can inspect fault counters after the run.
    ///
    /// On either transport a rank whose closure panics is marked dead before
    /// its panic propagates, and the caller receives the payload of the rank
    /// that panicked *first*: the root cause, not a peer that faulted on it.
    pub fn run_with_chaos<R, F>(nranks: usize, cfg: ChaosConfig, f: F) -> (Vec<R>, Arc<ChaosRuntime>)
    where
        R: Send,
        F: Fn(RankEndpoint) -> R + Sync,
    {
        let (txs, rxs) = Self::wire(nranks);
        let ch = Arc::new(ChaosRuntime::new(nranks, cfg, txs.clone()));
        (Self::run_inner(txs, rxs, Some(ch.clone()), f), ch)
    }

    /// One channel per rank: the senders every rank holds, and each rank's
    /// receiver.
    fn wire(nranks: usize) -> (Vec<Sender<Packet>>, Vec<Receiver<Packet>>) {
        assert!(nranks > 0);
        (0..nranks).map(|_| channel()).unzip()
    }

    fn run_inner<R, F>(
        txs: Vec<Sender<Packet>>,
        rxs: Vec<Receiver<Packet>>,
        chaos: Option<Arc<ChaosRuntime>>,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(RankEndpoint) -> R + Sync,
    {
        let alive: Arc<[AtomicBool]> = txs.iter().map(|_| AtomicBool::new(true)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let results: Vec<Option<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(rank, receiver)| {
                    let ep = RankEndpoint::new(
                        rank,
                        txs.clone(),
                        receiver,
                        alive.clone(),
                        chaos.clone(),
                    );
                    let (f, alive, chaos, first_panic) = (&f, &alive, &chaos, &first_panic);
                    s.spawn(move || match catch_unwind(AssertUnwindSafe(|| f(ep))) {
                        Ok(r) => Some(r),
                        Err(payload) => {
                            // Recorded before the rank is marked dead: a
                            // peer faults on this death only once it is
                            // visible, so the root cause is recorded first.
                            lock(first_panic).get_or_insert(payload);
                            fail_stop(alive, chaos.as_deref(), rank);
                            None
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        });
        if let Some(payload) = lock(&first_panic).take() {
            resume_unwind(payload);
        }
        results.into_iter().flatten().collect()
    }
}

// --- Communicator groups (recovery re-forms these without the dead rank) ----

/// An ordered set of physical ranks acting as one logical communicator —
/// the `MPI_Comm` analog recovery shrinks when a rank dies. Logical rank
/// `i` is the `i`-th surviving physical rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommGroup {
    members: Vec<usize>,
}

impl CommGroup {
    /// The full group `{0, …, nranks-1}`.
    pub fn full(nranks: usize) -> Self {
        CommGroup {
            members: (0..nranks).collect(),
        }
    }

    /// A group of the given physical ranks (sorted, deduplicated).
    pub fn new(mut members: Vec<usize>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a communicator group cannot be empty");
        CommGroup { members }
    }

    /// Number of logical ranks.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for the (impossible) empty group — present for clippy's sake.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Physical rank of logical rank `logical`.
    pub fn physical(&self, logical: usize) -> usize {
        self.members[logical]
    }

    /// Logical rank of physical rank `r`, if it belongs to the group.
    pub fn logical(&self, r: usize) -> Option<usize> {
        self.members.binary_search(&r).ok()
    }

    /// The member physical ranks, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

/// The receive a receive loop — a blocking [`GroupEndpoint::wait`], or the
/// graph's [`GroupEndpoint::pump`] across a whole stage — has left starved:
/// its `(src, tag)`, since when, and the retries it has had.
struct Starved {
    on: (usize, u64),
    since: Instant,
    retries: u32,
}

/// A [`RankEndpoint`] viewed through a [`CommGroup`]: all send/recv/
/// collective calls take *logical* ranks and translate to physical ones.
/// Carries the communicator generation that recovery bumps after each
/// rollback (stamped into every round tag, [`tags::round`]), and polls the
/// cluster's alive flags so a dead group member turns every blocked wait
/// into [`CommError::RankDead`].
pub struct GroupEndpoint<'a> {
    ep: &'a RankEndpoint,
    group: CommGroup,
    /// This endpoint's logical rank within `group`.
    rank: usize,
    generation: u64,
    /// The graph pump's starved receive, carried across its calls.
    pump: Mutex<Option<Starved>>,
}

impl<'a> GroupEndpoint<'a> {
    /// Views `ep` through `group` at communicator generation `generation`.
    /// `ep`'s physical rank must be a member. The endpoint's stale-packet
    /// filter is re-armed to this generation.
    pub fn new(ep: &'a RankEndpoint, group: CommGroup, generation: u64) -> Self {
        let Some(rank) = group.logical(ep.rank()) else {
            panic!("rank {} is not a member of {:?}", ep.rank(), group);
        };
        ep.generation.store(generation, Ordering::Relaxed);
        GroupEndpoint {
            ep,
            group,
            rank,
            generation,
            pump: Mutex::new(None),
        }
    }

    /// The trivial view: full group, current generation. What non-chaos
    /// callers (`step_cluster`) use.
    pub fn full(ep: &'a RankEndpoint) -> Self {
        let generation = ep.generation.load(Ordering::Relaxed);
        Self::new(ep, CommGroup::full(ep.nranks()), generation)
    }

    /// Logical rank of this endpoint within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of logical ranks in the group.
    pub fn nranks(&self) -> usize {
        self.group.len()
    }

    /// The underlying physical rank.
    pub fn physical_rank(&self) -> usize {
        self.ep.rank()
    }

    /// The group this view translates through.
    pub fn group(&self) -> &CommGroup {
        &self.group
    }

    /// The communicator generation this view stamps into round tags.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The first detected fault affecting this group (a dead member), if
    /// any. Polled by every turn of the receive engine so failures unblock
    /// peers.
    pub fn fault(&self) -> Option<CommError> {
        self.group
            .members()
            .iter()
            .find(|&&r| !self.ep.alive[r].load(Ordering::Acquire))
            .map(|&rank| CommError::RankDead { rank })
    }

    /// Sends to *logical* rank `dst`.
    pub fn send(&self, dst: usize, tag: u64, payload: Bytes) {
        self.ep.send(self.group.physical(dst), tag, payload);
    }

    /// Posts a nonblocking receive from *logical* rank `src`.
    pub fn irecv(&self, src: usize, tag: u64) -> RecvHandle {
        self.ep.irecv(self.group.physical(src), tag)
    }

    /// Blocks until `h` completes — turns of the receive engine until it
    /// does, each blocking on the channel for at most `IDLE_POLL` (1 ms) —
    /// surfacing dead-member and timeout faults as typed errors instead of
    /// hanging. Packets for *other* posted receives arriving meanwhile are
    /// delivered or queued as unexpected, never dropped. Only one thread of
    /// a rank may block here at a time (the solver's fenced path and
    /// collectives are single-threaded per rank; the overlapped path never
    /// blocks — it polls through [`Self::pump`]).
    pub fn wait(&self, h: &RecvHandle) -> Result<Bytes, CommError> {
        let mut starved = None;
        loop {
            if let Some(b) = h.payload() {
                return Ok(b);
            }
            self.turn(&mut starved, IDLE_POLL, Some(h))?;
        }
    }

    /// Blocking tag-matched receive from *logical* rank `src`.
    pub fn recv_matched(&self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let h = self.irecv(src, tag);
        self.wait(&h)
    }

    /// One nonblocking turn of the receive engine, for the overlapped
    /// executor's progress hook: its stall clock runs across calls and
    /// watches the earliest posted receive.
    pub fn pump(&self) -> Result<bool, CommError> {
        self.turn(&mut lock(&self.pump), Duration::ZERO, None)
    }

    /// One turn of the receive engine, the one place its stall policy
    /// lives: drain the channel (blocking up to `idle` while it is empty);
    /// unless `awaited` completed, poll the fail-stop detector; on the chaos
    /// transport, time the receive left starved (`awaited`, or the pump's
    /// earliest posted one) — retransmit with exponential backoff, of its
    /// link or of every link for the pump, then [`CommError::Timeout`].
    /// The plain transport loses nothing and has no deadline.
    fn turn(
        &self,
        stall: &mut Option<Starved>,
        idle: Duration,
        awaited: Option<&RecvHandle>,
    ) -> Result<bool, CommError> {
        let drained = self.ep.drain(idle)?;
        if awaited.is_some_and(|h| h.slot.get().is_some()) {
            return Ok(drained);
        }
        if let Some(e) = self.fault() {
            return Err(e);
        }
        let Some(ch) = &self.ep.chaos else {
            return Ok(drained);
        };
        let now = Instant::now();
        let starved = match awaited {
            _ if drained => None,
            Some(h) => Some((h.src, h.tag)),
            None => lock(&self.ep.matcher)
                .posted
                .front()
                .map(|r| (r.src, r.tag)),
        };
        let Some(on) = starved else {
            *stall = None;
            return Ok(drained);
        };
        // The clock runs while the same receive stays starved.
        let mut st = stall.take().filter(|st| st.on == on).unwrap_or(Starved {
            on,
            since: now,
            retries: 0,
        });
        let waited_ms = now.saturating_duration_since(st.since).as_millis() as u64;
        if waited_ms >= ch.config().wait_timeout_ms {
            let (src, tag) = on;
            return Err(CommError::Timeout {
                src,
                tag,
                waited_ms,
                retries: st.retries,
            });
        }
        // Retry k goes out once the stall is (2^(k+1) − 1) first intervals
        // old, re-sending frames at least its own interval 2^k old.
        let first = ch.config().retry_backoff_ms.max(1);
        let interval = first.saturating_mul(2u64.saturating_pow(st.retries));
        if waited_ms >= interval.saturating_mul(2) - first {
            let link = awaited.map(|h| h.src);
            ch.retransmit(link, self.ep.rank(), now, Duration::from_millis(interval));
            st.retries += 1;
        }
        *stall = Some(st);
        Ok(drained)
    }

    /// Binomial-tree all-reduce over the group's *logical* ranks (root =
    /// logical 0, so the tree survives a crash of physical rank 0 after the
    /// group is re-formed without it). Tag-matched via the endpoint's
    /// collective sequence counter; every receive polls the group fault so
    /// a mid-collective death aborts the reduction instead of hanging it.
    pub fn allreduce_f64(
        &self,
        value: f64,
        combine: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, CommError> {
        let n = self.nranks();
        let rank = self.rank();
        let seq = self.ep.coll_seq.fetch_add(1, Ordering::Relaxed);
        let reduce_tag = tags::collective(seq, 0);
        let bcast_tag = tags::collective(seq, 1);
        let mut acc = value;
        // Reduce to logical rank 0 over a binomial tree; each step has a
        // specific partner, so matching on (partner, tag) makes the combine
        // order deterministic.
        let mut step = 1;
        while step < n {
            if rank.is_multiple_of(2 * step) {
                let partner = rank + step;
                if partner < n {
                    let payload = self.recv_matched(partner, reduce_tag)?;
                    acc = combine(acc, decode_f64(&payload, partner, reduce_tag)?);
                }
            } else if rank % (2 * step) == step {
                self.send(rank - step, reduce_tag, Bytes::copy_from_slice(&acc.to_le_bytes()));
                break;
            }
            step *= 2;
        }
        // Broadcast back down the same tree.
        let mut steps = Vec::new();
        let mut s = 1;
        while s < n {
            steps.push(s);
            s *= 2;
        }
        for &s in steps.iter().rev() {
            if rank.is_multiple_of(2 * s) {
                let partner = rank + s;
                if partner < n {
                    self.send(partner, bcast_tag, Bytes::copy_from_slice(&acc.to_le_bytes()));
                }
            } else if rank % (2 * s) == s {
                let payload = self.recv_matched(rank - s, bcast_tag)?;
                acc = decode_f64(&payload, rank - s, bcast_tag)?;
            }
        }
        Ok(acc)
    }
}

/// Splits one `N`-byte fixed-width field off the front of a received
/// payload, advancing `bytes` past it; `None` when fewer than `N` bytes
/// remain. Every wire decoder reads its little-endian words through this,
/// so a short or foreign packet is a value to handle, never a slice-length
/// panic.
pub fn take_field<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (field, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*field)
}

/// Decodes a little-endian `f64` collective payload, mapping a wrong-sized
/// packet to [`CommError::MalformedPayload`] instead of panicking: the bytes
/// arrived from another rank, so their length is an input to validate, not
/// an invariant to assert.
fn decode_f64(payload: &Bytes, src: usize, tag: u64) -> Result<f64, CommError> {
    let bytes: [u8; 8] =
        payload
            .as_ref()
            .try_into()
            .map_err(|_| CommError::MalformedPayload {
                src,
                tag,
                expected: 8,
                got: payload.len(),
            })?;
    Ok(f64::from_le_bytes(bytes))
}

impl RankEndpoint {
    /// Binomial-tree all-reduce of one `f64` with a commutative combiner:
    /// every rank returns the combined value. The collective the solver's
    /// `ComputeDt` needs (`ReduceRealMin`), executed over real channels.
    ///
    /// Every receive is tag-matched against the endpoint's collective
    /// sequence counter, so point-to-point traffic interleaved with the
    /// collective (e.g. halo packets from a rank already running ahead) is
    /// parked in the unexpected queue instead of being mis-consumed — the
    /// untagged `recv()` this used to call would have combined a ghost
    /// payload into `dt` (`collective_tests::allreduce_ignores_interleaved_
    /// point_to_point_traffic` regresses this).
    pub fn allreduce_f64(&self, value: f64, combine: impl Fn(f64, f64) -> f64) -> f64 {
        GroupEndpoint::full(self)
            .allreduce_f64(value, combine)
            .expect("communication fault")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_accumulates() {
        // Each rank sends its rank id around a ring; everyone ends with the
        // global sum.
        let n = 5;
        let sums = LocalCluster::run(n, |ep| {
            let mut acc = ep.rank() as u64;
            let mut token = ep.rank() as u64;
            for _ in 0..n - 1 {
                ep.send((ep.rank() + 1) % n, 0, Bytes::copy_from_slice(&token.to_le_bytes()));
                let p = ep.recv_matched((ep.rank() + n - 1) % n, 0);
                token = u64::from_le_bytes(p.as_ref().try_into().unwrap());
                acc += token;
            }
            acc
        });
        let expect: u64 = (0..n as u64).sum();
        assert!(sums.iter().all(|&s| s == expect), "{sums:?}");
    }

    #[test]
    fn tags_and_sources_preserved() {
        let out = LocalCluster::run(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 42, Bytes::from_static(b"ghost"));
                0u64
            } else {
                // Only the receive naming the sender's rank and tag matches.
                let other_tag = ep.irecv(0, 41);
                let h = ep.irecv(0, 42);
                let payload = GroupEndpoint::full(&ep).wait(&h).expect("fault-free");
                assert_eq!((h.src(), h.tag()), (0, 42));
                assert_eq!(payload.as_ref(), b"ghost");
                assert!(
                    other_tag.payload().is_none(),
                    "a packet matched the wrong tag"
                );
                ep.cancel_posted();
                h.tag()
            }
        });
        assert_eq!(out, vec![0, 42]);
    }

    #[test]
    fn all_to_all_delivery() {
        let n = 4;
        let counts = LocalCluster::run(n, |ep| {
            for dst in 0..n {
                if dst != ep.rank() {
                    ep.send(dst, ep.rank() as u64, Bytes::new());
                }
            }
            let srcs: Vec<usize> = (0..n).filter(|&src| src != ep.rank()).collect();
            for &src in &srcs {
                assert!(ep.recv_matched(src, src as u64).is_empty());
            }
            srcs.len()
        });
        assert!(counts.iter().all(|&c| c == n - 1));
    }

    /// The payload the caller of a 2-rank cluster receives, the cluster
    /// running on a watchdog thread so a hang fails the test instead of
    /// stalling it.
    fn panic_payload_within(
        limit: Duration,
        chaos: bool,
        body: fn(RankEndpoint) -> usize,
    ) -> Option<&'static str> {
        let (tx, rx) = channel();
        let watched = std::thread::spawn(move || {
            let result = catch_unwind(|| match chaos {
                false => LocalCluster::run(2, body),
                true => LocalCluster::run_with_chaos(2, ChaosConfig::default(), body).0,
            });
            let payload = result.expect_err("a rank's panic must reach the caller");
            let _ = tx.send(payload.downcast_ref::<&str>().copied());
        });
        match rx.recv_timeout(limit) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("the cluster hung (chaos: {chaos})")
            }
            got => {
                watched.join().unwrap_or_else(|p| resume_unwind(p));
                got.ok().flatten()
            }
        }
    }

    #[test]
    fn a_rank_panic_reaches_the_caller() {
        let explode = |ep: RankEndpoint| {
            if ep.rank() == 1 {
                panic!("rank 1 exploded");
            }
            ep.rank()
        };
        // Rank 0 blocks on the rank that dies (rank 1 panics once rank 0's
        // message says it is about to): the fail-stop detector must unblock
        // it on both transports, and the caller must get the root cause,
        // not rank 0's `communication fault`.
        let blocked = |ep: RankEndpoint| {
            if ep.rank() == 1 {
                ep.recv_matched(0, 6);
                panic!("rank 1 exploded");
            }
            ep.send(1, 6, Bytes::new());
            ep.recv_matched(1, 7);
            ep.rank()
        };
        for chaos in [false, true] {
            for body in [explode as fn(RankEndpoint) -> usize, blocked] {
                assert_eq!(
                    panic_payload_within(Duration::from_secs(2), chaos, body),
                    Some("rank 1 exploded"),
                    "chaos: {chaos}"
                );
            }
        }
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn allreduce_min_matches_serial() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let values: Vec<f64> = (0..n).map(|r| ((r * 7919) % 23) as f64 - 5.0).collect();
            let expect = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let vs = values.clone();
            let out = LocalCluster::run(n, move |ep| {
                ep.allreduce_f64(vs[ep.rank()], f64::min)
            });
            assert!(
                out.iter().all(|&v| v == expect),
                "n = {n}: {out:?} (expected {expect})"
            );
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let n = 6;
        let out = LocalCluster::run(n, move |ep| {
            ep.allreduce_f64(ep.rank() as f64 + 1.0, |a, b| a + b)
        });
        assert!(out.iter().all(|&v| (v - 21.0).abs() < 1e-12), "{out:?}");
    }

    #[test]
    fn solo_endpoint_is_a_group_of_one() {
        let ep = RankEndpoint::solo();
        assert_eq!((ep.rank(), ep.nranks()), (0, 1));
        assert_eq!(ep.allreduce_f64(3.5, f64::min), 3.5);
        assert_eq!(GroupEndpoint::full(&ep).rank(), 0);
    }

    /// Regression for the untagged-`recv()` bug: a halo packet already
    /// sitting in the root's channel when the collective starts must land in
    /// the unexpected queue, not be combined into the reduction.
    #[test]
    fn allreduce_ignores_interleaved_point_to_point_traffic() {
        for n in [2usize, 4] {
            let halo_tag = tags::halo(3, 1, 7);
            let out = LocalCluster::run(n, move |ep| {
                if ep.rank() == 1 {
                    // Poison value: if mis-consumed by min(), dt collapses.
                    ep.send(0, halo_tag, Bytes::copy_from_slice(&(-1e30f64).to_le_bytes()));
                    // Give the packet time to arrive before the collective.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                let dt = ep.allreduce_f64(1.0 + ep.rank() as f64, f64::min);
                let halo = (ep.rank() == 0)
                    .then(|| f64::from_le_bytes(ep.recv_matched(1, halo_tag).as_ref().try_into().unwrap()));
                (dt, halo)
            });
            for (r, &(dt, halo)) in out.iter().enumerate() {
                assert_eq!(dt, 1.0, "rank {r} of {n}: halo payload leaked into allreduce");
                if r == 0 {
                    assert_eq!(halo, Some(-1e30));
                }
            }
        }
    }

    /// Back-to-back collectives stay matched via the sequence counter even
    /// when a fast subtree races ahead to the next collective.
    #[test]
    fn consecutive_allreduces_do_not_cross_match() {
        let n = 5;
        let out = LocalCluster::run(n, move |ep| {
            let a = ep.allreduce_f64(ep.rank() as f64, f64::max);
            let b = ep.allreduce_f64(-(ep.rank() as f64), f64::min);
            (a, b)
        });
        assert!(out.iter().all(|&(a, b)| a == 4.0 && b == -4.0), "{out:?}");
    }
}

#[cfg(test)]
mod matched_tests {
    use super::*;

    #[test]
    fn irecv_matches_out_of_order_arrivals() {
        let out = LocalCluster::run(2, |ep| {
            if ep.rank() == 0 {
                // Send in the opposite order of the receiver's posts.
                ep.send(1, 20, Bytes::from_static(b"second"));
                ep.send(1, 10, Bytes::from_static(b"first"));
                Vec::new()
            } else {
                let h10 = ep.irecv(0, 10);
                let h20 = ep.irecv(0, 20);
                let gep = GroupEndpoint::full(&ep);
                vec![
                    gep.wait(&h10).expect("fault-free"),
                    gep.wait(&h20).expect("fault-free"),
                ]
            }
        });
        assert_eq!(out[1][0].as_ref(), b"first");
        assert_eq!(out[1][1].as_ref(), b"second");
    }

    #[test]
    fn unexpected_packets_complete_later_posts_immediately() {
        let out = LocalCluster::run(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 99, Bytes::from_static(b"early"));
                true
            } else {
                // Drain the channel into the unexpected queue first.
                while !ep.drain(Duration::ZERO).expect("fault-free transport") {
                    std::thread::yield_now();
                }
                let h = ep.irecv(0, 99);
                assert!(h.payload().is_some(), "unexpected-queue match must be immediate");
                h.payload().unwrap().as_ref() == b"early"
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn duplicate_tags_match_in_arrival_order() {
        let out = LocalCluster::run(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 5, Bytes::from_static(b"a"));
                ep.send(1, 5, Bytes::from_static(b"b"));
                Vec::new()
            } else {
                let h1 = ep.irecv(0, 5);
                let h2 = ep.irecv(0, 5);
                let gep = GroupEndpoint::full(&ep);
                vec![
                    gep.wait(&h1).expect("fault-free"),
                    gep.wait(&h2).expect("fault-free"),
                ]
            }
        });
        // Posted order matches arrival order (per-sender FIFO).
        assert_eq!(out[1][0].as_ref(), b"a");
        assert_eq!(out[1][1].as_ref(), b"b");
    }

    #[test]
    fn tag_namespace_kinds_never_collide() {
        let h = tags::halo(1, 2, 3);
        let c = tags::collective(1, 0);
        let r = tags::round(0, 1);
        assert_ne!(h, c);
        assert_ne!(r, h);
        assert_ne!(r, c);
        assert_ne!(tags::halo(1, 2, 3), tags::halo(2, 2, 3));
        assert_ne!(tags::collective(1, 0), tags::collective(1, 1));
        assert_ne!(tags::collective(1, 0), tags::collective(2, 0));
        for (epoch, seq) in [(0, 0), (3, 1), (0xFFFF, 1 << 60)] {
            for generation in 0..16 {
                for n in (0..64).chain([0xFFF, 0x1000, (1 << 52) - 1]) {
                    let t = tags::round(generation, n);
                    assert_ne!(t, tags::halo(epoch, 0, 0));
                    assert_ne!(t, tags::collective(seq, 0));
                    assert_ne!(t, tags::collective(seq, 1));
                }
            }
        }
    }

    /// Every rank-crossing round (gather, redistribution, checkpoint,
    /// reflux, the solver's halos) draws its tag from one round counter:
    /// tags are distinct across `(generation, n)`, carry their generation
    /// where the stale filter reads it, and never take the halo or
    /// collective kind.
    #[test]
    fn owned_tag_spaces_are_disjoint_and_generation_stamped() {
        let mut seen = std::collections::HashSet::new();
        for generation in 0..16 {
            for n in (0..64).chain([0xFFF, 0x1000, (1 << 52) - 1]) {
                let t = tags::round(generation, n);
                assert!(seen.insert(t), "round ({generation}, {n}) collides");
                assert_eq!(tags::generation_of(t), generation);
                assert_ne!(tags::kind_of(t), tags::KIND_HALO);
                assert_ne!(tags::kind_of(t), tags::KIND_COLL);
            }
        }
    }

    /// A halo epoch's top 4 bits are the generation: the same epoch in two
    /// generations gives two tags, and `generation_of` reads it back.
    #[test]
    fn generation_epochs_separate_tags_and_roundtrip() {
        let e0 = 7;
        let e1 = (1 << 12) | 7;
        assert_ne!(tags::halo(e0, 1, 3), tags::halo(e1, 1, 3));
        assert_eq!(tags::generation_of(tags::halo(e1, 1, 3)), 1);
        assert_eq!(tags::generation_of(tags::halo(e0, 1, 3)), 0);
        assert_ne!(tags::round(0, 7), tags::round(1, 7));
        assert_eq!(tags::generation_of(tags::round(1, 7)), 1);
        assert_eq!(tags::kind_of(tags::halo(e1, 1, 3)), tags::KIND_HALO);
        assert_eq!(tags::kind_of(tags::collective(9, 1)), tags::KIND_COLL);
    }

    /// Satellite regression: flooding a rank with unmatched tags must fail
    /// fast with a typed overflow error, not grow the queue without bound.
    #[test]
    fn unmatched_flood_overflows_with_typed_error() {
        // The victim overflows after 17 packets, long before the flooder's
        // 64th send: both ranks meet at this barrier before either returns,
        // so the victim's verdict is read before either endpoint drops.
        let done = std::sync::Barrier::new(2);
        let out = LocalCluster::run(2, |ep| {
            if ep.rank() == 0 {
                for i in 0..64u64 {
                    ep.send(1, 1000 + i, Bytes::new());
                }
                // Wait for the victim's verdict before exiting.
                ep.recv_matched(1, 7);
                done.wait();
                Ok(true)
            } else {
                ep.set_unexpected_cap(16);
                let err = loop {
                    match ep.drain(Duration::ZERO) {
                        Ok(_) => std::thread::yield_now(),
                        Err(e) => break e,
                    }
                };
                ep.send(0, 7, Bytes::new());
                done.wait();
                assert_eq!(err, CommError::QueueOverflow { cap: 16 });
                Err(err)
            }
        });
        assert_eq!(out[1], Err(CommError::QueueOverflow { cap: 16 }));
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::chaos::{ChaosConfig, CrashPhase, CrashSpec};

    /// Exchanges a deterministic payload pattern pairwise and returns every
    /// rank's received bytes, for comparing faulty vs fault-free transports.
    fn pairwise_exchange(nranks: usize, cfg: Option<ChaosConfig>) -> Vec<Vec<u8>> {
        let body = |ep: RankEndpoint| {
            let mut got = Vec::new();
            for round in 0..20u64 {
                for dst in 0..ep.nranks() {
                    if dst != ep.rank() {
                        let msg: Vec<u8> =
                            (0..48).map(|i| (i as u64 ^ round ^ ep.rank() as u64) as u8).collect();
                        ep.send(dst, tags::halo(round, 0, ep.rank()), Bytes::from(msg));
                    }
                }
                for src in 0..ep.nranks() {
                    if src != ep.rank() {
                        let b = ep.recv_matched(src, tags::halo(round, 0, src));
                        got.extend_from_slice(b.as_ref());
                    }
                }
            }
            got
        };
        match cfg {
            None => LocalCluster::run(nranks, body),
            Some(c) => LocalCluster::run_with_chaos(nranks, c, body).0,
        }
    }

    /// With all fault probabilities zero, the framed transport is invisible:
    /// the exchange produces byte-identical results to the raw transport.
    #[test]
    fn zero_fault_chaos_transport_is_invisible() {
        let clean = pairwise_exchange(3, None);
        let framed = pairwise_exchange(3, Some(ChaosConfig::default()));
        assert_eq!(clean, framed);
    }

    /// Drop + duplicate + corrupt + delay faults are all repaired by the
    /// transport: payloads arrive intact and in order, and the stats prove
    /// faults were actually injected and repaired.
    #[test]
    fn injected_faults_are_detected_and_repaired() {
        let clean = pairwise_exchange(3, None);
        let cfg = ChaosConfig {
            seed: 0xFA11,
            drop_p: 0.08,
            duplicate_p: 0.08,
            corrupt_p: 0.08,
            delay_p: 0.08,
            delay_ms: 1,
            ..ChaosConfig::default()
        };
        let body = |ep: RankEndpoint| {
            let mut got = Vec::new();
            for round in 0..20u64 {
                for dst in 0..ep.nranks() {
                    if dst != ep.rank() {
                        let msg: Vec<u8> =
                            (0..48).map(|i| (i as u64 ^ round ^ ep.rank() as u64) as u8).collect();
                        ep.send(dst, tags::halo(round, 0, ep.rank()), Bytes::from(msg));
                    }
                }
                for src in 0..ep.nranks() {
                    if src != ep.rank() {
                        let b = ep.recv_matched(src, tags::halo(round, 0, src));
                        got.extend_from_slice(b.as_ref());
                    }
                }
            }
            got
        };
        let (faulty, ch) = LocalCluster::run_with_chaos(3, cfg, body);
        assert_eq!(clean, faulty, "transport repair must be exact");
        assert!(ch.stats.injected() > 0, "plan injected no faults at these rates");
        let [drops, dups, corrupts, delays, retransmits, rejects, suppressed, _] =
            ch.stats.snapshot();
        assert!(drops > 0 && dups > 0 && corrupts > 0 && delays > 0);
        assert!(retransmits > 0, "drops require retransmit repair");
        assert!(rejects >= corrupts, "every corruption must be CRC-rejected");
        assert!(suppressed >= dups, "every duplicate must be suppressed");
    }

    /// A dead group member turns a blocked wait into `RankDead` instead of
    /// a hang on either transport, and group collectives route around the
    /// hole (including a dead physical rank 0: logical rank 0 becomes the
    /// tree root).
    #[test]
    fn dead_member_unblocks_waits_and_group_collectives_work() {
        let body = |ep: RankEndpoint| {
            if ep.rank() == 0 {
                // "Crash" immediately: mark dead and return.
                ep.mark_dead();
                return (None, 0.0);
            }
            // Survivors: first observe the death via a wait on rank 0.
            let full = GroupEndpoint::full(&ep);
            let err = full
                .recv_matched(0, tags::halo(0, 0, 0))
                .expect_err("wait on a dead rank must fail");
            assert_eq!(err, CommError::RankDead { rank: 0 });
            // Re-form the group without the dead rank and reduce over it.
            let survivors = ep.survivors(full.group());
            assert_eq!(survivors.members(), &[1, 2, 3]);
            let gep = GroupEndpoint::new(&ep, survivors, 1);
            let sum = gep
                .allreduce_f64(ep.rank() as f64, |a, b| a + b)
                .expect("surviving collective");
            (Some(err), sum)
        };
        let plain = LocalCluster::run(4, body);
        let (framed, _ch) = LocalCluster::run_with_chaos(4, ChaosConfig::default(), body);
        for out in [plain, framed] {
            for (r, (err, sum)) in out.iter().enumerate().skip(1) {
                assert_eq!(*err, Some(CommError::RankDead { rank: 0 }), "rank {r}");
                assert_eq!(*sum, 6.0, "rank {r}: survivor sum over {{1,2,3}}");
            }
        }
    }

    /// Stale-generation round packets (pre-rollback stragglers) are filtered
    /// at decode time; the same round at the new generation still flows.
    #[test]
    fn stale_generation_packets_are_discarded() {
        let cfg = ChaosConfig::default();
        let (out, ch) = LocalCluster::run_with_chaos(2, cfg, |ep| {
            if ep.rank() == 0 {
                // Old-generation packet, then the new-generation one.
                ep.send(1, tags::round(0, 3), Bytes::from_static(b"old"));
                ep.send(1, tags::round(1, 3), Bytes::from_static(b"new"));
                Bytes::new()
            } else {
                let gep = GroupEndpoint::new(&ep, CommGroup::full(2), 1);
                gep.recv_matched(0, tags::round(1, 3))
                    .expect("new-generation packet must arrive")
            }
        });
        assert_eq!(out[1].as_ref(), b"new");
        assert!(
            ch.stats.stale_discards.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "the old-generation packet must be discarded"
        );
    }

    /// A receive nobody answers, from a live and silent peer, ends in a
    /// typed `Timeout` naming the awaited `(src, tag)` after the stall
    /// policy retried — through a blocking wait and through the graph pump
    /// alike.
    #[test]
    fn starved_receives_time_out_after_retrying() {
        let cfg = ChaosConfig {
            wait_timeout_ms: 40,
            ..ChaosConfig::default()
        };
        let (waited, pumped) = (tags::halo(1, 0, 1), tags::halo(2, 0, 1));
        let done = std::sync::Barrier::new(2);
        let (out, _ch) = LocalCluster::run_with_chaos(2, cfg, |ep| {
            if ep.rank() == 1 {
                done.wait();
                return Vec::new();
            }
            let gep = GroupEndpoint::full(&ep);
            let by_wait = gep.wait(&gep.irecv(1, waited)).expect_err("nobody sends");
            ep.cancel_posted();
            let gep = GroupEndpoint::full(&ep);
            gep.irecv(1, pumped);
            let by_pump = loop {
                match gep.pump() {
                    Ok(_) => std::thread::yield_now(),
                    Err(e) => break e,
                }
            };
            done.wait();
            vec![by_wait, by_pump]
        });
        for (err, want) in out[0].iter().zip([waited, pumped]) {
            let CommError::Timeout {
                src,
                tag,
                waited_ms,
                retries,
            } = *err
            else {
                panic!("expected a timeout, got {err:?}");
            };
            assert_eq!((src, tag), (1, want));
            assert!(waited_ms >= 40, "gave up after {waited_ms} ms");
            assert!(retries > 0, "the stall policy must retry before giving up");
        }
    }

    #[test]
    fn crash_spec_lookup_matches_rank_step_phase() {
        let cfg = ChaosConfig {
            crashes: vec![CrashSpec {
                rank: 2,
                step: 5,
                phase: CrashPhase::AfterDt,
            }],
            ..ChaosConfig::default()
        };
        assert!(cfg.crash_at(2, 5, CrashPhase::AfterDt).is_some());
        assert!(cfg.crash_at(2, 5, CrashPhase::StepStart).is_none());
        assert!(cfg.crash_at(2, 4, CrashPhase::AfterDt).is_none());
        assert!(cfg.crash_at(1, 5, CrashPhase::AfterDt).is_none());
    }

    #[test]
    fn seq_tracker_suppresses_replays_and_compacts() {
        let mut t = SeqTracker::default();
        assert!(t.insert(0));
        assert!(t.insert(2));
        assert!(!t.insert(0), "replay of contiguous prefix");
        assert!(!t.insert(2), "replay of sparse entry");
        assert!(t.insert(1));
        assert_eq!(t.contig, 3, "prefix must compact through the gap fill");
        assert!(!t.insert(1));
        assert!(t.sparse.is_empty());
    }
}
