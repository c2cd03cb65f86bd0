//! Deterministic fault injection, payload framing, and the shared chaos
//! runtime behind the resilient cluster transport (DESIGN.md §4g).
//!
//! Production AMR codes at Summit scale treat message corruption, stragglers,
//! and node failures as operational facts; this module gives the simulated
//! runtime the same adversary. Three pieces:
//!
//! * [`ChaosConfig`] / [`FaultPlan`] — a *seeded, timing-independent* fault
//!   schedule: every transmission's fate (deliver / drop / duplicate /
//!   bit-flip / bounded delay) is a pure hash of
//!   `(seed, src, dst, tag, seq)`, so a chaos run is exactly reproducible
//!   regardless of thread interleaving, and whole-rank crashes fire at a
//!   chosen `(rank, step, phase)` in the stepping loop.
//! * [`encode_frame`] / [`decode_frame`] — the detection layer's wire
//!   format: a `magic | length | sequence | CRC32` header in front of every
//!   payload, so truncation, bit flips, and replays are *detected* at the
//!   receiver instead of silently corrupting ghost cells.
//! * [`ChaosRuntime`] — the cluster-wide shared state: the pristine-frame
//!   retransmit store that receiver-driven retries pull from, the
//!   delayed-frame queue, and fault counters for the ablation study. The
//!   fail-stop detector is not here: it is the cluster's, the same on both
//!   transports (`runtime::cluster`).
//!
//! The injection/repair contract: drop, duplication, corruption, and delay
//! are repaired entirely inside the transport (retransmit + CRC +
//! per-(src,dst) sequence numbers), so solver results are bitwise-identical
//! to a fault-free run. Only a rank crash escapes the transport, surfacing
//! as a typed [`CommError`](crate::cluster::CommError) that the stepping
//! loop answers with checkpoint rollback.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::cluster::{take_field, Packet};

/// Where in a time step an injected whole-rank crash fires (the recovery
/// edge cases each need a distinct phase: before any collective, after the
/// rank-local regrid, and mid-RK after the dt collective).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPhase {
    /// At step entry, before regrid and before the dt collective.
    StepStart,
    /// After the rank-local regrid (peers block in the dt allreduce).
    AfterRegrid,
    /// After the dt allreduce (peers block in stage halo/gather traffic).
    AfterDt,
}

/// One scheduled whole-rank crash: `rank` fail-stops when its stepping loop
/// reaches `step` at `phase`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The physical (endpoint) rank that dies.
    pub rank: usize,
    /// The step counter value at which it dies.
    pub step: u32,
    /// Where inside that step it dies.
    pub phase: CrashPhase,
}

/// Chaos-layer configuration, carried by `SolverConfig::chaos` and by
/// [`LocalCluster::run_with_chaos`](crate::cluster::LocalCluster::run_with_chaos).
/// When present, every cluster payload is framed (length + CRC32 + sequence
/// number) and receives grow deadlines with retransmit + exponential
/// backoff; the probabilities select which transmissions the fault plan
/// sabotages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault plan.
    pub seed: u64,
    /// Probability a transmission is dropped (repaired by retransmit).
    pub drop_p: f64,
    /// Probability a transmission is duplicated (repaired by sequence
    /// numbers).
    pub duplicate_p: f64,
    /// Probability a transmission has one bit flipped (repaired by CRC +
    /// retransmit).
    pub corrupt_p: f64,
    /// Probability a transmission is held back for [`Self::delay_ms`].
    pub delay_p: f64,
    /// Bounded delay applied to delayed transmissions, in milliseconds.
    pub delay_ms: u64,
    /// Scheduled whole-rank crashes (recovered by checkpoint rollback).
    pub crashes: Vec<CrashSpec>,
    /// Steps between in-memory recovery checkpoints in the chaos stepping
    /// loop (`advance_steps_chaos`).
    pub checkpoint_interval: u32,
    /// Deadline for one matched receive before it fails with
    /// `CommError::Timeout`.
    pub wait_timeout_ms: u64,
    /// Initial receiver-driven retransmit backoff; doubles per retry.
    pub retry_backoff_ms: u64,
    /// Storage-fault plan applied to the durable checkpoint store, when the
    /// solver is configured to spill checkpoints to disk (`None` = the
    /// store is faithful).
    pub storage: Option<StorageFaultPlan>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x5EED_CAFE,
            drop_p: 0.0,
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            delay_p: 0.0,
            delay_ms: 2,
            crashes: Vec::new(),
            checkpoint_interval: 4,
            wait_timeout_ms: 10_000,
            retry_backoff_ms: 1,
            storage: None,
        }
    }
}

impl ChaosConfig {
    /// The crash scheduled for `(rank, step, phase)`, if any.
    pub fn crash_at(&self, rank: usize, step: u32, phase: CrashPhase) -> Option<&CrashSpec> {
        self.crashes
            .iter()
            .find(|c| c.rank == rank && c.step == step && c.phase == phase)
    }
}

/// The fate the fault plan assigns one transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Delivered untouched.
    Deliver,
    /// Silently discarded (receiver retransmit repairs it).
    Drop,
    /// Delivered twice (sequence numbers suppress the replay).
    Duplicate,
    /// Delivered with one bit flipped (CRC rejects it; retransmit repairs).
    Corrupt,
    /// Held back for the configured bounded delay, then delivered.
    Delay,
}

/// `splitmix64` — the standard 64-bit finalizer/mixer; a pure function, so
/// fault decisions depend only on the transmission's identity, never on
/// timing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded, deterministic per-transmission fault decisions. Every decision is
/// a hash of `(seed, src, dst, tag, seq)`: two runs with the same seed and
/// the same traffic make identical decisions in any thread interleaving.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    duplicate_p: f64,
    corrupt_p: f64,
    delay_p: f64,
}

impl FaultPlan {
    /// Builds the plan from a chaos configuration.
    pub fn new(cfg: &ChaosConfig) -> Self {
        let total = cfg.drop_p + cfg.duplicate_p + cfg.corrupt_p + cfg.delay_p;
        assert!(
            (0.0..=1.0).contains(&total),
            "fault probabilities must sum into [0, 1], got {total}"
        );
        FaultPlan {
            seed: cfg.seed,
            drop_p: cfg.drop_p,
            duplicate_p: cfg.duplicate_p,
            corrupt_p: cfg.corrupt_p,
            delay_p: cfg.delay_p,
        }
    }

    /// Hashes one transmission's identity into a uniform `[0, 1)` draw.
    fn draw(&self, src: usize, dst: usize, tag: u64, seq: u64) -> (f64, u64) {
        let mut h = splitmix64(self.seed ^ (src as u64).wrapping_mul(0x9E3779B97F4A7C15));
        h = splitmix64(h ^ (dst as u64));
        h = splitmix64(h ^ tag);
        h = splitmix64(h ^ seq);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (u, splitmix64(h))
    }

    /// Decides the fate of one transmission. The second return value is an
    /// auxiliary hash (e.g. the bit position a corruption flips).
    pub fn decide(&self, src: usize, dst: usize, tag: u64, seq: u64) -> (FaultAction, u64) {
        let (u, aux) = self.draw(src, dst, tag, seq);
        let mut edge = self.drop_p;
        if u < edge {
            return (FaultAction::Drop, aux);
        }
        edge += self.duplicate_p;
        if u < edge {
            return (FaultAction::Duplicate, aux);
        }
        edge += self.corrupt_p;
        if u < edge {
            return (FaultAction::Corrupt, aux);
        }
        edge += self.delay_p;
        if u < edge {
            return (FaultAction::Delay, aux);
        }
        (FaultAction::Deliver, aux)
    }
}

// --- Storage faults ---------------------------------------------------------

/// The damage the storage-fault plan inflicts on one checkpoint-store write
/// (the durable-spill analogue of [`FaultAction`]). Silent faults corrupt
/// what lands and *claim success* — only the CRC seal catches them at
/// recovery time; loud faults surface as errors the spill loop must handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageFault {
    /// Only a prefix of the bytes lands at the destination (crash mid-write
    /// on a stack without atomic rename, or a rename against an unsynced
    /// temp file). Silent: detected by the CRC seal at recovery.
    TornWrite,
    /// One bit of the landed object flips (media decay / firmware bug).
    /// Silent: detected by the CRC seal at recovery.
    BitFlip,
    /// The write claims success but nothing lands — and any previous object
    /// under the same name is gone (lost manifest, dropped journal entry).
    LoseWrite,
    /// fsync blocks for the configured delay, then the write succeeds.
    SlowFsync,
    /// fsync fails transiently with an I/O error. Loud: the writer sees the
    /// error; a retry draws a fresh decision, so backoff repairs it.
    FsyncFail,
    /// The device is out of space. Loud and *not* transient: the spill loop
    /// must degrade gracefully (warn + continue on in-memory checkpoints)
    /// rather than retry or abort.
    NoSpace,
}

/// Seeded, deterministic per-write storage-fault decisions for the durable
/// checkpoint store — the disk-side counterpart of [`FaultPlan`]. Each
/// write attempt is numbered by the store; the fault drawn for attempt `k`
/// is a pure hash of `(seed, k)`, so a chaos run replays identically.
///
/// Two deterministic overrides sit in front of the probabilistic draw:
/// [`Self::scheduled`] pins an exact fault to an exact attempt (the recovery
/// tests use this to tear precisely the write they mean to), and
/// [`Self::nospace_after`] makes every attempt from an index onward fail
/// with [`StorageFault::NoSpace`] (a full disk does not un-fill itself).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StorageFaultPlan {
    /// Seed of the per-attempt draws.
    pub seed: u64,
    /// Probability a write lands torn (prefix only, silent success).
    pub torn_p: f64,
    /// Probability a landed write has one bit flipped (silent success).
    pub flip_p: f64,
    /// Probability a write vanishes entirely (silent success).
    pub lose_p: f64,
    /// Probability fsync stalls for [`Self::fsync_delay_ms`] then succeeds.
    pub slow_fsync_p: f64,
    /// Probability fsync fails transiently (loud error, retryable).
    pub fsync_fail_p: f64,
    /// Stall applied by a slow fsync, in milliseconds.
    pub fsync_delay_ms: u64,
    /// Every write attempt `>= n` fails with `NoSpace` (persistent
    /// disk-full).
    pub nospace_after: Option<u64>,
    /// Exact-attempt faults: `(attempt index, fault)`. Checked before the
    /// probabilistic draw, so tests can place a torn write surgically.
    pub scheduled: Vec<(u64, StorageFault)>,
}

impl StorageFaultPlan {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn quiet(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            ..StorageFaultPlan::default()
        }
    }

    /// Decides the fate of write attempt `attempt` (a store-scoped counter).
    /// Returns the fault, if any, plus an auxiliary hash (torn-write keep
    /// length, bit-flip position). Pure function: replays are identical.
    pub fn decide(&self, attempt: u64) -> (Option<StorageFault>, u64) {
        let h = splitmix64(self.seed ^ splitmix64(attempt));
        let aux = splitmix64(h);
        if let Some(&(_, fault)) = self.scheduled.iter().find(|&&(a, _)| a == attempt) {
            return (Some(fault), aux);
        }
        if let Some(n) = self.nospace_after {
            if attempt >= n {
                return (Some(StorageFault::NoSpace), aux);
            }
        }
        let total =
            self.torn_p + self.flip_p + self.lose_p + self.slow_fsync_p + self.fsync_fail_p;
        assert!(
            (0.0..=1.0).contains(&total),
            "storage fault probabilities must sum into [0, 1], got {total}"
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = self.torn_p;
        if u < edge {
            return (Some(StorageFault::TornWrite), aux);
        }
        edge += self.flip_p;
        if u < edge {
            return (Some(StorageFault::BitFlip), aux);
        }
        edge += self.lose_p;
        if u < edge {
            return (Some(StorageFault::LoseWrite), aux);
        }
        edge += self.slow_fsync_p;
        if u < edge {
            return (Some(StorageFault::SlowFsync), aux);
        }
        edge += self.fsync_fail_p;
        if u < edge {
            return (Some(StorageFault::FsyncFail), aux);
        }
        (None, aux)
    }
}

// --- CRC32 (IEEE 802.3, polynomial 0xEDB88320) ------------------------------

/// Slice-by-16 lookup tables (16 KiB), built at compile time. `[0]` is the
/// classic reflected-polynomial byte table; `[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, which lets sixteen input bytes be
/// folded with sixteen independent lookups instead of a sixteen-long
/// dependency chain.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Raw (pre-inversion) CRC-32 state update, for checksumming
/// non-contiguous regions without concatenating them. Sixteen bytes per
/// iteration; only the tail of fewer than sixteen goes byte by byte, so the
/// result is independent of how the input is split across calls or aligned
/// in memory.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let [b0, b1, b2, b3, rest @ ..] = *block;
        let head = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        c = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
        for (k, &b) in rest.iter().enumerate() {
            c ^= t[11 - k][b as usize];
        }
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data` — the checksum framing every chaos-mode cluster
/// payload and sealing checkpoint files (`core::io`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The frame checksum: CRC-32 over the sequence number then the payload.
/// Covering `seq` matters — a bit flip there would otherwise decode
/// cleanly, ack the wrong pristine frame, and let the retransmit of the
/// real one slip past duplicate suppression as a double delivery. (Magic
/// and length flips are caught structurally by the decode checks.)
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    crc32_update(crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()), payload) ^ 0xFFFF_FFFF
}

// --- Payload framing --------------------------------------------------------

/// Frame magic: the first four bytes of every framed payload.
pub const FRAME_MAGIC: u32 = 0xC50C_C0DE;
/// Framed-payload header length: magic + length + sequence + CRC32.
pub const FRAME_HEADER: usize = 4 + 4 + 8 + 4;

/// Why a received frame was rejected (all repairable by retransmit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header.
    Truncated,
    /// Magic bytes damaged.
    BadMagic,
    /// Header length disagrees with the byte count on the wire.
    LengthMismatch,
    /// Payload checksum mismatch (bit flip in flight).
    CrcMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than its header"),
            FrameError::BadMagic => write!(f, "frame magic damaged"),
            FrameError::LengthMismatch => write!(f, "frame length mismatch"),
            FrameError::CrcMismatch => write!(f, "frame CRC32 mismatch"),
        }
    }
}

/// Wraps `payload` in the detection header: `magic | len | seq | crc32`.
/// Inverse of [`decode_frame`]. One CRC pass over the payload and one write
/// of it, into the buffer the returned [`Bytes`] then owns.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// Validates a frame header, returning `(seq, payload)` with the payload a
/// view into `frame` itself (one CRC pass, no copy). Any damage —
/// truncation, magic/length corruption, payload bit flips — is reported as
/// a typed [`FrameError`] for the retransmit path.
pub fn decode_frame(frame: &Bytes) -> Result<(u64, Bytes), FrameError> {
    let mut rest: &[u8] = frame;
    let (Some(magic), Some(len), Some(seq), Some(crc)) = (
        take_field(&mut rest),
        take_field(&mut rest),
        take_field(&mut rest),
        take_field(&mut rest),
    ) else {
        return Err(FrameError::Truncated);
    };
    if u32::from_le_bytes(magic) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if rest.len() != u32::from_le_bytes(len) as usize {
        return Err(FrameError::LengthMismatch);
    }
    let seq = u64::from_le_bytes(seq);
    if frame_crc(seq, rest) != u32::from_le_bytes(crc) {
        return Err(FrameError::CrcMismatch);
    }
    Ok((seq, frame.slice(FRAME_HEADER..)))
}

// --- Shared runtime ---------------------------------------------------------

/// Fault and repair counters, exposed for the ablation study and asserted on
/// by the chaos tests (e.g. "the plan injected at least one drop and the
/// transport repaired it").
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Transmissions dropped by the plan.
    pub drops: AtomicU64,
    /// Transmissions duplicated by the plan.
    pub duplicates: AtomicU64,
    /// Transmissions bit-flipped by the plan.
    pub corruptions: AtomicU64,
    /// Transmissions delayed by the plan.
    pub delays: AtomicU64,
    /// Frames re-sent from the pristine store by receiver-driven retries.
    pub retransmits: AtomicU64,
    /// Received frames rejected by header/CRC validation.
    pub frame_rejects: AtomicU64,
    /// Received frames suppressed as duplicates by sequence tracking.
    pub dup_suppressed: AtomicU64,
    /// Stale-generation packets discarded after a rollback.
    pub stale_discards: AtomicU64,
}

impl ChaosStats {
    /// Plain-number snapshot `(drops, duplicates, corruptions, delays,
    /// retransmits, frame_rejects, dup_suppressed, stale_discards)`.
    pub fn snapshot(&self) -> [u64; 8] {
        [
            self.drops.load(Ordering::Relaxed),
            self.duplicates.load(Ordering::Relaxed),
            self.corruptions.load(Ordering::Relaxed),
            self.delays.load(Ordering::Relaxed),
            self.retransmits.load(Ordering::Relaxed),
            self.frame_rejects.load(Ordering::Relaxed),
            self.dup_suppressed.load(Ordering::Relaxed),
            self.stale_discards.load(Ordering::Relaxed),
        ]
    }

    /// Total faults the plan injected.
    pub fn injected(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
            + self.duplicates.load(Ordering::Relaxed)
            + self.corruptions.load(Ordering::Relaxed)
            + self.delays.load(Ordering::Relaxed)
    }
}

/// A frame held back by a `Delay` fault, with its release deadline.
struct DelayedFrame {
    due: Instant,
    dst: usize,
    pkt: Packet,
}

/// One retained pristine frame and the instant it was routed.
struct InflightFrame {
    seq: u64,
    tag: u64,
    frame: Bytes,
    routed: Instant,
}

/// Pristine in-flight frames per `(src, dst)` link — the sender-side
/// retransmit buffer. Entries are removed when the receiver acknowledges
/// transport delivery of their sequence number.
#[derive(Default)]
struct ChaosState {
    inflight: HashMap<(usize, usize), VecDeque<InflightFrame>>,
    delayed: Vec<DelayedFrame>,
}

/// Per-link cap on retained pristine frames: a runaway sender cannot grow
/// the store without bound (oldest frames are evicted; an evicted frame that
/// is later needed surfaces as a receive timeout, i.e. an unrecoverable
/// transport fault — the same contract as a real NIC's retransmit window).
const INFLIGHT_CAP: usize = 4096;

/// The cluster-wide chaos runtime: one instance shared by every rank thread
/// of a [`LocalCluster`](crate::cluster::LocalCluster) run in chaos mode.
/// Holds the fault plan, the retransmit store, the delayed-frame queue, and
/// the fault counters.
pub struct ChaosRuntime {
    cfg: ChaosConfig,
    plan: FaultPlan,
    senders: Vec<Sender<Packet>>,
    state: Mutex<ChaosState>,
    /// Fault/repair counters (see [`ChaosStats`]).
    pub stats: ChaosStats,
}

impl ChaosRuntime {
    /// Builds the runtime for an `nranks` cluster whose per-rank channel
    /// senders are `senders` (clones of the cluster's transmit endpoints, so
    /// retransmits and delayed releases can inject packets directly).
    pub fn new(nranks: usize, cfg: ChaosConfig, senders: Vec<Sender<Packet>>) -> Self {
        assert_eq!(senders.len(), nranks);
        let plan = FaultPlan::new(&cfg);
        ChaosRuntime {
            cfg,
            plan,
            senders,
            state: Mutex::new(ChaosState::default()),
            stats: ChaosStats::default(),
        }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    fn lock_state(&self) -> MutexGuard<'_, ChaosState> {
        // The store and the queue are valid between any two of their
        // operations; a rank that panicked holding the lock is fail-stopped
        // by the cluster, not by its peers' next retry.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops the retransmit store's and the delay queue's frames on links
    /// touching `rank`, which has fail-stopped: nobody will pull them.
    pub fn forget_rank(&self, rank: usize) {
        let mut st = self.lock_state();
        st.inflight.retain(|&(s, d), _| s != rank && d != rank);
        st.delayed.retain(|f| f.dst != rank && f.pkt.src != rank);
    }

    /// Best-effort channel injection (a dead rank's closed channel is not an
    /// error — fail-stop sends simply vanish, as on a real fabric).
    fn inject(&self, dst: usize, pkt: Packet) {
        let _ = self.senders[dst].send(pkt);
    }

    /// Registers one framed transmission in the pristine store and routes it
    /// per the fault plan: the single entry point for every chaos-mode send.
    pub fn route(&self, src: usize, dst: usize, tag: u64, seq: u64, frame: Bytes) {
        let retained = InflightFrame {
            seq,
            tag,
            frame: frame.clone(),
            routed: Instant::now(),
        };
        {
            let mut st = self.lock_state();
            let link = st.inflight.entry((src, dst)).or_default();
            if link.len() >= INFLIGHT_CAP {
                link.pop_front();
            }
            link.push_back(retained);
        }
        let pkt = Packet {
            src,
            tag,
            payload: frame,
        };
        let (action, aux) = self.plan.decide(src, dst, tag, seq);
        match action {
            FaultAction::Deliver => self.inject(dst, pkt),
            FaultAction::Drop => {
                self.stats.drops.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Duplicate => {
                self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                self.inject(dst, pkt.clone());
                self.inject(dst, pkt);
            }
            FaultAction::Corrupt => {
                self.stats.corruptions.fetch_add(1, Ordering::Relaxed);
                let mut bytes = pkt.payload.as_ref().to_vec();
                let bit = (aux as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                self.inject(
                    dst,
                    Packet {
                        payload: Bytes::from(bytes),
                        ..pkt
                    },
                );
            }
            FaultAction::Delay => {
                self.stats.delays.fetch_add(1, Ordering::Relaxed);
                let due = Instant::now() + Duration::from_millis(self.cfg.delay_ms);
                self.lock_state().delayed.push(DelayedFrame { due, dst, pkt });
            }
        }
    }

    /// Acknowledges transport delivery of `(src → dst, seq)`: the pristine
    /// copy is dropped from the retransmit store.
    pub fn ack(&self, src: usize, dst: usize, seq: u64) {
        let mut st = self.lock_state();
        if let Some(link) = st.inflight.get_mut(&(src, dst)) {
            if let Some(pos) = link.iter().position(|f| f.seq == seq) {
                link.remove(pos);
            }
        }
    }

    /// Receiver-driven retry: re-sends the pristine frames still unacked on
    /// the `src → dst` link — or, with `src` `None`, on every link into
    /// `dst`, the broad retry a stalled progress pump uses when it cannot
    /// attribute the stall to one link. `polled` is when the receiver last
    /// found its channel empty; frames routed less than `min_age` before
    /// that are skipped — within one retry interval an unacked frame is
    /// presumed still in the channel, not lost, and one routed after the
    /// poll was never looked for. Retransmissions bypass fault injection
    /// (the plan draws once per original transmission), so retries always
    /// make progress and chaos runs terminate.
    pub fn retransmit(&self, src: Option<usize>, dst: usize, polled: Instant, min_age: Duration) {
        let frames: Vec<(usize, u64, Bytes)> = {
            let st = self.lock_state();
            st.inflight
                .iter()
                .filter(|(&(s, d), _)| d == dst && src.is_none_or(|want| want == s))
                .flat_map(|(&(s, _), link)| {
                    link.iter()
                        .filter(|f| polled.saturating_duration_since(f.routed) >= min_age)
                        .map(move |f| (s, f.tag, f.frame.clone()))
                })
                .collect()
        };
        for (src, tag, frame) in frames {
            self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
            self.inject(
                dst,
                Packet {
                    src,
                    tag,
                    payload: frame,
                },
            );
        }
    }

    /// Releases every delayed frame whose deadline has passed. Called from
    /// the receive drains, so delays resolve without a dedicated timer
    /// thread.
    pub fn pump_delayed(&self) {
        let now = Instant::now();
        let due: Vec<(usize, Packet)> = {
            let mut st = self.lock_state();
            let mut out = Vec::new();
            let mut i = 0;
            while i < st.delayed.len() {
                if st.delayed[i].due <= now {
                    let f = st.delayed.swap_remove(i);
                    out.push((f.dst, f.pkt));
                } else {
                    i += 1;
                }
            }
            out
        };
        for (dst, pkt) in due {
            self.inject(dst, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop the slice-by-16 kernel replaced, kept
    /// as the oracle it must agree with on every input.
    fn crc32_update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Every length 0..=4096 at every start misalignment 0..16 into a
    /// larger buffer: block loop, tail loop and their boundary all agree
    /// with the oracle.
    #[test]
    fn crc32_update_matches_bytewise_oracle_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..4096 + 16u64)
            .map(|i| (splitmix64(i) >> 24) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=4096 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, data),
                    crc32_update_bytewise(0xFFFF_FFFF, data),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Arbitrary state, contents and split point: the kernel equals the
        /// oracle and is a running state (`update(update(s, a), b) ==
        /// update(s, a‖b)`), which is what `frame_crc` relies on.
        #[test]
        fn crc32_update_is_the_oracle_and_splits_anywhere(
            state in proptest::prelude::any::<u32>(),
            data in proptest::prelude::prop::collection::vec(
                proptest::prelude::any::<u8>(), 0..2048usize),
            cut in proptest::prelude::any::<u64>(),
        ) {
            let whole = crc32_update(state, &data);
            proptest::prop_assert_eq!(whole, crc32_update_bytewise(state, &data));
            let (a, b) = data.split_at((cut % (data.len() as u64 + 1)) as usize);
            proptest::prop_assert_eq!(whole, crc32_update(crc32_update(state, a), b));
        }

        /// The frame decoder is the one surface that reads bytes straight
        /// off the (simulated) wire: every single-bit flip, truncation and
        /// extension of a valid frame must come back as a typed
        /// `FrameError` — never a panic, never `Ok` with another
        /// `(seq, payload)`.
        #[test]
        fn mutated_frames_are_rejected_with_typed_errors(
            seq in proptest::prelude::any::<u64>(),
            payload in proptest::prelude::prop::collection::vec(
                proptest::prelude::any::<u8>(), 0..96usize),
            extension in proptest::prelude::prop::collection::vec(
                proptest::prelude::any::<u8>(), 1..24usize),
        ) {
            let frame = encode_frame(seq, &payload);
            let (s, p) = decode_frame(&frame).expect("pristine frame decodes");
            proptest::prop_assert_eq!((s, &*p), (seq, &payload[..]));
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                proptest::prop_assert!(
                    decode_frame(&Bytes::from(bad)).is_err(),
                    "flip of bit {} decoded", bit
                );
            }
            for keep in 0..frame.len() {
                let cut = decode_frame(&frame.slice(..keep));
                proptest::prop_assert!(
                    matches!(cut, Err(FrameError::Truncated | FrameError::LengthMismatch)),
                    "truncation to {} bytes: {:?}", keep, cut
                );
            }
            let mut longer = frame.to_vec();
            longer.extend_from_slice(&extension);
            proptest::prop_assert_eq!(
                decode_frame(&Bytes::from(longer)),
                Err(FrameError::LengthMismatch)
            );
        }
    }

    /// The wire format, pinned byte for byte: `magic | len | seq | crc32 |
    /// payload`, all little-endian, CRC over seq then payload.
    #[test]
    fn frame_encoding_is_pinned_to_golden_bytes() {
        let frame = encode_frame(0x0102_0304_0506_0708, b"ghost cells");
        let golden: [u8; 31] = [
            0xDE, 0xC0, 0x0C, 0xC5, // magic 0xC50CC0DE
            0x0B, 0x00, 0x00, 0x00, // payload length 11
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seq
            0xFE, 0xDF, 0xBC, 0x74, // crc32(seq ‖ payload) = 0x74BCDFFE (zlib agrees)
            b'g', b'h', b'o', b's', b't', b' ', b'c', b'e', b'l', b'l', b's',
        ];
        assert_eq!(&*frame, &golden[..]);
        assert_eq!(
            decode_frame(&Bytes::copy_from_slice(&golden)),
            Ok((0x0102_0304_0506_0708, Bytes::from_static(b"ghost cells")))
        );
    }

    #[test]
    fn frame_roundtrip_and_rejection_matrix() {
        let payload = b"ghost cells".as_slice();
        let frame = encode_frame(42, payload);
        let (seq, body) = decode_frame(&frame).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(body.as_ref(), payload);
        // The decoded payload is a view into the frame, not a copy.
        assert_eq!(body.as_ptr(), frame[FRAME_HEADER..].as_ptr());

        let flipped = |at: usize, mask: u8| {
            let mut bad = frame.to_vec();
            bad[at] ^= mask;
            decode_frame(&Bytes::from(bad))
        };
        // Truncated below the header.
        assert_eq!(decode_frame(&frame.slice(..10)), Err(FrameError::Truncated));
        // Truncated payload.
        assert_eq!(
            decode_frame(&frame.slice(..frame.len() - 1)),
            Err(FrameError::LengthMismatch)
        );
        // Magic damage.
        assert_eq!(flipped(0, 0xFF), Err(FrameError::BadMagic));
        // Payload bit flip.
        assert_eq!(flipped(frame.len() - 1, 0x01), Err(FrameError::CrcMismatch));
        // Sequence-field bit flip: covered by the frame CRC.
        assert_eq!(flipped(9, 0x01), Err(FrameError::CrcMismatch));
        // Length-field bit flip: caught structurally.
        assert_eq!(flipped(4, 0x01), Err(FrameError::LengthMismatch));
    }

    /// A retry skips frames routed within one retry interval of the
    /// receiver's last empty poll (they are still in the channel), so a
    /// fault-free run retransmits nothing; a frame unacked for longer is
    /// re-sent, on the narrow and the broad retry alike.
    #[test]
    fn retransmit_skips_frames_younger_than_the_retry_interval() {
        let (tx, rx) = std::sync::mpsc::channel::<Packet>();
        let rt = ChaosRuntime::new(2, ChaosConfig::default(), vec![tx.clone(), tx]);
        rt.route(0, 1, 7, 0, encode_frame(0, b"halo"));
        assert!(rx.try_recv().is_ok(), "fault-free route delivers once");
        let retransmits = || rt.stats.retransmits.load(Ordering::Relaxed);

        let routed = Instant::now();
        let interval = Duration::from_millis(1);
        rt.retransmit(Some(0), 1, routed, interval);
        rt.retransmit(None, 1, routed, interval);
        assert_eq!(retransmits(), 0, "a young frame is presumed in flight");
        assert!(rx.try_recv().is_err());

        let later = routed + interval;
        rt.retransmit(Some(0), 1, later, interval);
        rt.retransmit(None, 1, later, interval);
        assert_eq!(retransmits(), 2, "an overdue frame is re-sent by both retries");
        let again = rx.try_recv().expect("retransmitted frame");
        assert_eq!((again.src, again.tag), (0, 7));
        assert_eq!(decode_frame(&again.payload).unwrap().0, 0);

        // Other links are untouched, and an acked frame is gone for good.
        rt.retransmit(Some(1), 0, later, Duration::ZERO);
        rt.ack(0, 1, 0);
        rt.retransmit(None, 1, later, Duration::ZERO);
        assert_eq!(retransmits(), 2);
    }

    #[test]
    fn fault_plan_is_deterministic_and_respects_rates() {
        let cfg = ChaosConfig {
            drop_p: 0.1,
            duplicate_p: 0.1,
            corrupt_p: 0.1,
            delay_p: 0.1,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::new(&cfg);
        let plan2 = FaultPlan::new(&cfg);
        let mut counts = [0usize; 5];
        let n = 20_000u64;
        for seq in 0..n {
            let (a, _) = plan.decide(0, 1, 7, seq);
            assert_eq!(a, plan2.decide(0, 1, 7, seq).0, "plan must be a pure function");
            counts[match a {
                FaultAction::Deliver => 0,
                FaultAction::Drop => 1,
                FaultAction::Duplicate => 2,
                FaultAction::Corrupt => 3,
                FaultAction::Delay => 4,
            }] += 1;
        }
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let rate = c as f64 / n as f64;
            assert!(
                (rate - 0.1).abs() < 0.02,
                "fault class {i} rate {rate} far from configured 0.1"
            );
        }
        // Different seeds decide differently somewhere.
        let other = FaultPlan::new(&ChaosConfig {
            seed: 999,
            ..cfg.clone()
        });
        assert!(
            (0..1000).any(|s| plan.decide(0, 1, 7, s).0 != other.decide(0, 1, 7, s).0),
            "seed must matter"
        );
    }

    #[test]
    #[should_panic(expected = "sum into")]
    fn overfull_probabilities_are_rejected() {
        FaultPlan::new(&ChaosConfig {
            drop_p: 0.9,
            corrupt_p: 0.5,
            ..ChaosConfig::default()
        });
    }

    #[test]
    fn storage_plan_is_deterministic_and_respects_rates() {
        let plan = StorageFaultPlan {
            seed: 7,
            torn_p: 0.1,
            flip_p: 0.1,
            lose_p: 0.1,
            slow_fsync_p: 0.1,
            fsync_fail_p: 0.1,
            ..StorageFaultPlan::default()
        };
        let plan2 = plan.clone();
        let mut counts = [0usize; 6];
        let n = 20_000u64;
        for attempt in 0..n {
            let (f, _) = plan.decide(attempt);
            assert_eq!(f, plan2.decide(attempt).0, "plan must be a pure function");
            counts[match f {
                None => 0,
                Some(StorageFault::TornWrite) => 1,
                Some(StorageFault::BitFlip) => 2,
                Some(StorageFault::LoseWrite) => 3,
                Some(StorageFault::SlowFsync) => 4,
                Some(StorageFault::FsyncFail) => 5,
                Some(StorageFault::NoSpace) => unreachable!("not configured"),
            }] += 1;
        }
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let rate = c as f64 / n as f64;
            assert!(
                (rate - 0.1).abs() < 0.02,
                "storage fault class {i} rate {rate} far from configured 0.1"
            );
        }
    }

    #[test]
    fn storage_plan_overrides_take_precedence() {
        let plan = StorageFaultPlan {
            seed: 1,
            scheduled: vec![(3, StorageFault::TornWrite)],
            nospace_after: Some(10),
            ..StorageFaultPlan::default()
        };
        // Quiet except the overrides.
        assert_eq!(plan.decide(0).0, None);
        assert_eq!(plan.decide(3).0, Some(StorageFault::TornWrite));
        assert_eq!(plan.decide(9).0, None);
        assert_eq!(plan.decide(10).0, Some(StorageFault::NoSpace));
        assert_eq!(plan.decide(11_000).0, Some(StorageFault::NoSpace));
        // A scheduled fault wins even past the disk-full horizon.
        let plan = StorageFaultPlan {
            scheduled: vec![(12, StorageFault::BitFlip)],
            ..plan
        };
        assert_eq!(plan.decide(12).0, Some(StorageFault::BitFlip));
    }

    #[test]
    #[should_panic(expected = "sum into")]
    fn overfull_storage_probabilities_are_rejected() {
        StorageFaultPlan {
            torn_p: 0.9,
            flip_p: 0.5,
            ..StorageFaultPlan::default()
        }
        .decide(0);
    }
}
