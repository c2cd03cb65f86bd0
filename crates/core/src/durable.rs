//! Durable checkpoints: double-buffered atomic disk spill and coordinated
//! cold restart (DESIGN.md §4j).
//!
//! PR 5's chaos recovery survives any fault that leaves one live rank
//! holding the in-memory snapshot — but a *whole-process* death (node loss,
//! preemption, job migration) loses every copy. This module closes that
//! hole, the same way AMReX treats native checkpoint/restart as a
//! first-class subsystem so hierarchies can be rebuilt on a
//! differently-shaped machine:
//!
//! * [`DiskStore`] — the only sanctioned way checkpoint bytes reach disk:
//!   write to a temp file, `fsync`, atomically rename over the final name,
//!   then `fsync` the directory. A crash at any instant leaves either the
//!   old object or the new one, never a mix (enforced repo-wide by `cargo
//!   xtask lint` rule 8: no bare `fs::write`/`File::create` on
//!   checkpoint/manifest paths outside the writer modules).
//! * [`DurableCheckpointer`] — double-buffered spill: successive
//!   checkpoints alternate between the [`SLOT_NAMES`] slots (`chk_A` /
//!   `chk_B`), so the previous sealed checkpoint is *never opened for
//!   write* while the new one lands; a CRC-sealed [`Manifest`] records the
//!   latest valid slot. Transient write errors retry with exponential
//!   backoff; `NoSpace` does not (a full disk does not un-fill itself) and
//!   surfaces to the step loop, which degrades to in-memory-only
//!   checkpoints with a warning instead of aborting.
//! * [`recover`] — cold-restart entry: validate the manifest, check the
//!   referenced slot's length + CRC, fall back to the *other* slot when the
//!   manifest is lost or its slot is torn/corrupt, and return a typed
//!   [`CkptError`] (never a panic) when nothing survives.
//! * [`Simulation::from_checkpoint_file_owned`] — rebuilds an owned-data
//!   rank from the recovered file. Restart `nranks` may differ from write
//!   `nranks`: the checkpoint is whole-domain and the
//!   `DistributionMapping` re-partitions from the restart config (PR 8),
//!   so a 4-rank run restarts fine on 2 ranks, or 1 on 4.
//! * [`FaultyStore`] — the storage-fault chaos layer: wraps any store and
//!   sabotages writes per a seeded [`StorageFaultPlan`] — torn
//!   writes, bit flips, lost objects, slow/failing fsync, disk-full — so
//!   the recovery ladder above is *tested* against the failure model, not
//!   assumed.

use crate::config::SolverConfig;
use crate::driver::Simulation;
use crate::io::{parse_checkpoint, verify_sealed, Checkpoint};
use crocco_runtime::chaos::{crc32, StorageFault, StorageFaultPlan};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The two double-buffer slot names, in rotation order.
pub const SLOT_NAMES: [&str; 2] = ["chk_A", "chk_B"];

/// The manifest object name.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Typed durable-checkpoint failure — every fault the spill and recovery
/// paths can hit surfaces as one of these, never as a panic.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying storage I/O failure. Transient by contract: the spill
    /// loop retries with backoff.
    Io(std::io::Error),
    /// The device is out of space. Not transient and not retried — the
    /// step loop degrades to in-memory-only checkpoints with a warning.
    NoSpace,
    /// An object exists but failed validation (CRC, parse, or manifest
    /// agreement).
    Corrupt {
        /// Which object (slot or manifest name).
        object: String,
        /// What the validation found.
        reason: String,
    },
    /// Cold restart found neither a usable manifest-referenced slot nor a
    /// parseable fallback slot.
    NoValidSlot {
        /// Per-object failure notes accumulated during the recovery scan.
        detail: String,
    },
}

impl CkptError {
    /// `true` for faults a retry can plausibly repair (plain I/O errors
    /// such as an injected fsync failure); `false` for disk-full and for
    /// validation failures, which retrying cannot fix.
    pub fn is_transient(&self) -> bool {
        matches!(self, CkptError::Io(_))
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
            CkptError::NoSpace => write!(f, "checkpoint store out of space"),
            CkptError::Corrupt { object, reason } => {
                write!(f, "checkpoint object {object} corrupt: {reason}")
            }
            CkptError::NoValidSlot { detail } => {
                write!(f, "no valid checkpoint slot to restart from ({detail})")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Maps a raw I/O error, promoting `ENOSPC` to the typed non-transient
/// [`CkptError::NoSpace`] so the retry loop does not hammer a full disk.
fn map_io(e: std::io::Error) -> CkptError {
    // libc::ENOSPC == 28 on every Unix this builds for; `StorageFull` is
    // the portable kind on recent std.
    if e.raw_os_error() == Some(28) || format!("{:?}", e.kind()).contains("StorageFull") {
        CkptError::NoSpace
    } else {
        CkptError::Io(e)
    }
}

/// Where checkpoint objects live — injectable so the chaos layer
/// ([`FaultyStore`]) can sit between the spiller and the real disk.
///
/// Object names are flat (no path separators): the two slots and the
/// manifest. `write_atomic` is all-or-nothing *per the store's contract*:
/// after it returns `Ok`, a reader sees exactly `bytes`; after `Err`, the
/// previous object (if any) is still intact. Fault-injecting stores
/// deliberately violate the first half — that is what recovery is for.
pub trait CheckpointStore: Send {
    /// Durably replaces object `name` with `bytes`.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError>;
    /// Reads object `name`; `Ok(None)` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, CkptError>;
    /// Best-effort removal of object `name` (absence is success).
    fn remove(&self, name: &str);
}

impl<S: CheckpointStore + Sync> CheckpointStore for std::sync::Arc<S> {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        (**self).write_atomic(name, bytes)
    }
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, CkptError> {
        (**self).read(name)
    }
    fn remove(&self, name: &str) {
        (**self).remove(name)
    }
}

/// The production store: a directory on the local filesystem, written via
/// temp file + `fsync` + atomic rename + directory `fsync` — the classic
/// crash-consistent sequence (either the old object or the new one is
/// visible after a crash, never a torn mix).
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) the spill directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(map_io)?;
        Ok(DiskStore { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl CheckpointStore for DiskStore {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        assert!(
            !name.contains(['/', '\\']),
            "checkpoint object names are flat"
        );
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        let mut f = fs::File::create(&tmp).map_err(map_io)?;
        f.write_all(bytes).map_err(map_io)?;
        // Data must be on stable storage *before* the rename publishes it:
        // rename-then-sync can land a zero-length file after a crash.
        f.sync_all().map_err(map_io)?;
        drop(f);
        fs::rename(&tmp, &fin).map_err(map_io)?;
        // Persist the rename itself (the directory entry). Best effort:
        // some filesystems refuse fsync on a directory handle.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, CkptError> {
        match fs::read(self.dir.join(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(map_io(e)),
        }
    }

    fn remove(&self, name: &str) {
        let _ = fs::remove_file(self.dir.join(name));
    }
}

/// Storage-fault chaos layer: wraps a store and sabotages write attempts
/// per the seeded plan. Silent faults (torn write, bit flip, lost object)
/// *claim success* — only the CRC seal catches them at recovery; loud
/// faults (failing fsync, disk-full) surface as typed errors the spill
/// loop must handle. Reads pass through untouched: recovery sees exactly
/// what "landed".
pub struct FaultyStore<S: CheckpointStore> {
    inner: S,
    plan: StorageFaultPlan,
    attempts: AtomicU64,
    /// Count of faults injected so far (asserted on by the chaos tests).
    pub injected: AtomicU64,
}

impl<S: CheckpointStore> FaultyStore<S> {
    /// Wraps `inner` with the fault plan.
    pub fn new(inner: S, plan: StorageFaultPlan) -> Self {
        FaultyStore {
            inner,
            plan,
            attempts: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }
}

impl<S: CheckpointStore> CheckpointStore for FaultyStore<S> {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let (fault, aux) = self.plan.decide(attempt);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            None => self.inner.write_atomic(name, bytes),
            Some(StorageFault::TornWrite) => {
                // A prefix lands at the *final* name (the crash-mid-write
                // this store's atomic contract normally forbids), and the
                // caller is told everything went fine.
                let keep = (aux as usize) % (bytes.len() + 1);
                self.inner.write_atomic(name, &bytes[..keep])?;
                Ok(())
            }
            Some(StorageFault::BitFlip) => {
                let mut flipped = bytes.to_vec();
                if !flipped.is_empty() {
                    let bit = (aux as usize) % (flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.write_atomic(name, &flipped)?;
                Ok(())
            }
            Some(StorageFault::LoseWrite) => {
                // Nothing lands — and the previous object under this name
                // is gone too (lost manifest / dropped journal entry).
                self.inner.remove(name);
                Ok(())
            }
            Some(StorageFault::SlowFsync) => {
                std::thread::sleep(std::time::Duration::from_millis(self.plan.fsync_delay_ms));
                self.inner.write_atomic(name, bytes)
            }
            Some(StorageFault::FsyncFail) => Err(CkptError::Io(std::io::Error::other(
                "injected fsync failure",
            ))),
            Some(StorageFault::NoSpace) => Err(CkptError::NoSpace),
        }
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, CkptError> {
        self.inner.read(name)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
}

/// The parsed manifest: which slot holds the latest sealed checkpoint, and
/// what that slot's bytes must look like.
///
/// On-disk format — a CRC-sealed text object (same trailer as v2
/// checkpoints):
///
/// ```text
/// CROCCO-MAN 1
/// slot chk_A
/// step 12
/// len 43210
/// crc 89abcdef
/// <CRC trailer over everything above>
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Slot name holding the checkpoint this manifest vouches for.
    pub slot: String,
    /// Step counter sealed into that checkpoint.
    pub step: u32,
    /// Exact byte length the slot object must have.
    pub len: usize,
    /// CRC-32 the slot object's bytes must hash to.
    pub crc: u32,
}

impl Manifest {
    /// Serializes the manifest, CRC-sealed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let text = format!(
            "CROCCO-MAN 1\nslot {}\nstep {}\nlen {}\ncrc {:08x}\n",
            self.slot, self.step, self.len, self.crc
        );
        crate::io::seal_checkpoint(text.into_bytes())
    }

    /// Parses and validates sealed manifest bytes.
    pub fn parse(bytes: &[u8]) -> Result<Manifest, String> {
        let payload = verify_sealed(bytes).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let mut lines = text.lines();
        if lines.next() != Some("CROCCO-MAN 1") {
            return Err("bad manifest magic".into());
        }
        let mut field = |key: &str| -> Result<String, String> {
            lines
                .next()
                .and_then(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
                .ok_or_else(|| format!("manifest missing field {key}"))
        };
        let slot = field("slot")?;
        if !SLOT_NAMES.contains(&slot.as_str()) {
            return Err(format!("manifest references unknown slot {slot:?}"));
        }
        let step = field("step")?.parse().map_err(|e| format!("bad step: {e}"))?;
        let len = field("len")?.parse().map_err(|e| format!("bad len: {e}"))?;
        let crc =
            u32::from_str_radix(&field("crc")?, 16).map_err(|e| format!("bad crc: {e}"))?;
        Ok(Manifest {
            slot,
            step,
            len,
            crc,
        })
    }
}

/// Double-buffered durable spiller: alternates checkpoint writes between
/// the two slots, publishes each with a sealed manifest, and retries
/// transient store errors with exponential backoff. One instance per
/// spilling rank (rank 0 of the chaos group — every rank seals identical
/// bytes, so one durable copy suffices).
pub struct DurableCheckpointer {
    store: Box<dyn CheckpointStore>,
    next_slot: usize,
    /// Retries per object write on transient errors (beyond the first
    /// attempt).
    pub max_retries: u32,
    /// Initial retry backoff in milliseconds; doubles per retry.
    pub backoff_ms: u64,
    /// Successful spills (slot + manifest both landed).
    pub spills: u64,
    /// Transient-error retries consumed across all spills.
    pub retries_used: u64,
}

impl DurableCheckpointer {
    /// Builds a spiller over `store`. Resume-aware: if a valid manifest is
    /// already present (this process restarted into an existing spill
    /// directory), rotation continues on the *other* slot, so the first
    /// new spill never overwrites the only good checkpoint.
    pub fn new(store: Box<dyn CheckpointStore>) -> Self {
        let next_slot = match store
            .read(MANIFEST_NAME)
            .ok()
            .flatten()
            .and_then(|b| Manifest::parse(&b).ok())
        {
            Some(m) => {
                let cur = SLOT_NAMES.iter().position(|&s| s == m.slot).unwrap_or(1);
                1 - cur
            }
            None => 0,
        };
        DurableCheckpointer {
            store,
            next_slot,
            max_retries: 4,
            backoff_ms: 1,
            spills: 0,
            retries_used: 0,
        }
    }

    /// Opens the production spiller on `dir`, wrapping the disk store in
    /// the chaos layer when a storage-fault plan is given.
    pub fn open(dir: impl Into<PathBuf>, plan: Option<StorageFaultPlan>) -> Result<Self, CkptError> {
        let disk = DiskStore::new(dir)?;
        Ok(match plan {
            Some(p) => DurableCheckpointer::new(Box::new(FaultyStore::new(disk, p))),
            None => DurableCheckpointer::new(Box::new(disk)),
        })
    }

    /// Spills one sealed checkpoint (`bytes`, taken at `step`) to the next
    /// slot and publishes it in the manifest. Returns the slot written.
    ///
    /// Ordering is the durability argument: the slot is written (and
    /// retried) first, the manifest only after the slot write reported
    /// success — so the manifest never vouches for bytes that were not
    /// claimed durable, and a crash between the two writes leaves the old
    /// manifest pointing at the old, still-intact slot.
    pub fn spill(&mut self, step: u32, bytes: &[u8]) -> Result<&'static str, CkptError> {
        let slot = SLOT_NAMES[self.next_slot];
        self.write_with_retry(slot, bytes)?;
        let manifest = Manifest {
            slot: slot.to_string(),
            step,
            len: bytes.len(),
            crc: crc32(bytes),
        };
        self.write_with_retry(MANIFEST_NAME, &manifest.to_bytes())?;
        self.next_slot = 1 - self.next_slot;
        self.spills += 1;
        Ok(slot)
    }

    fn write_with_retry(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let (mut attempt, mut backoff) = (0, self.backoff_ms);
        loop {
            match self.store.write_atomic(name, bytes) {
                Err(e) if e.is_transient() && attempt < self.max_retries => {
                    attempt += 1;
                    self.retries_used += 1;
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                    backoff = backoff.saturating_mul(2);
                }
                done => return done,
            }
        }
    }
}

/// What [`recover`] found: the parsed checkpoint, which slot supplied it,
/// and — when the manifest path failed — why recovery fell back.
pub struct Recovery {
    /// The recovered, CRC-verified checkpoint.
    pub checkpoint: Checkpoint,
    /// The slot it came from.
    pub slot: String,
    /// `None` when the manifest-referenced slot validated cleanly;
    /// otherwise the accumulated notes explaining the fallback.
    pub fallback: Option<String>,
}

/// Cold-restart recovery ladder:
///
/// 1. Read and validate the sealed manifest; load its referenced slot and
///    check exact length + CRC agreement. Clean → done.
/// 2. Manifest lost/corrupt, or its slot torn/flipped/missing → scan both
///    slots, keep every one that parses (each checkpoint is independently
///    CRC-sealed), and restart from the highest sealed step.
/// 3. Nothing parses → typed [`CkptError::NoValidSlot`] with the full
///    failure trail — never a panic, never garbage state.
pub fn recover(store: &dyn CheckpointStore) -> Result<Recovery, CkptError> {
    let mut notes: Vec<String> = Vec::new();
    match store.read(MANIFEST_NAME)? {
        None => notes.push("manifest missing".into()),
        Some(mb) => match Manifest::parse(&mb) {
            Err(e) => notes.push(format!("manifest unreadable: {e}")),
            Ok(m) => match load_slot(store, &m.slot) {
                Err(e) => notes.push(format!("manifest slot {}: {e}", m.slot)),
                Ok((bytes, chk)) => {
                    if bytes.len() == m.len && crc32(&bytes) == m.crc {
                        return Ok(Recovery {
                            checkpoint: chk,
                            slot: m.slot,
                            fallback: None,
                        });
                    }
                    // The slot parses on its own but is not the object the
                    // manifest vouches for (e.g. the slot landed and the
                    // manifest write was lost, or vice versa). Let the scan
                    // pick the best self-consistent slot.
                    notes.push(format!(
                        "manifest disagrees with slot {} (expected len {} crc {:08x}, \
                         found len {} crc {:08x})",
                        m.slot,
                        m.len,
                        m.crc,
                        bytes.len(),
                        crc32(&bytes)
                    ));
                }
            },
        },
    }
    // Fallback: both slots are candidates; each v2 checkpoint carries its
    // own whole-file CRC, so a parse success is an integrity proof. Prefer
    // the highest step (the newer of the double buffers).
    let mut best: Option<(String, Checkpoint)> = None;
    for name in SLOT_NAMES {
        match load_slot(store, name) {
            Ok((_, chk)) => {
                let better = best.as_ref().is_none_or(|(_, b)| chk.step > b.step);
                if better {
                    best = Some((name.to_string(), chk));
                }
            }
            Err(e) => notes.push(format!("slot {name}: {e}")),
        }
    }
    match best {
        Some((slot, checkpoint)) => Ok(Recovery {
            checkpoint,
            slot,
            fallback: Some(notes.join("; ")),
        }),
        None => Err(CkptError::NoValidSlot {
            detail: notes.join("; "),
        }),
    }
}

/// Reads and CRC-validates one slot, returning its raw bytes and parsed
/// checkpoint.
fn load_slot(store: &dyn CheckpointStore, name: &str) -> Result<(Vec<u8>, Checkpoint), CkptError> {
    let bytes = store.read(name)?.ok_or_else(|| CkptError::Corrupt {
        object: name.to_string(),
        reason: "missing".into(),
    })?;
    let chk = parse_checkpoint(&bytes).map_err(|e| CkptError::Corrupt {
        object: name.to_string(),
        reason: e.to_string(),
    })?;
    Ok((bytes, chk))
}

/// How a cold restart recovered, for logs and tests.
pub struct RestartInfo {
    /// The slot the state came from.
    pub slot: String,
    /// The step the simulation resumed at.
    pub step: u32,
    /// `Some(notes)` when recovery fell back past the manifest.
    pub fallback: Option<String>,
}

impl Simulation {
    /// Coordinated cold restart: rebuilds rank `rank` of a
    /// `cfg.nranks`-rank simulation from the durable spill directory
    /// `dir`. Every rank of the fresh cluster calls this independently
    /// with the same directory — recovery is deterministic (same bytes,
    /// same ladder), so no coordination traffic is needed to agree on the
    /// restart point. `cfg.nranks` may differ from the writing run's rank
    /// count: the checkpoint is whole-domain and the distribution mapping
    /// re-partitions from `cfg`.
    pub fn from_checkpoint_file_owned(
        cfg: SolverConfig,
        dir: impl AsRef<Path>,
        rank: usize,
    ) -> Result<(Self, RestartInfo), CkptError> {
        let store = DiskStore::new(dir.as_ref())?;
        Self::from_checkpoint_store_owned(cfg, &store, rank)
    }

    /// [`Simulation::from_checkpoint_file_owned`] against an injectable
    /// store (the chaos tests recover through a [`FaultyStore`]'s debris).
    pub fn from_checkpoint_store_owned(
        cfg: SolverConfig,
        store: &dyn CheckpointStore,
        rank: usize,
    ) -> Result<(Self, RestartInfo), CkptError> {
        let rec = recover(store)?;
        let info = RestartInfo {
            slot: rec.slot,
            step: rec.checkpoint.step,
            fallback: rec.fallback,
        };
        Ok((
            Simulation::from_checkpoint_owned(cfg, &rec.checkpoint, rank),
            info,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// An in-memory store for unit-testing the spiller and recovery ladder
    /// without touching the filesystem.
    #[derive(Default)]
    struct MemStore {
        objects: Mutex<std::collections::HashMap<String, Vec<u8>>>,
    }

    impl CheckpointStore for MemStore {
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
            self.objects
                .lock()
                .unwrap()
                .insert(name.to_string(), bytes.to_vec());
            Ok(())
        }
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, CkptError> {
            Ok(self.objects.lock().unwrap().get(name).cloned())
        }
        fn remove(&self, name: &str) {
            self.objects.lock().unwrap().remove(name);
        }
    }

    fn sealed_checkpoint(step: u32) -> Vec<u8> {
        use crate::config::{CodeVersion, SolverConfig};
        use crate::problems::ProblemKind;
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(32, 4, 4)
            .version(CodeVersion::V1_1)
            .build();
        let mut s = Simulation::new(cfg);
        s.advance_steps(step);
        crate::io::write_checkpoint_bytes(&s)
    }

    #[test]
    fn manifest_roundtrip_and_rejection() {
        let m = Manifest {
            slot: "chk_B".into(),
            step: 17,
            len: 1234,
            crc: 0xDEAD_BEEF,
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::parse(&bytes).unwrap(), m);
        // Any bit flip breaks the seal.
        for pos in [0, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(Manifest::parse(&bad).is_err(), "flip at {pos} must reject");
        }
        // Unknown slot names are rejected even when sealed correctly.
        let evil = Manifest {
            slot: "../../etc/passwd".into(),
            ..m
        };
        assert!(Manifest::parse(&evil.to_bytes()).is_err());
    }

    #[test]
    fn manifest_encoding_is_pinned_to_golden_bytes() {
        let m = Manifest {
            slot: "chk_B".into(),
            step: 17,
            len: 1234,
            crc: 0xDEAD_BEEF,
        };
        let golden: &[u8] =
            b"CROCCO-MAN 1\nslot chk_B\nstep 17\nlen 1234\ncrc deadbeef\n\ncrc 1f4b05f0\n";
        assert_eq!(m.to_bytes(), golden);
        assert_eq!(Manifest::parse(golden).unwrap(), m);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The manifest is read off disk before anything vouches for it:
        /// every single-bit flip, truncation and extension of a valid one
        /// must be a typed `Err` — or parse to the very manifest that was
        /// written — never a panic, never a different slot/step/len/crc.
        #[test]
        fn mutated_manifests_never_parse_to_something_else(
            slot in 0..2usize,
            step in proptest::prelude::any::<u32>(),
            len in proptest::prelude::any::<u32>(),
            crc in proptest::prelude::any::<u32>(),
            extension in proptest::prelude::prop::collection::vec(
                proptest::prelude::any::<u8>(), 1..24usize),
        ) {
            let m = Manifest {
                slot: SLOT_NAMES[slot].into(),
                step,
                len: len as usize,
                crc,
            };
            let bytes = m.to_bytes();
            proptest::prop_assert_eq!(Manifest::parse(&bytes).as_ref(), Ok(&m));
            let same_or_err = |mutant: &[u8]| Manifest::parse(mutant).map_or(true, |got| got == m);
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                proptest::prop_assert!(same_or_err(&bad), "flip of bit {}", bit);
            }
            for keep in 0..bytes.len() {
                proptest::prop_assert!(same_or_err(&bytes[..keep]), "truncation to {}", keep);
            }
            let mut longer = bytes.clone();
            longer.extend_from_slice(&extension);
            proptest::prop_assert!(same_or_err(&longer), "extension by {:?}", extension);
        }
    }

    #[test]
    fn spill_alternates_slots_and_recovery_prefers_manifest() {
        let store = std::sync::Arc::new(MemStore::default());
        let c1 = sealed_checkpoint(1);
        let c2 = sealed_checkpoint(2);
        let c3 = sealed_checkpoint(3);
        let mut sp = DurableCheckpointer::new(Box::new(store.clone()));
        assert_eq!(sp.spill(1, &c1).unwrap(), "chk_A");
        assert_eq!(sp.spill(2, &c2).unwrap(), "chk_B");
        assert_eq!(sp.spill(3, &c3).unwrap(), "chk_A");
        let rec = recover(&*store).unwrap();
        assert_eq!(rec.slot, "chk_A");
        assert_eq!(rec.checkpoint.step, 3);
        assert!(rec.fallback.is_none());
        // The other slot still holds the previous sealed checkpoint.
        assert_eq!(
            parse_checkpoint(&store.read("chk_B").unwrap().unwrap())
                .unwrap()
                .step,
            2
        );
    }

    #[test]
    fn torn_manifest_slot_falls_back_to_survivor() {
        let store = std::sync::Arc::new(MemStore::default());
        let c1 = sealed_checkpoint(1);
        let c2 = sealed_checkpoint(2);
        let mut sp = DurableCheckpointer::new(Box::new(store.clone()));
        sp.spill(1, &c1).unwrap();
        sp.spill(2, &c2).unwrap();
        // Tear the manifest's slot (chk_B) after the fact: recovery must
        // reject it by CRC and fall back to chk_A at step 1.
        let torn = c2[..c2.len() / 2].to_vec();
        store.write_atomic("chk_B", &torn).unwrap();
        let rec = recover(&*store).unwrap();
        assert_eq!(rec.slot, "chk_A");
        assert_eq!(rec.checkpoint.step, 1);
        let notes = rec.fallback.expect("fallback must be reported");
        assert!(notes.contains("chk_B"), "{notes}");
    }

    #[test]
    fn manifest_loss_scans_slots_for_highest_step() {
        let store = std::sync::Arc::new(MemStore::default());
        let mut sp = DurableCheckpointer::new(Box::new(store.clone()));
        sp.spill(4, &sealed_checkpoint(4)).unwrap();
        sp.spill(6, &sealed_checkpoint(6)).unwrap();
        store.remove(MANIFEST_NAME);
        let rec = recover(&*store).unwrap();
        assert_eq!(rec.checkpoint.step, 6, "scan must pick the newer slot");
        assert!(rec.fallback.unwrap().contains("manifest missing"));
    }

    #[test]
    fn empty_store_is_a_typed_error() {
        let store = MemStore::default();
        match recover(&store) {
            Err(CkptError::NoValidSlot { detail }) => {
                assert!(detail.contains("manifest missing"), "{detail}");
            }
            other => panic!("expected NoValidSlot, got {:?}", other.map(|r| r.slot)),
        }
    }

    #[test]
    fn retry_repairs_transient_fsync_failures() {
        // Fail the first two attempts, succeed after.
        let plan = StorageFaultPlan {
            scheduled: vec![
                (0, StorageFault::FsyncFail),
                (1, StorageFault::FsyncFail),
            ],
            ..StorageFaultPlan::default()
        };
        let store = FaultyStore::new(MemStore::default(), plan);
        let mut sp = DurableCheckpointer::new(Box::new(store));
        let c1 = sealed_checkpoint(1);
        sp.spill(1, &c1).expect("retries must repair transient faults");
        assert_eq!(sp.retries_used, 2);
    }

    #[test]
    fn nospace_is_not_retried() {
        let plan = StorageFaultPlan {
            nospace_after: Some(0),
            ..StorageFaultPlan::default()
        };
        let store = FaultyStore::new(MemStore::default(), plan);
        let mut sp = DurableCheckpointer::new(Box::new(store));
        let err = sp.spill(1, &sealed_checkpoint(1)).unwrap_err();
        assert!(matches!(err, CkptError::NoSpace));
        assert_eq!(sp.retries_used, 0, "disk-full must not be retried");
    }

    #[test]
    fn resume_into_existing_directory_rotates_away_from_good_slot() {
        let store = std::sync::Arc::new(MemStore::default());
        let mut sp = DurableCheckpointer::new(Box::new(store.clone()));
        sp.spill(5, &sealed_checkpoint(5)).unwrap(); // lands in chk_A
        // A fresh spiller over the same store must write chk_B next, not
        // clobber the only good checkpoint in chk_A.
        let mut sp2 = DurableCheckpointer::new(Box::new(store.clone()));
        assert_eq!(sp2.spill(6, &sealed_checkpoint(6)).unwrap(), "chk_B");
    }

    #[test]
    fn disk_store_atomic_write_roundtrip() {
        let dir = std::env::temp_dir().join("crocco_durable_unit");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir).unwrap();
        store.write_atomic("chk_A", b"hello").unwrap();
        assert_eq!(store.read("chk_A").unwrap().unwrap(), b"hello");
        store.write_atomic("chk_A", b"world").unwrap();
        assert_eq!(store.read("chk_A").unwrap().unwrap(), b"world");
        assert!(store.read("chk_B").unwrap().is_none());
        // No temp-file debris after a successful write.
        assert!(!dir.join("chk_A.tmp").exists());
        store.remove("chk_A");
        assert!(store.read("chk_A").unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
