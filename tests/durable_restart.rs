//! Whole-process-death recovery proof (DESIGN.md §4j): the chaos runtime's
//! in-memory checkpoints survive *rank* deaths, but a batch-system kill, an
//! OOM, or a node loss takes the whole cluster down at once. These tests
//! kill the entire cluster between steps (the writer threads return and
//! every `Simulation` is dropped), then cold-start a *fresh* cluster — of
//! possibly different rank count — from the double-buffered spill directory
//! alone, and demand the restarted run reaches the target step bitwise
//! equal to an uninterrupted oracle.
//!
//! The storage-fault legs drive the same recovery ladder through injected
//! disk damage: a torn slot write falls back to the surviving buffer, a
//! lost manifest falls back to the slot scan, and a full disk degrades to
//! in-memory-only checkpoints with a warning instead of killing the run.

mod common;

use common::{
    assert_partitions_oracle, new_owned, patch_bits, ramp_builder, run_single, PatchBits,
};
use crocco::runtime::chaos::{ChaosConfig, CrashPhase, CrashSpec, StorageFault, StorageFaultPlan};
use crocco::runtime::LocalCluster;
use crocco::solver::cluster_step::ChaosRunReport;
use crocco::solver::driver::Simulation;
use crocco::solver::durable::CkptError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const WAIT_TIMEOUT_MS: u64 = 120_000;

/// A throwaway spill directory; removed on drop.
struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "crocco_durable_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        SpillDir { path }
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The uninterrupted single-rank oracle at 4 steps (reference schedule),
/// shared across tests.
fn oracle4() -> &'static PatchBits {
    static O: OnceLock<PatchBits> = OnceLock::new();
    O.get_or_init(|| run_single(ramp_builder().overlap(false).build(), 4))
}

/// The doomed run: a cluster spilling every 2 steps, advanced
/// `steps` steps, then killed whole — the closure returns, every thread
/// joins, every `Simulation` and endpoint is dropped. Only the spill
/// directory survives. Returns each rank's chaos report.
fn run_and_die(
    nranks: usize,
    steps: u32,
    dir: &Path,
    storage: Option<StorageFaultPlan>,
) -> Vec<ChaosRunReport> {
    let chaos = ChaosConfig {
        checkpoint_interval: 2,
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        storage,
        ..ChaosConfig::default()
    };
    let cfg = ramp_builder()
        .nranks(nranks)
        .threads(1)
        .chaos(chaos.clone())
        .spill_dir(dir)
        .build();
    let (reports, _) = LocalCluster::run_with_chaos(nranks, chaos, move |ep| {
        new_owned(&cfg, &ep).advance_steps_chaos(steps, &ep)
    });
    reports
}

/// Coordinated cold restart: a fresh cluster of `nranks` ranks — no shared
/// state with the dead run — independently recovers from the spill
/// directory, checks it landed on the expected step and fallback status,
/// advances to step 4, and returns every rank's owned patch bits.
fn cold_restart(
    nranks: usize,
    dir: &Path,
    expect_step: u32,
    expect_fallback: bool,
) -> Vec<PatchBits> {
    let dir = dir.to_path_buf();
    LocalCluster::run(nranks, move |ep| {
        let cfg = ramp_builder().nranks(nranks).threads(1).build();
        let (mut sim, info) = Simulation::from_checkpoint_file_owned(cfg, &dir, ep.rank())
            .expect("cold restart must recover");
        assert_eq!(info.step, expect_step, "recovered from the wrong step");
        assert_eq!(
            info.fallback.is_some(),
            expect_fallback,
            "unexpected recovery path: {:?}",
            info.fallback
        );
        assert_eq!(sim.step_count(), expect_step);
        sim.advance_steps_cluster(4 - expect_step, &ep);
        patch_bits(&sim)
    })
}

/// Kill the whole cluster between steps; cold-restart a fresh one — same
/// *and different* rank counts — from the spill directory alone. With
/// `checkpoint_interval(2)` and 3 steps of progress, the durable state is
/// the step-2 spill: the restart must roll back past the lost in-memory
/// step-3 state, re-partition for the new rank count, and still land on the
/// 4-step oracle bitwise.
#[test]
fn whole_cluster_death_cold_restarts_bitwise() {
    for writer in [1, 2, 4] {
        let dir = SpillDir::new("death");
        let reports = run_and_die(writer, 3, &dir.path, None);
        assert_eq!(
            reports[0].spills, 2,
            "writer rank 0 spills at steps 0 and 2 (interval 2)"
        );
        assert_eq!(reports[0].spill_failures, 0);
        for r in &reports[1..] {
            assert_eq!(r.spills, 0, "only logical rank 0 spills");
        }
        // Same rank count, plus a genuinely different one (grow or shrink).
        let other = if writer == 1 { 2 } else { writer / 2 };
        for reader in [writer, other] {
            let owned = cold_restart(reader, &dir.path, 2, false);
            assert_partitions_oracle(
                &owned,
                oracle4(),
                &format!("cold restart {writer}→{reader} ranks"),
            );
        }
    }
}

/// A torn slot write (power loss mid-`write`): the step-4 spill tears the
/// slot being overwritten, and the manifest — written after the store
/// claimed success — vouches for bytes that never landed. Recovery must
/// reject the torn slot and fall back to the surviving buffer's step-2
/// checkpoint, then still reach the oracle.
#[test]
fn torn_mid_write_falls_back_to_surviving_slot() {
    // Write attempts: 0 = chk_A (step 0), 1 = manifest, 2 = chk_B (step 2),
    // 3 = manifest, 4 = chk_A again (step 4, torn), 5 = manifest.
    let plan = StorageFaultPlan {
        scheduled: vec![(4, StorageFault::TornWrite)],
        ..StorageFaultPlan::quiet(0x70E4_5EED)
    };
    let dir = SpillDir::new("torn");
    let reports = run_and_die(2, 5, &dir.path, Some(plan));
    assert_eq!(reports[0].spills, 3, "spills at steps 0, 2, 4");
    let owned = cold_restart(2, &dir.path, 2, true);
    assert_partitions_oracle(&owned, oracle4(), "torn-write fallback");
}

/// Both manifest writes silently lost (e.g. a dropped metadata journal):
/// recovery cannot trust any manifest and must scan the slots, each of
/// which carries its own whole-file CRC, and restart from the highest
/// sealed step.
#[test]
fn manifest_loss_recovers_from_slot_scan() {
    let plan = StorageFaultPlan {
        scheduled: vec![
            (1, StorageFault::LoseWrite),
            (3, StorageFault::LoseWrite),
        ],
        ..StorageFaultPlan::quiet(0x1057_3EED)
    };
    let dir = SpillDir::new("noman");
    let reports = run_and_die(2, 3, &dir.path, Some(plan));
    assert_eq!(reports[0].spills, 2);
    // chk_A holds step 0, chk_B holds step 2; the scan must pick step 2.
    let owned = cold_restart(2, &dir.path, 2, true);
    assert_partitions_oracle(&owned, oracle4(), "manifest-loss slot scan");
}

/// A full disk must degrade, not kill: every spill fails with `NoSpace`
/// (never retried — it is not transient), the run warns and continues on
/// in-memory checkpoints, and a concurrent rank crash still recovers
/// through the in-memory rollback path to the bitwise oracle.
#[test]
fn disk_full_degrades_to_in_memory_checkpoints() {
    let plan = StorageFaultPlan {
        nospace_after: Some(0),
        ..StorageFaultPlan::quiet(0xD15C_F011)
    };
    let chaos = ChaosConfig {
        checkpoint_interval: 2,
        wait_timeout_ms: WAIT_TIMEOUT_MS,
        storage: Some(plan),
        crashes: vec![CrashSpec {
            rank: 1,
            step: 3,
            phase: CrashPhase::AfterDt,
        }],
        ..ChaosConfig::default()
    };
    let dir = SpillDir::new("full");
    let cfg = ramp_builder()
        .nranks(2)
        .chaos(chaos.clone())
        .spill_dir(&dir.path)
        .build();
    let (outcomes, _) = LocalCluster::run_with_chaos(2, chaos, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let report = sim.advance_steps_chaos(4, &ep);
        let bits = (!report.crashed).then(|| (patch_bits(&sim), sim.step_count()));
        (report, bits)
    });
    let (report, survivor) = &outcomes[0];
    assert!(!report.crashed, "rank 0 must survive the disk-full run");
    assert_eq!(report.spills, 0, "nothing lands on a full disk");
    assert!(
        report.spill_failures >= 2,
        "both spill attempts must fail ({})",
        report.spill_failures
    );
    assert_eq!(report.rollback_steps, vec![2], "in-memory rollback still works");
    let (bits, step) = survivor.as_ref().unwrap();
    assert_eq!(*step, 4, "the run must complete despite the dead store");
    assert_eq!(
        bits,
        oracle4(),
        "degraded run (rank 0 alone holds every patch) diverged from the oracle"
    );
    let (crashed, _) = &outcomes[1];
    assert!(crashed.crashed, "rank 1 was scheduled to crash");
    // And the directory is unusable for restart — typed, not a panic.
    let err = Simulation::from_checkpoint_file_owned(ramp_builder().build(), &dir.path, 0)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, CkptError::NoValidSlot { .. }),
        "empty spill dir must be a typed NoValidSlot, got {err}"
    );
}

/// Legacy upgrade (DESIGN.md §4j): a `CROCCO-CHK 1` checkpoint — no CRC
/// trailer — restored and re-spilled must produce a sealed v2 slot, and a
/// second recover-and-respill round trip must be bitwise stable (the
/// upgrade is idempotent, so chained batch jobs never drift).
#[test]
fn v1_checkpoint_upgrades_to_stable_v2_slot() {
    use crocco::solver::durable::DurableCheckpointer;
    use crocco::solver::io::{parse_checkpoint, write_checkpoint_bytes};

    let mut sim = Simulation::new(ramp_builder().build());
    sim.advance_steps(2);
    let v2 = write_checkpoint_bytes(&sim);
    // Downgrade to the legacy format: version byte '1', no CRC trailer
    // ("\ncrc xxxxxxxx\n", 14 bytes).
    let mut v1 = v2[..v2.len() - 14].to_vec();
    assert_eq!(&v1[..12], b"CROCCO-CHK 2");
    v1[11] = b'1';

    let chk = parse_checkpoint(&v1).expect("legacy v1 checkpoints must parse");
    assert_eq!(chk.step, 2);
    let restored = Simulation::from_checkpoint(ramp_builder().build(), &chk);

    let dir = SpillDir::new("v1up");
    let first = write_checkpoint_bytes(&restored);
    let mut sp = DurableCheckpointer::open(&dir.path, None).expect("open spill dir");
    let slot1 = sp.spill(restored.step_count(), &first).expect("first spill");
    let sealed = std::fs::read(dir.path.join(slot1)).unwrap();
    assert!(sealed.starts_with(b"CROCCO-CHK 2"), "re-spill must seal as v2");
    assert_eq!(sealed, first, "the slot holds exactly the sealed bytes");

    // Round trip: recover, rebuild, re-spill into the other slot.
    let (resumed, info) =
        Simulation::from_checkpoint_file_owned(ramp_builder().build(), &dir.path, 0)
            .expect("recover");
    assert_eq!(info.step, 2);
    assert!(info.fallback.is_none());
    let second = write_checkpoint_bytes(&resumed);
    assert_eq!(second, first, "upgrade round trip must be bitwise stable");
    let mut sp2 = DurableCheckpointer::open(&dir.path, None).expect("reopen spill dir");
    let slot2 = sp2.spill(resumed.step_count(), &second).expect("second spill");
    assert_ne!(slot1, slot2, "resume-aware rotation must flip the buffer");
    assert_eq!(
        std::fs::read(dir.path.join(slot2)).unwrap(),
        sealed,
        "both buffers hold identical sealed v2 bytes"
    );

    // And the upgraded state marches on: 2 more steps land on the oracle.
    let mut march = resumed;
    march.advance_steps(2);
    assert_eq!(&patch_bits(&march), oracle4(), "upgraded run diverged");
}
