//! Distribution over ranks must be *observationally invisible*: allocating
//! and advancing only the patches each rank owns — cross-rank halos and
//! FillPatch gathers through plan-driven exchanges, distributed regrid with
//! tag-union + data redistribution — may change the memory footprint and the
//! message schedule, never a single bit of the solution. These tests run the
//! compression-ramp configuration (sheared curvilinear grid; a 4-step run
//! refines to two AMR levels at the step-3 regrid) at 1/2/4 ranks —
//! reference phases, task graph, hostile schedules, restarted, and
//! crash-recovered — and demand that the union of the ranks' owned patches
//! is bitwise-identical to the single-rank reference run. They also pin the
//! memory claim: per-rank allocation is exactly O(owned cells + ghosts), not
//! O(global).
//!
//! In the `check` build every run is poisoned, swept and race-checked:
//! unallocated placeholder fabs must never be poisoned, swept or trapped,
//! while owned patches keep the full discipline — and the inviscid ramp
//! fills face ghosts only, so every edge and corner ghost stays a signaling
//! NaN and a read outside the footprint traps, under both schedules.

mod common;

use common::{
    assert_partitions_oracle, new_owned, nlevels, patch_bits, ramp_builder, run_owned, run_single,
    PatchBits,
};
use crocco::runtime::chaos::{ChaosConfig, CrashPhase, CrashSpec};
use crocco::runtime::LocalCluster;
use crocco::solver::driver::Simulation;

/// The oracle: one rank, the reference schedule (`overlap(false)`).
fn oracle(steps: u32) -> PatchBits {
    let bits = run_single(ramp_builder().overlap(false).build(), steps);
    assert_eq!(nlevels(&bits), 2, "the ramp must refine");
    bits
}

#[test]
fn owned_fenced_matches_oracle_bitwise() {
    let reference = oracle(4);
    for nranks in [1, 2, 4] {
        let cfg = ramp_builder().nranks(nranks).threads(1).overlap(false).build();
        let owned = run_owned(cfg, 4);
        assert_partitions_oracle(&owned, &reference, &format!("fenced nranks={nranks}"));
    }
}

#[test]
fn owned_overlapped_matches_oracle_bitwise() {
    // 2 worker threads per rank: the rank-crossing task graph actually runs
    // concurrently over owned-only storage, so a task touching a non-owned
    // fab would fault rather than silently read stale data.
    let reference = oracle(4);
    for nranks in [1, 2, 4] {
        let cfg = ramp_builder().nranks(nranks).threads(2).build();
        let owned = run_owned(cfg, 4);
        assert_partitions_oracle(&owned, &reference, &format!("overlapped nranks={nranks}"));
    }
}

#[test]
fn owned_is_invariant_under_adversarial_schedules() {
    // Seeded adversarial linearizations of each rank's stage graph: bitwise
    // identity proves the dependency edges — including the recv events and
    // send fences — suffice even when the executor is hostile.
    let reference = oracle(4);
    for nranks in [1, 2, 4] {
        for seed in [0u64, 0x9e3779b97f4a7c15] {
            let cfg = ramp_builder()
                .nranks(nranks)
                .threads(2)
                .sched_seed(seed)
                .build();
            let owned = run_owned(cfg, 4);
            assert_partitions_oracle(
                &owned,
                &reference,
                &format!("adversarial seed {seed:#x} nranks={nranks}"),
            );
        }
    }
}

/// Expected allocation of `mf` on `rank`: the grown boxes of exactly the
/// owned patches (valid + ghosts, times components, times 8 bytes) — stepping
/// is O(owned cells) per rank, not O(global). `None` = every patch.
fn expected_bytes(mf: &crocco::fab::MultiFab, rank: Option<usize>) -> usize {
    let mut total = 0usize;
    for i in 0..mf.nfabs() {
        if let Some(r) = rank {
            if mf.distribution().owner(i) != r {
                continue;
            }
        }
        let cells = mf.valid_box(i).grow(mf.nghost()).num_points() as usize;
        total += cells * mf.ncomp() * std::mem::size_of::<f64>();
    }
    total
}

#[test]
fn owned_memory_per_rank_is_o_owned_cells() {
    for nranks in [1, 2, 4] {
        let cfg = ramp_builder().nranks(nranks).threads(1).build();
        // Per rank, per level: (actual, expected-owned, whole-level) for
        // each of the four solver MultiFabs.
        let per_rank: Vec<Vec<[(usize, usize, usize); 4]>> =
            LocalCluster::run(nranks, move |ep| {
                let mut sim = new_owned(&cfg, &ep);
                sim.advance_steps_cluster(4, &ep);
                let rank = Some(ep.rank());
                (0..sim.nlevels())
                    .map(|l| {
                        let lev = sim.level(l);
                        [&lev.state, &lev.du, &lev.coords, &lev.metrics].map(|mf| {
                            (
                                mf.local_data_bytes(),
                                expected_bytes(mf, rank),
                                expected_bytes(mf, None),
                            )
                        })
                    })
                    .collect()
            });
        for (rank, levels) in per_rank.iter().enumerate() {
            for (l, fabs) in levels.iter().enumerate() {
                for (actual, expect, full) in fabs.iter() {
                    assert_eq!(
                        actual, expect,
                        "nranks={nranks} rank {rank} L{l}: allocation must be exactly the \
                         owned grown boxes"
                    );
                    if nranks >= 2 {
                        assert!(
                            actual < full,
                            "nranks={nranks} rank {rank} L{l}: owned allocation must be a \
                             strict subset of the whole level"
                        );
                    }
                }
            }
        }
        // The ranks together hold the whole domain exactly once.
        if let Some(first) = per_rank.first() {
            for (l, fabs) in first.iter().enumerate() {
                for slot in 0..fabs.len() {
                    let total: usize = per_rank.iter().map(|lv| lv[l][slot].0).sum();
                    assert_eq!(
                        total, fabs[slot].2,
                        "nranks={nranks} L{l}: owned allocations must tile the domain"
                    );
                }
            }
        }
    }
}

#[test]
fn owned_restart_from_replicated_checkpoint_matches_oracle() {
    // A checkpoint written by a one-rank run, restored at N ranks
    // (`from_checkpoint_owned`) and advanced across the step-3 regrid must
    // land on the oracle bitwise — the restore path the chaos recovery loop
    // takes after a crash.
    let reference = oracle(4);
    let mut serial = Simulation::new(ramp_builder().overlap(false).build());
    serial.advance_steps(2);
    let bytes = crocco::solver::io::write_checkpoint_bytes(&serial);
    for nranks in [1, 2, 4] {
        let chk_bytes = bytes.clone();
        let owned = LocalCluster::run(nranks, move |ep| {
            let chk = crocco::solver::io::parse_checkpoint(&chk_bytes)
                .expect("checkpoint round-trips");
            let cfg = ramp_builder().nranks(nranks).threads(1).build();
            let mut sim = Simulation::from_checkpoint_owned(cfg, &chk, ep.rank());
            sim.advance_steps_cluster(2, &ep);
            patch_bits(&sim)
        });
        assert_partitions_oracle(&owned, &reference, &format!("restart nranks={nranks}"));
    }
}

#[test]
fn owned_chaos_crash_recovery_matches_oracle() {
    // Mid-RK crash under the graph schedule: the step-2 checkpoint was
    // gathered across ranks (each rank holds only its owned patches, yet all
    // seal the identical whole-domain snapshot), the survivors shrink the
    // group, re-own the re-partitioned patches, and still reach the oracle
    // bitwise across the regrid inside the rollback window.
    let reference = oracle(4);
    let chaos = ChaosConfig {
        checkpoint_interval: 2,
        wait_timeout_ms: 120_000,
        crashes: vec![CrashSpec {
            rank: 2,
            step: 3,
            phase: CrashPhase::AfterDt,
        }],
        ..ChaosConfig::default()
    };
    let cfg = ramp_builder().nranks(4).chaos(chaos.clone()).build();
    let (outcomes, _) = LocalCluster::run_with_chaos(4, chaos, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let report = sim.advance_steps_chaos(4, &ep);
        if report.crashed {
            (report, None, None)
        } else {
            (report, Some(patch_bits(&sim)), Some(sim.step_count()))
        }
    });
    let mut survivors = Vec::new();
    for (r, (report, bits, step)) in outcomes.into_iter().enumerate() {
        if r == 2 {
            assert!(report.crashed, "rank 2 was scheduled to crash");
            continue;
        }
        assert!(!report.crashed, "rank {r} must survive");
        assert_eq!(step, Some(4), "rank {r} must reach the target step");
        assert_eq!(report.rollback_steps, vec![2], "rank {r}: one rollback to step 2");
        assert!(report.checkpoints >= 1 && report.checkpoint_bytes > 0);
        survivors.push(bits.unwrap());
    }
    assert_partitions_oracle(&survivors, &reference, "chaos recovery");
}

#[test]
fn owned_simulation_answers_has_nonfinite() {
    // Regression: the non-finite scan indexed the unallocated placeholder
    // fabs of the patches other ranks own and panicked.
    let cfg = ramp_builder().nranks(2).threads(1).build();
    let clean = LocalCluster::run(2, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(1, &ep);
        let placeholders = (0..sim.nlevels())
            .map(|l| &sim.level(l).state)
            .any(|s| (0..s.nfabs()).any(|i| !s.is_allocated(i)));
        assert!(placeholders, "two ranks must leave each other placeholders");
        !sim.has_nonfinite()
    });
    assert_eq!(clean, [true, true]);
}

#[test]
fn lockstep_cluster_report_counts_cell_updates() {
    // Regression: only the subcycled cluster path counted, so lockstep
    // `advance_steps_cluster` reported 0. The count is global — every rank
    // reports the serial run's total whatever share it owns.
    let serial = Simulation::new(ramp_builder().build())
        .advance_steps(4)
        .cell_updates;
    assert!(serial > 0);
    let cfg = ramp_builder().nranks(2).threads(1).build();
    let per_rank = LocalCluster::run(2, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(4, &ep).cell_updates
    });
    assert_eq!(per_rank, [serial, serial]);
}
