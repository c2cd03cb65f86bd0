//! Ablation: the chaos runtime (DESIGN.md §4g). Three experiments:
//!
//! 1. **Detection tax + repair** — the ramp solver on a 4-rank
//!    `LocalCluster`, chaos transport off vs on (fault-free) vs injured
//!    (seeded drop + corruption + duplication + delay). Reports wall time,
//!    the injection/repair counters, and verifies the injured run is
//!    bitwise-identical to the fault-free one.
//! 2. **Crash recovery** — a scheduled whole-rank crash mid-run; survivors
//!    roll back to the last in-memory checkpoint and finish on 3 ranks.
//!    Reports recoveries, rollback steps, and the measured checkpoint size.
//! 3. **Summit-scale pricing** — `perfmodel::resilience` prices that
//!    checkpoint/rollback cost under a Summit-like per-node MTBF across the
//!    fig5 node counts, comparing a naive fixed interval against the
//!    Young/Daly optimum (results table: `docs/results/chaos.md`).
//!
//! `CROCCO_DIST_RANKS` overrides the cluster size (default 4).

use crocco_bench::report::{fmt_time, print_table};
use crocco_perfmodel::resilience::ResilienceModel;
use crocco_runtime::chaos::{ChaosConfig, CrashPhase, CrashSpec};
use crocco_runtime::{GroupEndpoint, LocalCluster, RankEndpoint};
use crocco_solver::cluster_step::ChaosRunReport;
use crocco_solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco_solver::driver::Simulation;
use crocco_solver::problems::ProblemKind;
use std::collections::BTreeMap;
use std::time::Instant;

const STEPS: u32 = 8;

fn ramp_builder() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::Ramp)
        .extents(48, 24, 8)
        .version(CodeVersion::V2_0)
        .max_levels(2)
        .blocking_factor(4)
        .max_grid_size(16)
        .regrid_freq(3)
        .cfl(0.5)
}

/// Valid-state bit patterns of the patches this rank owns, per
/// `(level, patch)`.
type PatchBits = BTreeMap<(usize, usize), Vec<u64>>;

fn patch_bits(sim: &Simulation) -> PatchBits {
    let mut out = PatchBits::new();
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        for i in (0..state.nfabs()).filter(|&i| state.is_allocated(i)) {
            let mut bits = Vec::new();
            for c in 0..state.ncomp() {
                for p in state.valid_box(i).cells() {
                    bits.push(state.fab(i).get(p, c).to_bits());
                }
            }
            out.insert((l, i), bits);
        }
    }
    out
}

fn new_owned(cfg: &SolverConfig, ep: &RankEndpoint) -> Simulation {
    Simulation::new_owned(cfg.clone(), &GroupEndpoint::full(ep)).expect("fault-free construction")
}

struct ChaosRun {
    wall_s: f64,
    /// The whole solution: the survivors' owned patches merged.
    bits: PatchBits,
    stats: [u64; 8],
    reports: Vec<ChaosRunReport>,
}

fn run_chaos(nranks: usize, chaos: ChaosConfig) -> ChaosRun {
    let cfg = ramp_builder().nranks(nranks).chaos(chaos.clone()).build();
    let t0 = Instant::now();
    let (outs, runtime) = LocalCluster::run_with_chaos(nranks, chaos, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        let report = sim.advance_steps_chaos(STEPS, &ep);
        let bits = if report.crashed { None } else { Some(patch_bits(&sim)) };
        (report, bits)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut bits = PatchBits::new();
    let mut reports = Vec::new();
    for (report, b) in outs {
        assert_eq!(report.crashed, b.is_none());
        bits.extend(b.into_iter().flatten());
        reports.push(report);
    }
    ChaosRun {
        wall_s,
        bits,
        stats: runtime.stats.snapshot(),
        reports,
    }
}

fn plain_cluster(nranks: usize) -> (f64, PatchBits) {
    let cfg = ramp_builder().nranks(nranks).build();
    let t0 = Instant::now();
    let per_rank = LocalCluster::run(nranks, move |ep| {
        let mut sim = new_owned(&cfg, &ep);
        sim.advance_steps_cluster(STEPS, &ep);
        patch_bits(&sim)
    });
    (t0.elapsed().as_secs_f64(), per_rank.into_iter().flatten().collect())
}

fn main() {
    let nranks: usize = std::env::var("CROCCO_DIST_RANKS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4);

    // --- 1. Detection tax + repair -------------------------------------
    let (plain_wall, plain_bits) = plain_cluster(nranks);
    let clean = run_chaos(nranks, ChaosConfig::default());
    let injured = run_chaos(
        nranks,
        ChaosConfig {
            seed: 0xC0FF_EE42,
            drop_p: 0.03,
            duplicate_p: 0.02,
            corrupt_p: 0.02,
            delay_p: 0.03,
            ..ChaosConfig::default()
        },
    );
    assert_eq!(plain_bits, clean.bits, "detection must be bitwise-invisible");
    assert_eq!(plain_bits, injured.bits, "repair must be bitwise-exact");
    let [drops, dups, corrupts, delays, retx, rejects, suppressed, stale] = injured.stats;
    print_table(
        &format!("Chaos transport, ramp {STEPS} steps, {nranks} ranks (bitwise-verified)"),
        &["configuration", "wall", "vs plain"],
        &[
            vec!["plain transport".into(), fmt_time(plain_wall), "1.00x".into()],
            vec![
                "chaos, no faults".into(),
                fmt_time(clean.wall_s),
                format!("{:.2}x", clean.wall_s / plain_wall),
            ],
            vec![
                "chaos, injured".into(),
                fmt_time(injured.wall_s),
                format!("{:.2}x", injured.wall_s / plain_wall),
            ],
        ],
    );
    print_table(
        "Injected vs repaired",
        &["counter", "count"],
        &[
            vec!["dropped".into(), drops.to_string()],
            vec!["duplicated".into(), dups.to_string()],
            vec!["corrupted".into(), corrupts.to_string()],
            vec!["delayed".into(), delays.to_string()],
            vec!["retransmits".into(), retx.to_string()],
            vec!["CRC rejects".into(), rejects.to_string()],
            vec!["dup-suppressed".into(), suppressed.to_string()],
            vec!["stale discarded".into(), stale.to_string()],
        ],
    );

    // --- 2. Crash recovery ---------------------------------------------
    let crash = run_chaos(
        nranks,
        ChaosConfig {
            crashes: vec![CrashSpec {
                rank: nranks - 1,
                step: 5,
                phase: CrashPhase::AfterDt,
            }],
            checkpoint_interval: 4,
            ..ChaosConfig::default()
        },
    );
    let survivor = crash
        .reports
        .iter()
        .find(|r| !r.crashed)
        .expect("survivors exist");
    let ckpt_bytes = survivor.checkpoint_bytes;
    print_table(
        &format!(
            "Crash recovery (rank {} dies at step 5, checkpoint every 4)",
            nranks - 1
        ),
        &["metric", "value"],
        &[
            vec!["wall".into(), fmt_time(crash.wall_s)],
            vec!["vs plain".into(), format!("{:.2}x", crash.wall_s / plain_wall)],
            vec!["recoveries".into(), survivor.recoveries.to_string()],
            vec![
                "rollback steps".into(),
                format!("{:?}", survivor.rollback_steps),
            ],
            vec!["checkpoints".into(), survivor.checkpoints.to_string()],
            vec![
                "checkpoint size".into(),
                format!("{:.1} MiB", ckpt_bytes as f64 / (1024.0 * 1024.0)),
            ],
        ],
    );

    // --- 3. Summit-scale pricing ---------------------------------------
    // Scale the measured per-rank checkpoint to a production patch count
    // (fig5's weak-scaling grind: ~256 MB of state per rank) and price a
    // 24-hour campaign.
    let model = ResilienceModel::summit();
    let bytes_per_rank = 256 << 20;
    let nboxes = 10_000;
    let work = 24.0 * 3600.0;
    let naive_interval = 600.0; // checkpoint every 10 minutes, regardless
    let mut rows = Vec::new();
    for nodes in [40, 100, 200, 400] {
        let i_opt = model.optimal_interval(bytes_per_rank, nodes);
        let t_naive = model.expected_runtime(work, naive_interval, bytes_per_rank, nboxes, nodes);
        let t_opt = model.expected_runtime(work, i_opt, bytes_per_rank, nboxes, nodes);
        rows.push(vec![
            nodes.to_string(),
            fmt_time(model.system_mtbf(nodes)),
            fmt_time(i_opt),
            format!("{:.3}%", (t_naive / work - 1.0) * 100.0),
            format!("{:.3}%", (t_opt / work - 1.0) * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Resilience overhead, 24 h campaign, {} MiB/rank checkpoints (Summit MTBF)",
            bytes_per_rank >> 20
        ),
        &[
            "nodes",
            "system MTBF",
            "Daly interval",
            "overhead @600 s",
            "overhead @Daly",
        ],
        &rows,
    );
}
