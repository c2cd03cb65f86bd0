//! One workload, measured: set-up samples, warm-up, the fixed timed steps,
//! checkpoint and restarts, and the raw material of the correctness gate.
//! Closed loop, one simulation at a time. All solver calls go through
//! `adapter`; all clock reads go through `Tracer::time`.

use crate::adapter::{self, PatchDigest, RankEndpoint, Simulation, SolverConfig, View};
use crate::host::peak_rss_mib;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Knobs, Mode, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much of everything one invocation does.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub timed_steps: u32,
    /// Constructions thrown away before the timed ones.
    pub setup_discard: usize,
    pub setup_reps: usize,
    pub restart_reps: usize,
    /// Calls per layer probe (traced runs).
    pub probe_reps: usize,
    pub trace: bool,
    pub smoke: bool,
}

/// One timed sample: `steps` coarse steps (1, or the checkpoint interval on
/// the durable workload).
#[derive(Clone, Debug)]
pub struct Sample {
    /// Wall seconds, max over ranks.
    pub secs: f64,
    pub steps: u32,
    /// The solver regridded at the start of this sample.
    pub regrid: bool,
    /// Cell updates the sample performed (harness count).
    pub cell_updates: u64,
}

/// Everything the timed (untraced-equivalent) part of a run produced.
pub struct RunData {
    pub cfg: SolverConfig,
    pub setup_samples: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Wall seconds of the whole timed phase, max over ranks.
    pub run_s: f64,
    pub sim_t0: f64,
    pub sim_t1: f64,
    /// `VmHWM` right after the timed steps, before restarts and probes.
    pub peak_rss_mb: f64,
    pub restart_samples: Vec<f64>,
    /// End-state patch digests in level/patch order (all ranks merged).
    pub digests: Vec<PatchDigest>,
    pub level_cells: Vec<u64>,
    /// Valid cells each rank holds data for at the end.
    pub owned_cells: Vec<u64>,
    /// Cross-rank (messages, bytes) the solver accounted over the timed
    /// phase, on rank 0.
    pub comm: (u64, u64),
    pub plan_cache: (u64, u64),
    pub reduction_frac: f64,
    pub spills: u32,
    pub spill_failures: u32,
    pub retransmits: u64,
    /// Total mass before the first step and at the end (vortex workloads).
    pub mass: Option<(f64, f64)>,
    pub vortex_l2_rho: Option<f64>,
    /// The restarted state matched the in-memory one bit for bit.
    pub restart_bitwise: bool,
    pub ops_attempted: u64,
    pub failures: Vec<String>,
    /// A replicated one-rank simulation at (or one step before) the end
    /// state, for the layer probes. Only built on traced runs.
    pub probe_sim: Option<Simulation>,
}

/// Scratch space inside the checkout (`benchmark/out/`), where spill
/// directories, traces and run records go. Nothing is written elsewhere.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory under [`out_dir`], unique to this process.
pub fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn check_digests(digests: &[PatchDigest], failures: &mut Vec<String>) {
    for d in digests.iter().filter(|d| !d.finite) {
        failures.push(format!(
            "non-finite value in level {} patch {}",
            d.level, d.patch
        ));
    }
}

/// Runs the workload's timed flow.
pub fn run(w: &Workload, plan: &Plan, tr: &mut Tracer, root: SpanId) -> Result<RunData, String> {
    let knobs = Knobs::from_seed(plan.seed);
    match w.mode {
        Mode::Serial => run_serial(w, &knobs, plan, tr, root),
        Mode::Cluster | Mode::Durable => run_ranked(w, &knobs, plan, tr, root),
    }
}

fn run_serial(
    w: &Workload,
    knobs: &Knobs,
    plan: &Plan,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<RunData, String> {
    let cfg = adapter::build_config(w, knobs, View::AsRun { spill_dir: None });
    let mut failures = Vec::new();
    let mut ops = 0u64;

    // Set-up: construct several times, keep the last.
    let mut setup_samples = Vec::new();
    let mut sim = None;
    for i in 0..plan.setup_discard + plan.setup_reps {
        drop(sim.take());
        let (s, secs, _) = tr.time(&format!("setup[{i}]"), root, || adapter::new_serial(&cfg));
        if i >= plan.setup_discard {
            setup_samples.push(secs);
        }
        sim = Some(s);
        ops += 1;
    }
    let mut sim = sim.expect("at least one construction");
    let mass0 = w.vortex.then(|| adapter::total_mass(&sim));

    tr.time("warmup", root, || {
        for _ in 0..w.warmup {
            adapter::step(&mut sim);
        }
    });
    ops += u64::from(w.warmup);

    // The timed steps.
    let run_id = tr.open("run", root);
    let sim_t0 = adapter::sim_time(&sim);
    let comm0 = adapter::comm_counts(&sim);
    let mut samples = Vec::with_capacity(plan.timed_steps as usize);
    let t_run = Instant::now();
    for i in 0..plan.timed_steps {
        let regrid = w.regrids_at(adapter::step_count(&sim));
        let (_, secs, id) = tr.time(&format!("step[{i}]"), run_id, || adapter::step(&mut sim));
        let cell_updates = adapter::cell_updates_per_step(&sim);
        tr.attr(id, "regrid", regrid);
        tr.attr(id, "cells", cell_updates);
        samples.push(Sample {
            secs,
            steps: 1,
            regrid,
            cell_updates,
        });
    }
    let run_s = t_run.elapsed().as_secs_f64();
    tr.close(run_id);
    ops += u64::from(plan.timed_steps);
    let peak_rss_mb = peak_rss_mib();
    let sim_t1 = adapter::sim_time(&sim);
    let comm1 = adapter::comm_counts(&sim);

    // Checkpoint, then restarts: bytes → simulation ready to step.
    let ckpt_id = tr.open("ckpt", root);
    let (bytes, _, _) = tr.time("core.io.encode", ckpt_id, || {
        adapter::checkpoint_bytes(&sim)
    });
    ops += 1;
    let digests = adapter::patch_digests(&sim);
    check_digests(&digests, &mut failures);
    let mut restart_samples = Vec::new();
    let mut restart_bitwise = true;
    for i in 0..plan.restart_reps {
        let (restored, secs, _) = tr.time(&format!("restart[{i}]"), ckpt_id, || {
            adapter::restore_serial(&cfg, &bytes)
        });
        restart_samples.push(secs);
        ops += 1;
        match restored {
            Ok(r) if i == 0 => {
                let same = adapter::patch_digests(&r) == digests
                    && adapter::step_count(&r) == adapter::step_count(&sim)
                    && adapter::sim_time(&r).to_bits() == sim_t1.to_bits();
                if !same {
                    restart_bitwise = false;
                    failures.push("restarted state differs from the in-memory state".into());
                }
            }
            Ok(_) => {}
            Err(e) => failures.push(format!("restart failed: {e}")),
        }
    }
    tr.close(ckpt_id);

    let mass = mass0.map(|m0| (m0, adapter::total_mass(&sim)));
    let vortex_l2_rho = w.vortex.then(|| adapter::vortex_l2_rho(&sim));
    Ok(RunData {
        setup_samples,
        samples,
        run_s,
        sim_t0,
        sim_t1,
        peak_rss_mb,
        restart_samples,
        digests,
        level_cells: adapter::level_cells(&sim),
        owned_cells: vec![adapter::owned_cells(&sim)],
        comm: (comm1.0 - comm0.0, comm1.1 - comm0.1),
        plan_cache: adapter::plan_cache_counts(&sim),
        reduction_frac: adapter::reduction_frac(&sim),
        spills: 0,
        spill_failures: 0,
        retransmits: 0,
        mass,
        vortex_l2_rho,
        restart_bitwise,
        ops_attempted: ops,
        failures,
        probe_sim: plan.trace.then_some(sim),
        cfg,
    })
}

/// What one rank thread hands back from the timed flow.
#[derive(Default)]
struct RankOut {
    setup: Vec<f64>,
    samples: Vec<Sample>,
    run_s: f64,
    sim_t0: f64,
    sim_t1: f64,
    peak_rss_mb: f64,
    digests: Vec<PatchDigest>,
    /// Hashes of this rank's patches one step past the spilled checkpoint.
    after_spill: Vec<u64>,
    level_cells: Vec<u64>,
    owned_cells: u64,
    comm: (u64, u64),
    plan_cache: (u64, u64),
    reduction_frac: f64,
    spills: u32,
    spill_failures: u32,
    disturbed: bool,
    spans: Vec<crate::trace::Span>,
}

/// Element-wise maximum of the ranks' sample lists (equal lengths).
fn max_over_ranks<'a>(mut per_rank: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut out = per_rank.next().map_or_else(Vec::new, <[f64]>::to_vec);
    for xs in per_rank {
        for (slot, x) in out.iter_mut().zip(xs) {
            *slot = slot.max(*x);
        }
    }
    out
}

fn patch_hashes(sim: &Simulation) -> Vec<u64> {
    adapter::patch_digests(sim).iter().map(|d| d.hash).collect()
}

/// One cold restart, as its child process reported it.
struct ColdRestart {
    /// Spill directory → simulation ready to step, max over ranks.
    secs: f64,
    /// Per rank: the patch hashes one step after the restart (empty without
    /// `verify`), or why the restart failed.
    verdicts: Vec<Result<Vec<u64>, String>>,
}

/// The `restart-child` subcommand: one cold restart of a ranked workload from
/// `dir` on a fresh cluster, each rank timed from a barrier. Prints `secs`,
/// `hashes` (with `verify`, after one more step) and `error` lines, one per
/// rank, for [`cold_restart`] to read.
pub fn restart_child(w: &Workload, seed: u64, dir: &Path, verify: bool) -> Result<(), String> {
    if w.mode == Mode::Serial {
        return Err(format!("{} restarts in process", w.name));
    }
    let cfg = adapter::build_config(
        w,
        &Knobs::from_seed(seed),
        View::AsRun {
            spill_dir: Some(dir),
        },
    );
    let (ranks, _) = adapter::run_cluster(w.nranks, w.mode == Mode::Durable, |ep| {
        adapter::barrier(&ep);
        let t0 = Instant::now();
        let sim = adapter::restart_owned(&cfg, dir, ep.rank());
        let secs = t0.elapsed().as_secs_f64();
        let hashes = sim.map(|mut sim| {
            if verify {
                adapter::advance_cluster(&mut sim, 1, &ep);
                patch_hashes(&sim)
            } else {
                Vec::new()
            }
        });
        (secs, hashes)
    });
    for (rank, (secs, hashes)) in ranks.iter().enumerate() {
        println!("secs {rank} {secs:e}");
        match hashes {
            Ok(h) if verify => {
                let h: Vec<String> = h.iter().map(|x| format!("{x:x}")).collect();
                println!("hashes {rank} {}", h.join(" "));
            }
            Ok(_) => {}
            Err(e) => println!("error {rank} {}", e.replace('\n', " ")),
        }
    }
    Ok(())
}

/// Runs one cold restart in a child process (this executable, `restart-child`)
/// and waits for it. A process of its own is what makes the restart cold: in
/// a process that has already stepped, the rank threads inherit allocator
/// arenas whose state depends on the history, and a restart then takes 72 or
/// 90 ms (`ramp2_r2`) depending on which arena a thread was handed — per
/// process, so no number of in-process repeats averages it out. The first
/// restart of a fresh process is unimodal (README.md, "End-to-end metrics").
fn cold_restart(w: &Workload, seed: u64, dir: &Path, verify: bool) -> Result<ColdRestart, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("restart-child")
        .args(["--workload", w.name, "--seed", &seed.to_string(), "--dir"])
        .arg(dir);
    if verify {
        cmd.arg("--verify");
    }
    let out = cmd.output().map_err(|e| format!("restart-child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "restart-child: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut secs = vec![f64::NAN; w.nranks];
    let mut verdicts: Vec<Result<Vec<u64>, String>> = vec![Ok(Vec::new()); w.nranks];
    let malformed = |line: &str| format!("restart-child: cannot read {line:?}");
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut words = line.split(' ');
        let kind = words.next().unwrap_or("");
        let rank: usize = words
            .next()
            .and_then(|r| r.parse().ok())
            .filter(|r| *r < w.nranks)
            .ok_or_else(|| malformed(line))?;
        match kind {
            "secs" => {
                secs[rank] = words
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| malformed(line))?;
            }
            "hashes" => {
                verdicts[rank] = Ok(words
                    .map(|x| u64::from_str_radix(x, 16).map_err(|_| malformed(line)))
                    .collect::<Result<_, _>>()?);
            }
            "error" => verdicts[rank] = Err(words.collect::<Vec<_>>().join(" ")),
            _ => return Err(malformed(line)),
        }
    }
    if secs.iter().any(|s| !s.is_finite()) {
        return Err("restart-child: a rank reported no time".into());
    }
    Ok(ColdRestart {
        secs: secs.into_iter().fold(0.0, f64::max),
        verdicts,
    })
}

fn advance(w: &Workload, sim: &mut Simulation, n: u32, ep: &RankEndpoint, out: &mut RankOut) {
    match w.mode {
        Mode::Durable => {
            let (spills, failed, disturbed) = adapter::advance_chaos(sim, n, ep);
            out.spills += spills;
            out.spill_failures += failed;
            out.disturbed |= disturbed;
        }
        _ => adapter::advance_cluster(sim, n, ep),
    }
}

fn run_ranked(
    w: &Workload,
    knobs: &Knobs,
    plan: &Plan,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<RunData, String> {
    let spill = scratch_dir(&format!("spill-{}", w.name)).map_err(|e| format!("spill dir: {e}"))?;
    let cfg = adapter::build_config(
        w,
        knobs,
        View::AsRun {
            spill_dir: Some(&spill),
        },
    );
    let framed = w.mode == Mode::Durable;
    let samples_n = plan.timed_steps / w.chunk;
    let mut failures = Vec::new();

    // Phase 1, on one cluster: set-up samples, warm-up, timed samples, then
    // one more step under the checkpointing loop, which gathers and spills
    // the end state before taking it.
    let shared: &Tracer = tr;
    let (ranks, retransmits) = adapter::run_cluster(w.nranks, framed, |ep| {
        let mut tr = shared.for_rank(ep.rank() as u32);
        let mut out = RankOut::default();
        let mut sim = None;
        for i in 0..plan.setup_discard + plan.setup_reps {
            drop(sim.take());
            adapter::barrier(&ep);
            let (s, secs, _) = tr.time(&format!("setup[{i}]"), root, || {
                adapter::new_owned(&cfg, &ep)
            });
            if i >= plan.setup_discard {
                out.setup.push(secs);
            }
            sim = Some(s);
        }
        let mut sim = sim.expect("at least one construction");
        tr.time("warmup", root, || {
            advance(w, &mut sim, w.warmup, &ep, &mut out)
        });

        adapter::barrier(&ep);
        let run_id = tr.open("run", root);
        out.sim_t0 = adapter::sim_time(&sim);
        let comm0 = adapter::comm_counts(&sim);
        let t_run = Instant::now();
        for i in 0..samples_n {
            let regrid = w.regrids_at(adapter::step_count(&sim));
            let (_, secs, id) = tr.time(&format!("step[{i}]"), run_id, || {
                advance(w, &mut sim, w.chunk, &ep, &mut out)
            });
            // Samples start on the regrid cadence (warm-up is one period),
            // so the grids read here held for every step of the sample.
            let cell_updates = adapter::cell_updates_per_step(&sim) * u64::from(w.chunk);
            tr.attr(id, "regrid", regrid);
            tr.attr(id, "cells", cell_updates);
            out.samples.push(Sample {
                secs,
                steps: w.chunk,
                regrid,
                cell_updates,
            });
        }
        out.run_s = t_run.elapsed().as_secs_f64();
        tr.close(run_id);
        out.peak_rss_mb = peak_rss_mib();
        out.sim_t1 = adapter::sim_time(&sim);
        let comm1 = adapter::comm_counts(&sim);
        out.comm = (comm1.0 - comm0.0, comm1.1 - comm0.1);
        out.digests = adapter::patch_digests(&sim);
        out.level_cells = adapter::level_cells(&sim);
        out.owned_cells = adapter::owned_cells(&sim);
        out.plan_cache = adapter::plan_cache_counts(&sim);
        out.reduction_frac = adapter::reduction_frac(&sim);

        let ckpt_id = tr.open("ckpt", root);
        let (r, _, _) = tr.time("core.durable.spill_step", ckpt_id, || {
            adapter::advance_chaos(&mut sim, 1, &ep)
        });
        tr.close(ckpt_id);
        out.spills += r.0;
        out.spill_failures += r.1;
        out.disturbed |= r.2;
        out.after_spill = patch_hashes(&sim);
        out.spans = tr.into_spans();
        out
    });

    // Phase 2: cold restarts from the spill directory, each in a process of
    // its own (see `cold_restart`). The last one also takes the same one
    // step and must land on the same bits.
    let restart_reps = plan.restart_reps;
    let mut restart_samples = Vec::with_capacity(restart_reps);
    let mut restart_bitwise = true;
    let ckpt_id = tr.open("ckpt", root);
    for i in 0..restart_reps {
        let verify = i + 1 == restart_reps;
        let (cold, _, id) = tr.time(&format!("restart[{i}]"), ckpt_id, || {
            cold_restart(w, plan.seed, &spill, verify)
        });
        let cold = cold.inspect_err(|_| {
            let _ = std::fs::remove_dir_all(&spill);
        })?;
        tr.attr(id, "restart_s", cold.secs);
        restart_samples.push(cold.secs);
        for (rank, verdict) in cold.verdicts.into_iter().enumerate() {
            match verdict {
                Ok(h) if !verify || h == ranks[rank].after_spill => {}
                Ok(_) => {
                    restart_bitwise = false;
                    failures.push(format!(
                        "rank {rank}: restarted state differs from the in-memory state"
                    ));
                }
                Err(e) => {
                    restart_bitwise = false;
                    failures.push(format!("rank {rank}: restart failed: {e}"));
                }
            }
        }
    }
    tr.close(ckpt_id);

    let mut ops = (w.nranks * (plan.setup_discard + plan.setup_reps)) as u64;
    ops += u64::from(w.warmup + plan.timed_steps + 1) + 1 + (w.nranks * restart_reps) as u64;

    // Merge the ranks: a sample, and the run, take as long as the slowest rank.
    let mut samples = ranks[0].samples.clone();
    for (i, s) in samples.iter_mut().enumerate() {
        s.secs = ranks.iter().map(|r| r.samples[i].secs).fold(0.0, f64::max);
    }
    let setup_samples = max_over_ranks(ranks.iter().map(|r| r.setup.as_slice()));
    let mut digests: Vec<PatchDigest> = ranks
        .iter()
        .flat_map(|r| r.digests.iter().cloned())
        .collect();
    digests.sort_by_key(|d| (d.level, d.patch));
    check_digests(&digests, &mut failures);
    let total_patch_cells: u64 = digests.iter().map(|d| d.cells).sum();
    if total_patch_cells != ranks[0].level_cells.iter().sum::<u64>() {
        failures.push("the ranks' owned patches do not add up to the hierarchy".into());
    }
    if ranks.iter().any(|r| r.disturbed) {
        failures.push("fault-free run reported a crash or recovery".into());
    }
    if ranks.iter().map(|r| r.spill_failures).sum::<u32>() > 0 {
        failures.push("a checkpoint spill failed".into());
    }

    let probe_sim = if plan.trace {
        let bytes = adapter::newest_spilled_bytes(&spill)?;
        let serial_cfg = adapter::build_config(w, knobs, View::Replicated);
        Some(adapter::restore_serial(&serial_cfg, &bytes)?)
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&spill);

    let r0 = &ranks[0];
    let data = RunData {
        setup_samples,
        samples,
        run_s: ranks.iter().map(|r| r.run_s).fold(0.0, f64::max),
        sim_t0: r0.sim_t0,
        sim_t1: r0.sim_t1,
        peak_rss_mb: ranks.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        restart_samples,
        digests,
        level_cells: r0.level_cells.clone(),
        owned_cells: ranks.iter().map(|r| r.owned_cells).collect(),
        comm: r0.comm,
        plan_cache: r0.plan_cache,
        reduction_frac: r0.reduction_frac,
        spills: ranks.iter().map(|r| r.spills).sum(),
        spill_failures: ranks.iter().map(|r| r.spill_failures).sum(),
        retransmits,
        mass: None,
        vortex_l2_rho: None,
        restart_bitwise,
        ops_attempted: ops,
        failures,
        probe_sim,
        cfg,
    };
    for r in ranks {
        tr.absorb(r.spans);
    }
    Ok(data)
}
