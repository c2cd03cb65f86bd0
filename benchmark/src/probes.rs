//! Per-layer metrics of a traced run: the layer probes (timed around each
//! layer's public function on the workload's end-state grids and data), the
//! counts taken from the timed run itself, and the bottom-up budget.
//!
//! Which end-to-end metric each of these should move, and on which
//! workload, is written down in README.md before any change is measured.

use crate::adapter;
use crate::host::Host;
use crate::measure::{scratch_dir, Plan, RunData};
use crate::metrics::Values;
use crate::trace::{median, Prober, SpanId, Tracer};
use crate::workloads::{Mode, Workload, CKPT_INTERVAL};

/// Step statistics of the timed run, per coarse step.
pub struct StepStats {
    /// Median wall per coarse step over all samples, seconds.
    pub p50: f64,
    pub nonregrid_p50: f64,
    /// `None` when no sample fell on the regrid cadence.
    pub regrid_p50: Option<f64>,
    pub max: f64,
    pub regrids: usize,
    pub cell_updates: u64,
}

pub fn step_stats(run: &RunData) -> StepStats {
    let per_step = |s: &crate::measure::Sample| s.secs / f64::from(s.steps);
    let all: Vec<f64> = run.samples.iter().map(per_step).collect();
    let plain: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| !s.regrid)
        .map(per_step)
        .collect();
    let regrid: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| s.regrid)
        .map(per_step)
        .collect();
    StepStats {
        p50: median(&all),
        nonregrid_p50: if plain.is_empty() {
            median(&all)
        } else {
            median(&plain)
        },
        regrid_p50: if regrid.is_empty() {
            None
        } else {
            Some(median(&regrid))
        },
        max: all.iter().copied().fold(0.0, f64::max),
        regrids: regrid.len(),
        cell_updates: run.samples.iter().map(|s| s.cell_updates).sum(),
    }
}

/// Runs every probe and fills in every per-layer metric of the catalogue.
pub fn per_layer(
    w: &Workload,
    plan: &Plan,
    run: &RunData,
    host: &Host,
    tr: &mut Tracer,
    root: SpanId,
    v: &mut Values,
) -> Result<(), String> {
    let sim = run
        .probe_sim
        .as_ref()
        .ok_or("traced run kept no simulation to probe")?;
    let probe_id = tr.open("probe", root);
    let stats = step_stats(run);
    let step_s = stats.p50;
    let threads = run.cfg.threads;
    let nranks = w.nranks as f64;

    // --- core::backend ---------------------------------------------------
    let mut pr = Prober {
        tr,
        parent: probe_id,
        reps: plan.probe_reps,
    };
    let k = adapter::probe_kernels(sim, &mut pr);
    let cells = k.cells as f64;
    let rhs_rate = cells / k.rhs_s;
    v.set("core.backend.weno_cells_per_s", cells / k.weno_s);
    v.set("core.backend.rhs_cells_per_s", rhs_rate);
    match k.viscous_s {
        Some(s) => v.set("core.backend.viscous_cells_per_s", cells / s),
        None => v.set_na("core.backend.viscous_cells_per_s"),
    }
    v.set(
        "core.backend.compute_dt_cells_per_s",
        cells / k.compute_dt_s,
    );
    v.set("core.backend.flops_per_cell", k.flops_per_cell);
    v.set("core.backend.bytes_per_cell", k.bytes_per_cell);
    // Roofline: the lower of measured peak compute and measured bandwidth ×
    // computed intensity, at the cache level the probed patch's working set
    // (state + metrics + rhs) fits in.
    let in_l2 = k.patch_working_set <= host.l2_bytes;
    let bw = if in_l2 {
        host.triad_gbs_l2
    } else {
        host.triad_gbs_dram
    };
    let ceiling_gflops = host
        .fma_gflops
        .min(bw * k.flops_per_cell / k.bytes_per_cell);
    v.set(
        "core.backend.rhs_roofline_frac",
        rhs_rate * k.flops_per_cell / 1e9 / ceiling_gflops,
    );
    println!(
        "  note: rhs roofline vs {} ceiling (largest probed patch touches {:.1} MiB; L2 is {:.1} MiB): {:.2} Gflop/s",
        if in_l2 { "L2" } else { "DRAM" },
        k.patch_working_set as f64 / 1048576.0,
        host.l2_bytes as f64 / 1048576.0,
        ceiling_gflops
    );

    // --- fab -------------------------------------------------------------
    let f = adapter::probe_fab(sim, &mut pr);
    v.set("fab.fill_boundary_ms", f.fill_boundary_s * 1e3);
    v.set(
        "fab.fill_boundary_gbs",
        f.fill_boundary_bytes as f64 / f.fill_boundary_s / 1e9,
    );
    v.set("fab.parallel_copy_ms", f.parallel_copy_s * 1e3);
    v.set("fab.plan_build_ms", f.plan_build_s * 1e3);
    let (hits, misses) = run.plan_cache;
    v.set(
        "fab.plan_cache_hit_frac",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    let owned_max = run.owned_cells.iter().copied().max().unwrap_or(0) as f64;
    let owned_mean = run.owned_cells.iter().sum::<u64>() as f64 / run.owned_cells.len() as f64;
    v.set("fab.owned_cells_imbalance", owned_max / owned_mean);
    println!(
        "  note: fab probes ran on {} patches (finest level)",
        f.patches
    );

    // --- amr -------------------------------------------------------------
    let a = adapter::probe_amr(sim, &mut pr);
    let finest_fill = *a.fillpatch_s.last().expect("level 0 always fills");
    v.set("amr.fillpatch_ms", finest_fill * 1e3);
    v.set(
        "amr.fillpatch_ghost_cells_per_s",
        a.finest_ghost_cells as f64 / finest_fill,
    );
    match a.average_down_s.last() {
        Some(s) => v.set("amr.average_down_ms", s * 1e3),
        None => v.set_na("amr.average_down_ms"),
    }
    v.set("amr.tag_ms", a.tag_s * 1e3);
    match a.cluster_s {
        Some(s) => v.set("amr.cluster_tags_ms", s * 1e3),
        None => v.set_na("amr.cluster_tags_ms"),
    }
    v.set("amr.cluster_boxes", a.cluster_boxes as f64);
    v.set("amr.grid_efficiency", a.grid_efficiency);
    // From the timed run, by cadence: what a step that regrids costs beyond
    // one that does not. Not separable where no step regrids (single level)
    // or every sample does (the durable workload's 5-step samples).
    let cadence_extra = match stats.regrid_p50 {
        Some(r) if stats.regrids < run.samples.len() => Some(r - stats.nonregrid_p50),
        _ => None,
    };
    match cadence_extra {
        Some(x) => v.set("amr.regrid_step_extra_ms", x * 1e3),
        None => v.set_na("amr.regrid_step_extra_ms"),
    }
    v.set("amr.regrids", stats.regrids as f64);
    v.set("amr.reduction_frac", run.reduction_frac);

    // --- runtime ---------------------------------------------------------
    let (plain, _, _) = pr.tr.time("runtime.cluster.wire", probe_id, || {
        adapter::probe_wire(false)
    });
    let (framed, _, _) = pr
        .tr
        .time("runtime.chaos.wire", probe_id, || adapter::probe_wire(true));
    const MIB: f64 = 1048576.0;
    v.set("runtime.cluster.pingpong_us", plain.pingpong_s * 1e6);
    v.set("runtime.cluster.bandwidth_gbs", MIB / plain.mib_s / 1e9);
    v.set("runtime.cluster.allreduce_us", plain.allreduce_s * 1e6);
    let timed_steps = run.samples.iter().map(|s| s.steps).sum::<u32>() as f64;
    let (msgs_per_step, bytes_per_step) = (
        run.comm.0 as f64 / timed_steps,
        run.comm.1 as f64 / timed_steps,
    );
    v.set("runtime.cluster.msgs_per_step", msgs_per_step);
    v.set("runtime.cluster.bytes_per_step", bytes_per_step);
    v.set("runtime.chaos.framed_pingpong_us", framed.pingpong_s * 1e6);
    v.set(
        "runtime.chaos.framed_bandwidth_gbs",
        MIB / framed.mib_s / 1e9,
    );
    v.set(
        "runtime.chaos.retransmits",
        (run.retransmits + framed.retransmits + plain.retransmits) as f64,
    );
    let mut tg = Vec::new();
    for (name, chain, t) in [
        ("chain_t1", true, 1),
        ("chain_t2", true, 2),
        ("fan_t1", false, 1),
        ("fan_t2", false, 2),
    ] {
        let s = pr.median_secs(&format!("runtime.taskgraph.{name}"), || {
            std::hint::black_box(adapter::probe_taskgraph(10_000, chain, t));
        }) / 10_000.0;
        v.set(&format!("runtime.taskgraph.{name}_us_per_task"), s * 1e6);
        tg.push(s);
    }
    v.set(
        "runtime.taskgraph.dispatch_us_per_task",
        tg.iter().sum::<f64>() / tg.len() as f64 * 1e6,
    );
    let fork: Vec<f64> = (0..200).map(|_| adapter::probe_fork_join(2)).collect();
    v.set("runtime.pool.fork_join_us", median(&fork) * 1e6);

    // --- core::io, core::driver restore, core::durable ---------------------
    let dir = scratch_dir(&format!("probe-{}", w.name)).map_err(|e| format!("probe dir: {e}"))?;
    let io = adapter::probe_io(sim, &dir, &mut pr);
    let _ = std::fs::remove_dir_all(&dir);
    let io = io?;
    v.set("core.io.ckpt_encode_ms", io.encode_s * 1e3);
    v.set("core.io.ckpt_bytes", io.bytes as f64);
    v.set("core.io.ckpt_parse_ms", io.parse_s * 1e3);
    v.set("core.driver.restore_ms", io.restore_s * 1e3);
    v.set("core.durable.spill_ms", io.spill_s * 1e3);
    v.set("core.durable.spill_mbs", io.bytes as f64 / MIB / io.spill_s);
    v.set("core.durable.recover_ms", io.recover_s * 1e3);
    v.set("core.durable.spills", f64::from(run.spills));
    v.set("core.durable.spill_failures", f64::from(run.spill_failures));

    // --- core::driver: decomposition of run_s ------------------------------
    v.set(
        "core.driver.step_ms_nonregrid_p50",
        stats.nonregrid_p50 * 1e3,
    );
    v.set("core.driver.step_ms_max", stats.max * 1e3);
    v.set("core.driver.cell_updates", stats.cell_updates as f64);
    v.set("core.driver.sim_time", run.sim_t1 - run.sim_t0);

    // --- host ------------------------------------------------------------
    v.set("host.triad_gbs_dram", host.triad_gbs_dram);
    v.set("host.triad_gbs_l2", host.triad_gbs_l2);
    v.set("host.fma_gflops", host.fma_gflops);
    v.set("host.nproc", host.nproc as f64);

    // --- budget: probe cost × how often the step loop runs it ÷ step -------
    // A cross-check until the solver records its own spans; not gated.
    // Kernel rates are the finest level's, applied to every level; work is
    // spread over the ranks (by the largest share) and pool threads.
    let stages = 3.0;
    let substeps = |l: usize| {
        if w.subcycling {
            (1u64 << l) as f64
        } else {
            1.0
        }
    };
    let share = (owned_max / owned_mean) / nranks / threads as f64;
    let updates_per_step: f64 = run
        .level_cells
        .iter()
        .enumerate()
        .map(|(l, &c)| c as f64 * substeps(l))
        .sum();
    let total_cells: f64 = run.level_cells.iter().map(|&c| c as f64).sum();
    let kernels_s =
        share * (stages * updates_per_step / rhs_rate + total_cells / (cells / k.compute_dt_s));
    let fill_s: f64 = a
        .fillpatch_s
        .iter()
        .enumerate()
        .map(|(l, s)| stages * substeps(l) * s)
        .sum::<f64>()
        + a.average_down_s
            .iter()
            .enumerate()
            .map(|(i, s)| substeps(i) * s)
            .sum::<f64>();
    let fill_s = fill_s / nranks;
    let regrid_s = cadence_extra.map_or(0.0, |x| x.max(0.0) / f64::from(w.regrid_freq));
    let wire = if w.mode == Mode::Durable {
        &framed
    } else {
        &plain
    };
    let comm_s = if w.nranks > 1 {
        msgs_per_step * wire.pingpong_s + bytes_per_step / MIB * wire.mib_s + wire.allreduce_s
    } else {
        0.0
    };
    let ckpt_s = if w.mode == Mode::Durable {
        (io.encode_s + io.spill_s) / f64::from(CKPT_INTERVAL)
    } else {
        0.0
    };
    let parts = [kernels_s, fill_s, regrid_s, comm_s, ckpt_s];
    for (name, s) in ["kernels", "fillpatch", "regrid", "comm", "ckpt"]
        .iter()
        .zip(parts)
    {
        v.set(&format!("budget.{name}_frac"), s / step_s);
    }
    v.set(
        "budget.unaccounted_frac",
        1.0 - parts.iter().sum::<f64>() / step_s,
    );

    tr.close(probe_id);
    Ok(())
}
