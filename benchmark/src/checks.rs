//! The correctness gate, run by the same command that measures: finite
//! state, conservation and exact-solution error on the vortex workloads,
//! bitwise restart, and — at seed 0 — per-level Σρ and L2(ρ) against the
//! values committed in `expected.json`.
//!
//! The state hash is printed for information only: gating on it would
//! forbid legitimate reorderings (a later PR may sum in another order).

use crate::adapter::{state_hash, PatchDigest};
use crate::json::{self, Json};
use crate::measure::{Plan, RunData};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};

/// Relative tolerance on Σρ and L2(ρ) per level at seed 0: loose enough for
/// a reordering that flips one tagged cell, tight enough for a wrong answer.
const EXPECTED_RTOL: f64 = 1e-6;
/// Relative total-mass drift allowed on the periodic vortex workloads.
const MASS_DRIFT_MAX: f64 = 1e-6;

pub fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

/// Per-level Σρ and RMS ρ, summed in patch order.
pub struct LevelSums {
    pub sum_rho: Vec<f64>,
    pub l2_rho: Vec<f64>,
}

pub fn level_sums(digests: &[PatchDigest], nlevels: usize) -> LevelSums {
    let (mut sum, mut sq, mut n) = (vec![0.0; nlevels], vec![0.0; nlevels], vec![0u64; nlevels]);
    for d in digests {
        sum[d.level] += d.sum_rho;
        sq[d.level] += d.sumsq_rho;
        n[d.level] += d.cells;
    }
    LevelSums {
        sum_rho: sum,
        l2_rho: sq
            .iter()
            .zip(&n)
            .map(|(s, &n)| (s / n as f64).sqrt())
            .collect(),
    }
}

/// The `state` member of a run record, and what `--write-expected` commits.
pub fn state_json(run: &RunData) -> Json {
    let sums = level_sums(&run.digests, run.level_cells.len());
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let mut o = Json::obj();
    o.set(
        "hash",
        Json::Str(format!("{:016x}", state_hash(&run.digests))),
    );
    o.set(
        "level_cells",
        Json::Arr(
            run.level_cells
                .iter()
                .map(|&c| Json::Num(c as f64))
                .collect(),
        ),
    );
    o.set("sum_rho", nums(&sums.sum_rho));
    o.set("l2_rho", nums(&sums.l2_rho));
    if let Some(l2) = run.vortex_l2_rho {
        o.set("vortex_l2_rho", Json::Num(l2));
    }
    if let Some((m0, m1)) = run.mass {
        o.set("mass_drift", Json::Num(((m1 - m0) / m0).abs()));
    }
    o
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Appends every failed check to `failures`; returns notes worth printing
/// (checks that passed, or were skipped and why).
pub fn gate(w: &Workload, plan: &Plan, run: &RunData, failures: &mut Vec<String>) -> Vec<String> {
    let mut notes = Vec::new();
    let expected = std::fs::read_to_string(expected_path())
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t));
    let expected = match expected {
        Ok(e) => e,
        Err(e) => {
            failures.push(format!("expected.json unreadable: {e}"));
            return notes;
        }
    };

    if !run.restart_bitwise {
        // The flow already recorded the failure; keep the note explicit.
        notes.push("restart: state differs".into());
    } else {
        notes.push("restart: bitwise equal to the in-memory state".into());
    }

    if let Some((m0, m1)) = run.mass {
        let drift = ((m1 - m0) / m0).abs();
        if drift.is_nan() || drift > MASS_DRIFT_MAX {
            failures.push(format!("mass drift {drift:e} exceeds {MASS_DRIFT_MAX:e}"));
        }
        notes.push(format!("mass drift {drift:.3e} (limit {MASS_DRIFT_MAX:e})"));
    }
    if let Some(l2) = run.vortex_l2_rho {
        let limit = expected
            .get("thresholds")
            .and_then(|t| t.get(w.name))
            .and_then(|t| t.get("vortex_l2_rho_max"))
            .and_then(Json::as_f64);
        match limit {
            Some(limit) if l2 <= limit => notes.push(format!(
                "L2(rho) vs exact vortex {l2:.4e} (limit {limit:e})"
            )),
            Some(limit) => {
                failures.push(format!("L2(rho) vs exact vortex {l2:e} exceeds {limit:e}"))
            }
            None => failures.push(format!(
                "expected.json has no vortex_l2_rho_max for {}",
                w.name
            )),
        }
    }

    // Seed-0 reference values exist for the default run length and for the
    // smoke length; any other length has nothing to compare against.
    let section = if plan.smoke { "smoke" } else { "full" };
    let entry = expected.get(section).and_then(|s| s.get(w.name));
    let steps_match = entry
        .and_then(|e| e.get("timed_steps"))
        .and_then(Json::as_f64)
        == Some(f64::from(plan.timed_steps));
    if plan.seed != 0 || !steps_match {
        notes.push(format!(
            "expected.json: not compared (seed {} / {} timed steps; reference is seed 0 at its committed length)",
            plan.seed, plan.timed_steps
        ));
        return notes;
    }
    let entry = entry.expect("steps_match implies an entry");
    let sums = level_sums(&run.digests, run.level_cells.len());
    let mut compared = 0;
    for (key, got) in [("sum_rho", &sums.sum_rho), ("l2_rho", &sums.l2_rho)] {
        let want: Vec<f64> = entry
            .get(key)
            .and_then(Json::as_arr)
            .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect());
        if want.len() != got.len() {
            failures.push(format!(
                "{key}: {} levels, expected.json has {}",
                got.len(),
                want.len()
            ));
            continue;
        }
        for (l, (g, e)) in got.iter().zip(&want).enumerate() {
            let d = rel_diff(*g, *e);
            compared += 1;
            if d.is_nan() || d > EXPECTED_RTOL {
                failures.push(format!(
                    "{key} level {l}: {g:e} vs expected {e:e} (rel {d:e} > {EXPECTED_RTOL:e})"
                ));
            }
        }
    }
    notes.push(format!(
        "expected.json: {compared} per-level values within {EXPECTED_RTOL:e}"
    ));
    notes
}
