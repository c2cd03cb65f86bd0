//! The multi-run commands: `all` (every workload, each in a child process
//! of its own), `compare` (the bench-diff ROADMAP asks for), and `selfcheck`
//! (two sets of runs of the same code must agree within the benchmark's own
//! bounds — how the bounds in `BENCHMARK.json` are validated).
//!
//! Children are this executable, invoked through the same
//! `--workload/--seed/--seconds/--trace` interface the contract defines, so
//! what `all` measures is what the driver measures.

use crate::checks::expected_path;
use crate::json::{self, Json};
use crate::measure::out_dir;
use crate::metrics::{format_value, Better, END_TO_END};
use crate::trace::{median, spread};
use crate::workloads::{Workload, WORKLOADS};
use std::path::Path;
use std::process::Command;

pub struct AllOpts {
    pub seconds: u32,
    /// First seed; run `i` of a workload uses `seed + i`.
    pub seed: u64,
    /// Untraced runs per workload.
    pub runs: usize,
    pub trace: bool,
    pub smoke: bool,
    pub write_expected: bool,
    pub out: Option<String>,
}

/// Runs one child and returns its run record (`out/run-<workload>-t<trace>.json`).
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the machine-readable last line is the child's report.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    let path = out_dir().join(format!("run-{}-t{}.json", w.name, u8::from(trace)));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn e2e_value(record: &Json, metric: &str) -> Option<f64> {
    record
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The untraced run records of one workload in a results document.
fn runs_of<'a>(doc: &'a Json, workload: &str) -> &'a [Json] {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|e| e.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// One end-to-end metric's value in each of a workload's runs.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(doc, workload)
        .iter()
        .filter_map(|r| e2e_value(r, metric))
        .collect()
}

/// Sum of a per-run counter (`ops_attempted`, `ops_failed`) over a workload's runs.
fn ops(doc: &Json, workload: &str, key: &str) -> f64 {
    runs_of(doc, workload)
        .iter()
        .filter_map(|r| r.get(key).and_then(Json::as_f64))
        .sum()
}

/// `all`: runs every workload and returns the results document:
/// `{"meta": …, "workloads": {name: {"runs": [record…], "traced": record}}}`.
pub fn all(opts: &AllOpts) -> Result<(Json, bool), String> {
    let mut ok = true;
    let mut workloads = Json::obj();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..opts.runs {
            let rec = run_child(w, opts.seed + i as u64, opts.seconds, false, opts.smoke)?;
            ok &= rec.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push(rec);
        }
        let mut entry = Json::obj();
        if opts.trace {
            let mut rec = run_child(w, opts.seed, opts.seconds, true, opts.smoke)?;
            ok &= rec.get("correct").and_then(Json::as_bool) == Some(true);
            // The differenced overhead: traced minus untraced wall of the same
            // fixed steps. On a noisy host this is mostly run-to-run noise;
            // `trace.overhead_frac` (bottom-up) is the number to read.
            if let (Some(t), Some(u)) = (
                rec.get("run_s").and_then(Json::as_f64),
                runs.first().and_then(|r| e2e_value(r, "run_s")),
            ) {
                let delta = (t - u) / u;
                println!("  trace.run_s_delta_frac {delta:+.4} (traced {t:.3} s vs untraced {u:.3} s; includes run-to-run noise)");
                rec.set("trace.run_s_delta_frac", Json::Num(delta));
            }
            entry.set("traced", rec);
        }
        entry.set("runs", Json::Arr(runs));
        workloads.set(w.name, entry);
    }
    let mut meta = Json::obj();
    meta.set("seconds", Json::Num(f64::from(opts.seconds)));
    meta.set("first_seed", Json::Num(opts.seed as f64));
    meta.set("runs_per_workload", Json::Num(opts.runs as f64));
    meta.set("smoke", Json::Bool(opts.smoke));
    meta.set(
        "note",
        Json::Str(
            "every number was executed on this host; nothing comes from perfmodel's Summit model"
                .into(),
        ),
    );
    let mut doc = Json::obj();
    doc.set("meta", meta);
    doc.set("workloads", workloads);

    if opts.write_expected {
        write_expected(&doc, opts.smoke)?;
        ok = true;
    }
    if !opts.smoke {
        let path = match &opts.out {
            Some(p) => std::path::PathBuf::from(p),
            None => out_dir().join("results.json"),
        };
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    print_summary(&doc);
    Ok((doc, ok))
}

/// Median of each end-to-end metric over a workload's untraced runs.
fn print_summary(doc: &Json) {
    println!("\nsummary (median over runs; spread = IQR / median, needs >= 2 runs)");
    for (name, _) in doc.get("workloads").map_or(&[][..], Json::entries) {
        println!("  {name}");
        for m in &END_TO_END {
            let xs = values(doc, name, m.name);
            if xs.is_empty() {
                continue;
            }
            let sp = if xs.len() >= 2 {
                format!("{:.2} %", spread(&xs) * 100.0)
            } else {
                "-".into()
            };
            println!(
                "    {:<22} {:>14} {:<8} spread {:>8}  bound {:.0} %",
                m.name,
                format_value(median(&xs)),
                m.unit,
                sp,
                m.bound * 100.0
            );
        }
        println!(
            "    ops_failed / ops_attempted   {} / {}",
            ops(doc, name, "ops_failed"),
            ops(doc, name, "ops_attempted")
        );
    }
}

/// Rewrites the `full` or `smoke` section of `expected.json` (and the vortex
/// thresholds, at 1.5 × the error observed on the full run) from seed-0 runs.
fn write_expected(doc: &Json, smoke: bool) -> Result<(), String> {
    if doc
        .get("meta")
        .and_then(|m| m.get("first_seed"))
        .and_then(Json::as_f64)
        != Some(0.0)
    {
        return Err(
            "--write-expected needs --seed 0 (the reference is the problem defaults)".into(),
        );
    }
    let path = expected_path();
    let mut expected = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .unwrap_or_else(Json::obj);
    let mut section = Json::obj();
    let mut thresholds = expected
        .get("thresholds")
        .cloned()
        .unwrap_or_else(Json::obj);
    for (name, entry) in doc.get("workloads").map_or(&[][..], Json::entries) {
        let rec = entry
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|r| r.first())
            .ok_or("no run to record")?;
        let state = rec.get("state").ok_or("run record has no state")?;
        let mut e = Json::obj();
        e.set(
            "timed_steps",
            rec.get("timed_steps").cloned().unwrap_or(Json::Null),
        );
        for key in ["level_cells", "sum_rho", "l2_rho", "hash"] {
            e.set(key, state.get(key).cloned().unwrap_or(Json::Null));
        }
        section.set(name, e);
        if let (false, Some(l2)) = (smoke, state.get("vortex_l2_rho").and_then(Json::as_f64)) {
            let mut t = Json::obj();
            t.set("vortex_l2_rho_max", Json::Num(l2 * 1.5));
            thresholds.set(name, t);
        }
    }
    expected.set(if smoke { "smoke" } else { "full" }, section);
    expected.set("thresholds", thresholds);
    std::fs::write(&path, expected.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judges a change of one metric: `a` are the parent's values, `b` the
/// change's. Unresolved when either side's own spread exceeds the bound;
/// otherwise worse / improved when the medians differ by more than the
/// bound in that direction.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let own_spread = [a, b]
        .iter()
        .filter(|x| x.len() >= 2)
        .map(|x| spread(x))
        .fold(0.0, f64::max);
    let worsening = if better == Better::Lower {
        change
    } else {
        -change
    };
    let verdict = if own_spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, change, own_spread)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A B`: per workload × end-to-end metric, parent, change, ratio
/// with its base, the bound and a verdict. `Ok(false)` on any `worse`, or
/// when more operations failed per attempt than in the parent.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    Ok(compare_docs(&a, &b, a_path, b_path))
}

pub fn compare_docs(a: &Json, b: &Json, a_name: &str, b_name: &str) -> bool {
    let mut ok = true;
    println!("compare: parent = {a_name}, change = {b_name}");
    println!(
        "  {:<22} {:<20} {:>13} {:>13} {:>22} {:>7} {:>8}  verdict",
        "workload", "metric", "parent", "change", "ratio (base: parent)", "bound", "spread"
    );
    for (name, _) in a.get("workloads").map_or(&[][..], Json::entries) {
        for m in &END_TO_END {
            let (xa, xb) = (values(a, name, m.name), values(b, name, m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("  {name:<22} {:<20} missing on one side", m.name);
                ok = false;
                continue;
            }
            let (verdict, change, own) = judge(&xa, &xb, m.better, m.bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "  {name:<22} {:<20} {:>13} {:>13} {:>13.4} ({:+.2} %) {:>6.0}% {:>7.2}%  {}",
                m.name,
                format_value(median(&xa)),
                format_value(median(&xb)),
                median(&xb) / median(&xa),
                change * 100.0,
                m.bound * 100.0,
                own * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let rate = |doc: &Json| {
            let tried = ops(doc, name, "ops_attempted");
            if tried > 0.0 {
                ops(doc, name, "ops_failed") / tried
            } else {
                1.0
            }
        };
        let (fa, fb) = (rate(a), rate(b));
        if fb > fa {
            println!("  {name:<22} ops_failed / ops_attempted rose from {fa:.4} to {fb:.4}: worse");
            ok = false;
        }
    }
    println!(
        "compare: {}",
        if ok {
            "no regression"
        } else {
            "REGRESSION or missing data"
        }
    );
    ok
}

/// `selfcheck`: two sets of `runs` runs per workload (seeds 1..=runs), the
/// same code both times. Fails when a metric's spread within a set exceeds
/// its bound (sets of four or more), or when the second set's median is
/// worse than the first's by more than the bound.
pub fn selfcheck(seconds: u32, runs: usize, out: Option<String>) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 0..2 {
        println!("=== selfcheck set {} of 2 ===", set + 1);
        let opts = AllOpts {
            seconds,
            seed: 1,
            runs,
            trace: false,
            smoke: false,
            write_expected: false,
            out: Some(
                out_dir()
                    .join(format!("selfcheck-set{}.json", set + 1))
                    .to_string_lossy()
                    .into_owned(),
            ),
        };
        let (doc, ok) = all(&opts)?;
        if !ok {
            return Err("a selfcheck run failed its correctness gate".into());
        }
        sets.push(doc);
    }
    let mut ok = compare_docs(&sets[0], &sets[1], "set 1", "set 2");
    let mut spreads = Json::obj();
    println!("\nselfcheck spreads (IQR / median per set; target is a third of the bound)");
    for w in &WORKLOADS {
        let mut per_metric = Json::obj();
        for m in &END_TO_END {
            // The contract's second condition, whatever the spread: the
            // second set's median may not be worse by more than the bound.
            let (x1, x2) = (
                values(&sets[0], w.name, m.name),
                values(&sets[1], w.name, m.name),
            );
            let shift = (median(&x2) - median(&x1)) / median(&x1);
            let worsening = if m.better == Better::Lower {
                shift
            } else {
                -shift
            };
            if worsening > m.bound {
                println!(
                    "  {} {}: second set worse by {:.2} %, bound {:.0} %",
                    w.name,
                    m.name,
                    worsening * 100.0,
                    m.bound * 100.0
                );
                ok = false;
            }
            let mut row = Vec::new();
            for xs in [&x1, &x2] {
                if xs.len() >= 4 {
                    let s = spread(xs);
                    if m.name != "setup_s" && s > m.bound {
                        println!(
                            "  {} {}: spread {:.2} % exceeds bound {:.0} %",
                            w.name,
                            m.name,
                            s * 100.0,
                            m.bound * 100.0
                        );
                        ok = false;
                    }
                    row.push(s);
                }
            }
            if !row.is_empty() {
                let worst = row.iter().copied().fold(0.0, f64::max);
                println!(
                    "  {:<22} {:<20} {}  (bound {:.0} %{})",
                    w.name,
                    m.name,
                    row.iter()
                        .map(|s| format!("{:>6.2} %", s * 100.0))
                        .collect::<Vec<_>>()
                        .join(" "),
                    m.bound * 100.0,
                    if worst > m.bound / 3.0 {
                        ", above a third"
                    } else {
                        ""
                    }
                );
                per_metric.set(m.name, Json::Arr(row.into_iter().map(Json::Num).collect()));
            }
        }
        spreads.set(w.name, per_metric);
    }
    let mut doc = Json::obj();
    doc.set("passed", Json::Bool(ok));
    doc.set("spreads", spreads);
    doc.set("set1", sets.remove(0));
    doc.set("set2", sets.remove(0));
    let path = out.map_or_else(
        || out_dir().join("selfcheck.json"),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "selfcheck: {} (written to {})",
        if ok { "PASS" } else { "FAIL" },
        path.display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0];
        let slower = [11.5, 11.6, 11.4, 11.5];
        assert_eq!(judge(&base, &slower, Better::Lower, 0.10).0, Verdict::Worse);
        assert_eq!(
            judge(&base, &slower, Better::Higher, 0.10).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &[10.2, 10.3, 10.1, 10.2], Better::Lower, 0.10).0,
            Verdict::Unchanged
        );
        let noisy = [8.0, 12.0, 9.0, 13.0];
        assert_eq!(
            judge(&noisy, &slower, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // Single runs have no spread of their own: judged on the medians.
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Lower, 0.10).0,
            Verdict::Worse
        );
    }
}
