//! The CRoCCo-rs benchmark: five AMR workloads, end-to-end metrics, per-layer
//! probes and a traced run. README.md is the manual.
//!
//! ```text
//! crocco-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the contract)
//! crocco-benchmark all [--trace] [--smoke] [--runs N] [--seed N] [--seconds S] [--out FILE] [--write-expected]
//! crocco-benchmark compare A.json B.json
//! crocco-benchmark selfcheck [--runs N] [--seconds S] [--out FILE]
//! crocco-benchmark spec                                                      prints /BENCHMARK.json
//! crocco-benchmark restart-child --workload <name> --seed <n> --dir D [--verify]   internal: one cold restart
//! ```

#![forbid(unsafe_code)]

mod adapter;
mod checks;
mod host;
mod json;
mod measure;
mod metrics;
mod probes;
mod report;
mod trace;
mod workloads;

use json::Json;
use measure::Plan;
use metrics::Values;
use std::time::Instant;
use trace::{median, minimum, quantile, Tracer};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u32 = 10;
/// Timed steps of a `--smoke` run.
const SMOKE_STEPS: u32 = 5;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["--smoke", "--write-expected", "--help", "--verify"];

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            positional.push(a);
        } else if SWITCHES.contains(&a.as_str()) {
            options.push((a, None));
        } else if a == "--trace" && it.peek().is_none_or(|v| v != "0" && v != "1") {
            // `all --trace` is a switch; `--trace 0|1` is the contract's form.
            options.push((a, Some("1".into())));
        } else {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            options.push((a, Some(v)));
        }
    }
    Ok(Args {
        positional,
        options,
    })
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.options.iter().any(|(k, _)| k == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

/// Runs one workload in this process and prints the contract's result line
/// last. Returns whether the run was correct.
fn run_one(args: &Args) -> Result<bool, String> {
    args.check_known(&["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let name = args.value("--workload").ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seconds: f64 = args.num("--seconds", f64::from(RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let smoke = args.has("--smoke");
    let trace = args.num::<u8>("--trace", 0)? != 0;
    let plan = Plan {
        seed: args.num("--seed", 0u64)?,
        timed_steps: if smoke {
            SMOKE_STEPS.div_ceil(w.chunk) * w.chunk
        } else {
            w.timed_steps(seconds)
        },
        setup_discard: usize::from(!smoke),
        setup_reps: if smoke { 1 } else { w.setup_reps },
        restart_reps: if smoke { 1 } else { w.restart_reps },
        probe_reps: if smoke { 1 } else { 7 },
        trace,
        smoke,
    };
    std::fs::create_dir_all(measure::out_dir()).map_err(|e| format!("out dir: {e}"))?;

    let wall = Instant::now();
    let knobs = workloads::Knobs::from_seed(plan.seed);
    println!(
        "== {} | seed {} (tag x{:.4}, cfl x{:.4}, les x{:.4}) | {} timed steps in {} samples after {} warm-up | trace {}{}",
        w.name,
        plan.seed,
        knobs.tag,
        knobs.cfl,
        knobs.les,
        plan.timed_steps,
        plan.timed_steps / w.chunk,
        w.warmup,
        u8::from(trace),
        if smoke { " | smoke" } else { "" }
    );
    let mut tr = Tracer::new(trace, Instant::now(), 0);
    let root = tr.open("workload", 0);
    let run = measure::run(w, &plan, &mut tr, root)?;
    // Host ceilings are measured in every traced invocation, after the timed
    // steps (so the 3 × (4 × LLC) triad arrays neither disturb them nor count
    // towards the peak RSS read at their end) and before the probes that are
    // scored against them. Untraced runs report no ceiling and skip this.
    let host = trace.then(|| {
        let id = tr.open("host", root);
        let h = host::calibrate(&mut tr, id);
        tr.close(id);
        h
    });
    let stats = probes::step_stats(&run);
    let mut failures = run.failures.clone();
    let notes = checks::gate(w, &plan, &run, &mut failures);

    // Set-up and restart are reported as the lower quartile of their samples,
    // not the median: interference only ever adds time, and on the two-rank
    // workloads construction is multi-modal — 25, 36 or 56+ ms depending on
    // whether the two rank threads happen to run side by side, which the
    // scheduler decides anew after every blocking receive. The 36 ms mode
    // dominates; the lower quartile of 40 samples stays in it both when a
    // noisy host pushes the slow mode past half the samples (where the median
    // jumps) and when a run catches the rare fast one (where the minimum
    // jumps). The two-rank workloads' restarts are one per fresh process
    // (`measure::cold_restart`), which has a single mode; the lower quartile
    // is kept there for the same one-sided-noise reason. README.md,
    // "End-to-end metrics", has the measurements.
    let mut v = Values::default();
    v.set("setup_s", quantile(&run.setup_samples, 0.25));
    v.set("run_s", run.run_s);
    v.set("step_ms_p50", stats.p50 * 1e3);
    v.set("cell_updates_per_s", stats.cell_updates as f64 / run.run_s);
    v.set("wall_s_per_sim_t", run.run_s / (run.sim_t1 - run.sim_t0));
    v.set("peak_rss_mb", run.peak_rss_mb);
    v.set("restart_s", quantile(&run.restart_samples, 0.25));
    let e2e = v.end_to_end()?;

    let mut layers = None;
    if let Some(host) = &host {
        println!("per-layer notes");
        println!(
            "  note: host L2 {:.1} MiB, LLC {:.1} MiB, DRAM triad arrays {:.0} MiB each; {}",
            host.l2_bytes as f64 / 1048576.0,
            host.llc_bytes as f64 / 1048576.0,
            host.dram_array_bytes as f64 / 1048576.0,
            if host.note.is_empty() {
                "sizes read from sysfs"
            } else {
                &host.note
            }
        );
        probes::per_layer(w, &plan, &run, host, &mut tr, root, &mut v)?;
        // Tracing overhead, bottom-up: spans recorded inside the timed phase
        // × the measured cost of recording one ÷ the phase's wall time. (The
        // traced and untraced runs execute the same code; only the span
        // pushes differ. `all --trace` also prints the differenced number.)
        let timed_spans = (run.samples.len() * w.nranks) as f64;
        v.set(
            "trace.overhead_frac",
            timed_spans * Tracer::span_cost_ns(100_000) * 1e-9 / run.run_s,
        );
        tr.close(root);
        v.set("trace.spans", tr.len() as f64);
        layers = Some(v.per_layer()?);
        let path = measure::out_dir().join(format!("trace-{}.jsonl", w.name));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  note: {} spans written to {}", tr.len(), path.display());
    }

    let ops_failed = failures.len() as u64;
    let correct = failures.is_empty();
    let e2e_title = if trace {
        // The result line of a traced run carries the per-layer metrics;
        // these are shown for orientation.
        format!(
            "end-to-end ({} samples; traced run, informational)",
            run.samples.len()
        )
    } else {
        format!("end-to-end ({} samples)", run.samples.len())
    };
    metrics::print_table(&e2e_title, &e2e);
    for (what, xs) in [
        ("setup", &run.setup_samples),
        ("restart", &run.restart_samples),
    ] {
        println!(
            "  {what}: {} samples, min {:.4} s, lower quartile {:.4} s, median {:.4} s, max {:.4} s",
            xs.len(),
            minimum(xs),
            quantile(xs, 0.25),
            median(xs),
            quantile(xs, 1.0)
        );
    }
    if let Some(layers) = &layers {
        metrics::print_table(
            "per-layer (probes: median of 7 calls on the end-state grids)",
            layers,
        );
    }
    println!("correctness");
    let state = checks::state_json(&run);
    println!(
        "  state hash {} (information only)",
        state.get("hash").and_then(Json::as_str).unwrap_or("?")
    );
    for n in &notes {
        println!("  ok: {n}");
    }
    for f in &failures {
        println!("  FAILED: {f}");
    }
    println!(
        "  ops_attempted {} ops_failed {}",
        run.ops_attempted, ops_failed
    );

    // The run record `all` collects, then the contract's result line.
    let mut rec = Json::obj();
    rec.set("workload", Json::Str(w.name.into()));
    rec.set("seed", Json::Num(plan.seed as f64));
    rec.set("seconds", Json::Num(seconds));
    rec.set("timed_steps", Json::Num(f64::from(plan.timed_steps)));
    rec.set("samples", Json::Num(run.samples.len() as f64));
    rec.set("trace", Json::Bool(trace));
    rec.set("smoke", Json::Bool(smoke));
    rec.set("correct", Json::Bool(correct));
    rec.set("ops_attempted", Json::Num(run.ops_attempted as f64));
    rec.set("ops_failed", Json::Num(ops_failed as f64));
    rec.set(
        "failures",
        Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
    );
    rec.set("run_s", Json::Num(run.run_s));
    rec.set("end_to_end", metrics::metrics_json(&e2e));
    if let Some(layers) = &layers {
        rec.set("per_layer", metrics::metrics_json(layers));
    }
    rec.set("state", state);
    rec.set("wall_s", Json::Num(wall.elapsed().as_secs_f64()));
    let path = measure::out_dir().join(format!("run-{}-t{}.json", w.name, u8::from(trace)));
    std::fs::write(&path, rec.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut line = Json::obj();
    line.set("correct", Json::Bool(correct));
    line.set("attempted", Json::Num(run.ops_attempted as f64));
    line.set("failed", Json::Num(ops_failed as f64));
    line.set(
        "metrics",
        match &layers {
            Some(layers) => metrics::metrics_json(layers.iter().filter(|m| m.listed)),
            None => metrics::metrics_json(&e2e),
        },
    );
    println!("{}", line.compact());
    Ok(correct)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.positional.first().map(String::as_str) {
        // Exit 0 whenever a result line was printed: the line carries `correct`.
        None if args.has("--workload") => run_one(args).map(|_| true),
        Some("all") => {
            args.check_known(&["--trace", "--smoke", "--runs", "--seed", "--seconds", "--out", "--write-expected"])?;
            let opts = report::AllOpts {
                seconds: args.num("--seconds", RUN_SECONDS)?,
                seed: args.num("--seed", 0u64)?,
                runs: args.num("--runs", 1usize)?.max(1),
                trace: args.has("--trace"),
                smoke: args.has("--smoke"),
                write_expected: args.has("--write-expected"),
                out: args.value("--out").map(String::from),
            };
            report::all(&opts).map(|(_, ok)| ok)
        }
        Some("compare") => match &args.positional[1..] {
            [a, b] => report::compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("selfcheck") => {
            args.check_known(&["--runs", "--seconds", "--out"])?;
            report::selfcheck(args.num("--seconds", RUN_SECONDS)?, args.num("--runs", 3usize)?.max(1), args.value("--out").map(String::from))
        }
        // Internal: one cold restart of a ranked workload, for `measure`.
        Some("restart-child") => {
            args.check_known(&["--workload", "--seed", "--dir", "--verify"])?;
            let w = args.value("--workload").and_then(workloads::find);
            let dir = args.value("--dir");
            let (w, dir) = w.zip(dir).ok_or("restart-child: --workload and --dir")?;
            let seed = args.num("--seed", 0u64)?;
            measure::restart_child(w, seed, dir.as_ref(), args.has("--verify")).map(|()| true)
        }
        Some("spec") => {
            print!("{}", metrics::benchmark_spec(RUN_SECONDS).pretty());
            Ok(true)
        }
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | compare A B | selfcheck | spec (see README.md)".into()),
    }
}

fn main() {
    let code = match parse_args().and_then(|a| dispatch(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("crocco-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}
