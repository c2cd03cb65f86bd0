//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` is generated from these tables (`-- spec`), so the
//! contract file and the harness cannot drift apart.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. Derived from two-set ten-seed
    /// selfchecks on the reference host (results/selfcheck.json). That host
    /// is a shared 2-vCPU VM whose speed moves by 10-15 % for minutes at a
    /// time: medians of two back-to-back sets of the same code differed by
    /// up to 15 % and spreads within a set reached 12 %, so every timing
    /// carries the widest bound the contract allows. Only `peak_rss_mb`
    /// (spread <= 1.7 %, all of it from the seed) is tighter.
    pub bound: f64,
}

/// What a user of the solver sees, per workload. Definitions in README.md.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s_per_sim_t",
        unit: "s/simt",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "restart_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Listed in `BENCHMARK.json`: measured (or an exact count) on all five
    /// workloads. The rest are printed and recorded but are `n/a` somewhere
    /// (e.g. the viscous kernel off the LES workload), and the contract's
    /// result line carries numbers only.
    pub listed: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, listed: bool) -> Layer {
    Layer {
        name,
        unit,
        better,
        listed,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics in the order they are printed (layer = module).
pub const PER_LAYER: &[Layer] = &[
    layer("core.backend.weno_cells_per_s", "1/s", H, true),
    layer("core.backend.rhs_cells_per_s", "1/s", H, true),
    layer("core.backend.viscous_cells_per_s", "1/s", H, false),
    layer("core.backend.compute_dt_cells_per_s", "1/s", H, true),
    layer("core.backend.flops_per_cell", "count", L, true),
    layer("core.backend.bytes_per_cell", "B", L, true),
    layer("core.backend.rhs_roofline_frac", "frac", H, true),
    layer("fab.fill_boundary_ms", "ms", L, true),
    layer("fab.fill_boundary_gbs", "GB/s", H, true),
    layer("fab.parallel_copy_ms", "ms", L, true),
    layer("fab.plan_build_ms", "ms", L, true),
    layer("fab.plan_cache_hit_frac", "frac", H, true),
    layer("fab.owned_cells_imbalance", "ratio", L, true),
    layer("amr.fillpatch_ms", "ms", L, true),
    layer("amr.fillpatch_ghost_cells_per_s", "1/s", H, true),
    layer("amr.average_down_ms", "ms", L, false),
    layer("amr.tag_ms", "ms", L, true),
    layer("amr.cluster_tags_ms", "ms", L, false),
    layer("amr.cluster_boxes", "count", L, true),
    layer("amr.grid_efficiency", "frac", H, true),
    layer("amr.regrid_step_extra_ms", "ms", L, false),
    layer("amr.regrids", "count", L, true),
    layer("amr.reduction_frac", "frac", H, true),
    layer("runtime.cluster.pingpong_us", "us", L, true),
    layer("runtime.cluster.bandwidth_gbs", "GB/s", H, true),
    layer("runtime.cluster.allreduce_us", "us", L, true),
    layer("runtime.cluster.msgs_per_step", "count", L, true),
    layer("runtime.cluster.bytes_per_step", "B", L, true),
    layer("runtime.chaos.framed_pingpong_us", "us", L, true),
    layer("runtime.chaos.framed_bandwidth_gbs", "GB/s", H, true),
    layer("runtime.chaos.retransmits", "count", L, true),
    layer("runtime.taskgraph.dispatch_us_per_task", "us", L, true),
    layer("runtime.taskgraph.chain_t1_us_per_task", "us", L, true),
    layer("runtime.taskgraph.chain_t2_us_per_task", "us", L, true),
    layer("runtime.taskgraph.fan_t1_us_per_task", "us", L, true),
    layer("runtime.taskgraph.fan_t2_us_per_task", "us", L, true),
    layer("runtime.pool.fork_join_us", "us", L, true),
    layer("core.io.ckpt_encode_ms", "ms", L, true),
    layer("core.io.ckpt_bytes", "B", L, true),
    layer("core.io.ckpt_parse_ms", "ms", L, true),
    layer("core.driver.restore_ms", "ms", L, true),
    layer("core.durable.spill_ms", "ms", L, true),
    layer("core.durable.spill_mbs", "MiB/s", H, true),
    layer("core.durable.recover_ms", "ms", L, true),
    layer("core.durable.spills", "count", L, true),
    layer("core.durable.spill_failures", "count", L, true),
    layer("core.driver.step_ms_nonregrid_p50", "ms", L, true),
    layer("core.driver.step_ms_max", "ms", L, true),
    layer("core.driver.cell_updates", "count", H, true),
    layer("core.driver.sim_time", "simt", H, true),
    layer("host.triad_gbs_dram", "GB/s", H, true),
    layer("host.triad_gbs_l2", "GB/s", H, true),
    layer("host.fma_gflops", "Gflop/s", H, true),
    layer("host.nproc", "count", H, true),
    layer("budget.kernels_frac", "frac", L, true),
    layer("budget.fillpatch_frac", "frac", L, true),
    layer("budget.regrid_frac", "frac", L, true),
    layer("budget.comm_frac", "frac", L, true),
    layer("budget.ckpt_frac", "frac", L, true),
    layer("budget.unaccounted_frac", "frac", L, true),
    layer("trace.overhead_frac", "frac", L, true),
    layer("trace.spans", "count", L, true),
];

/// One reported value; `None` is "not applicable on this workload".
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Part of the contract's result line (see [`Layer::listed`]).
    pub listed: bool,
}

/// Values keyed by catalogue name, filled by the run and the probes.
#[derive(Default)]
pub struct Values(Vec<(String, Option<f64>)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), Some(value)));
    }

    pub fn set_na(&mut self, name: &str) {
        self.0.push((name.to_string(), None));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.lookup(name).flatten()
    }

    fn lookup(&self, name: &str) -> Option<Option<f64>> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The end-to-end metrics in catalogue order. A missing or non-finite
    /// value is a harness bug or a failed run: reported as `Err`.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        END_TO_END
            .iter()
            .map(|m| match self.get(m.name) {
                Some(v) if v.is_finite() => Ok(Metric {
                    name: m.name,
                    unit: m.unit,
                    value: Some(v),
                    listed: true,
                }),
                other => Err(format!(
                    "end-to-end metric {} has no finite value ({other:?})",
                    m.name
                )),
            })
            .collect()
    }

    /// Every per-layer metric in catalogue order (`None` = n/a).
    pub fn per_layer(&self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|m| match self.lookup(m.name) {
                Some(Some(v)) if !v.is_finite() => {
                    Err(format!("per-layer metric {} is not finite", m.name))
                }
                Some(None) if m.listed => {
                    Err(format!("listed per-layer metric {} reported n/a", m.name))
                }
                Some(value) => Ok(Metric {
                    name: m.name,
                    unit: m.unit,
                    value,
                    listed: m.listed,
                }),
                None => Err(format!("per-layer metric {} was never reported", m.name)),
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` — the contract's `metrics` object.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        let mut e = Json::obj();
        e.set("value", m.value.map_or(Json::Null, Json::Num));
        e.set("unit", Json::Str(m.unit.to_string()));
        obj.set(m.name, e);
    }
    obj
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        match m.value {
            Some(v) => println!("  {:<44} {:>18} {}", m.name, format_value(v), m.unit),
            None => println!("  {:<44} {:>18} {}", m.name, "n/a", m.unit),
        }
    }
}

/// Human-scale rendering for the tables (the JSON keeps every digit).
pub fn format_value(v: f64) -> String {
    let a = v.abs();
    if v == v.trunc() && a < 1e15 {
        format!("{v:.0}")
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.4e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The content of `/BENCHMARK.json`.
pub fn benchmark_spec(run_seconds: u32) -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).to_string())).collect());
    let mut spec = Json::obj();
    spec.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    spec.set("paths", strs(&["benchmark"]));
    spec.set("run_seconds", Json::Num(f64::from(run_seconds)));
    spec.set(
        "workloads",
        Json::Arr(
            crate::workloads::WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(w.name.to_string()));
                    o.set("why", Json::Str(w.why.to_string()));
                    o
                })
                .collect(),
        ),
    );
    spec.set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(m.name.to_string()));
                    o.set("unit", Json::Str(m.unit.to_string()));
                    o.set("better", Json::Str(m.better.as_str().to_string()));
                    o.set("bound", Json::Num(m.bound));
                    o
                })
                .collect(),
        ),
    );
    spec.set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .filter(|m| m.listed)
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(m.name.to_string()));
                    o.set("unit", Json::Str(m.unit.to_string()));
                    o.set("better", Json::Str(m.better.as_str().to_string()));
                    o
                })
                .collect(),
        ),
    );
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[i + 1..].contains(n), "duplicate name {n}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().filter(|m| m.listed).count() <= 128);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn spec_round_trips_and_is_small() {
        let text = benchmark_spec(10).pretty();
        assert!(text.len() < 64 * 1024);
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("paths").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(back.entries().len(), 6);
    }
}
