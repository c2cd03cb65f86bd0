//! The five workloads and the seed → input mapping. Plain data: the solver
//! configuration each one turns into lives in `adapter::build_config`.

/// Which of the five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Dmr3Serial,
    Ramp2R2,
    Vortex3SubT2,
    Vortex1LesUniform,
    Ramp2R2Durable,
}

/// How the workload is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One rank: `Simulation::new` + `step`.
    Serial,
    /// Two rank threads, owned data, plain transport: `LocalCluster::run` +
    /// `new_owned` + `advance_steps_cluster(1)` per sample.
    Cluster,
    /// Two rank threads over the framed (fault-free) chaos transport with
    /// periodic checkpoints spilled to disk: `run_with_chaos` +
    /// `advance_steps_chaos(chunk)` per sample.
    Durable,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload is in the set.
    pub why: &'static str,
    pub mode: Mode,
    pub nranks: usize,
    /// Untimed steps before the timed ones. For the ramp pair this is one
    /// regrid period, so every timed 5-step sample starts on a regrid step
    /// and the grids are constant inside it.
    pub warmup: u32,
    /// Coarse steps per timed sample.
    pub chunk: u32,
    /// Timed coarse steps per second of `--seconds`, calibrated on the
    /// reference host so the timed phase lasts about `--seconds` there. The
    /// step count is fixed by this constant, not by the clock: both sides of
    /// a comparison do the same work.
    pub steps_per_second: f64,
    pub regrid_freq: u32,
    pub max_levels: usize,
    pub subcycling: bool,
    /// Whether the exact isentropic-vortex solution applies (conservation
    /// and L2 checks).
    pub vortex: bool,
    /// Timed constructions (after one discarded) and restarts per run; the
    /// reported value is their lower quartile. More where one takes tens of
    /// milliseconds, so that a second or two is measured either way. On the
    /// two-rank workloads every restart is a child process of its own.
    pub setup_reps: usize,
    pub restart_reps: usize,
}

/// Steps between checkpoints (and per timed sample) of `ramp2_r2_durable`.
pub const CKPT_INTERVAL: u32 = 5;
/// Fewest timed samples a full (non-smoke) run takes.
pub const MIN_SAMPLES: u32 = 15;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::Dmr3Serial,
        name: "dmr3_serial",
        why: "Paper's flagship: 3-level double Mach reflection, curvilinear interpolator, 1 rank 1 thread; WENO-bound plain baseline with regrids, comm and threading idle",
        mode: Mode::Serial,
        nranks: 1,
        warmup: 2,
        chunk: 1,
        steps_per_second: 2.0,
        regrid_freq: 5,
        max_levels: 3,
        subcycling: false,
        vortex: false,
        setup_reps: 9,
        restart_reps: 7,
    },
    Workload {
        kind: Kind::Ramp2R2,
        name: "ramp2_r2",
        why: "2-level curvilinear ramp on 2 owned-data ranks: only place cluster transport, chunk exchange, dt allreduce and distributed regrid do work",
        mode: Mode::Cluster,
        nranks: 2,
        warmup: 5,
        chunk: 1,
        steps_per_second: 7.5,
        regrid_freq: 5,
        max_levels: 2,
        subcycling: false,
        vortex: false,
        setup_reps: 40,
        restart_reps: 40,
    },
    Workload {
        kind: Kind::Vortex3SubT2,
        name: "vortex3_sub_t2",
        why: "Subcycled 3-level periodic vortex on 2 pool threads: time-interpolated FillPatch, reflux, on-node parallelism; exact solution makes conservation and L2 checkable",
        mode: Mode::Serial,
        nranks: 1,
        warmup: 2,
        chunk: 1,
        steps_per_second: 1.5,
        regrid_freq: 3,
        max_levels: 3,
        subcycling: true,
        vortex: true,
        setup_reps: 9,
        restart_reps: 7,
    },
    Workload {
        kind: Kind::Vortex1LesUniform,
        name: "vortex1_les_uniform",
        why: "Single-level LES vortex: kernel-only (no regrid, no two-level fill, no comm) and the only workload where the viscous kernel runs",
        mode: Mode::Serial,
        nranks: 1,
        warmup: 2,
        chunk: 1,
        steps_per_second: 3.6,
        regrid_freq: 5,
        max_levels: 1,
        subcycling: false,
        vortex: true,
        setup_reps: 21,
        restart_reps: 15,
    },
    Workload {
        kind: Kind::Ramp2R2Durable,
        name: "ramp2_r2_durable",
        why: "Same ramp over the framed fault-free transport with checkpoints gathered and spilled to disk every 5 steps, then cold restarts: the other use of the cluster layers",
        mode: Mode::Durable,
        nranks: 2,
        warmup: 5,
        chunk: CKPT_INTERVAL,
        steps_per_second: 7.5,
        regrid_freq: 5,
        max_levels: 2,
        subcycling: false,
        vortex: false,
        setup_reps: 40,
        restart_reps: 40,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Timed coarse steps for a run of `seconds`: a whole number of samples,
    /// at least [`MIN_SAMPLES`].
    pub fn timed_steps(&self, seconds: f64) -> u32 {
        let samples = (self.steps_per_second * seconds / f64::from(self.chunk)).round() as u32;
        samples.max(MIN_SAMPLES) * self.chunk
    }

    /// Whether the solver regrids at the start of the step taken from
    /// `step_count` (the driver's cadence: `step > 0 && step % freq == 0`
    /// on AMR configurations).
    pub fn regrids_at(&self, step_count: u32) -> bool {
        self.max_levels > 1 && step_count > 0 && step_count.is_multiple_of(self.regrid_freq)
    }
}

/// Input perturbation derived from `--seed`. All factors are 1 at seed 0, so
/// seed 0 runs the problem defaults exactly (and is the only seed
/// `expected.json` can be checked against).
///
/// The ranges are narrow on purpose: the timed work is a fixed number of
/// steps, and these problems' patch layouts move in blocking-factor quanta,
/// so a wide threshold range turns run-to-run spread into a measure of the
/// seed rather than of the code. Within these ranges the states differ in
/// every bit, the grids in a few patches at most.
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    /// Multiplies the problem's |∇ρ| tagging threshold, in [0.97, 1.03].
    pub tag: f64,
    /// Multiplies the workload's CFL number, in [0.98, 1.0].
    pub cfl: f64,
    /// Multiplies the Smagorinsky constant (LES workload), in [0.95, 1.05].
    pub les: f64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Knobs {
    pub fn from_seed(seed: u64) -> Knobs {
        if seed == 0 {
            return Knobs {
                tag: 1.0,
                cfl: 1.0,
                les: 1.0,
            };
        }
        let mut s = seed;
        let mut unit = || (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        Knobs {
            tag: 0.97 + 0.06 * unit(),
            cfl: 0.98 + 0.02 * unit(),
            les: 0.95 + 0.10 * unit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity_and_seeds_repeat() {
        let k = Knobs::from_seed(0);
        assert_eq!((k.tag, k.cfl, k.les), (1.0, 1.0, 1.0));
        let (a, b) = (Knobs::from_seed(7), Knobs::from_seed(7));
        assert_eq!((a.tag, a.cfl, a.les), (b.tag, b.cfl, b.les));
        assert!(a.tag != Knobs::from_seed(8).tag);
        for seed in 1..200 {
            let k = Knobs::from_seed(seed);
            assert!((0.97..=1.03).contains(&k.tag) && (0.98..=1.0).contains(&k.cfl));
            assert!((0.95..=1.05).contains(&k.les));
        }
    }

    #[test]
    fn step_counts_are_whole_samples() {
        for w in &WORKLOADS {
            for secs in [1.0, 10.0, 20.0] {
                let n = w.timed_steps(secs);
                assert!(n % w.chunk == 0 && n / w.chunk >= MIN_SAMPLES);
            }
        }
        assert_eq!(find("dmr3_serial").unwrap().timed_steps(10.0), 20);
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.why.len() <= 200);
        }
    }
}
