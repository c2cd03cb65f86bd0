//! Spans recorded from outside the solver, and the statistics the harness
//! reports from them.
//!
//! Every measured region goes through [`Tracer::time`], traced run or not:
//! the two runs execute the same code, and the traced one additionally keeps
//! `{id, parent, name, rank, t0_ns, t1_ns}` in memory and writes them to
//! `out/trace-<workload>.jsonl` when the benchmark ends. `Simulation::step`
//! is opaque from here, so a step span has no children; per-layer numbers
//! come from the `probe` subtree (README.md, "Reading a trace").

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span id; 0 is "no span" (tracing off, or the root's parent).
pub type SpanId = u64;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub rank: u32,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Extra `"key": value` JSON members (already rendered), e.g. `"regrid": true`.
    pub attrs: String,
}

/// A per-thread span recorder. Rank threads each own one (ids are offset by
/// rank so they stay unique) and hand their spans back for [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rank: u32,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, rank: u32) -> Self {
        Tracer {
            on,
            epoch,
            rank,
            next: (u64::from(rank) << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for rank thread `rank`, sharing this tracer's clock.
    pub fn for_rank(&self, rank: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, rank)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns 0 when off.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        let t0_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            rank: self.rank,
            t0_ns,
            t1_ns: t0_ns,
            attrs: String::new(),
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let t1 = self.now_ns();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.t1_ns = t1;
        }
    }

    /// Attaches a rendered JSON member to an open or closed span.
    pub fn attr(&mut self, id: SpanId, key: &str, value: impl std::fmt::Display) {
        if id == 0 {
            return;
        }
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.attrs.push_str(&format!(", \"{key}\": {value}"));
        }
    }

    /// Runs `f` inside a span named `name` and returns its result, its wall
    /// time in seconds and the span id. The clock reads are the same whether
    /// or not spans are kept.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64, SpanId) {
        let id = self.open(name, parent);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (out, secs, id)
    }

    pub fn absorb(&mut self, other: Vec<Span>) {
        self.spans.extend(other);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Cost of recording one span, measured by recording `n` empty ones on a
    /// scratch recorder (so the real trace is not polluted).
    pub fn span_cost_ns(n: usize) -> f64 {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let t0 = Instant::now();
        for _ in 0..n {
            let id = t.open("calibrate", 0);
            t.close(id);
        }
        let ns = t0.elapsed().as_nanos() as f64 / n as f64;
        std::hint::black_box(t.len());
        ns
    }

    /// Writes one JSON object per line, ordered by start time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.t0_ns, s.id));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"rank\": {}, \"t0_ns\": {}, \"t1_ns\": {}{}}}",
                s.id, s.parent, s.name, s.rank, s.t0_ns, s.t1_ns, s.attrs
            )?;
        }
        w.flush()
    }
}

/// Repeated timing of one layer call for the probes: `reps` timed calls
/// (after one untimed call), one span each under `parent`.
pub struct Prober<'a> {
    pub tr: &'a mut Tracer,
    pub parent: SpanId,
    pub reps: usize,
}

impl Prober<'_> {
    /// Median seconds of the timed calls.
    pub fn median_secs(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        f();
        let samples: Vec<f64> = (0..self.reps)
            .map(|_| self.tr.time(name, self.parent, &mut f).1)
            .collect();
        median(&samples)
    }
}

/// Median of `xs` (mean of the middle two for even counts). NaN-free input.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest of `xs`.
pub fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated quantile `q` in [0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method) — what the acceptance check computes spreads from.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let (ld, n) = (v.len() as i64, 4i64);
    // Line for line CPython's `statistics.quantiles(method="exclusive")`.
    let at = |i: i64| -> f64 {
        let m = ld + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles_exclusive(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn spans_nest_and_survive_merge() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let root = t.open("workload", 0);
        let (_, secs, id) = t.time("child", root, || 1 + 1);
        assert!(secs >= 0.0 && id != 0);
        let mut r1 = t.for_rank(1);
        let rid = r1.open("step", root);
        r1.close(rid);
        assert_ne!(rid, id);
        t.absorb(r1.into_spans());
        t.close(root);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let (_, _, id) = t.time("x", 0, || ());
        assert_eq!((id, t.len()), (0, 0));
    }
}
