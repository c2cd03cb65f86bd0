//! On-node parallel patch loops.
//!
//! CRoCCo's intra-node parallelism sits below MPI (§IV-B). On the host we
//! provide it as a fork-join over patch indices: a loop at `threads > 1` is a
//! [`TaskGraph`] with one task per index and no edges, run by the same runner
//! as the RK-stage graphs (the calling thread plus `threads − 1` helpers), so
//! a panicking body panics the caller with its own payload. The work unit is
//! one patch (one MFIter iteration), matching how AMReX launches one kernel
//! per patch.

use crate::taskgraph::TaskGraph;

/// Runs `f(i)` for every `i in 0..n` on the calling thread plus up to
/// `threads − 1` helper threads. `f` must be safe to call concurrently for
/// distinct indices (each patch touches disjoint data).
///
/// With `threads <= 1` or `n <= 1` the loop runs inline, which keeps small
/// test problems deterministic in profilers.
pub fn parallel_for<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let f = &f;
    let mut graph = TaskGraph::new();
    for i in 0..n {
        graph.add_task(&[], move || f(i));
    }
    graph.run(threads);
}

/// Runs `f(i, &mut items[i])` for every element, like [`parallel_for`]; each
/// task owns its element's `&mut T`. Used for patch loops that mutate one fab
/// per index (e.g. accumulating each patch's RHS).
pub fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let f = &f;
    let mut graph = TaskGraph::new();
    for (i, item) in items.iter_mut().enumerate() {
        graph.add_task(&[], move || f(i, item));
    }
    graph.run(threads);
}

/// The default worker count: physical parallelism available to this process.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(n, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn serial_fallback_matches() {
        let sum = AtomicU64::new(0);
        parallel_for(100, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let sum = AtomicU64::new(0);
        parallel_for(3, 64, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn zero_work_is_a_noop() {
        parallel_for(0, 4, |_| panic!("must not run"));
    }

    /// The body's own payload reaches the caller, not a generic "a thread
    /// panicked".
    fn payload(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("the loop must panic its caller");
        payload.downcast_ref::<&str>().copied().unwrap_or_default().to_string()
    }

    #[test]
    fn panic_in_a_body_reaches_the_caller() {
        let hit = AtomicU64::new(0);
        let result = std::panic::catch_unwind(|| {
            parallel_for(8, 2, |i| {
                hit.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("body exploded");
                }
            });
        });
        assert_eq!(payload(result), "body exploded", "parallel_for");
        assert!(hit.load(Ordering::Relaxed) >= 1);

        let mut items = vec![0u64; 8];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_each_mut(&mut items, 2, |i, item| {
                *item = 1;
                if i == 6 {
                    panic!("body exploded");
                }
            });
        }));
        assert_eq!(payload(result), "body exploded", "parallel_for_each_mut");
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
