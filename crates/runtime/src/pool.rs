//! On-node parallel patch loops.
//!
//! CRoCCo's intra-node parallelism sits below MPI (§IV-B). On the host we
//! provide it with a scoped fork-join over patch indices, implemented on
//! `std::thread::scope` (a panicking body panics the caller). The work unit is one patch (one MFIter
//! iteration), matching how AMReX launches one kernel per patch.

/// Runs `f(i)` for every `i in 0..n`, splitting the index range across up to
/// `threads` worker threads. `f` must be safe to call concurrently for
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
    let nworkers = threads.min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..nworkers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Runs `f(i, &mut items[i])` for every element, splitting the slice into
/// contiguous per-worker chunks. Used for patch loops that mutate one fab
/// per index (e.g. accumulating each patch's RHS).
pub fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let nworkers = threads.min(n);
    let chunk = n.div_ceil(nworkers);
    std::thread::scope(|s| {
        for (w, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, item) in slice.iter_mut().enumerate() {
                    f(w * chunk + j, item);
                }
            });
        }
    });
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
        assert!(result.is_err(), "parallel_for must panic its caller");
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
        assert!(
            result.is_err(),
            "parallel_for_each_mut must panic its caller"
        );
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
