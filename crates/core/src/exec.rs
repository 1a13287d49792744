//! A dependency-free parallel map over experiment grids.
//!
//! The evaluation fans out over a `workload x input x threshold` grid of
//! independent simulations. [`parallel_map`] runs such a grid on the
//! calling thread plus a few scoped workers (`std::thread::scope`; no
//! external crates) while keeping the output **deterministic**: results
//! are re-ordered by input index before they are returned, so a run with
//! `jobs = 4` produces output byte-identical to a serial run.
//!
//! Work distribution is a single shared atomic cursor (work stealing by
//! index), which keeps the schedule balanced regardless of how uneven the
//! per-item cost is; determinism comes from the re-ordering step, never
//! from the schedule.
//!
//! Each worker thread *adopts* the spawning thread's `vp_obs` span path,
//! so wall-clock recorded inside workers aggregates under the same
//! hierarchical phase as a serial run would produce — the observability
//! layer sees one `suite/profile` phase no matter how many threads
//! executed it. The calling thread works through its own share under
//! that path instead of blocking in the join, so the profile books
//! items, not a parent's idle wait.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `f` over `items` on up to `jobs` threads — the calling thread
/// and `jobs - 1` workers — returning results in input order.
///
/// `jobs <= 1` (or a single-item slice) degrades to a plain serial map on
/// the calling thread with no pool at all, so the serial path stays free
/// of synchronisation. Panics inside `f` are propagated to the caller
/// after all workers have stopped.
///
/// # Examples
///
/// ```
/// use provp_core::exec::parallel_map;
/// let squares = parallel_map(4, &[1, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// // Deterministic: identical to the serial result.
/// assert_eq!(squares, parallel_map(1, &[1, 2, 3, 4, 5], |&x| x * x));
/// ```
///
/// # Panics
///
/// Re-raises the first panic observed in a worker thread.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    // Takes items off the shared cursor until none is left. It borrows
    // only shared references, so every thread can run its own copy.
    let drain = || {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            out.push((i, f(item)));
        }
        out
    };
    let parent_span = vp_obs::span::current_path();
    let parts: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (1..jobs)
            .map(|_| {
                let parent_span = parent_span.clone();
                scope.spawn(move || {
                    // Timing recorded by this worker lands under the
                    // spawning thread's span hierarchy.
                    let _adopted = vp_obs::span::adopt(parent_span);
                    drain()
                })
            })
            .collect();
        let mut parts = vec![drain()];
        parts.extend(handles.into_iter().map(|h| match h.join() {
            Ok(part) => part,
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        parts
    });

    let mut indexed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Picks a default worker count: the machine's available parallelism,
/// capped at 8 (the experiment grids rarely have more than 9 independent
/// rows in flight).
#[must_use]
pub fn default_jobs() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(1, &items, |&x| x * 3 + 1);
        for jobs in [2, 4, 13] {
            assert_eq!(parallel_map(jobs, &items, |&x| x * 3 + 1), serial);
        }
    }

    #[test]
    fn handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(64, &[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(4, &items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        parallel_map(2, &[1, 2, 3, 4], |&x| {
            assert!(x < 3, "boom");
            x
        });
    }

    #[test]
    fn the_calling_thread_takes_a_share() {
        // Both items wait for each other, so they run on two threads at
        // once: the caller and the one worker `jobs = 2` spawns.
        let barrier = std::sync::Barrier::new(2);
        let caller = thread::current().id();
        let on_caller = parallel_map(2, &[0, 1], |_| {
            barrier.wait();
            thread::current().id() == caller
        });
        assert_eq!(on_caller.iter().filter(|&&c| c).count(), 1, "{on_caller:?}");
    }

    #[test]
    fn default_jobs_is_sane() {
        let j = default_jobs();
        assert!((1..=8).contains(&j));
    }
}
