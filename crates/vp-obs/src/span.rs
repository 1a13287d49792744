//! Hierarchical wall-clock spans on a monotonic clock.
//!
//! A [`span`] opens a timing scope; dropping the guard records the
//! elapsed time into the global [`crate::Registry`] under a
//! `/`-separated path built from the stack of open spans on the current
//! thread. Worker threads (e.g. `parallel_map` workers) call [`adopt`]
//! with the spawning thread's [`current_path`], so their timings land
//! under the same hierarchical path and aggregate with the parent's.
//!
//! Each thread's open-span stack lives behind its own mutex in one
//! process-wide list, so the sampling profiler ([`crate::profiler`])
//! reads the very stack the guards maintain: it locks and clones it,
//! and a sample can never tear.
//!
//! Spans are intended for *phase* granularity (a whole profiling run, a
//! whole experiment) — the cost per span is two monotonic clock reads,
//! two uncontended locks of the thread's own stack and one short
//! registry mutex hold, which is invisible at that granularity and must
//! never be paid per simulated instruction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::registry::global;

/// One thread's open spans: the adopted base path (slash-separated) and
/// the span names opened on the thread, outermost first.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stack {
    pub(crate) base: Option<String>,
    pub(crate) frames: Vec<&'static str>,
}

impl Stack {
    fn path(&self) -> Option<String> {
        let frames = self.frames.join("/");
        match (&self.base, frames.is_empty()) {
            (None, true) => None,
            (None, false) => Some(frames),
            (Some(b), true) => Some(b.clone()),
            (Some(b), false) => Some(format!("{b}/{frames}")),
        }
    }
}

type SharedStack = Arc<Mutex<Stack>>;

/// Every thread's stack, keyed by a per-thread id (the profiler's ring
/// key). An entry whose `Arc` is unique belongs to an exited thread.
fn threads() -> &'static Mutex<Vec<(u64, SharedStack)>> {
    static THREADS: OnceLock<Mutex<Vec<(u64, SharedStack)>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn register() -> SharedStack {
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    let stack = SharedStack::default();
    let mut list = lock(threads());
    list.retain(|(_, s)| Arc::strong_count(s) > 1);
    list.push((NEXT_TID.fetch_add(1, Ordering::Relaxed), Arc::clone(&stack)));
    stack
}

thread_local! {
    static STACK: SharedStack = register();
}

/// Runs `f` on this thread's stack; `None` once the thread-local is
/// torn down (guards dropped during thread exit are no-ops).
fn with_stack<R>(f: impl FnOnce(&mut Stack) -> R) -> Option<R> {
    STACK.try_with(|s| f(&mut lock(s))).ok()
}

/// A copy of every live thread's stack with its per-thread id.
pub(crate) fn stacks() -> Vec<(u64, Stack)> {
    lock(threads())
        .iter()
        .map(|(tid, s)| (*tid, lock(s).clone()))
        .collect()
}

/// The hierarchical path of the innermost open span on this thread
/// (including any adopted base path), or `None` outside all spans.
#[must_use]
pub fn current_path() -> Option<String> {
    with_stack(|s| s.path()).flatten()
}

/// Opens a span named `name` nested under the spans currently open on
/// this thread. Recorded into the global registry when dropped.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    with_stack(|s| s.frames.push(name));
    SpanGuard {
        started: Instant::now(),
    }
}

/// An open span; records its wall time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path = with_stack(|s| {
            let path = s.path();
            s.frames.pop();
            path
        });
        if let Some(Some(path)) = path {
            global().record_span(&path, ns);
        }
    }
}

/// Adopts `path` as this thread's base span path until the guard drops.
///
/// Used by worker pools: capture [`current_path`] on the spawning
/// thread, then `adopt` it inside each worker so spans opened by the
/// worker aggregate under the parent's hierarchy.
#[must_use]
pub fn adopt(path: Option<String>) -> AdoptGuard {
    let previous = with_stack(|s| std::mem::replace(&mut s.base, path)).flatten();
    AdoptGuard { previous }
}

/// Restores the previous base path on drop.
#[derive(Debug)]
pub struct AdoptGuard {
    previous: Option<String>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        with_stack(|s| s.base = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_slash_paths() {
        {
            let _a = span("span-test-outer");
            assert_eq!(current_path().as_deref(), Some("span-test-outer"));
            {
                let _b = span("inner");
                assert_eq!(current_path().as_deref(), Some("span-test-outer/inner"));
            }
        }
        let snap = global().snapshot();
        assert_eq!(snap.spans["span-test-outer"].count, 1);
        assert_eq!(snap.spans["span-test-outer/inner"].count, 1);
        assert!(
            snap.spans["span-test-outer"].total_ns >= snap.spans["span-test-outer/inner"].total_ns
        );
    }

    #[test]
    fn adopt_prefixes_worker_spans() {
        let base = {
            let _parent = span("span-test-adopt");
            current_path()
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = adopt(base.clone());
                    let _w = span("work");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            }
        });
        let snap = global().snapshot();
        assert_eq!(snap.spans["span-test-adopt/work"].count, 2);
        assert!(snap.spans["span-test-adopt/work"].min_ns > 0);
    }

    #[test]
    fn adopt_restores_previous_base() {
        let g = adopt(Some("span-test-base".to_owned()));
        assert_eq!(current_path().as_deref(), Some("span-test-base"));
        drop(g);
        // Back outside any span: no base, empty stack.
        let stack = with_stack(|s| s.clone()).unwrap();
        assert_eq!(stack.base, None);
        assert!(stack.frames.is_empty());
    }
}
