//! Hierarchical wall-clock spans on a monotonic clock.
//!
//! A [`span`] opens a timing scope; dropping the guard records the
//! elapsed time into the global [`crate::Registry`] under a
//! `/`-separated path built from the stack of open spans on the current
//! thread. Worker threads (e.g. `parallel_map` workers) call [`adopt`]
//! with the spawning thread's [`current_path`], so their timings land
//! under the same hierarchical path and aggregate with the parent's.
//!
//! Spans are intended for *phase* granularity (a whole profiling run, a
//! whole experiment) — the cost per span is two monotonic clock reads
//! and one short mutex hold, which is invisible at that granularity and
//! must never be paid per simulated instruction.

use std::cell::RefCell;
use std::time::Instant;

use crate::registry::global;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static BASE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The hierarchical path of the innermost open span on this thread
/// (including any adopted base path), or `None` outside all spans.
#[must_use]
pub fn current_path() -> Option<String> {
    let stack = STACK.with(|s| s.borrow().join("/"));
    let base = BASE.with(|b| b.borrow().clone());
    match (base, stack.is_empty()) {
        (None, true) => None,
        (None, false) => Some(stack),
        (Some(b), true) => Some(b),
        (Some(b), false) => Some(format!("{b}/{stack}")),
    }
}

/// Opens a span named `name` nested under the spans currently open on
/// this thread. Recorded into the global registry when dropped.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    STACK.with(|s| s.borrow_mut().push(name));
    crate::profiler::stack_push(name);
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
        let path = current_path().unwrap_or_default();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        crate::profiler::stack_pop();
        if !path.is_empty() {
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
    crate::profiler::stack_set_base(path.as_deref());
    let previous = BASE.with(|b| b.replace(path));
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
        crate::profiler::stack_set_base(previous.as_deref());
        BASE.with(|b| {
            *b.borrow_mut() = previous;
        });
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
        let stackless = STACK.with(|s| s.borrow().is_empty());
        if stackless {
            assert_eq!(BASE.with(|b| b.borrow().clone()), None);
        }
    }
}
