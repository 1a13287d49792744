//! Hierarchical wall-clock spans on a monotonic clock.
//!
//! A [`span`] opens a timing scope; dropping the guard records the
//! elapsed time into the global [`crate::Registry`] under a
//! `/`-separated path built from the stack of open spans on the current
//! thread. Worker threads (e.g. `parallel_map` workers) call [`adopt`]
//! with the spawning thread's [`current_path`], so their timings land
//! under the same hierarchical path and aggregate with the parent's.
//!
//! Every close also records the span's *self* time: its elapsed time
//! minus the spans that closed inside it on the same thread. An
//! [`AdoptGuard`] does the same for its base path (its lifetime minus
//! the spans closed under it), so a worker's time outside any span
//! counts under the base. Summed over paths, self times partition each
//! thread's time exactly; the profile ([`crate::profiler`]) is built
//! from them.
//!
//! Spans are intended for *phase* granularity (a whole profiling run, a
//! whole experiment) — the cost per span is two monotonic clock reads,
//! a borrow of the thread's own stack at open and at close, and one
//! short registry mutex hold, which is invisible at that granularity
//! and must never be paid per simulated instruction.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry::global;

/// One open span: its name and the time of the spans closed inside it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    name: &'static str,
    child_ns: u64,
}

/// One thread's open spans: the adopted base path (slash-separated),
/// the time of the spans closed directly under the base, and the span
/// frames opened on the thread, outermost first.
#[derive(Debug, Default)]
struct Stack {
    base: Option<String>,
    base_child_ns: u64,
    frames: Vec<Frame>,
}

impl Stack {
    fn path(&self) -> Option<String> {
        let mut path = self.base.clone().unwrap_or_default();
        for frame in &self.frames {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(frame.name);
        }
        (!path.is_empty()).then_some(path)
    }

    /// Charges `ns` of closed time to whatever encloses it now: the
    /// innermost open frame, else the base.
    fn charge_parent(&mut self, ns: u64) {
        let child_ns = match self.frames.last_mut() {
            Some(frame) => &mut frame.child_ns,
            None => &mut self.base_child_ns,
        };
        *child_ns = child_ns.saturating_add(ns);
    }
}

/// Threads that have touched a span stack since the process started.
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Stack> = {
        THREADS.fetch_add(1, Ordering::Relaxed);
        RefCell::new(Stack::default())
    };
}

/// Runs `f` on this thread's stack; `None` once the thread-local is
/// torn down (guards dropped during thread exit are no-ops).
fn with_stack<R>(f: impl FnOnce(&mut Stack) -> R) -> Option<R> {
    STACK.try_with(|s| f(&mut s.borrow_mut())).ok()
}

/// How many threads have opened a span or adopted a base path since the
/// process started.
#[must_use]
pub fn thread_count() -> u64 {
    THREADS.load(Ordering::Relaxed)
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    with_stack(|s| s.frames.push(Frame { name, child_ns: 0 }));
    SpanGuard {
        started: Instant::now(),
    }
}

/// An open span; records its wall and self time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = elapsed_ns(self.started);
        let closed = with_stack(|s| {
            let path = s.path();
            let frame = s.frames.pop()?;
            s.charge_parent(ns);
            Some((path?, ns.saturating_sub(frame.child_ns)))
        });
        if let Some(Some((path, self_ns))) = closed {
            global().record_span(&path, ns, self_ns);
        }
    }
}

/// Adopts `path` as this thread's base span path until the guard drops.
///
/// Used by worker pools: capture [`current_path`] on the spawning
/// thread, then `adopt` it inside each worker so spans opened by the
/// worker aggregate under the parent's hierarchy. The guard's lifetime
/// outside those spans is recorded as the base path's self time.
#[must_use]
pub fn adopt(path: Option<String>) -> AdoptGuard {
    let previous = with_stack(|s| {
        let base = std::mem::replace(&mut s.base, path);
        (base, std::mem::take(&mut s.base_child_ns))
    });
    let (previous, previous_child_ns) = previous.unwrap_or_default();
    AdoptGuard {
        previous,
        previous_child_ns,
        started: Instant::now(),
    }
}

/// Records the base path's self time and restores the previous base on
/// drop.
#[derive(Debug)]
pub struct AdoptGuard {
    previous: Option<String>,
    previous_child_ns: u64,
    started: Instant,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let ns = elapsed_ns(self.started);
        let previous = self.previous.take();
        let previous_child_ns = self.previous_child_ns;
        let adopted = with_stack(|s| {
            let base = std::mem::replace(&mut s.base, previous);
            let child_ns = std::mem::replace(&mut s.base_child_ns, previous_child_ns);
            s.charge_parent(ns);
            Some((base?, ns.saturating_sub(child_ns)))
        });
        if let Some(Some((base, self_ns))) = adopted {
            global().record_adopted(&base, self_ns);
        }
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
    fn self_times_telescope_to_the_outermost_total() {
        {
            let _a = span("span-test-self");
            for _ in 0..3 {
                let _b = span("b");
                let _c = span("c");
                std::hint::black_box(0u64);
            }
            let _d = span("d");
        }
        let snap = global().snapshot();
        let mine: Vec<_> = snap
            .spans
            .iter()
            .filter(|(path, _)| path.starts_with("span-test-self"))
            .collect();
        assert_eq!(mine.len(), 4);
        let self_sum: u64 = mine.iter().map(|(_, s)| s.self_ns).sum();
        assert_eq!(
            self_sum, snap.spans["span-test-self"].total_ns,
            "self times partition the outermost span exactly"
        );
        for (path, stat) in mine {
            assert!(stat.self_ns <= stat.total_ns, "{path}");
        }
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
        // The base's count is its own span's: adopting adds self time
        // only.
        assert_eq!(snap.spans["span-test-adopt"].count, 1);
    }

    #[test]
    fn adopt_restores_previous_base() {
        let g = adopt(Some("span-test-base".to_owned()));
        assert_eq!(current_path().as_deref(), Some("span-test-base"));
        drop(g);
        // Back outside any span: no base, empty stack.
        let (base, frames) = with_stack(|s| (s.base.clone(), s.frames.len())).unwrap();
        assert_eq!(base, None);
        assert_eq!(frames, 0);
        // The adopted base recorded self time but no span instance.
        let stat = global().snapshot().spans["span-test-base"];
        assert_eq!(stat.count, 0);
        assert_eq!(stat.total_ns, 0);
    }
}
