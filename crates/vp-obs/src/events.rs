//! A bounded, non-blocking ring-buffer event stream.
//!
//! Where spans and counters answer "how much, in total?", the event
//! stream answers "*when*, on which thread?": every span begin/end and
//! every explicitly emitted pipeline event (trace-store disk hits and
//! spills, predictor allocation bursts, experiment boundaries) is
//! recorded with a monotonic timestamp and a small per-process thread
//! id, ready for export as a Chrome `trace_event` document (see
//! [`crate::chrome`]).
//!
//! ## Design constraints
//!
//! - **Observation-only**: recording is disabled by default; when
//!   disabled, [`emit`] is one relaxed atomic load and a branch.
//! - **Bounded memory**: the buffer holds a fixed number of slots and
//!   *drops the oldest* events when writers lap the capacity. The number
//!   of events lost is reported by [`EventBuf::drain`] and surfaced in
//!   the run manifest as the `trace.dropped_events` counter — a
//!   truncated trace is detectable, never silent.
//! - **Non-blocking writers**: the hot path is one `fetch_add` to claim
//!   a ticket plus one compare-exchange to claim the slot; there is no
//!   mutex anywhere in the stream. Writers never wait on each other: the
//!   pathological case (two writers a full lap apart racing for one
//!   slot) drops one event instead of blocking. Events are `Copy`
//!   (names are `&'static str`), so a slot write is a plain store.
//!
//! Event names are *static* strings by design: the Chrome trace format
//! reconstructs nesting from per-thread B/E pairing, so events carry the
//! leaf span name only — never a heap-allocated path — which keeps the
//! record `Copy` and the writer path allocation-free.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What a single event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration opened (Chrome `ph: "B"`). Closed by a matching
    /// [`EventKind::End`] on the same thread.
    Begin,
    /// A duration closed (Chrome `ph: "E"`).
    End,
    /// A point-in-time marker (Chrome `ph: "i"`), e.g. one trace-store
    /// eviction.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process-wide event epoch (monotonic).
    pub ts_ns: u64,
    /// Small per-process thread id (assigned on each thread's first
    /// event; ids are dense, suitable as Chrome `tid`s).
    pub tid: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static event name (a span name or a pipeline event key).
    pub name: &'static str,
    /// One free-form numeric argument (bytes, counts, …; 0 when unused).
    pub arg: u64,
}

/// Slot state: never written (and the reset state after a drain).
const EMPTY: u64 = u64::MAX;
/// Slot state: claimed by exactly one writer or reader; contents
/// indeterminate. Entered only by a successful compare-exchange from a
/// non-`BUSY` state, exited only by the claimant's store, so at most one
/// thread touches `data` at a time.
const BUSY: u64 = u64::MAX - 1;

struct Slot {
    /// `EMPTY`, `BUSY`, or `ticket * 2` (readable; the shift keeps real
    /// tickets clear of the sentinels).
    seq: AtomicU64,
    data: Cell<Event>,
}

// SAFETY: `data` is only accessed while holding the slot's `BUSY` claim:
// writers (`push`) and readers (`drain`) both transition `seq` to `BUSY`
// with a compare-exchange (Acquire) before touching `data` and release
// it with a store (Release). `BUSY` is only reachable from a non-`BUSY`
// state, so claims are mutually exclusive, and `Event` is `Copy`, so
// slot stores never run drop glue.
unsafe impl Sync for Slot {}

/// A bounded multi-producer event buffer that overwrites its oldest
/// entries when full. All operations take `&self`; nothing blocks.
pub struct EventBuf {
    slots: Box<[Slot]>,
    /// Tickets issued since the last drain; slot index is
    /// `ticket % capacity`, emission order is ticket order.
    cursor: AtomicU64,
}

impl EventBuf {
    /// A buffer holding at most `capacity` events (raised to 2).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> EventBuf {
        let capacity = capacity.max(2);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(EMPTY),
                data: Cell::new(Event {
                    ts_ns: 0,
                    tid: 0,
                    kind: EventKind::Instant,
                    name: "",
                    arg: 0,
                }),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventBuf {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records `event`, overwriting the oldest entry when the buffer is
    /// full. Never blocks: a writer that loses the (lap-distant) race
    /// for a slot drops its event instead of waiting; the loss is
    /// visible in [`EventBuf::drain`]'s dropped count.
    pub fn push(&self, event: Event) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let current = slot.seq.load(Ordering::Acquire);
        if current == BUSY {
            return; // another writer (or the drain) owns the slot
        }
        if slot
            .seq
            .compare_exchange(current, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return; // lost the claim race; drop rather than spin
        }
        slot.data.set(event);
        slot.seq.store(ticket * 2, Ordering::Release);
    }

    /// Drains every readable event in emission order and resets the
    /// buffer. Returns the events plus the number of events dropped
    /// since the last drain (overwritten by newer events, lost to slot
    /// collisions, or in flight on another thread at drain time).
    ///
    /// Intended to run after worker threads have joined (end of run);
    /// a concurrent `push` is memory-safe but may be counted as dropped.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let issued = self.cursor.swap(0, Ordering::Relaxed);
        let mut out: Vec<(u64, Event)> = Vec::new();
        for slot in &self.slots {
            let current = slot.seq.load(Ordering::Acquire);
            if current == EMPTY || current == BUSY {
                continue;
            }
            if slot
                .seq
                .compare_exchange(current, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let event = slot.data.get();
            slot.seq.store(EMPTY, Ordering::Release);
            out.push((current / 2, event));
        }
        out.sort_unstable_by_key(|&(ticket, _)| ticket);
        let dropped = issued.saturating_sub(out.len() as u64);
        (out.into_iter().map(|(_, e)| e).collect(), dropped)
    }
}

// ---------------------------------------------------------------------------
// Process-global stream
// ---------------------------------------------------------------------------

/// Default capacity of the global stream (events, not bytes; an [`Event`]
/// is five words, so the default bounds the stream under 3 MiB).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<EventBuf> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// This thread's small event tid (assigned densely on first use).
#[must_use]
pub fn thread_id() -> u64 {
    TID.with(|cell| match cell.get() {
        Some(tid) => tid,
        None => {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(tid));
            tid
        }
    })
}

/// Nanoseconds since the process event epoch (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Enables the global event stream with the default capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Enables the global event stream with an explicit slot capacity.
/// Idempotent; the capacity of the first call wins.
pub fn enable_with_capacity(capacity: usize) {
    let _ = epoch(); // pin t=0 before the first event
    let _ = GLOBAL.get_or_init(|| EventBuf::with_capacity(capacity));
    ENABLED.store(true, Ordering::Release);
}

/// Whether events are currently recorded: one relaxed load, so hot
/// paths can call [`emit`] unconditionally.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event into the global stream; a no-op unless [`enable`]d.
pub fn emit(kind: EventKind, name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    if let Some(buf) = GLOBAL.get() {
        buf.push(Event {
            ts_ns: now_ns(),
            tid: thread_id(),
            kind,
            name,
            arg,
        });
    }
}

/// Records a point-in-time event (Chrome `ph: "i"`).
pub fn instant(name: &'static str, arg: u64) {
    emit(EventKind::Instant, name, arg);
}

/// Opens a Begin/End event pair around a scope, *without* touching the
/// span registry (use [`crate::span()`] when aggregate timing is also
/// wanted; spans emit their own Begin/End events when the stream is
/// enabled).
#[must_use]
pub fn scope(name: &'static str) -> ScopeGuard {
    emit(EventKind::Begin, name, 0);
    ScopeGuard { name }
}

/// Emits the matching End event on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    name: &'static str,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        emit(EventKind::End, self.name, 0);
    }
}

/// Disables recording and drains the global stream: events in emission
/// order plus the number of dropped events. Returns empty when the
/// stream was never enabled.
pub fn drain_global() -> (Vec<Event>, u64) {
    ENABLED.store(false, Ordering::Release);
    match GLOBAL.get() {
        Some(buf) => buf.drain(),
        None => (Vec::new(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts_ns: u64) -> Event {
        Event {
            ts_ns,
            tid: 0,
            kind: EventKind::Instant,
            name,
            arg: 0,
        }
    }

    #[test]
    fn drains_in_emission_order() {
        let buf = EventBuf::with_capacity(8);
        for i in 0..5 {
            buf.push(ev("e", i));
        }
        let (events, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let buf = EventBuf::with_capacity(4);
        for i in 0..10 {
            buf.push(ev("e", i));
        }
        let (events, dropped) = buf.drain();
        assert_eq!(dropped, 6, "10 emissions into 4 slots drop 6");
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the newest events survive"
        );
    }

    #[test]
    fn drain_resets_the_buffer() {
        let buf = EventBuf::with_capacity(4);
        for i in 0..7 {
            buf.push(ev("a", i));
        }
        let _ = buf.drain();
        buf.push(ev("b", 100));
        let (events, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "b");
    }

    #[test]
    fn concurrent_pushes_lose_nothing_within_capacity() {
        let buf = EventBuf::with_capacity(1 << 12);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let buf = &buf;
                s.spawn(move || {
                    for i in 0..500 {
                        buf.push(ev("c", t * 1000 + i));
                    }
                });
            }
        });
        let (events, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2000);
    }

    #[test]
    fn concurrent_overflow_completes_and_reports_drops() {
        let buf = EventBuf::with_capacity(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let buf = &buf;
                s.spawn(move || {
                    for i in 0..5_000 {
                        buf.push(ev("hot", i));
                    }
                });
            }
        });
        let (events, dropped) = buf.drain();
        assert!(events.len() <= 64);
        assert_eq!(
            events.len() as u64 + dropped,
            20_000,
            "every emission is either retained or counted as dropped"
        );
        assert!(dropped >= 20_000 - 64);
    }

    #[test]
    fn thread_ids_are_small_and_distinct() {
        let main = thread_id();
        assert_eq!(main, thread_id(), "stable per thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(main, other);
    }

    #[test]
    fn scope_guard_pairs_begin_end_on_the_global_stream() {
        enable_with_capacity(DEFAULT_CAPACITY);
        {
            let _g = scope("events-test-scope");
            instant("events-test-instant", 7);
        }
        let (events, _) = drain_global();
        let ours: Vec<&Event> = events
            .iter()
            .filter(|e| e.name.starts_with("events-test-"))
            .collect();
        let begin = ours
            .iter()
            .find(|e| e.kind == EventKind::Begin)
            .expect("begin recorded");
        let end = ours
            .iter()
            .find(|e| e.kind == EventKind::End)
            .expect("end recorded");
        let inst = ours
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .expect("instant recorded");
        assert_eq!(begin.name, "events-test-scope");
        assert_eq!(end.name, "events-test-scope");
        assert_eq!(inst.arg, 7);
        assert_eq!(begin.tid, end.tid);
        assert!(begin.ts_ns <= inst.ts_ns && inst.ts_ns <= end.ts_ns);
        assert!(!enabled(), "drain_global disables recording");
    }
}
