//! The process-global, thread-safe registry behind spans and metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vp_stats::DecileHistogram;

/// Aggregate timing of one span path across every thread that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed span instances.
    pub count: u64,
    /// Total wall time, nanoseconds (saturating).
    pub total_ns: u64,
    /// Shortest instance, nanoseconds.
    pub min_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
    /// Time on this path's thread with no span nested under it open,
    /// nanoseconds (saturating): each instance's wall time minus the
    /// spans that closed inside it, plus the self time of every thread
    /// that adopted this path as its base.
    pub self_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64, self_ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
        self.self_ns = self.self_ns.saturating_add(self_ns);
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time copy of everything the registry has observed.
///
/// Maps are ordered (`BTreeMap`) so exports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Aggregated spans, keyed by hierarchical path (`a/b/c`); a path
    /// only ever adopted as a base has `count` 0.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written (or max-tracked) gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Decile histograms over percentage values.
    pub histograms: BTreeMap<String, DecileHistogram>,
}

/// A thread-safe registry of spans, counters, gauges and histograms.
///
/// Usually accessed through the process-global instance ([`global`]);
/// independent instances exist only for tests.
#[derive(Default)]
pub struct Registry {
    spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Mutex<DecileHistogram>>>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Records one completed span instance under `path`: `ns` of wall
    /// time, `self_ns` of it outside the spans nested inside it.
    pub fn record_span(&self, path: &str, ns: u64, self_ns: u64) {
        self.with_span(path, |stat| stat.record(ns, self_ns));
    }

    /// Adds `self_ns` to `path`'s self time only, leaving its instance
    /// statistics alone (a thread's time under an adopted base path).
    pub fn record_adopted(&self, path: &str, self_ns: u64) {
        self.with_span(path, |stat| {
            stat.self_ns = stat.self_ns.saturating_add(self_ns);
        });
    }

    fn with_span(&self, path: &str, f: impl FnOnce(&mut SpanStat)) {
        let mut spans = self.spans.lock().expect("span registry poisoned");
        if let Some(stat) = spans.get_mut(path) {
            f(stat);
        } else {
            let mut stat = SpanStat::default();
            f(&mut stat);
            spans.insert(path.to_owned(), stat);
        }
    }

    /// The shared cell behind the counter named `key` (registering it on
    /// first use).
    pub fn counter_cell(&self, key: &'static str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// The shared cell behind the gauge named `key`.
    pub fn gauge_cell(&self, key: &'static str) -> Arc<AtomicU64> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// The shared histogram named `key`.
    pub fn histogram_cell(&self, key: &'static str) -> Arc<Mutex<DecileHistogram>> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// Copies out everything observed so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let spans = self.spans.lock().expect("span registry poisoned").clone();
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v.lock().expect("histogram cell poisoned")))
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-global registry every span and metric records into.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_tracks_min_max_mean() {
        let mut s = SpanStat::default();
        s.record(10, 4);
        s.record(30, 30);
        s.record(20, 0);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.self_ns, 34);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn span_stat_saturates_instead_of_overflowing() {
        let mut s = SpanStat::default();
        s.record(u64::MAX, u64::MAX);
        s.record(u64::MAX, u64::MAX);
        assert_eq!(s.total_ns, u64::MAX);
        assert_eq!(s.self_ns, u64::MAX);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn snapshot_is_a_consistent_copy() {
        let r = Registry::new();
        r.record_span("a/b", 5, 5);
        r.counter_cell("c").fetch_add(7, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(snap.spans["a/b"].count, 1);
        assert_eq!(snap.counters["c"], 7);
        // Mutating after the snapshot does not change the copy.
        r.record_span("a/b", 5, 5);
        assert_eq!(snap.spans["a/b"].count, 1);
    }

    #[test]
    fn adopted_time_adds_self_time_only() {
        let r = Registry::new();
        r.record_adopted("base", 7);
        assert_eq!(
            r.snapshot().spans["base"],
            SpanStat {
                self_ns: 7,
                ..SpanStat::default()
            }
        );
        r.record_span("base", 10, 4);
        let stat = r.snapshot().spans["base"];
        assert_eq!((stat.count, stat.total_ns, stat.min_ns), (1, 10, 10));
        assert_eq!(stat.self_ns, 11);
    }

    #[test]
    fn cells_are_shared_per_key() {
        let r = Registry::new();
        let a = r.counter_cell("same");
        let b = r.counter_cell("same");
        a.fetch_add(1, Ordering::Relaxed);
        b.fetch_add(2, Ordering::Relaxed);
        assert_eq!(r.snapshot().counters["same"], 3);
    }
}
