//! Unit tests for the trace store: cache hits must be indistinguishable
//! from fresh simulation, and every consumer of `replay_into` must be fed
//! exactly once.

use std::sync::{Arc, Barrier};
use std::thread;

use provp_core::TraceStore;
use vp_profile::ProfileCollector;
use vp_sim::{run, RunLimits};
use vp_workloads::{InputSet, Workload, WorkloadKind};

fn fresh_profile(kind: WorkloadKind, input: InputSet) -> vp_profile::ProfileImage {
    let w = Workload::new(kind);
    let program = w.program(&input);
    let mut c = ProfileCollector::new("fresh");
    run(&program, &mut c, RunLimits::default()).unwrap();
    c.into_image()
}

fn replayed_profile(
    store: &TraceStore,
    kind: WorkloadKind,
    input: InputSet,
) -> vp_profile::ProfileImage {
    let w = Workload::new(kind);
    let program = w.program(&input);
    let trace = store.get(kind, input, RunLimits::default()).unwrap();
    let mut c = ProfileCollector::new("fresh");
    trace.replay(&program, &mut c).unwrap();
    c.into_image()
}

#[test]
fn cache_hit_replay_equals_fresh_simulation() {
    let store = TraceStore::new();
    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();

    let fresh = fresh_profile(kind, input);
    let miss = replayed_profile(&store, kind, input);
    let hit = replayed_profile(&store, kind, input);

    assert_eq!(
        fresh, miss,
        "first (capturing) replay must match simulation"
    );
    assert_eq!(fresh, hit, "cache-hit replay must match simulation");
    let stats = store.stats();
    assert_eq!(stats.captures, 1);
    assert_eq!(stats.memory_hits, 1);
}

#[test]
fn lru_keeps_recently_used_entries_under_budget() {
    // Nothing is ever dropped: every captured trace stays resident.
    let store = TraceStore::new();
    let limits = RunLimits::default();
    for i in 0..3 {
        store
            .get(WorkloadKind::Compress, InputSet::train(i), limits)
            .unwrap();
    }
    assert_eq!(store.stats().resident, 3);
    assert!(store.stats().resident_bytes > 0);
}

#[test]
fn concurrent_requests_simulate_once() {
    let store = Arc::new(TraceStore::new());
    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();
    let traces: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                s.spawn(move || store.get(kind, input, RunLimits::default()).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(store.stats().captures, 1, "in-flight dedup must hold");
    for t in &traces[1..] {
        assert_eq!(**t, *traces[0]);
    }
}

/// Four threads replay one key into their own collectors at once. The
/// capturing thread is fed during the capture (not again by replay) and
/// every waiter is fed by replay, so each image equals a fresh
/// simulation's and the key is simulated once.
#[test]
fn concurrent_replay_into_feeds_every_consumer_once() {
    let store = TraceStore::new();
    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();
    let program = Workload::new(kind).program(&input);
    let start = Barrier::new(4);
    let images: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut c = ProfileCollector::new("fresh");
                    start.wait();
                    store
                        .replay_into(kind, input, RunLimits::default(), &program, &mut c)
                        .unwrap();
                    c.into_image()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let fresh = fresh_profile(kind, input);
    for image in &images {
        assert_eq!(*image, fresh, "every consumer sees the run exactly once");
    }
    let stats = store.stats();
    assert_eq!(stats.captures, 1);
    assert_eq!((stats.requests, stats.misses), (4, 1));
}

/// The resident layout keeps program counters as control-flow exceptions,
/// not two dense `u32` columns: every reference trace stays under 12.5
/// bytes per event (the dense columns alone cost 8).
#[test]
fn reference_traces_stay_under_the_layout_bound() {
    let store = TraceStore::new();
    for kind in WorkloadKind::ALL {
        let trace = store
            .get(kind, InputSet::reference(), RunLimits::default())
            .unwrap();
        let per_event = trace.approx_bytes() as f64 / trace.len() as f64;
        assert!(
            trace.approx_bytes() * 2 <= trace.len() * 25,
            "{kind:?}: {per_event:.2} bytes per event exceeds 12.5"
        );
    }
}
