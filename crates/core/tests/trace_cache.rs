//! Unit tests for the trace store: cache hits must be indistinguishable
//! from fresh simulation, every consumer of `replay_into` must be fed
//! exactly once, and disk spill must round-trip across store instances.

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
    assert_eq!(stats.disk_hits, 0);
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
fn disk_spill_round_trips_across_stores() {
    let dir = std::env::temp_dir().join(format!("provp-trace-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kind = WorkloadKind::Ijpeg;
    let input = InputSet::reference();
    let limits = RunLimits::default();

    let first = TraceStore::new().with_spill_dir(&dir);
    let captured = first.get(kind, input, limits).unwrap();
    assert_eq!(first.stats().captures, 1);
    let spilled = dir.join(provp_core::TraceKey::new(kind, input, limits).file_name());
    assert!(spilled.is_file(), "trace must be spilled to {spilled:?}");

    // A brand-new store (fresh process, conceptually) loads from disk.
    let second = TraceStore::new().with_spill_dir(&dir);
    let loaded = second.get(kind, input, limits).unwrap();
    assert_eq!(*captured, *loaded, "disk round-trip must be lossless");
    let stats = second.stats();
    assert_eq!(stats.captures, 0, "no re-simulation with a warm disk cache");
    assert_eq!(stats.disk_hits, 1);

    // A corrupt spill file falls back to simulation instead of failing.
    std::fs::write(&spilled, b"garbage").unwrap();
    let third = TraceStore::new().with_spill_dir(&dir);
    let recaptured = third.get(kind, input, limits).unwrap();
    assert_eq!(*captured, *recaptured);
    assert_eq!(third.stats().captures, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Spill files are a cache: one in a retired format (`provptr2`, the
/// checksum-less predecessor of `provptr3`) is dropped and re-captured,
/// and the fresh capture is bit-identical and re-spilled as `provptr3`.
#[test]
fn retired_spill_format_is_dropped_and_recaptured() {
    let dir = std::env::temp_dir().join(format!("provp-trace-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();
    let limits = RunLimits::default();

    let first = TraceStore::new().with_spill_dir(&dir);
    let captured = first.get(kind, input, limits).unwrap();
    let spilled = dir.join(provp_core::TraceKey::new(kind, input, limits).file_name());
    let current = std::fs::read(&spilled).unwrap();
    assert_eq!(&current[..8], b"provptr3");

    // A `provptr2` file is the same columnar body without the trailer.
    let mut legacy = b"provptr2".to_vec();
    legacy.extend_from_slice(&current[8..current.len() - 8]);
    std::fs::write(&spilled, &legacy).unwrap();

    let second = TraceStore::new().with_spill_dir(&dir);
    let recaptured = second.get(kind, input, limits).unwrap();
    assert_eq!(*captured, *recaptured, "re-capture must be bit-identical");
    let stats = second.stats();
    assert_eq!(stats.captures, 1, "the retired file is not read");
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(
        std::fs::read(&spilled).unwrap(),
        current,
        "re-spilled as provptr3"
    );

    let _ = std::fs::remove_dir_all(&dir);
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
