//! Integration tests for the observability layer where it meets the
//! core pipeline: span aggregation across `parallel_map` workers, and
//! consistency of `TraceStoreStats` snapshots under concurrency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use provp_core::{parallel_map, TraceStore};
use vp_obs::{Registry, Schedule, Ticker};
use vp_sim::RunLimits;
use vp_workloads::{InputSet, WorkloadKind};

/// Spans opened inside `parallel_map` workers aggregate under the same
/// hierarchical path as the spawning thread's open spans, no matter how
/// many threads executed them.
#[test]
fn spans_nest_across_parallel_map_workers() {
    let items: Vec<u32> = (0..24).collect();
    {
        let _outer = vp_obs::span("obs_it_outer");
        let _ = parallel_map(4, &items, |&x| {
            let _inner = vp_obs::span("obs_it_inner");
            x * 2
        });
    }
    let snap = vp_obs::global().snapshot();
    let inner = snap
        .spans
        .get("obs_it_outer/obs_it_inner")
        .expect("worker spans must aggregate under the spawning thread's path");
    assert_eq!(inner.count, items.len() as u64);
    let outer = snap.spans.get("obs_it_outer").expect("outer span recorded");
    assert_eq!(outer.count, 1);
    // No orphaned top-level "obs_it_inner" rows from worker threads.
    assert!(
        !snap.spans.contains_key("obs_it_inner"),
        "worker spans must not detach from the parent path"
    );
}

/// A serial map (jobs = 1) produces the same span paths as a threaded one.
#[test]
fn serial_and_threaded_span_paths_agree() {
    let items: Vec<u32> = (0..6).collect();
    {
        let _outer = vp_obs::span("obs_it_serial");
        let _ = parallel_map(1, &items, |&x| {
            let _inner = vp_obs::span("obs_it_leaf");
            x
        });
    }
    {
        let _outer = vp_obs::span("obs_it_threaded");
        let _ = parallel_map(3, &items, |&x| {
            let _inner = vp_obs::span("obs_it_leaf");
            x
        });
    }
    let snap = vp_obs::global().snapshot();
    let serial = snap.spans.get("obs_it_serial/obs_it_leaf").unwrap();
    let threaded = snap.spans.get("obs_it_threaded/obs_it_leaf").unwrap();
    assert_eq!(serial.count, threaded.count);
}

/// Every mid-run snapshot of the trace-store statistics is internally
/// consistent: each request has been classified as exactly one of
/// memory-hit or miss by the time it is counted, so
/// `memory_hits + misses == requests` holds in *every* observable state,
/// and in particular `hits + misses` can never undercount `requests`.
#[test]
fn concurrent_stats_snapshots_never_lose_requests() {
    let store = Arc::new(TraceStore::new());
    let done = Arc::new(AtomicBool::new(false));

    let sampler = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut samples = 0u32;
            let mut last_requests = 0u64;
            while !done.load(Ordering::Relaxed) {
                let s = store.stats();
                assert!(
                    s.memory_hits + s.misses >= s.requests,
                    "snapshot lost classified requests: {s:?}"
                );
                assert_eq!(
                    s.memory_hits + s.misses,
                    s.requests,
                    "request counted without a hit/miss classification: {s:?}"
                );
                assert!(
                    s.requests >= last_requests,
                    "requests went backwards: {s:?}"
                );
                last_requests = s.requests;
                samples += 1;
                thread::yield_now();
            }
            samples
        })
    };

    thread::scope(|scope| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..2 {
                        let _ = store
                            .get(
                                WorkloadKind::Compress,
                                InputSet::train(i),
                                RunLimits::default(),
                            )
                            .unwrap();
                        let _ = round;
                    }
                }
            });
        }
    });

    done.store(true, Ordering::Relaxed);
    let samples = sampler.join().unwrap();
    assert!(samples > 0, "sampler must observe at least one snapshot");

    let end = store.stats();
    // 4 threads x 3 rounds x 2 keys = 24 requests, 2 unique simulations.
    assert_eq!(end.requests, 24);
    assert_eq!(end.captures, 2);
    assert_eq!(end.memory_hits + end.misses, end.requests);
}

/// The real [`Ticker`] + pre-sample-hook pipeline preserves the trace
/// store's balance invariant in *every* emitted sample: the hook
/// publishes an internally-consistent `TraceStore::stats` block (one
/// lock, one snapshot) into the sampled registry right before each
/// copy, so `memory_hits + misses == requests` holds mid-run, not just
/// at end of run. This is the exact wiring the bench harness uses for
/// `--sample-ms`.
#[test]
fn sampler_hook_keeps_trace_store_invariant_in_every_sample() {
    let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
    let store = Arc::new(TraceStore::new());

    let sampler = {
        let store = Arc::clone(&store);
        let requests = registry.counter_cell("trace_store.requests");
        let hits = registry.counter_cell("trace_store.memory_hits");
        let misses = registry.counter_cell("trace_store.misses");
        let schedule = Schedule {
            sample_every: Some(Duration::from_millis(1)),
            ..Schedule::default()
        };
        Ticker::start(schedule, registry, move || {
            // One consistent snapshot, published idempotently: stats are
            // monotone, so fetch_max republishes without double counting.
            let s = store.stats();
            requests.fetch_max(s.requests, Ordering::Relaxed);
            hits.fetch_max(s.memory_hits, Ordering::Relaxed);
            misses.fetch_max(s.misses, Ordering::Relaxed);
        })
        .expect("ticker thread starts")
    };

    thread::scope(|scope| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..2 {
                        let _ = store
                            .get(
                                WorkloadKind::Compress,
                                InputSet::train(i),
                                RunLimits::default(),
                            )
                            .unwrap();
                        let _ = round;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            });
        }
    });

    let samples = sampler.stop().samples;
    assert!(samples.len() >= 2, "series must hold >= 2 points");
    let counter = |s: &vp_obs::Sample, k: &str| s.counters.get(k).copied().unwrap_or(0);
    for s in &samples {
        assert_eq!(
            counter(s, "trace_store.memory_hits") + counter(s, "trace_store.misses"),
            counter(s, "trace_store.requests"),
            "sample at t={}ms lost the balance invariant: {s:?}",
            s.t_ms
        );
    }
    // The final sample (taken at `stop`, after all workers joined) must
    // reflect the complete run.
    let last = samples.last().unwrap();
    assert_eq!(counter(last, "trace_store.requests"), 24);
    // And the series itself is monotone per key, as fetch_max promises.
    for pair in samples.windows(2) {
        for key in ["trace_store.requests", "trace_store.memory_hits"] {
            assert!(
                counter(&pair[0], key) <= counter(&pair[1], key),
                "{key} went backwards across samples"
            );
        }
    }
}
