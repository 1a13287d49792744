//! The one background observation thread: mid-run registry snapshots.
//!
//! End-of-run aggregates say *that* throughput regressed; a time series
//! says *when*. A [`Ticker`] owns one background thread that, every
//! `--sample-ms`, copies every counter and gauge out of a [`Registry`]
//! into a [`Sample`] (the manifest's `samples` array). Where time goes
//! needs no thread: the profile is built from span self times (see
//! [`crate::profiler`]).
//!
//! Sampling follows the same rules as the rest of the layer: it never
//! writes to stdout, never feeds back into experiment results, and is
//! bounded — at most [`Ticker::MAX_SAMPLES`] registry snapshots are
//! retained (later ones are discarded, counted by
//! `sampler.discarded_samples` and warned about once).
//!
//! A *pre-sample hook* runs before every registry snapshot on the ticker
//! thread. The bench harness uses it to publish the trace store's
//! internally-consistent counter block (`TraceStore::stats` snapshots
//! all fields under one lock) into the registry right before the copy,
//! so invariants like `memory_hits + misses == requests` hold in every
//! sample, not just at end of run. Sample timestamps are milliseconds
//! since the ticker started, on the monotonic clock.

use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::Registry;

/// One point-in-time copy of the counter/gauge registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// Milliseconds since the [`Ticker`] started (monotonic).
    pub t_ms: f64,
    /// Every counter at sample time.
    pub counters: BTreeMap<String, u64>,
    /// Every gauge at sample time.
    pub gauges: BTreeMap<String, u64>,
}

/// The background sampling thread; collect what it gathered with
/// [`Ticker::stop`].
pub struct Ticker {
    /// Dropping the sender wakes the thread from its inter-tick sleep
    /// and stops it.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<Vec<Sample>>>,
}

impl Ticker {
    /// Upper bound on retained registry samples (~2 hours at 1 s
    /// cadence); later samples are discarded so manifests stay bounded.
    pub const MAX_SAMPLES: usize = 7_200;

    /// Starts the thread, sampling every `every` (clamped to >= 1 ms).
    /// A sample is taken immediately and one more at [`Ticker::stop`],
    /// so a series always holds at least two points. `hook` runs on the
    /// ticker thread right before every registry snapshot.
    ///
    /// # Errors
    ///
    /// The OS refused to spawn the thread.
    pub fn start(
        every: Duration,
        registry: &'static Registry,
        hook: impl Fn() + Send + 'static,
    ) -> io::Result<Ticker> {
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("vp-obs-ticker".to_owned())
            .spawn(move || run(&stopped, every, registry, &hook))?;
        Ok(Ticker {
            stop: Some(stop),
            handle: Some(handle),
        })
    }

    /// Stops the thread, takes the final registry sample and returns
    /// the series.
    #[must_use]
    pub fn stop(mut self) -> Vec<Sample> {
        self.join().unwrap_or_default()
    }

    fn join(&mut self) -> Option<Vec<Sample>> {
        self.stop = None;
        self.handle.take()?.join().ok()
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        // A dropped (not `stop`ped) ticker must not leave its thread
        // running; what it collected is discarded.
        self.join();
    }
}

fn run(
    stopped: &mpsc::Receiver<()>,
    every: Duration,
    registry: &Registry,
    hook: &dyn Fn(),
) -> Vec<Sample> {
    let start = Instant::now();
    let every = every.max(Duration::from_millis(1));
    let mut samples = Vec::new();
    let mut warned = false;
    loop {
        let now = Instant::now();
        if samples.len() < Ticker::MAX_SAMPLES {
            samples.push(take_sample(start, registry, hook));
        } else {
            // Count every discard so the loss is visible in the
            // manifest and the --metrics-table footer, not only in the
            // log.
            registry
                .counter_cell("sampler.discarded_samples")
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if !warned {
                warned = true;
                crate::obs_warn!(
                    "sampler reached {} samples; later samples are discarded \
                     (raise --sample-ms to cover longer runs)",
                    Ticker::MAX_SAMPLES
                );
            }
        }
        let sleep = (now + every).saturating_duration_since(Instant::now());
        if !matches!(stopped.recv_timeout(sleep), Err(RecvTimeoutError::Timeout)) {
            break;
        }
    }
    // Final sample so the series always covers the end of the run (and
    // a short run still yields >= 2 points).
    samples.push(take_sample(start, registry, hook));
    samples
}

fn take_sample(start: Instant, registry: &Registry, hook: &dyn Fn()) -> Sample {
    hook();
    let snapshot = registry.snapshot();
    Sample {
        t_ms: start.elapsed().as_secs_f64() * 1e3,
        counters: snapshot.counters,
        gauges: snapshot.gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    fn start(
        every: Duration,
        registry: &'static Registry,
        hook: impl Fn() + Send + 'static,
    ) -> Ticker {
        Ticker::start(every, registry, hook).unwrap()
    }

    #[test]
    fn collects_at_least_first_and_final_samples() {
        let registry = leaked_registry();
        registry.counter_cell("s.work").store(3, Ordering::Relaxed);
        let ticker = start(Duration::from_millis(5), registry, || {});
        std::thread::sleep(Duration::from_millis(20));
        let samples = ticker.stop();
        assert!(samples.len() >= 2, "got {}", samples.len());
        for s in &samples {
            assert_eq!(s.counters.get("s.work"), Some(&3));
        }
        for pair in samples.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms, "series must be monotone");
        }
    }

    #[test]
    fn immediate_stop_still_yields_two_points() {
        let registry = leaked_registry();
        let samples = start(Duration::from_millis(500), registry, || {}).stop();
        assert!(samples.len() >= 2);
    }

    #[test]
    fn hook_runs_before_every_snapshot() {
        let registry = leaked_registry();
        let cell = registry.counter_cell("s.hooked");
        let calls = Arc::new(AtomicU64::new(0));
        let hook_calls = Arc::clone(&calls);
        let ticker = start(Duration::from_millis(5), registry, move || {
            let n = hook_calls.fetch_add(1, Ordering::Relaxed) + 1;
            cell.store(n, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(25));
        let samples = ticker.stop();
        assert_eq!(calls.load(Ordering::Relaxed), samples.len() as u64);
        // Each sample observes the value its own hook published: the
        // hook happens-before the snapshot on the sampler thread.
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.counters.get("s.hooked"), Some(&(i as u64 + 1)));
        }
    }

    #[test]
    fn dropped_sampler_shuts_down_cleanly() {
        let registry = leaked_registry();
        let ticker = start(Duration::from_millis(1), registry, || {});
        drop(ticker); // must join, not detach or hang
    }
}
