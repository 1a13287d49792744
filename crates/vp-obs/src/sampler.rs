//! The one background observation thread: mid-run registry snapshots
//! and span-stack samples.
//!
//! End-of-run aggregates say *that* throughput regressed; a time series
//! says *when*, and a profile says *where*. A [`Ticker`] owns one
//! background thread that, on its [`Schedule`], copies every counter and
//! gauge out of a [`Registry`] into a [`Sample`] (the manifest's
//! `samples` array) and snapshots every thread's open-span stack (the
//! manifest's `profile` section, see [`crate::profiler`]). Either half
//! may be off; the harness starts a ticker when `--sample-ms` or
//! `--profile-hz` asks for one.
//!
//! Sampling follows the same rules as the rest of the layer: it never
//! writes to stdout, never feeds back into experiment results, and is
//! bounded — at most [`Ticker::MAX_SAMPLES`] registry snapshots are
//! retained (later ones are discarded, counted by
//! `sampler.discarded_samples` and warned about once), and stack samples
//! live in drop-oldest per-thread rings of
//! [`Schedule::ring_capacity`] samples.
//!
//! A *pre-sample hook* runs before every registry snapshot on the ticker
//! thread. The bench harness uses it to publish the trace store's
//! internally-consistent counter block (`TraceStore::stats` snapshots
//! all fields under one lock) into the registry right before the copy,
//! so invariants like `memory_hits + misses == requests` hold in every
//! sample, not just at end of run. Sample timestamps share the event
//! stream's monotonic epoch ([`crate::events::now_ns`]), so a sample at
//! `t_ms` lines up with the Chrome trace at the same instant.

use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::profiler::{Profile, StackRings};
use crate::registry::Registry;

/// One point-in-time copy of the counter/gauge registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// Milliseconds since the process event epoch (monotonic; shared
    /// with Chrome-trace timestamps).
    pub t_ms: f64,
    /// Every counter at sample time.
    pub counters: BTreeMap<String, u64>,
    /// Every gauge at sample time.
    pub gauges: BTreeMap<String, u64>,
}

/// What a [`Ticker`] samples, and how often.
#[derive(Debug, Clone, Copy, Default)]
pub struct Schedule {
    /// Registry snapshot interval (clamped to >= 1 ms); `None` takes no
    /// time series.
    pub sample_every: Option<Duration>,
    /// Span-stack samples per second (clamped to >= 1); `None` takes no
    /// profile.
    pub profile_hz: Option<u32>,
    /// Per-thread ring capacity for stack samples; `None` is
    /// [`Ticker::DEFAULT_RING_CAPACITY`] (tests use tiny rings to
    /// exercise drop-oldest).
    pub ring_capacity: Option<usize>,
}

/// What a stopped [`Ticker`] collected.
#[derive(Debug, Default)]
pub struct Harvest {
    /// The registry time series (empty when not scheduled).
    pub samples: Vec<Sample>,
    /// The folded span-stack profile (`None` when not scheduled).
    pub profile: Option<Profile>,
}

/// The background sampling thread; collect what it gathered with
/// [`Ticker::stop`].
pub struct Ticker {
    /// Dropping the sender wakes the thread from its inter-tick sleep
    /// and stops it.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<Harvest>>,
}

impl Ticker {
    /// Upper bound on retained registry samples (~2 hours at 1 s
    /// cadence); later samples are discarded so manifests stay bounded.
    pub const MAX_SAMPLES: usize = 7_200;

    /// Default per-thread ring capacity (samples, not bytes): ~11 minutes
    /// of stack samples per thread at 99 Hz before drop-oldest.
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

    /// Starts the thread. A registry sample and a stack sample are taken
    /// immediately, and one more registry sample at [`Ticker::stop`], so
    /// a series always holds at least two points. `hook` runs on the
    /// ticker thread right before every registry snapshot.
    ///
    /// Profiling arms span-stack mirroring process-wide before the
    /// thread starts: start the ticker *before* opening the spans it
    /// should attribute.
    ///
    /// # Errors
    ///
    /// The OS refused to spawn the thread.
    pub fn start(
        schedule: Schedule,
        registry: &'static Registry,
        hook: impl Fn() + Send + 'static,
    ) -> io::Result<Ticker> {
        if schedule.profile_hz.is_some() {
            crate::profiler::arm();
        }
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("vp-obs-ticker".to_owned())
            .spawn(move || run(&stopped, schedule, registry, &hook))?;
        Ok(Ticker {
            stop: Some(stop),
            handle: Some(handle),
        })
    }

    /// Stops the thread, takes the final registry sample and returns
    /// everything collected.
    #[must_use]
    pub fn stop(mut self) -> Harvest {
        self.join().unwrap_or_default()
    }

    fn join(&mut self) -> Option<Harvest> {
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

/// One periodic duty of the ticker thread.
struct Cadence {
    every: Duration,
    next: Instant,
}

impl Cadence {
    /// Whether the duty is due at `now`; if so, schedules the next one.
    fn due(&mut self, now: Instant) -> bool {
        let due = now >= self.next;
        if due {
            self.next = now + self.every;
        }
        due
    }
}

fn run(
    stopped: &mpsc::Receiver<()>,
    schedule: Schedule,
    registry: &Registry,
    hook: &dyn Fn(),
) -> Harvest {
    let start = Instant::now();
    let cadence = |every| Cadence { every, next: start };
    let mut sampling = schedule
        .sample_every
        .map(|every| cadence(every.max(Duration::from_millis(1))));
    let mut profiling = schedule.profile_hz.map(|hz| {
        let hz = hz.max(1);
        let every = Duration::from_secs_f64(1.0 / f64::from(hz));
        let capacity = schedule
            .ring_capacity
            .unwrap_or(Ticker::DEFAULT_RING_CAPACITY);
        (cadence(every), StackRings::new(hz, capacity))
    });
    let mut samples = Vec::new();
    let mut warned = false;
    loop {
        let now = Instant::now();
        if sampling.as_mut().is_some_and(|c| c.due(now)) {
            if samples.len() < Ticker::MAX_SAMPLES {
                samples.push(take_sample(registry, hook));
            } else {
                // Count every discard so the loss is visible in the
                // manifest and the --metrics-table footer, not only in
                // the log.
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
        }
        if let Some((c, rings)) = profiling.as_mut() {
            if c.due(now) {
                rings.tick();
            }
        }
        let next = [sampling.as_ref(), profiling.as_ref().map(|(c, _)| c)]
            .into_iter()
            .flatten()
            .map(|c| c.next)
            .min()
            .unwrap_or(now + Duration::from_secs(1));
        let sleep = next.saturating_duration_since(Instant::now());
        if !matches!(stopped.recv_timeout(sleep), Err(RecvTimeoutError::Timeout)) {
            break;
        }
    }
    let profile = profiling.map(|(_, rings)| rings.fold());
    // Final sample so the series always covers the end of the run (and
    // a short run still yields >= 2 points).
    if sampling.is_some() {
        samples.push(take_sample(registry, hook));
    }
    Harvest { samples, profile }
}

fn take_sample(registry: &Registry, hook: &dyn Fn()) -> Sample {
    hook();
    let snapshot = registry.snapshot();
    Sample {
        t_ms: crate::events::now_ns() as f64 / 1e6,
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
        let schedule = Schedule {
            sample_every: Some(every),
            ..Schedule::default()
        };
        Ticker::start(schedule, registry, hook).unwrap()
    }

    #[test]
    fn collects_at_least_first_and_final_samples() {
        let registry = leaked_registry();
        registry.counter_cell("s.work").store(3, Ordering::Relaxed);
        let ticker = start(Duration::from_millis(5), registry, || {});
        std::thread::sleep(Duration::from_millis(20));
        let samples = ticker.stop().samples;
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
        let samples = start(Duration::from_millis(500), registry, || {})
            .stop()
            .samples;
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
        let samples = ticker.stop().samples;
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
        let schedule = Schedule {
            sample_every: Some(Duration::from_millis(1)),
            profile_hz: Some(1000),
            ..Schedule::default()
        };
        let ticker = Ticker::start(schedule, registry, || {}).unwrap();
        drop(ticker); // must join, not detach or hang
    }

    #[test]
    fn one_thread_serves_both_schedules() {
        let registry = leaked_registry();
        let schedule = Schedule {
            sample_every: Some(Duration::from_millis(5)),
            profile_hz: Some(500),
            ..Schedule::default()
        };
        let ticker = Ticker::start(schedule, registry, || {}).unwrap();
        {
            let _g = crate::span("ticker-both-root");
            std::thread::sleep(Duration::from_millis(40));
        }
        let harvest = ticker.stop();
        assert!(harvest.samples.len() >= 2);
        let profile = harvest.profile.expect("profiling was scheduled");
        assert!(profile
            .folded
            .keys()
            .any(|k| k.ends_with("ticker-both-root")));

        // Sampling alone yields no profile.
        let alone = start(Duration::from_millis(5), registry, || {}).stop();
        assert!(alone.profile.is_none());
    }
}
