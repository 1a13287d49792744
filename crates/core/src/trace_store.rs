//! Trace-once / analyze-many memoisation of simulation traces.
//!
//! Every experiment in the evaluation re-executes the same small set of
//! `(workload, input set, limits)` runs — the reference input alone is
//! consumed by the characterisation tables, every predictor configuration
//! and every ILP machine. A [`TraceStore`] runs the functional simulation
//! **once** per key, keeps the retirement trace ([`vp_sim::Trace`]) in
//! memory keyed by [`TraceKey`], and optionally spills traces to disk in
//! the compact `vp_sim::record` binary format so later processes can skip
//! the simulation entirely.
//!
//! Correctness rests on one ISA property: prediction *directives* never
//! change architectural semantics. A trace captured from the bare program
//! therefore replays bit-identically against any directive-annotated
//! variant of the same program, which is exactly the decoupling the
//! evaluation needs — simulate once, then replay into profilers,
//! predictors and the ILP machine under any annotation threshold.
//!
//! The store is the crate's claim/wait memo keyed by [`TraceKey`] plus
//! the spill directory. Concurrent requests for the *same* key
//! deduplicate in flight (one thread produces, the rest wait), and
//! requests for different keys proceed in parallel because no lock is
//! held across a simulation. A failed production memoises nothing.
//!
//! ## Observability
//!
//! Request counters live under the memo's lock, so every
//! [`TraceStore::stats`] snapshot satisfies
//! `requests == memory_hits + misses` exactly, even while worker threads
//! are mid-request. Captures are additionally wrapped in a `vp_obs` span
//! (`capture`) so manifest phase timings show where simulation
//! wall-clock goes, and the store emits instant events
//! (`trace_store.spill` / `trace_store.disk_hit`, each carrying the
//! trace's approximate byte size) into the `vp_obs::events` stream so a
//! Chrome trace shows *when* spill traffic happened. Event emission is
//! lock-free and a no-op unless a `--trace-out` run enabled the stream.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use vp_isa::Program;
use vp_sim::{NullTracer, RunLimits, SimError, Trace, Tracer};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::memo::Memo;

/// Identity of one memoised simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// The workload.
    pub kind: WorkloadKind,
    /// The input set it ran under.
    pub input: InputSet,
    /// The run budget (part of the key: a truncated run has a different
    /// trace).
    pub max_instructions: u64,
}

impl TraceKey {
    /// The key for `kind` run under `input` with `limits`.
    #[must_use]
    pub fn new(kind: WorkloadKind, input: InputSet, limits: RunLimits) -> Self {
        TraceKey {
            kind,
            input,
            max_instructions: limits.max_instructions,
        }
    }

    /// The spill file name for this key (stable across processes).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}.trace",
            self.kind.name(),
            self.input,
            self.max_instructions
        )
    }
}

impl fmt::Display for TraceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}@{}",
            self.kind.name(),
            self.input,
            self.max_instructions
        )
    }
}

/// Why a trace could not be produced or replayed.
///
/// Carries the [`TraceKey`] so a faulting workload reports *which* run
/// went wrong instead of poisoning worker threads with an anonymous
/// panic.
#[derive(Debug)]
pub enum TraceError {
    /// The functional simulation faulted while capturing the trace
    /// (well-formed workloads never fault; this indicates a generator
    /// bug — but the report should still name the key).
    Capture {
        /// The run that faulted.
        key: TraceKey,
        /// The simulator fault.
        source: SimError,
    },
    /// A memoised trace failed to replay against the supplied program
    /// (the program does not match the trace's architectural history).
    Replay {
        /// The run whose trace failed to replay.
        key: TraceKey,
        /// The replay failure.
        source: io::Error,
    },
}

impl TraceError {
    /// The key of the failing run.
    #[must_use]
    pub fn key(&self) -> TraceKey {
        match self {
            TraceError::Capture { key, .. } | TraceError::Replay { key, .. } => *key,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Capture { key, source } => {
                write!(f, "{key} faulted while tracing: {source}")
            }
            TraceError::Replay { key, source } => {
                write!(f, "{key} failed to replay: {source}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Capture { source, .. } => Some(source),
            TraceError::Replay { source, .. } => Some(source),
        }
    }
}

/// Counters describing how the store has been used.
///
/// Produced only by [`TraceStore::stats`]. The request counters come from
/// one snapshot of the store's claim table, so the invariant
/// `requests == memory_hits + misses` holds in every snapshot, no matter
/// how many threads are mid-request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Total requests presented to the store.
    pub requests: u64,
    /// Requests served from memory.
    pub memory_hits: u64,
    /// Requests that missed memory (and went to disk or simulation).
    pub misses: u64,
    /// Misses served by deserialising a spilled trace from disk.
    pub disk_hits: u64,
    /// Misses that ran the functional simulation.
    pub captures: u64,
    /// Traces written to the spill directory.
    pub spills: u64,
    /// Spill attempts that failed (IO errors; memory-only fallback).
    pub spill_failures: u64,
    /// Requests that slept waiting for another thread's in-flight
    /// production of the same key.
    pub dedup_waits: u64,
    /// Traces resident in memory at snapshot time.
    pub resident: u64,
    /// Approximate bytes resident in memory at snapshot time.
    pub resident_bytes: u64,
}

/// A thread-safe in-memory cache of simulation traces with optional disk
/// spill.
///
/// # Examples
///
/// ```
/// use provp_core::trace_store::TraceStore;
/// use vp_sim::{InstrMix, RunLimits};
/// use vp_workloads::{InputSet, Workload, WorkloadKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = TraceStore::new();
/// let kind = WorkloadKind::Compress;
/// let trace = store.get(kind, InputSet::reference(), RunLimits::default())?;
/// // Second request: served from memory, no simulation.
/// let again = store.get(kind, InputSet::reference(), RunLimits::default())?;
/// assert_eq!(store.stats().captures, 1);
/// assert_eq!(store.stats().memory_hits, 1);
///
/// // Replay substitutes for re-simulation.
/// let program = Workload::new(kind).program(&InputSet::reference());
/// let mut mix = InstrMix::new();
/// trace.replay(&program, &mut mix)?;
/// assert_eq!(mix.total() as usize, again.len());
/// # Ok(())
/// # }
/// ```
pub struct TraceStore {
    spill_dir: Option<PathBuf>,
    traces: Memo<TraceKey, Arc<Trace>>,
    /// The production counters (`disk_hits`, `captures`, `spills`,
    /// `spill_failures`, `resident_bytes`); [`TraceStore::stats`] fills
    /// in the request counters from the memo.
    produced: Mutex<TraceStoreStats>,
}

impl TraceStore {
    /// An in-memory store with no disk spill.
    #[must_use]
    pub fn new() -> Self {
        TraceStore {
            spill_dir: None,
            traces: Memo::new(),
            produced: Mutex::new(TraceStoreStats::default()),
        }
    }

    /// Enables disk spill under `dir` (created on first write). Spilled
    /// traces survive process restarts; a miss checks the directory
    /// before falling back to simulation.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// The spill directory, if any.
    #[must_use]
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    fn produced(&self) -> MutexGuard<'_, TraceStoreStats> {
        self.produced.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of every usage counter. `requests == memory_hits +
    /// misses` holds in every snapshot.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        let memo = self.traces.stats();
        TraceStoreStats {
            requests: memo.hits + memo.misses,
            memory_hits: memo.hits,
            misses: memo.misses,
            dedup_waits: memo.waits,
            resident: memo.resident,
            ..*self.produced()
        }
    }

    /// The retirement trace of `kind` under `input` and `limits`,
    /// simulating at most once per key per process (and, with a spill
    /// directory, at most once ever).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Capture`] (naming the key) if the workload
    /// faults during simulation — well-formed workloads never fault, so
    /// a fault indicates a generator bug, but it is reported instead of
    /// panicking inside worker threads.
    pub fn get(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        limits: RunLimits,
    ) -> Result<Arc<Trace>, TraceError> {
        self.fetch(TraceKey::new(kind, input, limits), None, &mut NullTracer)
    }

    /// Replays the trace for `(kind, input, limits)` into `tracer`,
    /// fetching instructions from `program` — which may be a
    /// directive-annotated variant of the workload binary, since
    /// directives never change architectural semantics.
    ///
    /// On a cache miss this runs the functional simulation **once**,
    /// feeding `tracer` while recording, so the first consumer of a trace
    /// pays a single pass (not capture *plus* replay). Subsequent
    /// consumers replay from memory or disk.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Capture`] if the workload faults during
    /// simulation, or [`TraceError::Replay`] if the memoised trace does
    /// not replay against `program` — both indicate generator bugs, and
    /// both name the key instead of poisoning worker threads.
    pub fn replay_into(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        limits: RunLimits,
        program: &Program,
        tracer: &mut impl Tracer,
    ) -> Result<Arc<Trace>, TraceError> {
        self.fetch(TraceKey::new(kind, input, limits), Some(program), tracer)
    }

    /// The memoised trace of `key`. With a consumer `program`, `tracer`
    /// sees every retirement exactly once: during the capture on a miss,
    /// by replay otherwise. Without one, nothing is replayed.
    fn fetch(
        &self,
        key: TraceKey,
        program: Option<&Program>,
        tracer: &mut impl Tracer,
    ) -> Result<Arc<Trace>, TraceError> {
        let mut fed = false;
        let trace = self.traces.try_get_or_compute(key, || {
            fed = true;
            self.produce(key, program, tracer)
        })?;
        if let (false, Some(program)) = (fed, program) {
            replay(key, &trace, program, tracer)?;
        }
        Ok(trace)
    }

    /// Loads `key` from the spill directory or captures it by simulation
    /// (spilling the capture), feeding a consumer `program`'s `tracer`.
    fn produce(
        &self,
        key: TraceKey,
        program: Option<&Program>,
        tracer: &mut impl Tracer,
    ) -> Result<Arc<Trace>, TraceError> {
        let trace = match self.try_disk_load(&key) {
            Some(trace) => {
                vp_obs::events::instant("trace_store.disk_hit", trace.approx_bytes() as u64);
                if let Some(program) = program {
                    replay(key, &trace, program, tracer)?;
                }
                self.produced().disk_hits += 1;
                trace
            }
            None => {
                let built;
                let program = match program {
                    Some(program) => program,
                    None => {
                        built = Workload::new(key.kind).program(&key.input);
                        &built
                    }
                };
                let limits = RunLimits::with_max(key.max_instructions);
                let trace = {
                    let _span = vp_obs::span("capture");
                    Trace::capture_with(program, limits, tracer)
                        .map_err(|source| TraceError::Capture { key, source })?
                };
                self.produced().captures += 1;
                self.try_disk_store(&key, &trace);
                trace
            }
        };
        self.produced().resident_bytes += trace.approx_bytes() as u64;
        Ok(Arc::new(trace))
    }

    fn try_disk_load(&self, key: &TraceKey) -> Option<Trace> {
        let dir = self.spill_dir.as_ref()?;
        let path = dir.join(key.file_name());
        // One read syscall, then parse from the in-memory slice — much
        // faster than pulling the file through a buffered reader.
        let bytes = fs::read(&path).ok()?;
        match Trace::read_from(bytes.as_slice()) {
            Ok(trace) => Some(trace),
            Err(e) => {
                // Corrupt, truncated or retired-format spill file: drop it
                // and re-simulate.
                vp_obs::obs_warn!("dropping unreadable trace spill file {path:?}: {e}");
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Best-effort spill; IO failures are counted and fall back to
    /// memory-only.
    fn try_disk_store(&self, key: &TraceKey, trace: &Trace) {
        let Some(dir) = self.spill_dir.as_ref() else {
            return;
        };
        let tmp = dir.join(format!("{}.tmp", key.file_name()));
        let finished = dir.join(key.file_name());
        let write = || -> io::Result<()> {
            fs::create_dir_all(dir)?;
            let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
            trace.write_to(&mut out)?;
            io::Write::flush(&mut out)?;
            drop(out);
            fs::rename(&tmp, &finished)
        };
        if write().is_ok() {
            vp_obs::events::instant("trace_store.spill", trace.approx_bytes() as u64);
            self.produced().spills += 1;
        } else {
            let _ = fs::remove_file(&tmp);
            self.produced().spill_failures += 1;
        }
    }
}

/// Replays `trace` into `tracer`, naming `key` on failure.
fn replay(
    key: TraceKey,
    trace: &Trace,
    program: &Program,
    tracer: &mut impl Tracer,
) -> Result<(), TraceError> {
    trace
        .replay(program, tracer)
        .map_err(|source| TraceError::Replay { key, source })
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("spill_dir", &self.spill_dir)
            .field("stats", &self.stats())
            .finish()
    }
}
