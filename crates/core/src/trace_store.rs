//! Trace-once / analyze-many memoisation of simulation traces.
//!
//! Every experiment in the evaluation re-executes the same small set of
//! `(workload, input set, limits)` runs — the reference input alone is
//! consumed by the characterisation tables, every predictor configuration
//! and every ILP machine. A [`TraceStore`] runs the functional simulation
//! **once** per key and keeps the retirement trace ([`vp_sim::Trace`]) in
//! memory keyed by [`TraceKey`]. Traces are never written to disk: a
//! simulation costs a few nanoseconds per instruction, less than reading
//! a stored trace back.
//!
//! Correctness rests on one ISA property: prediction *directives* never
//! change architectural semantics. A trace captured from the bare program
//! therefore replays bit-identically against any directive-annotated
//! variant of the same program, which is exactly the decoupling the
//! evaluation needs — simulate once, then replay into profilers,
//! predictors and the ILP machine under any annotation threshold.
//!
//! The store is the crate's claim/wait memo keyed by [`TraceKey`].
//! Concurrent requests for the *same* key
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
//! wall-clock goes.

use std::fmt;
use std::io;
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
    /// Requests that missed memory (and went to simulation).
    pub misses: u64,
    /// Misses that ran the functional simulation to completion.
    pub captures: u64,
    /// Requests that slept waiting for another thread's in-flight
    /// production of the same key.
    pub dedup_waits: u64,
    /// Traces resident in memory at snapshot time.
    pub resident: u64,
    /// Approximate bytes resident in memory at snapshot time.
    pub resident_bytes: u64,
}

/// A thread-safe in-memory cache of simulation traces.
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
    traces: Memo<TraceKey, Arc<Trace>>,
    /// The production counters (`captures`, `resident_bytes`);
    /// [`TraceStore::stats`] fills in the request counters from the memo.
    produced: Mutex<TraceStoreStats>,
}

impl TraceStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore {
            traces: Memo::new(),
            produced: Mutex::new(TraceStoreStats::default()),
        }
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
    /// simulating at most once per key.
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
    /// consumers replay from memory.
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

    /// Captures `key` by simulation, feeding a consumer `program`'s
    /// `tracer`.
    fn produce(
        &self,
        key: TraceKey,
        program: Option<&Program>,
        tracer: &mut impl Tracer,
    ) -> Result<Arc<Trace>, TraceError> {
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
        let mut produced = self.produced();
        produced.captures += 1;
        produced.resident_bytes += trace.approx_bytes() as u64;
        Ok(Arc::new(trace))
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
            .field("stats", &self.stats())
            .finish()
    }
}
