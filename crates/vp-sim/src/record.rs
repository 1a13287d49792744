//! Trace recording and replay.
//!
//! Capture a retirement trace once ([`TraceRecorder`], [`Trace::capture`]),
//! then replay it into any number of tracers (profilers, predictors, the
//! ILP machine) without re-simulating. Traces are held columnar
//! ([`TraceColumns`]) and live only in memory: at a few nanoseconds per
//! simulated instruction, running the program again is cheaper than
//! reloading a stored trace.

use std::fmt;
use std::io;
use std::time::Instant;

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::exec::{MemAccess, Retirement};
use crate::runner::{run, RunLimits};
use crate::{SimError, TraceColumns, Tracer};

/// One retired instruction, in owned form (no borrow of the program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static address of the retired instruction.
    pub addr: InstrAddr,
    /// Destination write `(class, register, value)`, if any.
    pub dest: Option<(RegClass, Reg, u64)>,
    /// Memory effect, if any.
    pub mem: Option<MemAccess>,
    /// For stores: the value written.
    pub stored: Option<u64>,
    /// Branch outcome, if the instruction was a conditional branch.
    pub taken: Option<bool>,
    /// Program counter after the instruction.
    pub next_pc: InstrAddr,
}

impl TraceEvent {
    /// Captures a retirement into owned form.
    #[must_use]
    pub fn from_retirement(ev: &Retirement<'_>) -> Self {
        TraceEvent {
            addr: ev.addr,
            dest: ev.dest,
            mem: ev.mem,
            stored: ev.stored,
            taken: ev.taken,
            next_pc: ev.next_pc,
        }
    }
}

/// A tracer that stores the whole trace in memory (columnar).
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::record::TraceRecorder;
/// use vp_sim::{run, InstrMix, RunLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")?;
/// let mut rec = TraceRecorder::new();
/// run(&p, &mut rec, RunLimits::default())?;
/// // Replay into a different consumer without re-simulating.
/// let total = rec.len();
/// let cols = rec.into_columns();
/// let mut mix = InstrMix::new();
/// cols.replay(&p, &mut mix)?;
/// assert_eq!(mix.total() as usize, total);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    columns: TraceColumns,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The recorded trace, columnar.
    #[must_use]
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// Consumes the recorder, returning the columnar trace.
    #[must_use]
    pub fn into_columns(self) -> TraceColumns {
        self.columns
    }
}

impl Tracer for TraceRecorder {
    // Forced inline: the run loop's other tracers (a profile collector
    // beside it in `Trace::capture_with`) otherwise leave LLVM too little
    // inlining budget, and recording becomes a call per instruction.
    #[inline(always)]
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.columns.push_retirement(ev);
    }
}

/// An owned retirement trace: simulate once, replay into any number of
/// consumers.
///
/// This is the unit the experiment harness memoizes — capturing a trace
/// costs one functional simulation, after which every analysis pass
/// (profiling, prediction, ILP) is a cheap [`Trace::replay`]. Because
/// prediction directives never change architectural semantics, a trace
/// captured from a bare program replays bit-identically against any
/// directive-annotated variant of the same program.
///
/// Internally the trace is columnar ([`TraceColumns`]); value-prediction
/// replay reads [`TraceColumns::value_events`]' blocks directly instead
/// of reconstructing retirements.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::record::Trace;
/// use vp_sim::{InstrMix, RunLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")?;
/// let trace = Trace::capture(&p, RunLimits::default())?;
/// let mut mix = InstrMix::new();
/// trace.replay(&p, &mut mix)?;
/// assert_eq!(mix.total() as usize, trace.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    columns: TraceColumns,
}

impl Trace {
    /// Simulates `program` under `limits` and captures its full
    /// retirement trace.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`] (fault, limit overrun, …).
    pub fn capture(program: &Program, limits: RunLimits) -> Result<Trace, SimError> {
        let started = Instant::now();
        let mut rec = TraceRecorder::new();
        run(program, &mut rec, limits)?;
        Ok(Trace::recorded(rec, started))
    }

    /// Captures a trace while simultaneously feeding every retirement to
    /// `tracer` — one simulation pass serves both the recording and the
    /// first analysis, so a cache miss simulates once, not twice (the
    /// recording still costs its own work on top of the analysis).
    ///
    /// # Errors
    ///
    /// Propagates simulation faults, like [`vp_sim::run`](crate::run).
    pub fn capture_with(
        program: &Program,
        limits: RunLimits,
        tracer: &mut impl Tracer,
    ) -> Result<Trace, SimError> {
        let started = Instant::now();
        let mut rec = TraceRecorder::new();
        run(
            program,
            &mut crate::ChainTracer::new(&mut rec, tracer),
            limits,
        )?;
        Ok(Trace::recorded(rec, started))
    }

    /// Seals a finished capture that began at `started`.
    fn recorded(rec: TraceRecorder, started: Instant) -> Trace {
        let mut columns = rec.into_columns();
        columns.shrink_to_fit();
        // Capture accounting for the observability layer: one bump per
        // capture, outside the retire loop, like `sim.*` in `run_on`.
        vp_obs::counter("record.events").add(columns.len() as u64);
        vp_obs::counter("record.ns")
            .add(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        Trace { columns }
    }

    /// Wraps an already-recorded event list (converted to columnar form).
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        Trace {
            columns: TraceColumns::from_events(&events),
        }
    }

    /// Wraps an already-built column set.
    #[must_use]
    pub fn from_columns(columns: TraceColumns) -> Trace {
        Trace { columns }
    }

    /// The columnar representation.
    #[must_use]
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// Iterates the trace as owned [`TraceEvent`]s.
    #[must_use]
    pub fn iter(&self) -> crate::columns::Events<'_> {
        self.columns.iter()
    }

    /// Number of retired instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Approximate resident size in bytes (for cache accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.columns.approx_bytes()
    }

    /// Replays the trace into `tracer` against `program`.
    ///
    /// # Errors
    ///
    /// See [`TraceColumns::replay`].
    pub fn replay(&self, program: &Program, tracer: &mut impl Tracer) -> io::Result<()> {
        self.columns.replay(program, tracer)
    }
}

/// The first point at which two retirement streams disagree.
///
/// `None` on one side means that stream ended while the other still had
/// events (a length mismatch is itself a divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index of the first differing event.
    pub index: usize,
    /// The left stream's event at `index`, if it had one.
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index`, if it had one.
    pub right: Option<TraceEvent>,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "traces diverge at event {}: left = {:?}, right = {:?}",
            self.index, self.left, self.right
        )
    }
}

impl std::error::Error for TraceDivergence {}

/// Finds the first event where two retirement streams differ, or `None`
/// when they are identical (including length).
///
/// This is the differential-testing primitive: run the optimized simulator
/// and an independent reference over the same program and compare their
/// streams field-for-field. Accepts anything yielding [`TraceEvent`]s, so
/// a columnar [`Trace`] compares directly against a row-oriented
/// `Vec<TraceEvent>` without converting either side:
///
/// ```
/// use vp_sim::record::{first_divergence, Trace};
/// use vp_sim::RunLimits;
/// use vp_isa::asm::assemble;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 2\nhalt\n")?;
/// let a = Trace::capture(&p, RunLimits::default())?;
/// let b = Trace::capture(&p, RunLimits::default())?;
/// assert!(first_divergence(a.iter(), b.iter()).is_none());
/// # Ok(())
/// # }
/// ```
pub fn first_divergence<A, B>(a: A, b: B) -> Option<TraceDivergence>
where
    A: IntoIterator<Item = TraceEvent>,
    B: IntoIterator<Item = TraceEvent>,
{
    let mut a = a.into_iter();
    let mut b = b.into_iter();
    let mut index = 0usize;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (left, right) if left == right => index += 1,
            (left, right) => return Some(TraceDivergence { index, left, right }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, InstrMix, RunLimits};
    use vp_isa::asm::assemble;

    fn record(src: &str) -> (Program, TraceColumns) {
        let p = assemble(src).unwrap();
        let mut rec = TraceRecorder::new();
        run(&p, &mut rec, RunLimits::default()).unwrap();
        (p, rec.into_columns())
    }

    const SAMPLE: &str = ".f64 1.5\nli r1, 0\nli r2, 20\n\
top: fld f1, (r0)\nfadd f2, f2, f1\nsd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    #[test]
    fn replay_matches_live_tracing() {
        let (p, cols) = record(SAMPLE);
        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        Trace::from_columns(cols).replay(&p, &mut replayed).unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let (_, cols) = record(SAMPLE);
        let other = assemble("halt\n").unwrap();
        let e = Trace::from_columns(cols)
            .replay(&other, &mut crate::NullTracer)
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trace_capture_matches_recorder_and_round_trips() {
        let (p, cols) = record(SAMPLE);
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        assert_eq!(trace.columns(), &cols);
        assert_eq!(trace.len(), cols.len());
        assert!(!trace.is_empty());
        assert!(trace.approx_bytes() > 0);

        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        trace.replay(&p, &mut replayed).unwrap();
        assert_eq!(live, replayed);

        assert_eq!(Trace::from_events(trace.iter().collect()), trace);
    }

    #[test]
    fn event_kinds_are_preserved() {
        let (_, cols) = record(SAMPLE);
        let events: Vec<TraceEvent> = cols.iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e.dest, Some((RegClass::Fp, _, _)))));
        assert!(events
            .iter()
            .any(|e| matches!(e.mem, Some(MemAccess { store: true, .. }))));
        assert!(events.iter().any(|e| e.taken == Some(true)));
        assert!(events.iter().any(|e| e.taken == Some(false)));
    }

    #[test]
    fn divergence_finds_first_difference() {
        let (_, cols) = record(SAMPLE);
        let events: Vec<TraceEvent> = cols.iter().collect();
        assert_eq!(
            first_divergence(events.iter().copied(), events.iter().copied()),
            None
        );

        // A mutated value diverges at its own index.
        let mut mutated = events.clone();
        mutated[3].next_pc = InstrAddr::new(9999);
        let d = first_divergence(events.iter().copied(), mutated.iter().copied()).unwrap();
        assert_eq!(d.index, 3);
        assert_eq!(d.left, Some(events[3]));
        assert_eq!(d.right, Some(mutated[3]));

        // A shorter stream diverges at the missing tail.
        let d = first_divergence(
            events.iter().copied(),
            events[..events.len() - 1].iter().copied(),
        )
        .unwrap();
        assert_eq!(d.index, events.len() - 1);
        assert_eq!(d.right, None);
        assert!(d.to_string().contains("diverge at event"));
    }
}
