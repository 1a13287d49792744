//! Trace recording, replay and the checksummed spill format.
//!
//! SHADE could emit trace files that analyzers consumed offline; this
//! module is that capability for `vp-sim`: capture a retirement trace once
//! ([`TraceRecorder`]), then replay it into any number of tracers
//! (profilers, predictors, the ILP machine) without re-simulating, or ship
//! it through any `std::io` stream with [`write_columns`] /
//! [`read_columns`].
//!
//! Traces are held columnar ([`TraceColumns`]) and spilled in a compact
//! varint + delta encoded format protected by a trailing FNV-1a-64
//! checksum (`provptr3`), the only format read or written: spill files
//! are a cache, not an archive, so any other magic is
//! [`TraceError::BadMagic`] and the trace store re-simulates. Malformed
//! inputs surface as a typed [`TraceError`] — in particular, on-disk
//! length prefixes are never trusted for allocation, so a corrupt header
//! cannot OOM the reader, and a bit flip anywhere in the body fails the
//! checksum instead of silently decoding to wrong values.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::columns::{F_ALL, F_BRANCH, F_DEST, F_DEST_FP, F_MEM, F_MEM_STORE, F_TAKEN};
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

/// Why a serialised trace could not be read.
///
/// Distinguishes "the stream ended early" ([`TraceError::Truncated`])
/// from "the bytes are inconsistent" ([`TraceError::Corrupt`]) and, most
/// importantly, rejects absurd length prefixes
/// ([`TraceError::AbsurdLength`]) *before* any allocation is sized from
/// them.
#[derive(Debug)]
pub enum TraceError {
    /// The stream does not start with a known trace magic.
    BadMagic,
    /// A length prefix exceeds [`MAX_TRACE_EVENTS`]; the prefix is
    /// rejected outright instead of sizing an allocation from it.
    AbsurdLength {
        /// The length the header claimed.
        claimed: u64,
        /// The largest length the reader accepts.
        limit: u64,
    },
    /// The stream ended before the data its header promised.
    Truncated {
        /// Which section of the trace was being read.
        context: &'static str,
    },
    /// The bytes were read but are internally inconsistent.
    Corrupt {
        /// What was inconsistent.
        context: String,
    },
    /// An underlying I/O failure other than a clean end-of-stream.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "bad trace magic"),
            TraceError::AbsurdLength { claimed, limit } => {
                write!(f, "absurd trace length {claimed} (limit {limit})")
            }
            TraceError::Truncated { context } => write!(f, "truncated trace: {context}"),
            TraceError::Corrupt { context } => write!(f, "corrupt trace: {context}"),
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        match e {
            TraceError::Io(io) => io,
            TraceError::Truncated { .. } => {
                io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string())
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Largest event count any length prefix may claim (2³³ events ≈ 170× the
/// simulator's default run budget); larger prefixes are garbage headers,
/// rejected as [`TraceError::AbsurdLength`].
pub const MAX_TRACE_EVENTS: u64 = 1 << 33;

/// Largest element count pre-allocated from an (already bounded) length
/// prefix before the data proves itself by actually parsing.
const PREALLOC_CAP: usize = 1 << 20;

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
/// replay walks [`TraceColumns::value_events`] directly instead of
/// reconstructing retirements.
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
        let mut rec = TraceRecorder::new();
        run(program, &mut rec, limits)?;
        let mut columns = rec.into_columns();
        columns.shrink_to_fit();
        Ok(Trace { columns })
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
        let mut rec = TraceRecorder::new();
        run(
            program,
            &mut crate::ChainTracer::new(&mut rec, tracer),
            limits,
        )?;
        let mut columns = rec.into_columns();
        columns.shrink_to_fit();
        Ok(Trace { columns })
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

    /// Serialises the trace in the compact checksummed columnar binary
    /// format (`provptr3`).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        write_columns(w, &self.columns)
    }

    /// Deserialises a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// See [`read_columns`].
    pub fn read_from<R: Read>(r: R) -> Result<Trace, TraceError> {
        Ok(Trace {
            columns: read_columns(r)?,
        })
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

/// The spill format: varint section lengths, raw flag column,
/// zigzag-varint delta-encoded address/value columns, then an FNV-1a-64
/// checksum over every body byte, so corruption that would decode as
/// plausible-but-wrong column data is caught instead of silently accepted.
///
/// The address and next-pc sections are dense delta columns whatever the
/// in-memory layout. The flag bits that mark the in-memory seek and jump
/// columns never reach disk: the writer masks every flag byte to `F_ALL`
/// and the reader rejects any other bit.
const MAGIC: &[u8; 8] = b"provptr3";

// --- FNV-1a-64 streaming checksum --------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Forwards writes while folding every written byte into an FNV-1a-64
/// hash, so the trailing checksum costs no buffering.
struct HashingWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Forwards reads while folding every consumed byte into an FNV-1a-64
/// hash; the v3 reader compares the body hash against the trailer.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let filled = self.inner.read(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..filled]);
        Ok(filled)
    }
}

/// Serialises a columnar trace in the current (`provptr3`) format: the
/// columnar body followed by an FNV-1a-64 checksum over the body bytes.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_columns<W: Write>(mut w: W, cols: &TraceColumns) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let mut hw = HashingWriter::new(&mut w);
    write_columns_body(&mut hw, cols)?;
    let checksum = hw.hash;
    w.write_all(&checksum.to_le_bytes())
}

/// The columnar body (everything between the magic and the checksum).
fn write_columns_body<W: Write>(mut w: W, cols: &TraceColumns) -> io::Result<()> {
    let c = cols.raw_parts();
    write_varint(&mut w, cols.len() as u64)?;
    write_varint(&mut w, cols.dest_count() as u64)?;
    write_varint(&mut w, cols.mem_count() as u64)?;
    write_varint(&mut w, cols.store_count() as u64)?;
    // Flag column, verbatim but for the in-memory control-flow bits.
    let mut buf = [0u8; 4096];
    for chunk in c.flags.chunks(buf.len()) {
        for (byte, &flags) in buf.iter_mut().zip(chunk) {
            *byte = flags & F_ALL;
        }
        w.write_all(&buf[..chunk.len()])?;
    }
    // Address column: delta vs the previous event's address (consecutive
    // instructions differ by ±small values almost always).
    let mut prev = 0i64;
    for ev in cols.iter() {
        let v = i64::from(ev.addr.index());
        write_varint(&mut w, zigzag(v - prev))?;
        prev = v;
    }
    // Next-PC column: delta vs the fallthrough (`addr + 1`), which is
    // zero for every non-taken-branch instruction.
    for ev in cols.iter() {
        let fallthrough = i64::from(ev.addr.index()) + 1;
        write_varint(&mut w, zigzag(i64::from(ev.next_pc.index()) - fallthrough))?;
    }
    // Destination register column, verbatim.
    w.write_all(c.dest_reg)?;
    // Destination values: delta vs the same static instruction's previous
    // value (strides and repeated last-values — the very predictability
    // the paper measures — make these deltas tiny).
    let mut last: HashMap<u32, u64> = HashMap::new();
    for (addr, value) in cols.value_events() {
        let prev = last.insert(addr.index(), value).unwrap_or(0);
        write_varint(&mut w, zigzag(value.wrapping_sub(prev) as i64))?;
    }
    // Memory addresses and stored values: delta vs the previous one.
    let mut prev = 0u64;
    for &a in c.mem_addr {
        write_varint(&mut w, zigzag(a.wrapping_sub(prev) as i64))?;
        prev = a;
    }
    let mut prev = 0u64;
    for &v in c.stored {
        write_varint(&mut w, zigzag(v.wrapping_sub(prev) as i64))?;
        prev = v;
    }
    Ok(())
}

/// Deserialises a columnar trace in the checksummed `provptr3` format.
///
/// # Errors
///
/// A typed [`TraceError`]. Length prefixes are bounded by
/// [`MAX_TRACE_EVENTS`] and never trusted for allocation: the reader
/// pre-allocates at most a small capped amount until the stream has
/// actually produced the promised bytes. The trailing checksum is
/// mandatory: a missing trailer is [`TraceError::Truncated`], a
/// mismatching one is [`TraceError::Corrupt`]. Any other magic is
/// [`TraceError::BadMagic`].
pub fn read_columns<R: Read>(mut r: R) -> Result<TraceColumns, TraceError> {
    let mut magic = [0u8; 8];
    read_exact_or(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut hr = HashingReader::new(r);
    let cols = read_columns_body(&mut hr)?;
    let body_hash = hr.hash;
    let mut trailer = [0u8; 8];
    read_exact_or(&mut hr, &mut trailer, "checksum trailer")?;
    let stored = u64::from_le_bytes(trailer);
    if stored != body_hash {
        return Err(TraceError::Corrupt {
            context: format!(
                "checksum mismatch: stored {stored:#018x}, computed {body_hash:#018x}"
            ),
        });
    }
    Ok(cols)
}

fn read_columns_body<R: Read>(mut r: R) -> Result<TraceColumns, TraceError> {
    let n = read_varint(&mut r, "event count")?;
    if n > MAX_TRACE_EVENTS {
        return Err(TraceError::AbsurdLength {
            claimed: n,
            limit: MAX_TRACE_EVENTS,
        });
    }
    let n_dest = read_varint(&mut r, "dest count")?;
    let n_mem = read_varint(&mut r, "mem count")?;
    let n_store = read_varint(&mut r, "store count")?;
    if n_dest > n || n_mem > n || n_store > n_mem {
        return Err(TraceError::Corrupt {
            context: format!(
                "sparse counts ({n_dest} dest, {n_mem} mem, {n_store} store) \
                 exceed event count {n}"
            ),
        });
    }
    let n = n as usize;

    // Flag column: read what the stream actually holds (capped initial
    // allocation), then check we got everything the header promised.
    let mut flags = Vec::with_capacity(n.min(PREALLOC_CAP));
    r.by_ref()
        .take(n as u64)
        .read_to_end(&mut flags)
        .map_err(TraceError::Io)?;
    if flags.len() < n {
        return Err(TraceError::Truncated {
            context: "flag column",
        });
    }
    // Validate every flag byte and count the populations the sparse
    // columns must match.
    let (mut cd, mut cm, mut cs) = (0u64, 0u64, 0u64);
    for &f in &flags {
        if f & !F_ALL != 0
            || (f & F_DEST_FP != 0 && f & F_DEST == 0)
            || (f & F_MEM_STORE != 0 && f & F_MEM == 0)
            || (f & F_TAKEN != 0 && f & F_BRANCH == 0)
        {
            return Err(TraceError::Corrupt {
                context: format!("invalid flag byte {f:#04x}"),
            });
        }
        cd += u64::from(f & F_DEST != 0);
        cm += u64::from(f & F_MEM != 0);
        cs += u64::from(f & F_MEM_STORE != 0);
    }
    if (cd, cm, cs) != (n_dest, n_mem, n_store) {
        return Err(TraceError::Corrupt {
            context: format!(
                "flag populations ({cd} dest, {cm} mem, {cs} store) disagree \
                 with header counts ({n_dest}, {n_mem}, {n_store})"
            ),
        });
    }
    // The flag column proved `n` is real data, so exact reservations for
    // the remaining columns are safe.
    let (n_dest, n_mem, n_store) = (n_dest as usize, n_mem as usize, n_store as usize);

    let mut addr = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        let d = unzigzag(read_varint(&mut r, "addr column")?);
        let v = prev
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| TraceError::Corrupt {
                context: "instruction address out of range".to_owned(),
            })?;
        addr.push(v);
        prev = i64::from(v);
    }

    let mut next_pc = Vec::with_capacity(n);
    for &a in &addr {
        let d = unzigzag(read_varint(&mut r, "next-pc column")?);
        let v = (i64::from(a) + 1)
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| TraceError::Corrupt {
                context: "next-pc out of range".to_owned(),
            })?;
        next_pc.push(v);
    }

    let mut dest_reg = Vec::with_capacity(n_dest);
    r.by_ref()
        .take(n_dest as u64)
        .read_to_end(&mut dest_reg)
        .map_err(TraceError::Io)?;
    if dest_reg.len() < n_dest {
        return Err(TraceError::Truncated {
            context: "destination register column",
        });
    }
    for &reg in &dest_reg {
        if Reg::try_new(reg).is_none() {
            return Err(TraceError::Corrupt {
                context: format!("register {reg} out of range"),
            });
        }
    }

    let mut dest_val = Vec::with_capacity(n_dest);
    let mut last: HashMap<u32, u64> = HashMap::new();
    for (i, &f) in flags.iter().enumerate() {
        if f & F_DEST != 0 {
            let d = unzigzag(read_varint(&mut r, "destination value column")?) as u64;
            let prev = last.get(&addr[i]).copied().unwrap_or(0);
            let value = prev.wrapping_add(d);
            last.insert(addr[i], value);
            dest_val.push(value);
        }
    }

    let mut mem_addr = Vec::with_capacity(n_mem);
    let mut prev = 0u64;
    for _ in 0..n_mem {
        let d = unzigzag(read_varint(&mut r, "memory address column")?) as u64;
        prev = prev.wrapping_add(d);
        mem_addr.push(prev);
    }

    let mut stored = Vec::with_capacity(n_store);
    let mut prev = 0u64;
    for _ in 0..n_store {
        let d = unzigzag(read_varint(&mut r, "stored value column")?) as u64;
        prev = prev.wrapping_add(d);
        stored.push(prev);
    }

    Ok(TraceColumns::from_raw_parts(
        flags, &addr, &next_pc, dest_reg, dest_val, mem_addr, stored,
    ))
}

// --- varint / zigzag helpers -------------------------------------------

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64, TraceError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        read_exact_or(r, &mut byte, context)?;
        let low = u64::from(byte[0] & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(TraceError::Corrupt {
                context: format!("varint overflow in {context}"),
            });
        }
        out |= low << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { context }
        } else {
            TraceError::Io(e)
        }
    })
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

    fn encode(cols: &TraceColumns) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_columns(&mut bytes, cols).unwrap();
        bytes
    }

    const SAMPLE: &str = ".f64 1.5\nli r1, 0\nli r2, 20\n\
top: fld f1, (r0)\nfadd f2, f2, f1\nsd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    #[test]
    fn serialisation_round_trips() {
        let (_, cols) = record(SAMPLE);
        let back = read_columns(encode(&cols).as_slice()).unwrap();
        assert_eq!(back, cols);
    }

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
    fn bad_magic_is_rejected() {
        let e = read_columns(&b"notatrace........"[..]).unwrap_err();
        assert!(matches!(e, TraceError::BadMagic), "{e}");
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let (_, cols) = record(SAMPLE);
        let mut bytes = encode(&cols);
        bytes.truncate(bytes.len() - 3);
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_without_allocation() {
        // Claim u64::MAX events, provide nothing.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, u64::MAX).unwrap();
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::AbsurdLength { .. }), "{e}");
    }

    #[test]
    fn plausible_length_with_missing_data_is_truncation_not_oom() {
        // A count below the absurdity limit but with no payload must fail
        // on the actual byte shortage, not pre-allocate count elements.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, MAX_TRACE_EVENTS).unwrap(); // n
        write_varint(&mut bytes, 0).unwrap(); // n_dest
        write_varint(&mut bytes, 0).unwrap(); // n_mem
        write_varint(&mut bytes, 0).unwrap(); // n_store
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
    }

    #[test]
    fn inconsistent_flag_populations_are_corrupt() {
        // One event whose flags claim a dest write, but a header that
        // promises zero dest entries.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, 1).unwrap(); // n
        write_varint(&mut bytes, 0).unwrap(); // n_dest
        write_varint(&mut bytes, 0).unwrap(); // n_mem
        write_varint(&mut bytes, 0).unwrap(); // n_store
        bytes.push(F_DEST);
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn unknown_flag_bits_are_corrupt() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, 1).unwrap();
        write_varint(&mut bytes, 0).unwrap();
        write_varint(&mut bytes, 0).unwrap();
        write_varint(&mut bytes, 0).unwrap();
        bytes.push(0x80); // undefined bit
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Corrupt { .. }), "{e}");
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

        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
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
    fn retired_formats_are_bad_magic() {
        let (_, cols) = record(SAMPLE);
        let mut bytes = encode(&cols);
        assert_eq!(&bytes[..8], MAGIC);
        for old in [b"provptr1", b"provptr2"] {
            bytes[..8].copy_from_slice(old);
            let e = read_columns(bytes.as_slice()).unwrap_err();
            assert!(matches!(e, TraceError::BadMagic), "{e}");
        }
    }

    #[test]
    fn body_bit_flip_fails_the_checksum() {
        let (_, cols) = record(SAMPLE);
        let mut bytes = encode(&cols);
        // Flip one bit in every body byte position in turn; each corrupted
        // stream must fail with a typed error, never decode silently.
        for i in 8..bytes.len() {
            bytes[i] ^= 0x10;
            let result = read_columns(bytes.as_slice());
            match result {
                Err(
                    TraceError::AbsurdLength { .. }
                    | TraceError::Truncated { .. }
                    | TraceError::Corrupt { .. },
                ) => {}
                other => panic!("flip at byte {i}: expected typed error, got {other:?}"),
            }
            bytes[i] ^= 0x10;
        }
    }

    #[test]
    fn missing_checksum_trailer_is_truncation() {
        let (_, cols) = record(SAMPLE);
        let mut bytes = encode(&cols);
        bytes.truncate(bytes.len() - 8);
        let e = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
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

    #[test]
    fn varint_round_trips_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, v).unwrap();
            assert!(bytes.len() <= 10);
            assert_eq!(read_varint(&mut bytes.as_slice(), "t").unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
