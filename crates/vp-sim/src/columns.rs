//! Columnar (struct-of-arrays) retirement traces.
//!
//! The AoS `Vec<TraceEvent>` layout spends 56 bytes per retired
//! instruction and drags every optional field through the cache even for
//! consumers that only want one column. [`TraceColumns`] stores the same
//! information as one dense flag byte per event plus *sparse* side arrays
//! that hold payloads only for the events that have them: destination,
//! memory and store payloads, and the control flow itself.
//!
//! Program counters are not stored per event. An event's address is the
//! previous event's next pc, and its next pc is `addr + 1`, except where
//! a flag bit says otherwise: `F_SEEK` events carry their address and
//! `F_JUMP` events (taken branches, jumps) their next pc in a sparse
//! `u32` column. The pc before the first event is 0, so a capture from
//! reset never seeks. One private cursor rebuilds both program counters
//! for every reader, so there is one decoder.
//!
//! Two access paths matter:
//!
//! - [`TraceColumns::replay`] reconstructs full [`Retirement`] records for
//!   generic tracers (profilers, the ILP machine, instruction mixes);
//! - [`TraceColumns::value_events`] yields the `(addr, value)` pairs of
//!   value-producing instructions — the only thing a value predictor
//!   consumes — as [`ValueBlock`]s of at most [`VALUE_BLOCK`] events,
//!   without touching the memory columns at all. A streamed replay packs
//!   a live simulation's destination writes into the same blocks, so the
//!   fused predictor kernel reads one shape from either source.

use std::io;
use std::mem;
use std::slice;

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::exec::{MemAccess, Retirement};
use crate::record::TraceEvent;
use crate::Tracer;

// Flag bits of the per-event flag byte. `F_JUMP` and `F_SEEK` describe
// the control-flow columns.
const F_DEST: u8 = 1 << 0;
const F_DEST_FP: u8 = 1 << 1;
const F_MEM: u8 = 1 << 2;
const F_MEM_STORE: u8 = 1 << 3;
const F_BRANCH: u8 = 1 << 4;
const F_TAKEN: u8 = 1 << 5;
/// The next pc is not `addr + 1`; it is the event's `jump_pc` entry.
const F_JUMP: u8 = 1 << 6;
/// The address is not the previous event's next pc; it is the event's
/// `seek_addr` entry.
const F_SEEK: u8 = 1 << 7;

/// Appends to a column that few events reach (a capture seeks only where
/// it resumes a run), out of the recording loop's way.
#[cold]
#[inline(never)]
fn push_cold(column: &mut Vec<u32>, value: u32) {
    column.push(value);
}

const SHORT: &str = "sparse trace column shorter than its flag population";

/// Events per [`ValueBlock`]: enough for the fused predictor kernel to
/// amortise its per-block work, few enough that its per-block scratch
/// (a directive row per annotation, a code column per walk) stays in
/// cache.
pub const VALUE_BLOCK: usize = 1024;

/// At most [`VALUE_BLOCK`] value events in trace order, as two columns:
/// each event's instruction address and the value it wrote. The fused
/// predictor kernel's one input, from a resident trace
/// ([`TraceColumns::value_events`]) and a live simulation alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueBlock {
    addrs: Vec<InstrAddr>,
    values: Vec<u64>,
}

impl ValueBlock {
    /// An empty block with room for [`VALUE_BLOCK`] events.
    #[must_use]
    pub fn new() -> Self {
        ValueBlock {
            addrs: Vec::with_capacity(VALUE_BLOCK),
            values: Vec::with_capacity(VALUE_BLOCK),
        }
    }

    /// Appends one event.
    ///
    /// # Panics
    ///
    /// Panics if the block is full.
    #[inline]
    pub fn push(&mut self, addr: InstrAddr, value: u64) {
        assert!(!self.is_full(), "a value block holds {VALUE_BLOCK} events");
        self.addrs.push(addr);
        self.values.push(value);
    }

    /// Whether the block holds no event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Whether the block holds [`VALUE_BLOCK`] events.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.addrs.len() == VALUE_BLOCK
    }

    /// Each event's instruction address.
    #[must_use]
    pub fn addrs(&self) -> &[InstrAddr] {
        &self.addrs
    }

    /// Each event's written value.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The events as `(addr, value)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (InstrAddr, u64)> + '_ {
        self.addrs.iter().copied().zip(self.values.iter().copied())
    }
}

// Kept out of line so the replay loop stays as tight as the iterator.
#[cold]
fn outside_text(addr: InstrAddr) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("trace event at {addr} outside program text"),
    )
}

/// A retirement trace in struct-of-arrays form.
///
/// The dense column is a one-byte flag word per event; sparse columns
/// hold payloads only for events whose flag bit is set, in event order.
/// Program counters live in the flag byte too: only addresses that do not
/// follow from the previous event (`F_SEEK`) and next pcs other than the
/// fall-through (`F_JUMP`) are stored. Iteration reconstitutes events with
/// running cursors into the sparse columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    flags: Vec<u8>,
    /// Instruction address, one per `F_SEEK` event.
    seek_addr: Vec<u32>,
    /// Next pc, one per `F_JUMP` event.
    jump_pc: Vec<u32>,
    /// Destination register index, one per `F_DEST` event.
    dest_reg: Vec<u8>,
    /// Destination value, one per `F_DEST` event.
    dest_val: Vec<u64>,
    /// Effective address, one per `F_MEM` event.
    mem_addr: Vec<u64>,
    /// Stored value, one per `F_MEM_STORE` event.
    stored: Vec<u64>,
    /// The last event's next pc: where the next pushed event starts
    /// unless it seeks.
    tail_pc: u32,
}

impl TraceColumns {
    /// An empty column set.
    #[must_use]
    pub fn new() -> Self {
        TraceColumns::default()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Number of value-producing (destination-writing) events.
    #[must_use]
    pub fn dest_count(&self) -> usize {
        self.dest_val.len()
    }

    /// Number of memory-accessing events.
    #[must_use]
    pub fn mem_count(&self) -> usize {
        self.mem_addr.len()
    }

    /// Number of store events.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stored.len()
    }

    /// Approximate resident size in bytes (for cache accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        mem::size_of::<TraceColumns>()
            + self.flags.capacity()
            + self.seek_addr.capacity() * 4
            + self.jump_pc.capacity() * 4
            + self.dest_reg.capacity()
            + self.dest_val.capacity() * 8
            + self.mem_addr.capacity() * 8
            + self.stored.capacity() * 8
    }

    /// Releases over-allocated capacity in every column.
    pub fn shrink_to_fit(&mut self) {
        self.flags.shrink_to_fit();
        self.seek_addr.shrink_to_fit();
        self.jump_pc.shrink_to_fit();
        self.dest_reg.shrink_to_fit();
        self.dest_val.shrink_to_fit();
        self.mem_addr.shrink_to_fit();
        self.stored.shrink_to_fit();
    }

    /// Appends one retirement.
    #[inline(always)]
    pub fn push_retirement(&mut self, ev: &Retirement<'_>) {
        self.push_parts(ev.addr, ev.dest, ev.mem, ev.stored, ev.taken, ev.next_pc);
    }

    /// Appends one owned event.
    ///
    /// `stored` is kept only for store events (`mem.store == true`).
    pub fn push_event(&mut self, ev: &TraceEvent) {
        self.push_parts(ev.addr, ev.dest, ev.mem, ev.stored, ev.taken, ev.next_pc);
    }

    // Forced inline, so that a capture's run loop records an event with a
    // few stores instead of a call. Branches on the event's shape are
    // cheaper here than branch-free appends: they follow the opcode, which
    // the run loop's dispatch has just predicted.
    #[inline(always)]
    fn push_parts(
        &mut self,
        addr: InstrAddr,
        dest: Option<(RegClass, Reg, u64)>,
        mem: Option<MemAccess>,
        stored: Option<u64>,
        taken: Option<bool>,
        next_pc: InstrAddr,
    ) {
        let mut flags = self.push_control_flow(addr.index(), next_pc.index());
        if let Some((class, reg, value)) = dest {
            flags |= F_DEST;
            if class == RegClass::Fp {
                flags |= F_DEST_FP;
            }
            self.dest_reg.push(reg.index());
            self.dest_val.push(value);
        }
        if let Some(mem) = mem {
            flags |= F_MEM;
            self.mem_addr.push(mem.addr);
            if mem.store {
                flags |= F_MEM_STORE;
                self.stored.push(stored.unwrap_or(0));
            }
        }
        if let Some(taken) = taken {
            flags |= F_BRANCH;
            if taken {
                flags |= F_TAKEN;
            }
        }
        self.flags.push(flags);
    }

    /// Records one event's program counters as control-flow exceptions
    /// and returns the `F_SEEK`/`F_JUMP` bits its flag byte needs.
    #[inline(always)]
    fn push_control_flow(&mut self, addr: u32, next_pc: u32) -> u8 {
        let mut flags = 0;
        if addr != self.tail_pc {
            flags |= F_SEEK;
            push_cold(&mut self.seek_addr, addr);
        }
        if next_pc != addr.wrapping_add(1) {
            flags |= F_JUMP;
            self.jump_pc.push(next_pc);
        }
        self.tail_pc = next_pc;
        flags
    }

    /// Builds columns from an owned event slice.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut cols = TraceColumns {
            flags: Vec::with_capacity(events.len()),
            ..TraceColumns::default()
        };
        for ev in events {
            cols.push_event(ev);
        }
        cols.shrink_to_fit();
        cols
    }

    /// Iterates the trace as owned [`TraceEvent`]s (cursor-based; for
    /// conversions and tests, not for the replay hot path).
    #[must_use]
    pub fn iter(&self) -> Events<'_> {
        Events {
            flags: self.flags.iter(),
            pcs: self.pc_cursor(),
            dest_reg: self.dest_reg.iter(),
            dest_val: self.dest_val.iter(),
            mem_addr: self.mem_addr.iter(),
            stored: self.stored.iter(),
        }
    }

    /// Iterates the value-producing events — everything a value
    /// predictor consumes — as [`ValueBlock`]s: every block but the last
    /// holds exactly [`VALUE_BLOCK`] events, and a trace without value
    /// events yields none. Touches only the flag column, the sparse
    /// control-flow columns and the sparse destination values.
    #[must_use]
    pub fn value_events(&self) -> ValueEvents<'_> {
        ValueEvents {
            flags: self.flags.iter(),
            pcs: self.pc_cursor(),
            dest_val: self.dest_val.iter(),
        }
    }

    /// Replays the trace into `tracer`, reconstructing full
    /// [`Retirement`] records against `program` (which must be the program
    /// the trace was recorded from, or at least one with the same text
    /// length — directives never change architectural semantics).
    ///
    /// # Errors
    ///
    /// [`io::Error`] of kind `InvalidData` when an event's address does
    /// not name an instruction of `program`.
    pub fn replay(&self, program: &Program, tracer: &mut impl Tracer) -> io::Result<()> {
        let text = program.text();
        for ev in self.iter() {
            let Some(instr) = text.get(ev.addr.index() as usize) else {
                return Err(outside_text(ev.addr));
            };
            tracer.retire(&Retirement {
                addr: ev.addr,
                instr,
                dest: ev.dest,
                mem: ev.mem,
                stored: ev.stored,
                taken: ev.taken,
                next_pc: ev.next_pc,
            });
        }
        Ok(())
    }

    fn pc_cursor(&self) -> PcCursor<'_> {
        PcCursor {
            seek_addr: self.seek_addr.iter(),
            jump_pc: self.jump_pc.iter(),
            pc: 0,
        }
    }
}

/// The one decoder of the control-flow encoding: fed each event's flag
/// byte in order, it rebuilds the event's address and next pc.
#[derive(Debug, Clone)]
struct PcCursor<'a> {
    seek_addr: slice::Iter<'a, u32>,
    jump_pc: slice::Iter<'a, u32>,
    /// The previous event's next pc (0 before the first event).
    pc: u32,
}

impl PcCursor<'_> {
    #[inline(always)]
    fn step(&mut self, flags: u8) -> (u32, u32) {
        let addr = if flags & F_SEEK != 0 {
            *self.seek_addr.next().expect(SHORT)
        } else {
            self.pc
        };
        self.pc = if flags & F_JUMP != 0 {
            *self.jump_pc.next().expect(SHORT)
        } else {
            addr.wrapping_add(1)
        };
        (addr, self.pc)
    }
}

/// Iterator over a [`TraceColumns`] as owned [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    flags: slice::Iter<'a, u8>,
    pcs: PcCursor<'a>,
    dest_reg: slice::Iter<'a, u8>,
    dest_val: slice::Iter<'a, u64>,
    mem_addr: slice::Iter<'a, u64>,
    stored: slice::Iter<'a, u64>,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    // Forced inline: `replay` runs on this iterator, and an out-of-line
    // call per event cost it several times the decode itself.
    #[inline(always)]
    fn next(&mut self) -> Option<TraceEvent> {
        let flags = *self.flags.next()?;
        let (addr, next_pc) = self.pcs.step(flags);
        let dest = (flags & F_DEST != 0).then(|| {
            let class = if flags & F_DEST_FP != 0 {
                RegClass::Fp
            } else {
                RegClass::Int
            };
            let reg = *self.dest_reg.next().expect(SHORT);
            let value = *self.dest_val.next().expect(SHORT);
            (class, Reg::new(reg), value)
        });
        let mem = (flags & F_MEM != 0).then(|| MemAccess {
            addr: *self.mem_addr.next().expect(SHORT),
            store: flags & F_MEM_STORE != 0,
        });
        let stored = (flags & F_MEM_STORE != 0).then(|| *self.stored.next().expect(SHORT));
        let taken = (flags & F_BRANCH != 0).then_some(flags & F_TAKEN != 0);
        Some(TraceEvent {
            addr: InstrAddr::new(addr),
            dest,
            mem,
            stored,
            taken,
            next_pc: InstrAddr::new(next_pc),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.flags.size_hint()
    }
}

impl ExactSizeIterator for Events<'_> {}

/// Iterator over a trace's value-producing events, one full
/// [`ValueBlock`] at a time.
#[derive(Debug, Clone)]
pub struct ValueEvents<'a> {
    flags: slice::Iter<'a, u8>,
    pcs: PcCursor<'a>,
    dest_val: slice::Iter<'a, u64>,
}

impl Iterator for ValueEvents<'_> {
    type Item = ValueBlock;

    fn next(&mut self) -> Option<ValueBlock> {
        let mut block = ValueBlock::new();
        for &flags in self.flags.by_ref() {
            let (addr, _) = self.pcs.step(flags);
            if flags & F_DEST != 0 {
                let value = *self.dest_val.next().expect(SHORT);
                block.push(InstrAddr::new(addr), value);
                if block.is_full() {
                    break;
                }
            }
        }
        (!block.is_empty()).then_some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use crate::{run, InstrMix, RunLimits};
    use vp_isa::asm::assemble;

    const SAMPLE: &str = ".f64 1.5\nli r1, 0\nli r2, 20\n\
top: fld f1, (r0)\nfadd f2, f2, f1\nsd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    fn sample_columns() -> (vp_isa::Program, TraceColumns) {
        let p = assemble(SAMPLE).unwrap();
        let mut rec = TraceRecorder::new();
        run(&p, &mut rec, RunLimits::default()).unwrap();
        (p, rec.into_columns())
    }

    #[test]
    fn iter_round_trips_through_events() {
        let (_, cols) = sample_columns();
        let events: Vec<TraceEvent> = cols.iter().collect();
        assert_eq!(events.len(), cols.len());
        let back = TraceColumns::from_events(&events);
        assert_eq!(back, cols);
    }

    #[test]
    fn replay_matches_aos_replay() {
        let (p, cols) = sample_columns();
        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        cols.replay(&p, &mut replayed).unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_rejects_foreign_programs() {
        let (_, cols) = sample_columns();
        let other = assemble("halt\n").unwrap();
        let e = cols.replay(&other, &mut crate::NullTracer).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn value_events_are_exactly_the_dest_writes() {
        let (_, cols) = sample_columns();
        let via_iter: Vec<(InstrAddr, u64)> = cols
            .iter()
            .filter_map(|ev| ev.dest.map(|(_, _, v)| (ev.addr, v)))
            .collect();
        let mut via_values: Vec<(InstrAddr, u64)> = Vec::new();
        for block in cols.value_events() {
            via_values.extend(block.iter());
        }
        assert_eq!(via_values, via_iter);
        assert_eq!(via_values.len(), cols.dest_count());
        assert!(!via_values.is_empty());
    }

    #[test]
    fn sparse_columns_are_actually_sparse() {
        let (_, cols) = sample_columns();
        assert!(cols.dest_count() < cols.len());
        assert!(cols.mem_count() < cols.len());
        assert!(cols.store_count() <= cols.mem_count());
        // SoA resident size is far below the 56-byte AoS event.
        assert!(cols.approx_bytes() < cols.len() * mem::size_of::<TraceEvent>());
    }
}
