//! Many abstract machines in one pass over a trace.
//!
//! Table 5.2 and its ablations model several machines over the same
//! reference trace: no value prediction, VP + saturating counters, VP +
//! profiling at five thresholds, each perhaps under another penalty or
//! branch front end. [`IlpLanes`] runs them side by side. Each static
//! instruction's operands decode once per pass into a dense per-PC record;
//! each *lane* (one machine) keeps its own ready times, laid out
//! lane-minor so one event's update walks contiguous memory.
//!
//! A lane runs no predictor. Its speculation outcomes come precomputed as
//! an [`OutcomeColumn`] — one entry per value event, in trace order —
//! which the fused sweep kernel records while it replays the predictor
//! for its own statistics. The pass unpacks the columns 32 value events
//! at a time into per-block selection masks, so a value event costs the
//! predicting lanes one straight-line select, not one branch each.
//!
//! Ready times are `u32`. Every event raises the latest time by at most
//! one cycle plus one penalty, so a pass of `n` instructions never holds a
//! time above `n × (1 + largest penalty)`; [`IlpLanes::lane`] computes the
//! instruction count that keeps this under `u32::MAX`, and the pass
//! panics before it retires one instruction more.

use std::collections::HashMap;

use vp_isa::{reg::NUM_REGS, Instr, InstrAddr, Reg, RegClass};
use vp_predictor::{Outcome, OutcomeColumn, PredictorStats};
use vp_sim::{Retirement, Tracer};

use crate::branch::{BranchConfig, BranchPredictor};
use crate::{CriticalityReport, IlpConfig, IlpResult};

const LATENCY: u32 = 1;

/// Lanes per block: ready times move eight lanes at a time, as one
/// fixed-size array, so a pass over up to eight machines does one
/// straight-line update per register read or write.
const BLOCK: usize = 8;

/// One ready or completion time per lane of a block.
type Times = [u32; BLOCK];

/// Register ready-time rows: the integer file, then the FP file, then
/// [`ZERO_ROW`] and [`DISCARD_ROW`].
const REG_ROWS: usize = 2 * NUM_REGS + 2;

/// Read for an absent source and for `r0`: never written, always ready.
const ZERO_ROW: u8 = 2 * NUM_REGS as u8;

/// Written for an absent destination and for `r0`: never read.
const DISCARD_ROW: u8 = ZERO_ROW + 1;

/// One static instruction's operands as register rows.
#[derive(Debug, Clone, Copy)]
struct Operands {
    sources: [u8; 2],
    dest: u8,
}

/// A per-PC record not decoded yet (no real row is `u8::MAX`).
const UNDECODED: Operands = Operands {
    sources: [0; 2],
    dest: u8::MAX,
};

/// Value events per unpacked chunk of outcomes: one packed word of an
/// [`OutcomeColumn`] (checked in [`IlpLanes::lane`]).
const CHUNK: usize = 32;

/// One value event's outcomes over a block, ready to select a
/// destination's ready time with.
#[derive(Debug, Clone, Copy, Default)]
struct Speculation {
    /// All ones in the lanes that speculated right.
    correct: Times,
    /// The penalty in the lanes that speculated wrong, 0 elsewhere.
    late: Times,
}

/// Words per memory-row page. A power of two so address splitting is a
/// shift and a mask.
const PAGE_WORDS: usize = 1 << 12;

/// Pages reached by direct indexing (the low 1 Mi words), as in
/// `vp_sim::Memory`.
const DENSE_PAGES: usize = 256;

/// One page of memory rows: `row + 1` per stored-to word, 0 for a word
/// never stored to.
type Page = Box<[u32; PAGE_WORDS]>;

/// The `mem_ready` row of every stored-to word, in pages: the low pages
/// indexed directly, higher ones in a map.
#[derive(Debug, Default)]
struct MemRows {
    low: Vec<Option<Page>>,
    high: HashMap<u64, Page>,
    /// Rows given out. At most one per instruction, and a pass holds
    /// fewer than `u32::MAX` instructions.
    rows: u32,
}

impl MemRows {
    /// The row of `addr`, if a store has written it.
    #[inline]
    fn get(&self, addr: u64) -> Option<usize> {
        let (page, offset) = split(addr);
        let page = match usize::try_from(page) {
            Ok(p) if p < DENSE_PAGES => self.low.get(p)?.as_ref(),
            _ => self.high.get(&page),
        }?;
        page[offset].checked_sub(1).map(|row| row as usize)
    }

    /// The row of `addr`, and whether this call gave it one (rows are
    /// numbered in order of first store).
    #[inline]
    fn row_or_insert(&mut self, addr: u64) -> (usize, bool) {
        let (page, offset) = split(addr);
        let page = match usize::try_from(page) {
            Ok(p) if p < DENSE_PAGES => {
                if p >= self.low.len() {
                    self.low.resize_with(p + 1, || None);
                }
                self.low[p].get_or_insert_with(zero_page)
            }
            _ => self.high.entry(page).or_insert_with(zero_page),
        };
        let slot = &mut page[offset];
        let fresh = *slot == 0;
        if fresh {
            self.rows += 1;
            *slot = self.rows;
        }
        (*slot as usize - 1, fresh)
    }
}

fn zero_page() -> Page {
    Box::new([0; PAGE_WORDS])
}

#[inline]
fn split(addr: u64) -> (u64, usize) {
    (
        addr / PAGE_WORDS as u64,
        (addr % PAGE_WORDS as u64) as usize,
    )
}

/// A value-predicting lane's inputs: the outcome of every value event of
/// the trace, and the predictor statistics reported with its result.
#[derive(Debug, Clone, Copy)]
pub struct LaneOutcomes<'c> {
    /// One outcome per value event, in trace order.
    pub column: &'c OutcomeColumn,
    /// The statistics of the predictor replay that recorded `column`.
    pub stats: PredictorStats,
}

/// A lane that speculates on values, reading its column a chunk ahead of
/// the trace's value events.
#[derive(Debug)]
struct Predicting<'c> {
    lane: usize,
    penalty: u32,
    len: u64,
    /// The column's packed words: one per chunk.
    words: &'c [u64],
    stats: PredictorStats,
}

/// A lane with a real branch front end.
#[derive(Debug)]
struct FrontEnd {
    lane: usize,
    predictor: BranchPredictor,
    penalty: u32,
}

/// The tracked lane's critical-path attribution. Who produced a value
/// does not depend on the lane: it is the last static writer of the
/// register row, or the last static store to the memory row.
#[derive(Debug)]
struct Tracked {
    lane: usize,
    reg_writer: [Option<InstrAddr>; REG_ROWS],
    /// Indexed like `IlpLanes::mem_ready`'s rows.
    store_writer: Vec<InstrAddr>,
    structural: u64,
    /// Issues bound per producer, indexed by its address.
    by_producer: Vec<u64>,
}

/// Runs N abstract machines that share one window size over one trace.
///
/// Use as a `vp-sim` [`Tracer`]: add every lane with [`IlpLanes::lane`]
/// (and mark at most one with [`IlpLanes::track_critical_path`]) first,
/// replay the trace, then [`IlpLanes::finish`]. Lanes do not interact:
/// each lane's [`IlpResult`] is what a pass of that lane alone reports.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::{BranchConfig, IlpConfig, IlpLanes};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 0\nli r2, 50\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")?;
/// let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
/// lanes.lane(&IlpConfig::paper_no_vp(), None);
/// lanes.lane(&IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8), None);
/// run(&p, &mut lanes, RunLimits::default())?;
/// let (results, _) = lanes.finish();
///
/// // The loop-carried addi chain: one iteration per cycle.
/// assert_eq!(results[0].instructions, 103);
/// assert!(results[0].cycles >= 51);
/// // A real front end can only stall dispatch.
/// assert!(results[1].cycles >= results[0].cycles);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IlpLanes<'c> {
    window: usize,
    lanes: usize,
    /// `ceil(lanes / BLOCK)`; every per-lane row below holds this many
    /// blocks, lanes past `lanes` are inert padding.
    blocks: usize,
    /// Instructions the pass may retire before a ready time could pass
    /// `u32::MAX`.
    limit: u64,
    /// Per PC, its operands' register rows.
    operands: Vec<Operands>,
    predicting: Vec<Predicting<'c>>,
    /// Per block, the speculation of the current chunk's value events,
    /// plus a speculation-free entry at `CHUNK` for events without a
    /// value.
    speculation: Vec<[Speculation; CHUNK + 1]>,
    /// Value events retired so far.
    values: u64,
    /// The shortest outcome column's length (`u64::MAX` without a
    /// predicting lane).
    value_limit: u64,
    front_ends: Vec<FrontEnd>,
    tracked: Option<Tracked>,
    fetch_stall: Vec<Times>,
    /// `REG_ROWS` rows of ready times.
    reg_ready: Vec<Times>,
    /// `window` rows of completion times; row `head` is the oldest once
    /// the window is full (all zeros, so no bound, until then). An
    /// instruction completes after the one whose slot it takes, so the
    /// latest completion of the pass is always in the ring.
    ring: Vec<Times>,
    head: usize,
    mem_rows: MemRows,
    mem_ready: Vec<Times>,
    instructions: u64,
}

impl<'c> IlpLanes<'c> {
    /// A pass with no lanes yet, for machines with a `window`-entry
    /// instruction window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        IlpLanes {
            window,
            lanes: 0,
            blocks: 0,
            limit: u64::from(u32::MAX),
            operands: Vec::new(),
            predicting: Vec::new(),
            speculation: Vec::new(),
            values: 0,
            value_limit: u64::MAX,
            front_ends: Vec::new(),
            tracked: None,
            fetch_stall: Vec::new(),
            reg_ready: Vec::new(),
            ring: Vec::new(),
            head: 0,
            mem_rows: MemRows::default(),
            mem_ready: Vec::new(),
            instructions: 0,
        }
    }

    /// Adds a machine; its result comes back at this position in
    /// [`IlpLanes::finish`]. `outcomes` must be given exactly when
    /// `config` predicts values; `config.predictor` itself is not run.
    ///
    /// The pass holds at most `u32::MAX / (1 + p)` instructions, where
    /// `p` is the largest `penalty` or `branch_penalty` of its lanes.
    ///
    /// # Panics
    ///
    /// Panics if the pass has started, if `config.window` differs from
    /// the pass's window, or if `outcomes` is given for a machine without
    /// value prediction or missing for one with it.
    pub fn lane(&mut self, config: &IlpConfig, outcomes: Option<LaneOutcomes<'c>>) {
        assert_eq!(self.instructions, 0, "lanes must be added before the pass");
        assert_eq!(
            config.window, self.window,
            "every lane of a pass shares one window size"
        );
        assert_eq!(
            config.predictor.is_some(),
            outcomes.is_some(),
            "a lane reads outcomes exactly when it predicts values"
        );
        let step = config.penalty.max(config.branch_penalty).saturating_add(1);
        self.limit = self.limit.min(u64::from(u32::MAX) / step);
        let penalty = |cycles: u64| u32::try_from(cycles).unwrap_or(u32::MAX);
        let lane = self.lanes;
        self.lanes += 1;
        self.blocks = self.lanes.div_ceil(BLOCK);
        let rows = |n: usize| vec![[0; BLOCK]; n * self.blocks];
        self.fetch_stall = rows(1);
        self.reg_ready = rows(REG_ROWS);
        self.ring = rows(self.window);
        self.speculation
            .resize(self.blocks, [Speculation::default(); CHUNK + 1]);
        if let Some(outcomes) = outcomes {
            assert_eq!(
                outcomes.column.words().len(),
                outcomes.column.len().div_ceil(CHUNK),
                "an outcome column packs one chunk per word"
            );
            let len = outcomes.column.len() as u64;
            self.value_limit = self.value_limit.min(len);
            self.predicting.push(Predicting {
                lane,
                penalty: penalty(config.penalty),
                len,
                words: outcomes.column.words(),
                stats: outcomes.stats,
            });
        }
        if config.branch != BranchConfig::Perfect {
            self.front_ends.push(FrontEnd {
                lane,
                predictor: BranchPredictor::new(config.branch),
                penalty: penalty(config.branch_penalty),
            });
        }
    }

    /// Tracks the critical path of `lane`, replacing any lane tracked
    /// before. Each issue is charged to the input ready last, ties going
    /// to the first of: window and fetch (structural), register sources,
    /// a load's last same-word store; a data input to its static writer.
    ///
    /// # Panics
    ///
    /// Panics if the pass has started or `lane` has not been added.
    pub fn track_critical_path(&mut self, lane: usize) {
        assert!(
            self.instructions == 0 && lane < self.lanes,
            "track an added lane before the pass"
        );
        self.tracked = Some(Tracked {
            lane,
            reg_writer: [None; REG_ROWS],
            store_writer: Vec::new(),
            structural: 0,
            by_producer: Vec::new(),
        });
    }

    /// Finishes the pass and returns one result per lane, in lane order,
    /// with the tracked lane's report if a lane was tracked.
    ///
    /// # Panics
    ///
    /// Panics if a lane's outcome column holds more outcomes than the
    /// trace had value events (a column recorded from another trace; one
    /// with fewer panics during the pass, at the first value event it
    /// lacks).
    #[must_use]
    pub fn finish(self) -> (Vec<IlpResult>, Option<CriticalityReport>) {
        let mut results: Vec<IlpResult> = (0..self.lanes)
            .map(|lane| {
                let (b, l) = (lane / BLOCK, lane % BLOCK);
                let slots = self.ring.iter().skip(b).step_by(self.blocks);
                IlpResult {
                    instructions: self.instructions,
                    cycles: slots.map(|times| u64::from(times[l])).max().unwrap_or(0),
                    predictor: None,
                }
            })
            .collect();
        for p in &self.predicting {
            assert_eq!(
                p.len, self.values,
                "outcome column longer than the trace's value events"
            );
            results[p.lane].predictor = Some(p.stats);
        }
        let report = self.tracked.map(|t| CriticalityReport {
            instructions: self.instructions,
            structural: t.structural,
            by_producer: t
                .by_producer
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(pc, &n)| (InstrAddr::new(pc as u32), n))
                .collect(),
        });
        (results, report)
    }

    /// Decodes the instruction at `pc`, which writes `dest`, the first
    /// time it retires. (It takes the event's parts, not the event, so
    /// the inlined step need not build the event in memory.)
    #[cold]
    #[inline(never)]
    fn decode(&mut self, pc: usize, instr: &Instr, dest: Option<(RegClass, Reg)>) -> Operands {
        let operands = Operands {
            sources: instr
                .sources()
                .map(|src| src.map_or(ZERO_ROW, |(class, reg)| reg_row(class, reg, ZERO_ROW))),
            dest: dest.map_or(DISCARD_ROW, |(class, reg)| reg_row(class, reg, DISCARD_ROW)),
        };
        if pc >= self.operands.len() {
            self.operands.resize(pc + 1, UNDECODED);
        }
        self.operands[pc] = operands;
        operands
    }

    /// Claims the next value event's slot of the chunk, unpacking
    /// the next chunk of every predicting lane's column when it starts.
    #[inline]
    fn next_value(&mut self) -> usize {
        if self.values >= self.value_limit {
            column_exhausted();
        }
        let slot = (self.values % CHUNK as u64) as usize;
        if slot == 0 && !self.predicting.is_empty() {
            self.unpack_chunk();
        }
        self.values += 1;
        slot
    }

    /// Unpacks chunk `values / CHUNK` of every predicting lane's column
    /// into its lane of the chunk's speculation, branch-free: outcomes
    /// follow no pattern. The other lanes stay speculation-free.
    fn unpack_chunk(&mut self) {
        let chunk = (self.values / CHUNK as u64) as usize;
        for p in &self.predicting {
            let (block, l) = (&mut self.speculation[p.lane / BLOCK], p.lane % BLOCK);
            // In range: chunks start only below the shortest column.
            let mut word = p.words[chunk];
            for speculation in &mut block[..CHUNK] {
                let code = word & 0b11;
                let correct = u32::from(code == Outcome::Correct as u64);
                let incorrect = u32::from(code == Outcome::Incorrect as u64);
                speculation.correct[l] = 0u32.wrapping_sub(correct);
                speculation.late[l] = p.penalty & 0u32.wrapping_sub(incorrect);
                word >>= 2;
            }
        }
    }

    /// Panics: the next instruction could push a ready time past
    /// `u32::MAX`.
    #[cold]
    #[inline(never)]
    fn past_the_limit(&self) -> ! {
        panic!(
            "an ILP lane pass holds at most {} instructions (u32::MAX / (1 + its largest \
             penalty)): past that its 32-bit ready times could wrap",
            self.limit
        )
    }
}

#[cold]
#[inline(never)]
fn column_exhausted() -> ! {
    panic!("outcome column shorter than the trace's value events")
}

/// The register-file row of a source or destination; the hardwired zero
/// register takes `zero` (always ready as a source, never read as a
/// destination).
fn reg_row(class: RegClass, reg: Reg, zero: u8) -> u8 {
    let index = u8::try_from(usize::from(reg)).expect("register index fits a row");
    match class {
        RegClass::Int if reg.is_zero() => zero,
        RegClass::Int => index,
        RegClass::Fp => NUM_REGS as u8 + index,
    }
}

#[inline]
fn max_into(acc: &mut Times, other: &Times) {
    for (a, &o) in acc.iter_mut().zip(other) {
        *a = (*a).max(o);
    }
}

impl Tracer for IlpLanes<'_> {
    #[inline]
    fn retire(&mut self, ev: &Retirement<'_>) {
        if self.instructions >= self.limit {
            self.past_the_limit();
        }
        self.instructions += 1;
        let blocks = self.blocks;

        // Decode once per static instruction for every lane.
        let pc = ev.addr.index() as usize;
        let operands = match self.operands.get(pc) {
            Some(&operands) if operands.dest != UNDECODED.dest => operands,
            _ => self.decode(pc, ev.instr, ev.dest.map(|(class, reg, _)| (class, reg))),
        };
        let (load, store) = match ev.mem {
            Some(mem) if mem.store => {
                let (row, fresh) = self.mem_rows.row_or_insert(mem.addr);
                if fresh {
                    self.mem_ready.resize((row + 1) * blocks, [0; BLOCK]);
                }
                (None, Some(row))
            }
            Some(mem) => (self.mem_rows.get(mem.addr), None),
            None => (None, None),
        };
        let slot = if ev.dest.is_some() {
            self.next_value()
        } else {
            CHUNK
        };
        let oldest = self.head * blocks;

        // 0. Critical path: attribute the tracked lane's issue before
        //    this event's destination and store overwrite its inputs.
        if let Some(t) = &mut self.tracked {
            let (b, l) = (t.lane / BLOCK, t.lane % BLOCK);
            let mut bound = self.fetch_stall[b][l].max(self.ring[oldest + b][l]);
            let mut producer = None;
            for row in operands.sources.map(usize::from) {
                let ready = self.reg_ready[row * blocks + b][l];
                if ready > bound {
                    bound = ready;
                    producer = t.reg_writer[row];
                }
            }
            if let Some(row) = load {
                if self.mem_ready[row * blocks + b][l] > bound {
                    producer = Some(t.store_writer[row]);
                }
            }
            match producer {
                Some(addr) => {
                    let i = addr.index() as usize;
                    if i >= t.by_producer.len() {
                        t.by_producer.resize(i + 1, 0);
                    }
                    t.by_producer[i] += 1;
                }
                None => t.structural += 1,
            }
            t.reg_writer[usize::from(operands.dest)] = Some(ev.addr);
            if let Some(row) = store {
                if row == t.store_writer.len() {
                    t.store_writer.push(ev.addr);
                } else {
                    t.store_writer[row] = ev.addr;
                }
            }
        }

        let [src1, src2] = operands.sources.map(usize::from);
        let dest = usize::from(operands.dest);
        for b in 0..blocks {
            // 1. Dispatch: window occupancy and fetch redirects.
            let mut dispatch = self.fetch_stall[b];
            max_into(&mut dispatch, &self.ring[oldest + b]);
            // 2. Issue: register sources, then a load's last same-word
            //    store; unit latency.
            let mut completion = dispatch;
            max_into(&mut completion, &self.reg_ready[src1 * blocks + b]);
            max_into(&mut completion, &self.reg_ready[src2 * blocks + b]);
            if let Some(row) = load {
                max_into(&mut completion, &self.mem_ready[row * blocks + b]);
            }
            for c in &mut completion {
                *c += LATENCY;
            }
            // 3. Destination: a correct speculation makes it ready at
            //    dispatch, a wrong one a penalty past completion, none
            //    at completion. The window slides: this instruction
            //    takes the oldest slot.
            let Speculation { correct, late } = &self.speculation[b][slot];
            let mut ready = completion;
            for l in 0..BLOCK {
                ready[l] = (dispatch[l] & correct[l]) | ((completion[l] + late[l]) & !correct[l]);
            }
            self.reg_ready[dest * blocks + b] = ready;
            self.ring[oldest + b] = completion;
            // 4. A store makes its word ready at completion.
            if let Some(row) = store {
                self.mem_ready[row * blocks + b] = completion;
            }
        }

        // 5. Branch resolution: a mispredicted conditional branch
        //    redirects fetch once it resolves.
        if let Some(taken) = ev.taken {
            for front in &mut self.front_ends {
                if !front.predictor.predict_and_update(ev.addr, taken) {
                    let (b, l) = (front.lane / BLOCK, front.lane % BLOCK);
                    let resolved = self.ring[oldest + b][l] + front.penalty;
                    let stall = &mut self.fetch_stall[b][l];
                    *stall = (*stall).max(resolved);
                }
            }
        }

        self.head += 1;
        if self.head == self.window {
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    #[test]
    #[should_panic(expected = "one window size")]
    fn lanes_share_one_window() {
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_no_vp().with_window(8), None);
    }

    #[test]
    #[should_panic(expected = "exactly when it predicts")]
    fn a_predicting_lane_needs_outcomes() {
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_vp_fsm(), None);
    }

    #[test]
    #[should_panic(expected = "outcome column longer")]
    fn a_foreign_column_is_rejected() {
        let p = assemble("li r1, 1\nli r2, 2\nhalt\n").unwrap();
        let mut column = OutcomeColumn::new();
        for _ in 0..3 {
            column.push(Outcome::None);
        }
        let mut lanes = IlpLanes::new(40);
        lanes.lane(
            &IlpConfig::paper_vp_fsm(),
            Some(LaneOutcomes {
                column: &column,
                stats: PredictorStats::default(),
            }),
        );
        run(&p, &mut lanes, RunLimits::default()).unwrap();
        let _ = lanes.finish();
    }

    /// 103 instructions at penalty `u32::MAX / 103`: instructions × (1 +
    /// penalty) passes `u32::MAX`, so the pass stops before its last
    /// instruction, naming its limit.
    #[test]
    #[should_panic(expected = "holds at most 102 instructions")]
    fn a_pass_past_its_32_bit_limit_panics() {
        let p =
            assemble("li r1, 0\nli r2, 50\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n").unwrap();
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_no_vp(), None);
        lanes.lane(
            &IlpConfig::paper_no_vp().with_penalty(u64::from(u32::MAX) / 103),
            None,
        );
        run(&p, &mut lanes, RunLimits::default()).unwrap();
    }

    #[test]
    #[should_panic(expected = "an added lane")]
    fn only_an_added_lane_is_tracked() {
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_no_vp(), None);
        lanes.track_critical_path(1);
    }

    /// (`vp-verify`'s `tests/ilp_props.rs` checks both passes against
    /// the reference model.)
    #[test]
    fn tracking_leaves_the_no_vp_cycles_alone() {
        let p = assemble(
            "li r1, 0\nli r2, 300\ntop: sd r1, 7(r0)\nld r3, 7(r0)\nadd r4, r3, r1\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let no_vp = IlpConfig::paper_no_vp();
        let mut tracked = IlpLanes::new(40);
        tracked.lane(&no_vp, None);
        tracked.track_critical_path(0);
        let mut untracked = IlpLanes::new(40);
        untracked.lane(&no_vp, None);
        let mut both = vp_sim::ChainTracer::new(&mut tracked, &mut untracked);
        run(&p, &mut both, RunLimits::default()).unwrap();
        let (with, report) = tracked.finish();
        let (without, none) = untracked.finish();
        assert!(report.is_some() && none.is_none());
        assert_eq!(with[0].cycles, without[0].cycles);
    }
}
