//! Many abstract machines in one pass over a trace.
//!
//! Table 5.2 and its ablations model several machines over the same
//! reference trace: no value prediction, VP + saturating counters, VP +
//! profiling at five thresholds, each perhaps under another penalty or
//! branch front end. [`IlpLanes`] runs them side by side. Sources, memory
//! address and destination decode once per retired instruction; each
//! *lane* (one machine) keeps its own ready times, laid out lane-minor so
//! one event's update walks contiguous memory.
//!
//! A lane runs no predictor. Its speculation outcomes come precomputed as
//! an [`OutcomeColumn`] — one entry per value event, in trace order —
//! which the fused sweep kernel records while it replays the predictor
//! for its own statistics. [`crate::IlpAnalyzer`], which runs its own
//! predictor, is the reference the lanes are checked against.

use std::collections::HashMap;

use vp_isa::{reg::NUM_REGS, InstrAddr, RegClass};
use vp_predictor::{outcome::Outcomes, Outcome, OutcomeColumn, PredictorStats};
use vp_sim::{Retirement, Tracer};

use crate::branch::{BranchConfig, BranchPredictor};
use crate::{CriticalityReport, IlpConfig, IlpResult};

const LATENCY: u64 = 1;

/// Lanes per block: ready times move eight lanes at a time, as one
/// fixed-size array, so a pass over up to eight machines does one
/// straight-line update per register read or write.
const BLOCK: usize = 8;

/// One ready or completion time per lane of a block.
type Times = [u64; BLOCK];

/// Register ready-time rows: the integer file, then the FP file.
const REG_ROWS: usize = 2 * NUM_REGS;

/// A value-predicting lane's inputs: the outcome of every value event of
/// the trace, and the predictor statistics reported with its result.
#[derive(Debug, Clone, Copy)]
pub struct LaneOutcomes<'c> {
    /// One outcome per value event, in trace order.
    pub column: &'c OutcomeColumn,
    /// The statistics of the predictor replay that recorded `column`.
    pub stats: PredictorStats,
}

/// A lane that speculates on values, reading its column in step with
/// the trace's value events.
#[derive(Debug)]
struct Predicting<'c> {
    lane: usize,
    penalty: u64,
    next: Outcomes<'c>,
    stats: PredictorStats,
}

/// A lane with a real branch front end.
#[derive(Debug)]
struct FrontEnd {
    lane: usize,
    predictor: BranchPredictor,
    penalty: u64,
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
    report: CriticalityReport,
}

/// Runs N abstract machines that share one window size over one trace.
///
/// Use as a `vp-sim` [`Tracer`]: add every lane with [`IlpLanes::lane`]
/// (and mark at most one with [`IlpLanes::track_critical_path`]) first,
/// replay the trace, then [`IlpLanes::finish`]. Each lane's
/// [`IlpResult`] equals what an [`crate::IlpAnalyzer`] with the same
/// configuration would report, given outcomes recorded by the same
/// predictor over the same trace.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::{BranchConfig, IlpAnalyzer, IlpConfig, IlpLanes};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 0\nli r2, 50\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")?;
/// let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
/// lanes.lane(&IlpConfig::paper_no_vp(), None);
/// lanes.lane(&IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8), None);
/// run(&p, &mut lanes, RunLimits::default())?;
/// let (results, _) = lanes.finish();
///
/// let mut alone = IlpAnalyzer::new(IlpConfig::paper_no_vp());
/// run(&p, &mut alone, RunLimits::default())?;
/// assert_eq!(results[0].cycles, alone.finish().cycles);
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
    predicting: Vec<Predicting<'c>>,
    front_ends: Vec<FrontEnd>,
    tracked: Option<Tracked>,
    fetch_stall: Vec<Times>,
    last_completion: Vec<Times>,
    /// `REG_ROWS` rows of ready times.
    reg_ready: Vec<Times>,
    /// `window` rows of completion times; row `head` is the oldest once
    /// the window is full.
    ring: Vec<Times>,
    head: usize,
    /// Per stored-to word: its row of `mem_ready`.
    mem_row: HashMap<u64, usize>,
    mem_ready: Vec<Times>,
    /// This event's dispatch and completion times.
    dispatch: Vec<Times>,
    completion: Vec<Times>,
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
            predicting: Vec::new(),
            front_ends: Vec::new(),
            tracked: None,
            fetch_stall: Vec::new(),
            last_completion: Vec::new(),
            reg_ready: Vec::new(),
            ring: Vec::new(),
            head: 0,
            mem_row: HashMap::new(),
            mem_ready: Vec::new(),
            dispatch: Vec::new(),
            completion: Vec::new(),
            instructions: 0,
        }
    }

    /// Adds a machine; its result comes back at this position in
    /// [`IlpLanes::finish`]. `outcomes` must be given exactly when
    /// `config` predicts values; `config.predictor` itself is not run.
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
        let lane = self.lanes;
        if let Some(outcomes) = outcomes {
            self.predicting.push(Predicting {
                lane,
                penalty: config.penalty,
                next: outcomes.column.iter(),
                stats: outcomes.stats,
            });
        }
        if config.branch != BranchConfig::Perfect {
            self.front_ends.push(FrontEnd {
                lane,
                predictor: BranchPredictor::new(config.branch),
                penalty: config.branch_penalty,
            });
        }
        self.lanes += 1;
        self.blocks = self.lanes.div_ceil(BLOCK);
        let rows = |n: usize| vec![[0; BLOCK]; n * self.blocks];
        self.fetch_stall = rows(1);
        self.last_completion = rows(1);
        self.dispatch = rows(1);
        self.completion = rows(1);
        self.reg_ready = rows(REG_ROWS);
        self.ring = rows(self.window);
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
            report: CriticalityReport::default(),
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
            .map(|lane| IlpResult {
                instructions: self.instructions,
                cycles: self.last_completion[lane / BLOCK][lane % BLOCK],
                predictor: None,
            })
            .collect();
        for p in &self.predicting {
            assert_eq!(
                p.next.len(),
                0,
                "outcome column longer than the trace's value events"
            );
            results[p.lane].predictor = Some(p.stats);
        }
        let report = self.tracked.map(|t| CriticalityReport {
            instructions: self.instructions,
            ..t.report
        });
        (results, report)
    }
}

/// The register-file row of a source or destination, or `None` for the
/// hardwired zero register (always ready, never written).
#[inline]
fn reg_row(class: RegClass, reg: vp_isa::Reg) -> Option<usize> {
    match class {
        RegClass::Int if reg.is_zero() => None,
        RegClass::Int => Some(usize::from(reg)),
        RegClass::Fp => Some(NUM_REGS + usize::from(reg)),
    }
}

#[inline]
fn max_into(acc: &mut Times, other: &Times) {
    for (a, &o) in acc.iter_mut().zip(other) {
        *a = (*a).max(o);
    }
}

impl Tracer for IlpLanes<'_> {
    fn retire(&mut self, ev: &Retirement<'_>) {
        let blocks = self.blocks;
        let full = self.instructions >= self.window as u64;
        self.instructions += 1;

        // Decode once for every lane.
        let sources = ev
            .instr
            .sources()
            .map(|src| src.and_then(|(class, reg)| reg_row(class, reg)));
        let load = match ev.mem {
            Some(mem) if !mem.store => self.mem_row.get(&mem.addr).copied(),
            _ => None,
        };
        let dest = ev.dest.and_then(|(class, reg, _)| reg_row(class, reg));
        let oldest = self.head * blocks;

        // 0. Critical path: attribute the tracked lane's issue before
        //    this event's destination and store overwrite its inputs.
        if let Some(t) = &mut self.tracked {
            let (b, l) = (t.lane / BLOCK, t.lane % BLOCK);
            let mut bound = self.fetch_stall[b][l];
            if full {
                bound = bound.max(self.ring[oldest + b][l]);
            }
            let mut producer = None;
            for &row in sources.iter().flatten() {
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
                Some(addr) => *t.report.by_producer.entry(addr).or_insert(0) += 1,
                None => t.report.structural += 1,
            }
            if let Some(row) = dest {
                t.reg_writer[row] = Some(ev.addr);
            }
            if let Some(mem) = ev.mem.filter(|mem| mem.store) {
                match self.mem_row.get(&mem.addr) {
                    Some(&row) => t.store_writer[row] = ev.addr,
                    None => t.store_writer.push(ev.addr),
                }
            }
        }

        for b in 0..blocks {
            // 1. Dispatch: window occupancy and fetch redirects.
            let mut dispatch = self.fetch_stall[b];
            if full {
                max_into(&mut dispatch, &self.ring[oldest + b]);
            }
            // 2. Issue: register sources, then a load's last same-word
            //    store; unit latency.
            let mut completion = dispatch;
            for &row in sources.iter().flatten() {
                max_into(&mut completion, &self.reg_ready[row * blocks + b]);
            }
            if let Some(row) = load {
                max_into(&mut completion, &self.mem_ready[row * blocks + b]);
            }
            for c in &mut completion {
                *c += LATENCY;
            }
            // 3. Destination ready at completion (value prediction below),
            //    and the window slides: this instruction takes the oldest
            //    slot.
            if let Some(row) = dest {
                self.reg_ready[row * blocks + b] = completion;
            }
            self.ring[oldest + b] = completion;
            max_into(&mut self.last_completion[b], &completion);
            self.dispatch[b] = dispatch;
            self.completion[b] = completion;
        }

        // 3b. Value prediction: a correct speculation makes the
        //     destination ready at dispatch, a wrong one a penalty past
        //     completion.
        if ev.dest.is_some() {
            for p in &mut self.predicting {
                let outcome = p
                    .next
                    .next()
                    .expect("outcome column shorter than the trace's value events");
                let Some(row) = dest else { continue };
                let (b, l) = (p.lane / BLOCK, p.lane % BLOCK);
                let ready = &mut self.reg_ready[row * blocks + b][l];
                match outcome {
                    Outcome::Correct => *ready = self.dispatch[b][l],
                    Outcome::Incorrect => *ready += p.penalty,
                    Outcome::None => {}
                }
            }
        }

        // 4. A store makes its word ready at completion.
        if let Some(mem) = ev.mem {
            if mem.store {
                let next = self.mem_row.len();
                let row = *self.mem_row.entry(mem.addr).or_insert(next);
                if row == next {
                    self.mem_ready.extend_from_slice(&self.completion);
                } else {
                    self.mem_ready[row * blocks..(row + 1) * blocks]
                        .copy_from_slice(&self.completion);
                }
            }
        }

        // 5. Branch resolution: a mispredicted conditional branch
        //    redirects fetch once it resolves.
        if let Some(taken) = ev.taken {
            for front in &mut self.front_ends {
                if !front.predictor.predict_and_update(ev.addr, taken) {
                    let (b, l) = (front.lane / BLOCK, front.lane % BLOCK);
                    let stall = &mut self.fetch_stall[b][l];
                    *stall = (*stall).max(self.completion[b][l] + front.penalty);
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

    #[test]
    #[should_panic(expected = "an added lane")]
    fn only_an_added_lane_is_tracked() {
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_no_vp(), None);
        lanes.track_critical_path(1);
    }

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
        let mut reference = crate::IlpAnalyzer::new(no_vp);
        let mut all = vp_sim::ChainTracer::new(
            &mut tracked,
            vp_sim::ChainTracer::new(&mut untracked, &mut reference),
        );
        run(&p, &mut all, RunLimits::default()).unwrap();
        let (with, report) = tracked.finish();
        let (without, none) = untracked.finish();
        assert!(report.is_some() && none.is_none());
        assert_eq!(with[0].cycles, without[0].cycles);
        assert_eq!(with[0].cycles, reference.finish().cycles);
    }
}
