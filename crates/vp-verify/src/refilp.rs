//! The reference ILP model: one §5.3 abstract machine per replay, with its
//! own value predictor.
//!
//! [`vp_ilp::IlpLanes`] runs many machines in one pass, reads speculation
//! outcomes recorded by the fused sweep, and packs its state for speed:
//! per-PC operand records, memory rows in pages, 32-bit ready times in
//! lane-minor blocks. [`IlpAnalyzer`] keeps the model as the paper states
//! it — `u64` times, a `HashMap` of memory ready times, a [`SlidingWindow`]
//! of completions — and runs the predictor itself, so every lane must
//! report exactly its [`IlpResult`] (oracle stage 6, `tests/ilp_props.rs`).
//! Only the configuration and result types and the branch front end are
//! shared with `vp-ilp`.

use std::collections::{HashMap, VecDeque};

use vp_ilp::{BranchPredictor, IlpConfig, IlpResult};
use vp_isa::{Reg, RegClass};
use vp_predictor::ValuePredictor;
use vp_sim::{Retirement, Tracer};

/// A sliding window over instruction completion times.
///
/// Models a `capacity`-entry instruction window in a limit study:
/// instruction *i* cannot dispatch until instruction *i − capacity* has
/// completed, i.e. the dispatch lower bound is the completion cycle of the
/// instruction whose slot is being reused.
///
/// # Examples
///
/// ```
/// use vp_verify::refilp::SlidingWindow;
/// let mut w = SlidingWindow::new(2);
/// assert_eq!(w.dispatch_bound(), 0); // empty window: no constraint
/// w.push_completion(10);
/// w.push_completion(20);
/// assert_eq!(w.dispatch_bound(), 10); // next instr reuses slot of the 1st
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    completions: VecDeque<u64>,
}

impl SlidingWindow {
    /// A window with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            completions: VecDeque::with_capacity(capacity),
        }
    }

    /// The earliest cycle at which the next instruction may dispatch, given
    /// window occupancy alone.
    #[must_use]
    pub fn dispatch_bound(&self) -> u64 {
        if self.completions.len() < self.capacity {
            0
        } else {
            *self.completions.front().expect("window is full")
        }
    }

    /// Records the completion cycle of the instruction just dispatched,
    /// sliding the window forward.
    pub fn push_completion(&mut self, completion: u64) {
        if self.completions.len() == self.capacity {
            self.completions.pop_front();
        }
        self.completions.push_back(completion);
    }
}

const LATENCY: u64 = 1;

/// Replays a retirement trace through the abstract machine, computing the
/// schedule each instruction would get on the paper's §5.3 machine.
///
/// Use as a `vp-sim` [`Tracer`]; call [`IlpAnalyzer::finish`] afterwards.
///
/// # Examples
///
/// Independent instructions dispatch together (unlimited execution units):
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::IlpConfig;
/// use vp_verify::refilp::IlpAnalyzer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 1\nli r2, 2\nli r3, 3\nli r4, 4\nhalt\n")?;
/// let mut a = IlpAnalyzer::new(IlpConfig::paper_no_vp());
/// run(&p, &mut a, RunLimits::default())?;
/// assert!(a.finish().ilp() >= 4.0);
/// # Ok(())
/// # }
/// ```
pub struct IlpAnalyzer {
    config: IlpConfig,
    predictor: Option<Box<dyn ValuePredictor>>,
    branch: BranchPredictor,
    window: SlidingWindow,
    int_ready: [u64; vp_isa::reg::NUM_REGS],
    fp_ready: [u64; vp_isa::reg::NUM_REGS],
    mem_ready: HashMap<u64, u64>,
    fetch_stall_until: u64,
    branch_mispredictions: u64,
    instructions: u64,
    last_completion: u64,
}

impl IlpAnalyzer {
    /// Creates an analyzer for the given machine configuration.
    #[must_use]
    pub fn new(config: IlpConfig) -> Self {
        let predictor = config.predictor.as_ref().map(|c| c.build());
        let window = SlidingWindow::new(config.window);
        let branch = BranchPredictor::new(config.branch);
        IlpAnalyzer {
            config,
            predictor,
            branch,
            window,
            int_ready: [0; vp_isa::reg::NUM_REGS],
            fp_ready: [0; vp_isa::reg::NUM_REGS],
            mem_ready: HashMap::new(),
            fetch_stall_until: 0,
            branch_mispredictions: 0,
            instructions: 0,
            last_completion: 0,
        }
    }

    /// Conditional branches mispredicted by the configured front end
    /// (always 0 with the paper's perfect branch prediction).
    #[must_use]
    pub fn branch_mispredictions(&self) -> u64 {
        self.branch_mispredictions
    }

    /// Finishes the analysis and returns the result.
    #[must_use]
    pub fn finish(self) -> IlpResult {
        IlpResult {
            instructions: self.instructions,
            cycles: self.last_completion,
            predictor: self.predictor.map(|p| *p.stats()),
        }
    }

    fn reg_ready(&self, class: RegClass, reg: Reg) -> u64 {
        match class {
            // The hardwired zero register is always ready.
            RegClass::Int if reg.is_zero() => 0,
            RegClass::Int => self.int_ready[usize::from(reg)],
            RegClass::Fp => self.fp_ready[usize::from(reg)],
        }
    }

    fn set_reg_ready(&mut self, class: RegClass, reg: Reg, cycle: u64) {
        match class {
            RegClass::Int if reg.is_zero() => {}
            RegClass::Int => self.int_ready[usize::from(reg)] = cycle,
            RegClass::Fp => self.fp_ready[usize::from(reg)] = cycle,
        }
    }
}

impl Tracer for IlpAnalyzer {
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.instructions += 1;

        // 1. Dispatch: bounded by window occupancy and — when the perfect
        //    front end is relaxed — by pending branch-misprediction
        //    redirects.
        let dispatch = self.window.dispatch_bound().max(self.fetch_stall_until);

        // 2. Issue: operands ready. Loads additionally wait for the latest
        //    store to the same word (true memory dependence).
        let mut operands = dispatch;
        for src in ev.instr.sources().into_iter().flatten() {
            operands = operands.max(self.reg_ready(src.0, src.1));
        }
        if let Some(mem) = ev.mem {
            if !mem.store {
                if let Some(&t) = self.mem_ready.get(&mem.addr) {
                    operands = operands.max(t);
                }
            }
        }
        let completion = operands + LATENCY;

        // 3. Value prediction: collapse the output dependence if the
        //    predictor supplied a value the classifier trusted.
        if let Some((class, reg, actual)) = ev.dest {
            let ready = match &mut self.predictor {
                Some(p) => {
                    let access = p.access(ev.addr, ev.instr.directive, actual);
                    if access.speculated_correct() {
                        // Dependents read the predicted value as soon as this
                        // instruction occupies the window.
                        dispatch
                    } else if access.speculated_incorrect() {
                        completion + self.config.penalty
                    } else {
                        completion
                    }
                }
                None => completion,
            };
            self.set_reg_ready(class, reg, ready);
        }

        // 4. Memory effect.
        if let Some(mem) = ev.mem {
            if mem.store {
                self.mem_ready.insert(mem.addr, completion);
            }
        }

        // 5. Branch resolution: a mispredicted conditional branch redirects
        //    fetch once it resolves, stalling every younger dispatch.
        if let Some(taken) = ev.taken {
            if !self.branch.predict_and_update(ev.addr, taken) {
                self.branch_mispredictions += 1;
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(completion + self.config.branch_penalty);
            }
        }

        self.window.push_completion(completion);
        self.last_completion = self.last_completion.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_ilp::BranchConfig;
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    fn ilp_of(src: &str, config: IlpConfig) -> IlpResult {
        let p = assemble(src).unwrap();
        let mut a = IlpAnalyzer::new(config);
        run(&p, &mut a, RunLimits::default()).unwrap();
        a.finish()
    }

    /// A 1000-iteration serial accumulator chain: every addi depends on the
    /// previous one.
    const SERIAL_CHAIN: &str = "li r1, 0\nli r2, 1000\nli r3, 0\n\
top: addi r3, r3, 7\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    #[test]
    fn dataflow_limit_of_a_serial_chain() {
        let r = ilp_of(SERIAL_CHAIN, IlpConfig::paper_no_vp());
        // Two independent chains (r3 accumulator, r1 index) + branch:
        // 3 instructions per iteration, critical path 1 cycle per iteration.
        let ilp = r.ilp();
        assert!(ilp > 2.5 && ilp <= 3.5, "ilp = {ilp}");
    }

    #[test]
    fn window_bounds_parallelism() {
        // 400 fully independent li instructions: with unlimited execution
        // units, ILP is capped purely by the window size.
        let mut wide = String::new();
        for i in 0..400 {
            wide.push_str(&format!("li r{}, {i}\n", 1 + i % 31));
        }
        wide.push_str("halt\n");
        let big = ilp_of(&wide, IlpConfig::paper_no_vp()).ilp();
        let small = ilp_of(&wide, IlpConfig::paper_no_vp().with_window(4)).ilp();
        assert!(
            big > 3.0 * small,
            "larger window must expose more ILP ({big} vs {small})"
        );
        assert!(small <= 4.0 + 1e-9);
        assert!(big <= 40.0 + 1e-9);
    }

    #[test]
    fn value_prediction_exceeds_the_dataflow_limit() {
        // The r3 accumulator chain is perfectly stride-predictable; VP must
        // collapse it. This is the paper's headline claim.
        let base = ilp_of(SERIAL_CHAIN, IlpConfig::paper_no_vp());
        let vp = ilp_of(SERIAL_CHAIN, IlpConfig::paper_vp_fsm());
        assert!(
            vp.ilp() > base.ilp() * 1.5,
            "vp {} must clearly beat base {}",
            vp.ilp(),
            base.ilp()
        );
        let stats = vp.predictor.unwrap();
        assert!(stats.speculated_correct > 0);
    }

    #[test]
    fn store_to_load_dependence_is_honoured() {
        // A pointer-chase through memory written immediately before: the
        // load must wait for the store.
        let chase = "li r1, 0\nli r2, 500\n\
top: sd r1, 100(r1)\nld r3, 100(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let r = ilp_of(chase, IlpConfig::paper_no_vp());
        // store(c) -> load(c+1) is a 2-cycle chain per iteration, but the
        // index chain is 1/iter; ILP must reflect the memory serialisation:
        // 4 instrs per iter, ~1 cycle/iter critical path via index + window.
        assert!(r.ilp() < 5.0);
        // Sanity: dropping the store-load pair should raise ILP per cycle.
    }

    #[test]
    fn misprediction_penalty_hurts() {
        // An unpredictable chain (quadratic values) with an always-predict
        // classifier: every speculation is wrong and costs penalty cycles.
        let quad = "li r1, 0\nli r2, 1000\nli r3, 0\nli r4, 0\n\
top: addi r3, r3, 2\nadd r4, r4, r3\nmul r5, r4, r4\nadd r6, r5, r4\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
        let always = IlpConfig {
            penalty: 8,
            predictor: Some(PredictorConfig::TableStride {
                geometry: TableGeometry::SPEC_512_2WAY,
                classifier: ClassifierKind::Always,
            }),
            ..IlpConfig::paper_no_vp()
        };
        let base = ilp_of(quad, IlpConfig::paper_no_vp());
        let hurt = ilp_of(quad, always.clone());
        let gentle = ilp_of(
            quad,
            IlpConfig {
                penalty: 0,
                ..always
            },
        );
        assert!(
            hurt.ilp() < gentle.ilp(),
            "penalty must cost cycles ({} vs {})",
            hurt.ilp(),
            gentle.ilp()
        );
        // With a zero penalty, speculating everything can't be worse than
        // no VP on this code.
        assert!(gentle.ilp() >= base.ilp() * 0.99);
    }

    #[test]
    fn real_branch_prediction_costs_cycles_on_irregular_branches() {
        // Data-dependent branches on pseudo-random values: a real predictor
        // must miss some of them.
        let irregular = "li r1, 0\nli r2, 2000\nli r3, 12345\n\
top: muli r3, r3, 1103515245\naddi r3, r3, 12345\nsrli r4, r3, 16\nandi r4, r4, 1\n\
beq r4, r0, even\naddi r5, r5, 1\neven: addi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let perfect = ilp_of(irregular, IlpConfig::paper_no_vp());
        let p = assemble(irregular).unwrap();
        let mut real =
            IlpAnalyzer::new(IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8));
        run(&p, &mut real, RunLimits::default()).unwrap();
        let mispredictions = real.branch_mispredictions();
        let real = real.finish();
        assert!(
            mispredictions > 100,
            "irregular branch must miss ({mispredictions})"
        );
        assert!(
            real.ilp() < 0.8 * perfect.ilp(),
            "redirect stalls must cost ILP: {} vs perfect {}",
            real.ilp(),
            perfect.ilp()
        );
        // The loop-back branch itself is almost perfectly biased, so the
        // misprediction count stays well below the branch count.
        assert!(mispredictions < 2_500);
    }

    #[test]
    fn biased_branches_are_nearly_free_even_with_a_real_predictor() {
        let loopy = "li r1, 0\nli r2, 2000\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let perfect = ilp_of(loopy, IlpConfig::paper_no_vp());
        let p = assemble(loopy).unwrap();
        let mut real =
            IlpAnalyzer::new(IlpConfig::paper_no_vp().with_branch(BranchConfig::gshare_4k(), 8));
        run(&p, &mut real, RunLimits::default()).unwrap();
        // Warm-up only: one miss per fresh gshare history pattern.
        assert!(
            real.branch_mispredictions() < 20,
            "{}",
            real.branch_mispredictions()
        );
        let real = real.finish();
        assert!(
            real.ilp() > 0.9 * perfect.ilp(),
            "{} vs perfect {}",
            real.ilp(),
            perfect.ilp()
        );
    }

    #[test]
    fn empty_trace_finishes_cleanly() {
        let a = IlpAnalyzer::new(IlpConfig::paper_no_vp());
        let r = a.finish();
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ilp(), 0.0);
    }

    #[test]
    fn no_constraint_until_full() {
        let mut w = SlidingWindow::new(3);
        w.push_completion(5);
        w.push_completion(6);
        assert_eq!(w.dispatch_bound(), 0);
        w.push_completion(7);
        assert_eq!(w.dispatch_bound(), 5);
    }

    #[test]
    fn window_slides_in_order() {
        let mut w = SlidingWindow::new(2);
        w.push_completion(10);
        w.push_completion(4); // out-of-order completion is fine
        assert_eq!(w.dispatch_bound(), 10);
        w.push_completion(12);
        assert_eq!(w.dispatch_bound(), 4);
    }

    #[test]
    fn size_one_window_serialises() {
        let mut w = SlidingWindow::new(1);
        w.push_completion(3);
        assert_eq!(w.dispatch_bound(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }
}
