//! `m88ksim` analogue: a guest-CPU interpreter.
//!
//! Interprets a tiny fixed guest program (a count-down loop) over per-input
//! guest memory, with the per-dispatch bookkeeping (simulated clock,
//! per-opcode statistics) a CPU simulator carries. The bookkeeping forms a
//! long *serial but perfectly stride-predictable* dependence chain — the
//! structural reason the real m88ksim shows the paper's largest ILP gain
//! from value prediction — and the static instruction working set is tiny,
//! so hardware classification suffers no table pressure here.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const GPROG: i64 = 16; // guest program: 2 words per guest instruction
const GMEM: i64 = 64; // guest data memory
const STATS: i64 = 96; // simulator statistics block

// Guest opcodes.
const G_HALT: u64 = 0;
const G_SUBC: u64 = 1; // acc -= arg
const G_BNZ: u64 = 2; // if acc != 0 { gpc = arg }
const G_LOAD: u64 = 5; // acc = gmem[arg]

/// Builds the `m88ksim` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("m88ksim");

    // ---- data ----
    b.data_zeroed(GPROG as usize);
    // Fixed guest program: acc = gmem[1]; do { acc -= 1 } while (acc != 0).
    let guest: [(u64, u64); 4] = [(G_LOAD, 1), (G_SUBC, 1), (G_BNZ, 1), (G_HALT, 0)];
    for (op, arg) in guest {
        b.data_word(op);
        b.data_word(arg);
    }
    b.data_zeroed((GMEM - b.data_len() as i64) as usize);
    // Guest memory: cell 1 holds the per-input iteration count.
    b.data_word(0);
    b.data_word(input.size_in(1, 3_000, 4_500));
    b.data_zeroed((STATS - b.data_len() as i64) as usize + 8);

    // ---- registers ----
    let gpc = Reg::new(1);
    let op = Reg::new(2);
    let arg = Reg::new(3);
    let acc = Reg::new(4);
    let clk = Reg::new(5);
    let tmp = Reg::new(6);
    let t2 = Reg::new(7);
    let cnt_sub = Reg::new(8);
    let cnt_bnz = Reg::new(9);
    let cnt_load = Reg::new(10);
    let book = Reg::new(11);

    // ---- text ----
    b.li(gpc, 0);
    b.li(clk, 0);
    b.li(book, 0);
    let loop_top = b.bind_new_label();

    // Fetch.
    b.alu_ri(Opcode::Slli, t2, gpc, 1);
    b.ld(op, t2, GPROG);
    b.ld(arg, t2, GPROG + 1);

    // Per-dispatch bookkeeping: simulated clock plus a serial statistics
    // chain. Every value here advances by a fixed amount per dispatch.
    b.alu_ri(Opcode::Addi, clk, clk, 1);
    util::predictable_chain(&mut b, book, tmp, 6);
    b.sd(book, Reg::ZERO, STATS);
    b.sd(clk, Reg::ZERO, STATS + 1);

    // Decode ladder.
    let h_halt = b.new_label();
    let h_subc = b.new_label();
    let h_bnz = b.new_label();
    let h_load = b.new_label();
    let adv = b.new_label();
    util::dispatch_ladder(&mut b, op, t2, &[h_halt, h_subc, h_bnz]);
    b.li(t2, G_LOAD as i64);
    b.br(Opcode::Beq, op, t2, h_load);
    b.jal(Reg::ZERO, adv); // unknown opcode: skip

    // Execute.
    b.bind(h_subc);
    b.alu_rr(Opcode::Sub, acc, acc, arg);
    b.alu_ri(Opcode::Addi, cnt_sub, cnt_sub, 1);
    b.jal(Reg::ZERO, adv);

    b.bind(h_bnz);
    b.alu_ri(Opcode::Addi, cnt_bnz, cnt_bnz, 1);
    b.br(Opcode::Beq, acc, Reg::ZERO, adv); // fall through when acc == 0
    b.mv(gpc, arg);
    b.jal(Reg::ZERO, loop_top);

    b.bind(h_load);
    b.ld(acc, arg, GMEM);
    b.alu_ri(Opcode::Addi, cnt_load, cnt_load, 1);
    b.jal(Reg::ZERO, adv);

    b.bind(adv);
    b.alu_ri(Opcode::Addi, gpc, gpc, 1);
    b.jal(Reg::ZERO, loop_top);

    b.bind(h_halt);
    b.sd(cnt_sub, Reg::ZERO, STATS + 2);
    b.sd(cnt_bnz, Reg::ZERO, STATS + 3);
    b.sd(cnt_load, Reg::ZERO, STATS + 4);
    b.halt();

    b.build()
        .expect("m88ksim generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    fn finish(input: &InputSet) -> (Program, Machine) {
        let p = build(input);
        let mut m = Machine::for_program(&p);
        let s = vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert!(s.halted(), "guest interpreter must reach HALTG");
        (p, m)
    }

    #[test]
    fn guest_loop_executes_n_iterations() {
        let input = InputSet::train(0);
        let (p, m) = finish(&input);
        let n = p.data()[GMEM as usize + 1];
        // One SUBC and one BNZ per guest iteration, one LOAD at startup.
        assert_eq!(m.memory().read(STATS as u64 + 2), n);
        assert_eq!(m.memory().read(STATS as u64 + 3), n);
        assert_eq!(m.memory().read(STATS as u64 + 4), 1);
    }

    #[test]
    fn simulated_clock_counts_dispatches() {
        let (p, m) = finish(&InputSet::train(1));
        let n = p.data()[GMEM as usize + 1];
        // Dispatches: 1 LOAD + n SUBC + n BNZ + 1 HALTG.
        assert_eq!(m.memory().read(STATS as u64 + 1), 2 * n + 2);
    }

    #[test]
    fn host_instruction_budget_is_moderate() {
        let s = run(
            &build(&InputSet::train(2)),
            &mut NullTracer,
            RunLimits::with_max(3_000_000),
        )
        .unwrap();
        assert!(
            s.instructions() > 100_000 && s.instructions() < 400_000,
            "{}",
            s.instructions()
        );
    }

    #[test]
    fn static_working_set_is_small() {
        let p = build(&InputSet::train(0));
        assert!(
            p.len() < 64,
            "m88ksim must stay a small hot loop ({})",
            p.len()
        );
    }
}
