//! `gcc` analogue: a lexer / symbol-table / constant-folding pipeline.
//!
//! Streams a token array through a 48-way classification switch whose
//! handlers hash into a symbol table, fold block-specific constants and
//! maintain per-class statistics. The point of the shape is gcc's defining
//! property in the paper: a *very large* static working set of
//! value-producing instructions, far exceeding a 512-entry prediction
//! table, with predictability split between hot bookkeeping (predictable)
//! and token-dependent values (unpredictable).

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};
use vp_rng::Rng;

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = token count
const TOKS: i64 = 16; // 4096-word token stream
const SYM: i64 = TOKS + 4096; // 1024-entry symbol table
const CNT: i64 = SYM + 1024; // 64 per-class counters
const OUT: i64 = CNT + 64; // output scalars

const CLASSES: usize = 48;
const TOK_CAP: usize = 4096;
const STRUCTURE_SEED: u64 = 0x006c_c272;

/// Builds the `gcc` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("gcc");
    let mut structure = Rng::seed_from_u64(STRUCTURE_SEED);

    // ---- data ----
    b.data_word(input.size_in(1, 2_000, 3_000));
    b.data_word(CLASSES as u64); // reloaded per token
    b.data_zeroed(14);
    b.data_block(util::skewed_words(input, 2, TOK_CAP, 997));
    b.data_zeroed(1024 + 64 + 8);

    // ---- registers ----
    let n = Reg::new(1);
    let i = Reg::new(2);
    let tok = Reg::new(3);
    let cls = Reg::new(4);
    let t = Reg::new(5);
    let h = Reg::new(6);
    let e = Reg::new(7);
    let c = Reg::new(8);
    let folded = Reg::new(9);
    let t2 = Reg::new(10);
    let c48 = Reg::new(11);
    let stats = Reg::new(12);
    let tmp = Reg::new(13);

    // ---- text ----
    b.ld(n, Reg::ZERO, PARAMS);
    b.li(c48, CLASSES as i64);
    b.li(folded, 0);
    b.li(stats, 0);
    let top = util::count_loop_begin(&mut b, i);

    // Per-token pass statistics (compilers count everything): a short
    // serial chain with constant strides.
    util::predictable_chain(&mut b, stats, tmp, 4);
    b.sd(stats, Reg::ZERO, OUT + 1);

    b.ld(tok, i, TOKS);
    // The class count is a global reloaded on every token (symbol-table
    // metadata in memory): perfect last-value locality.
    b.ld(c48, Reg::ZERO, PARAMS + 1);
    b.alu_rr(Opcode::Rem, cls, tok, c48);
    let arms: Vec<_> = (0..CLASSES).map(|_| b.new_label()).collect();
    let cont = b.new_label();
    util::dispatch_ladder(&mut b, cls, t, &arms);
    b.jal(Reg::ZERO, cont); // unreachable: cls < 48 always

    for (k, &arm) in arms.iter().enumerate() {
        b.bind(arm);
        let c1: i64 = structure.gen_range(3..97);
        let c2: i64 = structure.gen_range(1..41);
        // Token-dependent symbol value (unpredictable).
        b.alu_ri(Opcode::Muli, t, tok, c1);
        b.alu_ri(Opcode::Addi, t, t, c2);
        b.alu_rr(Opcode::Xor, t, t, i);
        // Symbol-table update: read-modify-write at a token-dependent slot.
        b.alu_ri(Opcode::Andi, h, t, 1023);
        b.ld(e, h, SYM);
        b.alu_rr(Opcode::Add, e, e, t);
        b.sd(e, h, SYM);
        // Constant folding: class-specific arithmetic on the running value
        // (data-dependent chain).
        b.alu_ri(Opcode::Srai, t2, e, (k % 7 + 1) as i64);
        b.alu_rr(Opcode::Add, folded, folded, t2);
        // Per-class statistics counter in memory: perfectly strided.
        b.ld(c, Reg::ZERO, CNT + k as i64);
        b.alu_ri(Opcode::Addi, c, c, 1);
        b.sd(c, Reg::ZERO, CNT + k as i64);
        b.jal(Reg::ZERO, cont);
    }

    b.bind(cont);
    util::count_loop_end(&mut b, i, n, top);
    b.sd(folded, Reg::ZERO, OUT);
    b.halt();

    b.build()
        .expect("gcc generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn class_counters_partition_the_stream() {
        let p = build(&InputSet::train(0));
        let n = p.data()[0];
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let total: u64 = (0..CLASSES as u64)
            .map(|k| m.memory().read(CNT as u64 + k))
            .sum();
        assert_eq!(total, n, "every token must be classified exactly once");
    }

    #[test]
    fn skewed_tokens_skew_the_classes() {
        let p = build(&InputSet::train(1));
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let lo: u64 = (0..8u64).map(|k| m.memory().read(CNT as u64 + k)).sum();
        let hi: u64 = (40..48u64).map(|k| m.memory().read(CNT as u64 + k)).sum();
        assert!(lo > hi, "low classes should dominate ({lo} vs {hi})");
    }

    #[test]
    fn has_the_largest_static_working_set() {
        let p = build(&InputSet::train(0));
        let producers = p.value_producers().count();
        assert!(
            producers > 500,
            "gcc needs heavy table pressure, got {producers}"
        );
    }

    #[test]
    fn budget() {
        let s = run(
            &build(&InputSet::train(2)),
            &mut NullTracer,
            RunLimits::with_max(3_000_000),
        )
        .unwrap();
        assert!(s.halted());
        assert!(s.instructions() > 100_000, "{}", s.instructions());
    }
}
