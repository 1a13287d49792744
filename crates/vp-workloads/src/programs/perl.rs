//! `perl` analogue: a string-hashing script interpreter.
//!
//! A script of opcodes dispatches to 36 distinct string builtins, each of
//! which scans a string from a shared pool (two characters per unrolled
//! step), folds a 31x+c hash, and updates a hash-table bucket. The hash
//! chains are data-dependent; loop indices, string base computations and
//! bucket bookkeeping are predictable — perl's middle-of-the-road profile
//! in the paper, with a biggish static working set.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = script length
const STRS: i64 = 16; // 16 strings x 32 chars
const SCRIPT: i64 = STRS + 512; // 1024 script ops
const HTAB: i64 = SCRIPT + 1024; // 512 hash buckets
const OUT: i64 = HTAB + 512;

const HANDLERS: usize = 36;
const STR_LEN: i64 = 32;

/// Builds the `perl` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("perl");

    // ---- data ----
    b.data_word(input.size_in(1, 400, 700));
    b.data_word(HANDLERS as u64); // reloaded per op
    b.data_word(STR_LEN as u64); // reloaded per scan step
    b.data_zeroed(13);
    // String pool: like real text, one character class dominates (~70%
    // of characters are lowercase letters in the same band), the rest are
    // spread across the printable range.
    {
        let mut rng = input.rng(2);
        let chars: Vec<u64> = (0..512)
            .map(|_| {
                if rng.gen_bool(0.78) {
                    101
                } else {
                    rng.gen_range(32..128)
                }
            })
            .collect();
        b.data_block(chars);
    }
    // Script ops encode (handler, string) as `handler + 36 * string`.
    // Handlers are uniform; string selection is skewed — scripts hash the
    // same few keys over and over, so rehashing repeats whole value chains.
    let handlers = util::random_words(input, 3, 1024, 0, HANDLERS as u64);
    let sids = util::skewed_words(input, 4, 1024, 16);
    b.data_block(
        handlers
            .iter()
            .zip(&sids)
            .map(|(&h, &s)| h + HANDLERS as u64 * s),
    );
    b.data_zeroed(512 + 8);

    // ---- registers ----
    let n = Reg::new(1);
    let i = Reg::new(2);
    let opw = Reg::new(3);
    let hnd = Reg::new(4);
    let sid = Reg::new(5);
    let sbase = Reg::new(6);
    let j = Reg::new(7);
    let ch = Reg::new(8);
    let acc = Reg::new(9);
    let t = Reg::new(10);
    let hidx = Reg::new(11);
    let hv = Reg::new(12);
    let ch36 = Reg::new(13);
    let c32 = Reg::new(14);

    // ---- text ----
    b.ld(n, Reg::ZERO, PARAMS);
    b.li(ch36, HANDLERS as i64);
    b.li(c32, STR_LEN);
    let top = util::count_loop_begin(&mut b, i);

    b.ld(opw, i, SCRIPT);
    // Interpreter globals (op-table size, string length) live in memory
    // and are reloaded on every dispatch: perfect last-value locality.
    b.ld(ch36, Reg::ZERO, PARAMS + 1);
    b.ld(c32, Reg::ZERO, PARAMS + 2);
    b.alu_rr(Opcode::Rem, hnd, opw, ch36);
    b.alu_rr(Opcode::Div, sid, opw, ch36);
    b.alu_ri(Opcode::Slli, sbase, sid, 5); // sid * 32
    let arms: Vec<_> = (0..HANDLERS).map(|_| b.new_label()).collect();
    let next = b.new_label();
    util::dispatch_ladder(&mut b, hnd, t, &arms);
    b.jal(Reg::ZERO, next); // unreachable

    for (k, &arm) in arms.iter().enumerate() {
        b.bind(arm);
        // Each builtin scans its string accumulating a character-class
        // weight (tr///-style counting). Skewed text makes the running
        // total advance by the same small step *most* of the time — a
        // semi-predictable serial chain, perl's middle-ground profile.
        b.li(acc, (7 * k + 1) as i64);
        let scan = util::count_loop_begin(&mut b, j);
        // Two characters per unrolled iteration.
        for u in 0..2 {
            b.alu_rr(Opcode::Add, t, sbase, j);
            b.ld(ch, t, STRS + u);
            b.alu_ri(Opcode::Srli, t, ch, 5);
            b.alu_rr(Opcode::Add, acc, acc, t);
        }
        b.alu_ri(Opcode::Addi, j, j, 2);
        b.br(Opcode::Blt, j, c32, scan);
        // Bucket update keyed by (count, builtin).
        b.alu_ri(Opcode::Muli, hidx, acc, 37);
        b.alu_ri(Opcode::Andi, hidx, hidx, 511);
        b.ld(hv, hidx, HTAB);
        b.alu_ri(Opcode::Addi, hv, hv, 1);
        b.sd(hv, hidx, HTAB);
        b.jal(Reg::ZERO, next);
    }

    b.bind(next);
    util::count_loop_end(&mut b, i, n, top);
    b.sd(i, Reg::ZERO, OUT);
    b.halt();

    b.build()
        .expect("perl generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn bucket_counts_equal_script_length() {
        let p = build(&InputSet::train(0));
        let n = p.data()[0];
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let total: u64 = (0..512u64).map(|k| m.memory().read(HTAB as u64 + k)).sum();
        assert_eq!(total, n, "each script op lands in exactly one bucket");
    }

    #[test]
    fn count_matches_reference_for_one_op() {
        let p = build(&InputSet::train(1));
        let data = p.data().to_vec();
        // Host model of the first script op's bucket.
        let opw = data[SCRIPT as usize];
        let (k, sid) = (
            (opw % HANDLERS as u64) as usize,
            (opw / HANDLERS as u64) as usize,
        );
        let mut acc = (7 * k + 1) as u64;
        for j in 0..STR_LEN as usize {
            acc += data[STRS as usize + sid * 32 + j] >> 5;
        }
        let bucket = acc.wrapping_mul(37) & 511;
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert!(m.memory().read(HTAB as u64 + bucket) >= 1);
    }

    #[test]
    fn working_set_is_large() {
        let p = build(&InputSet::train(0));
        assert!(
            p.value_producers().count() > 400,
            "{}",
            p.value_producers().count()
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
        assert!(s.instructions() > 60_000, "{}", s.instructions());
    }
}
