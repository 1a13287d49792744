//! `ijpeg` analogue: an 8x8 blocked integer transform + quantiser with
//! bitstream bookkeeping.
//!
//! Structure mirrors a JPEG encoder's hot path: for every 8x8 sample
//! block, compute one weighted sum per row against a fixed coefficient
//! table, quantise it by a per-input divisor, store the coefficient and
//! advance the output bitstream cursor. Loop indices, address arithmetic
//! and the cursor are densely strided (ijpeg is one of the paper's
//! stride-friendly integer benchmarks); the sample loads and accumulations
//! are data-dependent.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = number of blocks
const PIX: i64 = 16; // sample buffer (250 blocks x 64)
const COEF: i64 = PIX + 16_000; // 64 fixed coefficients
const QTAB: i64 = COEF + 64; // 8 per-input quantisation divisors
const OUT: i64 = QTAB + 8; // output coefficients (250 x 8)
const CURSOR: i64 = OUT + 2_000; // bitstream cursor cell

const MAX_BLOCKS: usize = 250;

/// Builds the `ijpeg` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("ijpeg");

    // ---- data segment (fixed layout, per-input contents) ----
    let nblocks = input.size_in(1, 150, MAX_BLOCKS as u64);
    b.data_word(nblocks); // params[0]
    b.data_word(8); // row length, reloaded in the inner loop
    b.data_zeroed(14);
    debug_assert_eq!(b.data_len() as i64, PIX);
    b.data_block(util::random_words(input, 2, MAX_BLOCKS * 64, 0, 256));
    debug_assert_eq!(b.data_len() as i64, COEF);
    // Fixed integer "cosine" coefficients: identical across inputs.
    b.data_block((0..64u64).map(|k| (k * k * 7 + 13 * k + 3) % 31 + 1));
    debug_assert_eq!(b.data_len() as i64, QTAB);
    b.data_block(util::random_words(input, 3, 8, 4, 24));
    b.data_zeroed(MAX_BLOCKS * 8 + 8);

    // ---- registers ----
    let nb = Reg::new(1);
    let blk = Reg::new(2);
    let base = Reg::new(3);
    let k = Reg::new(4);
    let j = Reg::new(5);
    let acc = Reg::new(6);
    let t = Reg::new(7);
    let t2 = Reg::new(8);
    let px = Reg::new(9);
    let cf = Reg::new(10);
    let q = Reg::new(11);
    let o = Reg::new(12);
    let c8 = Reg::new(13);
    let cursor = Reg::new(14);
    let tmp = Reg::new(15);
    let rowbase = Reg::new(16);

    // ---- text ----
    b.ld(nb, Reg::ZERO, PARAMS);
    b.li(c8, 8);
    b.li(cursor, 0);
    let blk_top = util::count_loop_begin(&mut b, blk);
    {
        b.alu_ri(Opcode::Muli, base, blk, 64);
        let row_top = util::count_loop_begin(&mut b, k);
        {
            // rowbase = base + 8k: start of row k of this block.
            b.alu_ri(Opcode::Slli, rowbase, k, 3);
            b.alu_rr(Opcode::Add, rowbase, rowbase, base);
            b.li(acc, 0);
            let in_top = util::count_loop_begin(&mut b, j);
            {
                b.alu_rr(Opcode::Add, t, rowbase, j);
                b.ld(px, t, PIX);
                b.alu_ri(Opcode::Slli, t2, k, 3);
                b.alu_rr(Opcode::Add, t2, t2, j);
                b.ld(cf, t2, COEF);
                b.alu_rr(Opcode::Mul, t, px, cf);
                b.alu_rr(Opcode::Add, acc, acc, t);
                // Row-length spill reload: constant, perfect value reuse.
                b.ld(c8, Reg::ZERO, PARAMS + 1);
            }
            util::count_loop_end(&mut b, j, c8, in_top);
            // Quantise and emit the row coefficient.
            b.ld(q, k, QTAB);
            b.alu_rr(Opcode::Div, o, acc, q);
            b.alu_ri(Opcode::Slli, t, blk, 3);
            b.alu_rr(Opcode::Add, t, t, k);
            b.sd(o, t, OUT);
            // Bitstream bookkeeping: advance the output cursor (zigzag
            // position, run-length state, Huffman bit-buffer accounting for
            // the row's eight coefficients). Serial and stride-friendly.
            util::predictable_chain(&mut b, cursor, tmp, 8);
            b.sd(cursor, Reg::ZERO, CURSOR);
        }
        util::count_loop_end(&mut b, k, c8, row_top);
    }
    util::count_loop_end(&mut b, blk, nb, blk_top);
    b.halt();

    b.build()
        .expect("ijpeg generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    fn expected_row(data: &[u64], blk: u64, k: u64) -> u64 {
        let acc: u64 = (0..8u64)
            .map(|j| {
                data[(PIX as u64 + blk * 64 + k * 8 + j) as usize]
                    * data[(COEF as u64 + k * 8 + j) as usize]
            })
            .sum();
        acc / data[(QTAB as u64 + k) as usize]
    }

    #[test]
    fn computes_quantised_row_sums() {
        let input = InputSet::train(0);
        let p = build(&input);
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let data = p.data();
        for (blk, k) in [(0u64, 0u64), (0, 5), (3, 7), (100, 2)] {
            assert_eq!(
                m.memory().read(OUT as u64 + blk * 8 + k),
                expected_row(data, blk, k),
                "block {blk} row {k}"
            );
        }
    }

    #[test]
    fn block_count_follows_the_input() {
        let p = build(&InputSet::train(0));
        let n = p.data()[0];
        assert!((150..=250).contains(&n));
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        // Outputs end exactly at the last processed block.
        assert_eq!(m.memory().read(OUT as u64 + n * 8), 0);
        // Cursor advanced once per row.
        let cursor = m.memory().read(CURSOR as u64);
        assert_eq!(cursor % (n * 8), 0, "cursor {cursor} rows {}", n * 8);
    }

    #[test]
    fn runs_in_expected_budget() {
        let s = run(
            &build(&InputSet::train(2)),
            &mut NullTracer,
            RunLimits::with_max(3_000_000),
        )
        .unwrap();
        assert!(s.halted());
        assert!(s.instructions() > 80_000, "{}", s.instructions());
    }
}
