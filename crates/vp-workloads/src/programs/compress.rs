//! `compress` analogue: an adaptive dictionary hasher.
//!
//! A Lempel-Ziv-style inner loop: stream the input text through a rolling
//! hash, probe a dictionary, and update hit counts. The rolling hash and
//! the probed values are data-dependent — the structural reason the real
//! compress is the paper's least value-predictable integer benchmark — and
//! the critical dependence chain (the hash) is *not* collapsible by value
//! prediction, so its ILP gain stays small.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = text length
const TEXT: i64 = 16; // 8192-word input text
const HKEY: i64 = TEXT + 8192; // 4096-entry dictionary keys
const HCNT: i64 = HKEY + 4096; // 4096-entry hit counters
const DONE: i64 = HCNT + 4096; // output scalars

const TEXT_CAP: usize = 8192;

/// Builds the `compress` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("compress");

    // ---- data ----
    let len = input.size_in(1, 5_000, TEXT_CAP as u64);
    b.data_word(len);
    b.data_word(0xfff); // hash mask, reloaded per symbol
    b.data_zeroed(14);
    // Skewed symbol stream: realistic text has very non-uniform bytes.
    // Symbols are 1..=255 so the all-zero initial dictionary never matches.
    b.data_block(
        util::skewed_words(input, 2, TEXT_CAP, 255)
            .into_iter()
            .map(|w| w + 1),
    );
    b.data_zeroed(4096 + 4096 + 8);

    // ---- registers ----
    let n = Reg::new(1);
    let i = Reg::new(2);
    let hash = Reg::new(3);
    let c = Reg::new(4);
    let t = Reg::new(5);
    let key = Reg::new(6);
    let t2 = Reg::new(7);
    let hits = Reg::new(8);
    let misses = Reg::new(9);
    let cursor = Reg::new(10);
    let tmp = Reg::new(11);

    // ---- text ----
    b.ld(n, Reg::ZERO, PARAMS);
    b.li(hash, 0);
    b.li(hits, 0);
    b.li(misses, 0);
    b.li(cursor, 0);
    let top = util::count_loop_begin(&mut b, i);
    {
        // Output bit-cursor bookkeeping: real LZ coders advance an output
        // position every symbol. Serial but perfectly stride-predictable.
        util::predictable_chain(&mut b, cursor, tmp, 5);
        b.sd(cursor, Reg::ZERO, DONE + 2);
        b.ld(c, i, TEXT);
        // Rolling hash: hash = (((hash << 4) ^ (hash >> 7) ^ c) * 3) & 0xfff.
        b.alu_ri(Opcode::Slli, t, hash, 4);
        b.alu_ri(Opcode::Srli, t2, hash, 7);
        b.alu_rr(Opcode::Xor, t, t, t2);
        b.alu_rr(Opcode::Xor, t, t, c);
        b.alu_ri(Opcode::Muli, t, t, 3);
        // The mask and the length live in memory, reloaded every symbol —
        // the register-pressure spills real compilers emit in this loop.
        // Both loads repeat their value perfectly (last-value locality).
        b.ld(t2, Reg::ZERO, PARAMS + 1);
        b.alu_rr(Opcode::And, hash, t, t2);
        // Dictionary probe.
        b.ld(key, hash, HKEY);
        let hit = b.new_label();
        let next = b.new_label();
        b.br(Opcode::Beq, key, c, hit);
        // Miss: install the symbol, reset its count.
        b.sd(c, hash, HKEY);
        b.li(t2, 1);
        b.sd(t2, hash, HCNT);
        b.alu_ri(Opcode::Addi, misses, misses, 1);
        b.jal(Reg::ZERO, next);
        // Hit: bump the count.
        b.bind(hit);
        b.ld(t2, hash, HCNT);
        b.alu_ri(Opcode::Addi, t2, t2, 1);
        b.sd(t2, hash, HCNT);
        b.alu_ri(Opcode::Addi, hits, hits, 1);
        b.bind(next);
        b.ld(n, Reg::ZERO, PARAMS);
    }
    util::count_loop_end(&mut b, i, n, top);
    b.sd(hits, Reg::ZERO, DONE);
    b.sd(misses, Reg::ZERO, DONE + 1);
    b.halt();

    b.build()
        .expect("compress generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn hits_plus_misses_cover_the_text() {
        let p = build(&InputSet::train(0));
        let n = p.data()[0];
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let hits = m.memory().read(DONE as u64);
        let misses = m.memory().read(DONE as u64 + 1);
        assert_eq!(hits + misses, n);
        assert!(misses > 0, "some dictionary misses expected");
        assert!(hits > 0, "skewed text must produce dictionary hits");
    }

    #[test]
    fn rolling_hash_matches_reference_model() {
        let p = build(&InputSet::train(1));
        let data = p.data().to_vec();
        let n = data[0] as usize;
        // Host-side model of the guest loop.
        let (mut hash, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let mut keys = vec![0u64; 4096];
        for idx in 0..n {
            let c = data[TEXT as usize + idx];
            hash = (((hash << 4) ^ (hash >> 7) ^ c).wrapping_mul(3)) & 0xfff;
            let h = hash as usize;
            if keys[h] == c {
                hits += 1;
            } else {
                keys[h] = c;
                misses += 1;
            }
        }
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert_eq!(m.memory().read(DONE as u64), hits);
        assert_eq!(m.memory().read(DONE as u64 + 1), misses);
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
