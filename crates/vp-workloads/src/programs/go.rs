//! `go` analogue: a game-tree position evaluator.
//!
//! Evaluates a stream of candidate moves against a board, dispatching each
//! move to one of 24 distinct pattern evaluators (unrolled neighbourhood
//! scans against per-pattern weight tables). Board values and therefore
//! scores are data-dependent, giving the mixed, large-working-set
//! predictability profile of the real 099.go; the shared loop/index
//! machinery stays highly stride-predictable.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};
use vp_rng::Rng;

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = moves, [1] = passes
const BOARD: i64 = 16; // 512-cell board
const MOVES: i64 = BOARD + 512; // 512 candidate positions
const WEIGHTS: i64 = MOVES + 512; // 24 x 16 pattern weights
const SCORES: i64 = WEIGHTS + 24 * 16; // 256-slot score log

const PATTERNS: usize = 24;

/// Structure constants (pattern shapes, weights) are part of the *program*,
/// not the input, so they come from a fixed seed.
const STRUCTURE_SEED: u64 = 0x0601_9090;

/// Builds the `go` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("go");
    let mut structure = Rng::seed_from_u64(STRUCTURE_SEED);

    // ---- data ----
    b.data_word(input.size_in(1, 300, 500)); // moves per pass
    b.data_word(input.size_in(2, 5, 9)); // passes
    b.data_zeroed(6);
    b.data_word(PATTERNS as u64); // params[8]: reloaded per move
    b.data_zeroed(7);
    b.data_block(util::random_words(input, 3, 512, 0, 4)); // board stones
    b.data_block(util::random_words(input, 4, 512, 0, 512)); // candidate moves
    let weights: Vec<u64> = (0..PATTERNS * 16)
        .map(|_| structure.gen_range(1..64))
        .collect();
    b.data_block(weights);
    b.data_zeroed(256);

    // ---- registers ----
    let pass = Reg::new(1);
    let np = Reg::new(2);
    let i = Reg::new(3);
    let nm = Reg::new(4);
    let pos = Reg::new(5);
    let idx = Reg::new(6);
    let t = Reg::new(7);
    let v = Reg::new(8);
    let w = Reg::new(9);
    let wv = Reg::new(10);
    let score = Reg::new(11);
    let best = Reg::new(12);
    let bestpos = Reg::new(13);
    let t2 = Reg::new(14);
    let c24 = Reg::new(15);
    let nodes = Reg::new(16);
    let tmp = Reg::new(17);

    // ---- text ----
    b.ld(nm, Reg::ZERO, PARAMS);
    b.ld(np, Reg::ZERO, PARAMS + 1);
    b.li(c24, PATTERNS as i64);
    b.li(best, -1);
    b.li(bestpos, -1);
    b.li(nodes, 0);
    let pass_top = util::count_loop_begin(&mut b, pass);
    let move_top = util::count_loop_begin(&mut b, i);

    // Per-node search statistics (visited-node counters, history tables):
    // game engines maintain these serially on every evaluation, and they
    // advance by fixed strides.
    util::predictable_chain(&mut b, nodes, tmp, 9);
    b.sd(nodes, Reg::ZERO, PARAMS + 4);

    b.ld(pos, i, MOVES);
    // Pattern-table size: engine configuration reloaded per evaluation.
    b.ld(c24, Reg::ZERO, PARAMS + 8);
    b.alu_rr(Opcode::Rem, idx, pos, c24);
    let arms: Vec<_> = (0..PATTERNS).map(|_| b.new_label()).collect();
    let scored = b.new_label();
    util::dispatch_ladder(&mut b, idx, t, &arms);
    b.li(score, 0); // unreachable fallback (idx is always in range)
    b.jal(Reg::ZERO, scored);

    // 24 unrolled pattern evaluators with distinct shapes and weights.
    for (k, &arm) in arms.iter().enumerate() {
        b.bind(arm);
        b.li(score, structure.gen_range(0..32));
        for _ in 0..8 {
            let off: i64 = structure.gen_range(-24..=24);
            b.alu_ri(Opcode::Addi, t, pos, off);
            b.alu_ri(Opcode::Andi, t, t, 511);
            b.ld(v, t, BOARD);
            b.alu_ri(Opcode::Andi, w, v, 15);
            b.ld(wv, w, WEIGHTS + (k as i64) * 16);
            b.alu_rr(Opcode::Add, score, score, wv);
        }
        b.jal(Reg::ZERO, scored);
    }

    b.bind(scored);
    // Track the best move seen so far.
    let no_update = b.new_label();
    b.alu_rr(Opcode::Slt, t, best, score);
    b.br(Opcode::Beq, t, Reg::ZERO, no_update);
    b.mv(best, score);
    b.mv(bestpos, pos);
    b.bind(no_update);
    // Log the score (bounded circular buffer).
    b.alu_ri(Opcode::Andi, t2, i, 255);
    b.sd(score, t2, SCORES);

    util::count_loop_end(&mut b, i, nm, move_top);
    util::count_loop_end(&mut b, pass, np, pass_top);
    b.sd(best, Reg::ZERO, PARAMS + 2);
    b.sd(bestpos, Reg::ZERO, PARAMS + 3);
    b.halt();

    b.build().expect("go generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn finds_a_plausible_best_move() {
        let p = build(&InputSet::train(0));
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let best = m.memory().read(2) as i64;
        let bestpos = m.memory().read(3) as i64;
        // 8 neighbours x weight < 64 + seed < 32.
        assert!(best > 0 && best < 8 * 64 + 32, "best = {best}");
        assert!((0..512).contains(&bestpos), "bestpos = {bestpos}");
    }

    #[test]
    fn has_a_large_static_working_set() {
        let p = build(&InputSet::train(0));
        let producers = p.value_producers().count();
        assert!(
            producers > 600,
            "go needs table pressure, got {producers} producers"
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
