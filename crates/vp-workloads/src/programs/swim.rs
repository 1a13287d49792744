//! `swim` analogue (SPEC-fp 102.swim): shallow-water equation stepping.
//!
//! Three 32x32 double-precision fields (velocities `u`, `v` and pressure
//! `p`) advance through finite-difference timesteps. Like the real swim:
//! dense strided address arithmetic, per-timestep constants with perfect
//! value locality, and field values that never repeat. An init phase
//! converts per-input seed data into the starting fields, matching the
//! paper's init/computation split for FP codes.

use vp_isa::{InstrAddr, Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = timesteps
const SEEDS: i64 = 16; // 1024 integer seeds
const U: i64 = SEEDS + 1024;
const V: i64 = U + 1024;
const P: i64 = V + 1024;
const CONSTS: i64 = P + 1024; // c1, c2, c3 (doubles)
const OUT: i64 = CONSTS + 8;

const N: i64 = 32;

/// Builds the `swim` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    generate(input).0
}

/// The static address where the computation phase begins.
#[must_use]
pub fn phase_split() -> InstrAddr {
    generate(&InputSet::train(0)).1
}

fn generate(input: &InputSet) -> (Program, InstrAddr) {
    let mut b = ProgramBuilder::named("swim");

    // ---- data ----
    b.data_word(input.size_in(1, 4, 7));
    b.data_zeroed(15);
    b.data_block(util::random_words(input, 2, 1024, 1, 10_000));
    b.data_zeroed(3 * 1024);
    b.data_f64([0.12, 0.08, 0.05]);
    b.data_zeroed(13);

    // ---- integer registers ----
    let steps = Reg::new(1);
    let s = Reg::new(2);
    let i = Reg::new(3);
    let j = Reg::new(4);
    let idx = Reg::new(5);
    let t = Reg::new(6);
    let raw = Reg::new(7);
    let c1024 = Reg::new(8);
    let c31 = Reg::new(9);
    let cursor = Reg::new(10);
    // ---- FP registers ----
    let fv = Reg::new(1);
    let fnorm = Reg::new(2);
    let c1 = Reg::new(3);
    let c2 = Reg::new(4);
    let c3 = Reg::new(5);
    let pe = Reg::new(6);
    let pw = Reg::new(7);
    let fa = Reg::new(8);
    let fb = Reg::new(9);
    let fu = Reg::new(10);
    let fw = Reg::new(11);

    // ---- init phase: fields from seeds ----
    b.ld(steps, Reg::ZERO, PARAMS);
    b.li(c1024, 1024);
    b.li(c31, N - 1);
    b.li(t, 10_000);
    b.unary(Opcode::CvtIf, fnorm, t);
    b.li(cursor, 0);
    let init_top = util::count_loop_begin(&mut b, i);
    {
        b.ld(raw, i, SEEDS);
        b.unary(Opcode::CvtIf, fv, raw);
        b.alu_rr(Opcode::Fdiv, fv, fv, fnorm);
        b.fsd(fv, i, U);
        b.alu_ri(Opcode::Muli, t, raw, 3);
        b.unary(Opcode::CvtIf, fa, t);
        b.alu_rr(Opcode::Fdiv, fa, fa, fnorm);
        b.fsd(fa, i, V);
        b.alu_rr(Opcode::Fadd, fb, fv, fa);
        b.fsd(fb, i, P);
    }
    util::count_loop_end(&mut b, i, c1024, init_top);

    // ---- computation phase: timesteps ----
    let split = b.here();
    let step_top = util::count_loop_begin(&mut b, s);
    {
        b.li(i, 1);
        let row_top = b.bind_new_label();
        {
            b.li(j, 1);
            let col_top = b.bind_new_label();
            {
                // Linearised cursor bookkeeping (output trace position).
                for step in 0..5 {
                    b.alu_ri(Opcode::Addi, cursor, cursor, 1 + step);
                }
                b.sd(cursor, Reg::ZERO, OUT + 1);
                // idx = i*32 + j
                b.alu_ri(Opcode::Slli, idx, i, 5);
                b.alu_rr(Opcode::Add, idx, idx, j);
                // Per-step constants: reloaded per cell, perfect locality.
                b.fld(c1, Reg::ZERO, CONSTS);
                b.fld(c2, Reg::ZERO, CONSTS + 1);
                b.fld(c3, Reg::ZERO, CONSTS + 2);
                // u -= c1 * (p[east] - p[west])
                b.fld(pe, idx, P + 1);
                b.fld(pw, idx, P - 1);
                b.alu_rr(Opcode::Fsub, fa, pe, pw);
                b.alu_rr(Opcode::Fmul, fa, fa, c1);
                b.fld(fu, idx, U);
                b.alu_rr(Opcode::Fsub, fu, fu, fa);
                b.fsd(fu, idx, U);
                // v -= c2 * (p[south] - p[north])
                b.fld(pe, idx, P + N);
                b.fld(pw, idx, P - N);
                b.alu_rr(Opcode::Fsub, fb, pe, pw);
                b.alu_rr(Opcode::Fmul, fb, fb, c2);
                b.fld(fw, idx, V);
                b.alu_rr(Opcode::Fsub, fw, fw, fb);
                b.fsd(fw, idx, V);
                // p -= c3 * (u + v)
                b.alu_rr(Opcode::Fadd, fa, fu, fw);
                b.alu_rr(Opcode::Fmul, fa, fa, c3);
                b.fld(fv, idx, P);
                b.alu_rr(Opcode::Fsub, fv, fv, fa);
                b.fsd(fv, idx, P);
            }
            b.alu_ri(Opcode::Addi, j, j, 1);
            b.br(Opcode::Blt, j, c31, col_top);
        }
        b.alu_ri(Opcode::Addi, i, i, 1);
        b.br(Opcode::Blt, i, c31, row_top);
    }
    util::count_loop_end(&mut b, s, steps, step_top);
    b.sd(cursor, Reg::ZERO, OUT);
    b.halt();

    (
        b.build()
            .expect("swim generator emits a well-formed program"),
        split,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    fn finish(input: &InputSet) -> (Program, Machine) {
        let p = build(input);
        let mut m = Machine::for_program(&p);
        let s = vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert!(s.halted());
        (p, m)
    }

    #[test]
    fn fields_stay_finite_through_the_timesteps() {
        let (_, m) = finish(&InputSet::train(0));
        for base in [U, V, P] {
            for k in [33u64, 512, 990] {
                let v = f64::from_bits(m.memory().read(base as u64 + k));
                assert!(v.is_finite(), "field@{base}+{k} = {v}");
            }
        }
    }

    #[test]
    fn pressure_changes_from_its_initial_value() {
        let (p, m) = finish(&InputSet::train(1));
        let seeds = p.data();
        let init_p = f64::from_bits(seeds[P as usize + 33]);
        // The init phase wrote u+v into p; timesteps must have moved it.
        let _ = init_p; // initial image stores zero (filled at runtime)
        let after = f64::from_bits(m.memory().read(P as u64 + 33));
        let u = f64::from_bits(m.memory().read(U as u64 + 33));
        let v = f64::from_bits(m.memory().read(V as u64 + 33));
        assert_ne!(after, u + v, "p must have advanced past its initial value");
    }

    #[test]
    fn phase_split_is_inside_the_text() {
        let split = phase_split();
        let p = build(&InputSet::train(0));
        assert!(split.index() > 10 && (split.index() as usize) < p.len());
    }

    #[test]
    fn budget() {
        let s = run(
            &build(&InputSet::train(2)),
            &mut NullTracer,
            RunLimits::with_max(3_000_000),
        )
        .unwrap();
        assert!(s.instructions() > 60_000, "{}", s.instructions());
    }
}
