//! `tomcatv` analogue (SPEC-fp 101.tomcatv): mesh-generation relaxation.
//!
//! Two 32x32 coordinate fields (`x`, `y`) relax toward a smooth mesh:
//! each sweep averages neighbours with a coupling term, then a separate
//! reduction pass folds the worst residual with `fmax` — tomcatv's
//! characteristic two-pass structure. Coordinates never repeat (poor FP
//! value locality) while the sweep constants and the address arithmetic
//! are perfectly regular.

use vp_isa::{InstrAddr, Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = sweeps
const SEEDS: i64 = 16; // 1024 integer seeds
const X: i64 = SEEDS + 1024;
const Y: i64 = X + 1024;
const CONSTS: i64 = Y + 1024; // quarter, coupling (doubles)
const OUT: i64 = CONSTS + 8;

const N: i64 = 32;

/// Builds the `tomcatv` analogue for one input set.
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
    let mut b = ProgramBuilder::named("tomcatv");

    // ---- data ----
    b.data_word(input.size_in(1, 5, 9));
    b.data_zeroed(15);
    b.data_block(util::random_words(input, 2, 1024, 1, 10_000));
    b.data_zeroed(2 * 1024);
    b.data_f64([0.25, 0.01]);
    b.data_zeroed(14);

    // ---- integer registers ----
    let sweeps = Reg::new(1);
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
    let quarter = Reg::new(3);
    let couple = Reg::new(4);
    let fn_ = Reg::new(5);
    let fs = Reg::new(6);
    let fw = Reg::new(7);
    let fe = Reg::new(8);
    let t1 = Reg::new(9);
    let t2 = Reg::new(10);
    let resid = Reg::new(11);
    let fy = Reg::new(12);

    // ---- init phase ----
    b.ld(sweeps, Reg::ZERO, PARAMS);
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
        b.fsd(fv, i, X);
        b.alu_ri(Opcode::Xori, t, raw, 0x155);
        b.unary(Opcode::CvtIf, fy, t);
        b.alu_rr(Opcode::Fdiv, fy, fy, fnorm);
        b.fsd(fy, i, Y);
    }
    util::count_loop_end(&mut b, i, c1024, init_top);

    // ---- computation phase ----
    let split = b.here();
    let sweep_top = util::count_loop_begin(&mut b, s);
    {
        // Pass 1: relax both coordinate fields.
        b.li(i, 1);
        let row_top = b.bind_new_label();
        {
            b.li(j, 1);
            let col_top = b.bind_new_label();
            {
                for step in 0..6 {
                    b.alu_ri(Opcode::Addi, cursor, cursor, 1 + step);
                }
                b.sd(cursor, Reg::ZERO, OUT + 1);
                b.alu_ri(Opcode::Slli, idx, i, 5);
                b.alu_rr(Opcode::Add, idx, idx, j);
                b.fld(quarter, Reg::ZERO, CONSTS);
                b.fld(couple, Reg::ZERO, CONSTS + 1);
                // x <- 0.25*(xN+xS+xW+xE) + couple*y
                b.fld(fn_, idx, X - N);
                b.fld(fs, idx, X + N);
                b.fld(fw, idx, X - 1);
                b.fld(fe, idx, X + 1);
                b.alu_rr(Opcode::Fadd, t1, fn_, fs);
                b.alu_rr(Opcode::Fadd, t2, fw, fe);
                b.alu_rr(Opcode::Fadd, t1, t1, t2);
                b.alu_rr(Opcode::Fmul, t1, t1, quarter);
                b.fld(fy, idx, Y);
                b.alu_rr(Opcode::Fmul, t2, fy, couple);
                b.alu_rr(Opcode::Fadd, t1, t1, t2);
                b.fsd(t1, idx, X);
                // y <- 0.25*(yN+yS+yW+yE) - couple*x
                b.fld(fn_, idx, Y - N);
                b.fld(fs, idx, Y + N);
                b.alu_rr(Opcode::Fadd, t2, fn_, fs);
                b.alu_rr(Opcode::Fmul, t2, t2, quarter);
                b.alu_rr(Opcode::Fmul, fv, t1, couple);
                b.alu_rr(Opcode::Fsub, t2, t2, fv);
                b.fsd(t2, idx, Y);
            }
            b.alu_ri(Opcode::Addi, j, j, 1);
            b.br(Opcode::Blt, j, c31, col_top);
        }
        b.alu_ri(Opcode::Addi, i, i, 1);
        b.br(Opcode::Blt, i, c31, row_top);

        // Pass 2: residual reduction over the whole grid (tomcatv's
        // convergence check): resid = max(resid, |x| via fmax chain).
        b.li(t, 0);
        b.unary(Opcode::CvtIf, resid, t);
        let red_top = util::count_loop_begin(&mut b, i);
        {
            b.fld(fv, i, X);
            b.alu_rr(Opcode::Fmax, resid, resid, fv);
        }
        util::count_loop_end(&mut b, i, c1024, red_top);
        b.fsd(resid, Reg::ZERO, OUT + 2);
    }
    util::count_loop_end(&mut b, s, sweeps, sweep_top);
    b.sd(cursor, Reg::ZERO, OUT);
    b.halt();

    (
        b.build()
            .expect("tomcatv generator emits a well-formed program"),
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
    fn residual_is_the_grid_maximum() {
        let (_, m) = finish(&InputSet::train(0));
        let resid = f64::from_bits(m.memory().read(OUT as u64 + 2));
        assert!(resid.is_finite() && resid >= 0.0);
        for k in 0..1024u64 {
            let v = f64::from_bits(m.memory().read(X as u64 + k));
            assert!(v <= resid + 1e-12, "x[{k}] = {v} exceeds residual {resid}");
        }
    }

    #[test]
    fn mesh_coordinates_stay_finite() {
        let (_, m) = finish(&InputSet::train(1));
        for base in [X, Y] {
            for k in [40u64, 500, 1000] {
                let v = f64::from_bits(m.memory().read(base as u64 + k));
                assert!(v.is_finite(), "coord@{base}+{k} = {v}");
            }
        }
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
