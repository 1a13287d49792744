//! `mgrid` analogue: a floating-point stencil relaxation.
//!
//! The single SPEC-fp stand-in, with the two execution phases the paper
//! measures separately for floating-point codes:
//!
//! - an **initialization phase** that reads per-input integer seed data and
//!   converts/normalises it into a 32x32 double-precision grid (irregular
//!   values — poor FP predictability, like the paper's init-phase columns);
//! - a **computation phase** of Gauss-Seidel-style sweeps whose coefficient
//!   reloads repeat perfectly (last-value-friendly FP loads) while grid
//!   values keep changing (hard to predict) and index arithmetic strides.
//!
//! [`phase_split`] exposes the static address separating the phases for
//! `vp-profile`'s split collector.

use vp_isa::{InstrAddr, Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = sweeps
const SEEDS: i64 = 16; // 1024 integer seeds
const GRID: i64 = SEEDS + 1024; // 32x32 doubles
const COEF: i64 = GRID + 1024; // 8 sweep coefficients (doubles)
const OUT: i64 = COEF + 8;

const N: i64 = 32;

/// Builds the `mgrid` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    generate(input).0
}

/// The static instruction address where the computation phase begins.
///
/// Instructions at lower addresses belong to the initialization phase. The
/// split is a pure property of the (input-invariant) text segment.
#[must_use]
pub fn phase_split() -> InstrAddr {
    generate(&InputSet::train(0)).1
}

fn generate(input: &InputSet) -> (Program, InstrAddr) {
    let mut b = ProgramBuilder::named("mgrid");

    // ---- data ----
    b.data_word(input.size_in(1, 6, 10));
    b.data_zeroed(15);
    b.data_block(util::random_words(input, 2, 1024, 1, 10_000));
    b.data_zeroed(1024); // grid, filled by the init phase
    b.data_f64([0.94, 0.97, 0.91, 0.99, 0.95, 0.93, 0.98, 0.96]);
    b.data_zeroed(8);

    // ---- registers (integer) ----
    let sweeps = Reg::new(1);
    let s = Reg::new(2);
    let i = Reg::new(3);
    let j = Reg::new(4);
    let idx = Reg::new(5);
    let t = Reg::new(6);
    let raw = Reg::new(7);
    let c1024 = Reg::new(8);
    let c31 = Reg::new(9);
    let cn = Reg::new(10);
    let cursor = Reg::new(11);
    // ---- registers (floating point) ----
    let fv = Reg::new(1);
    let fnorm = Reg::new(2);
    let fq = Reg::new(3);
    let fn_ = Reg::new(4);
    let fs = Reg::new(5);
    let fw = Reg::new(6);
    let fe = Reg::new(7);
    let t1 = Reg::new(8);
    let t2 = Reg::new(9);
    let coef = Reg::new(10);
    let facc = Reg::new(11);

    // ---- init phase ----
    b.ld(sweeps, Reg::ZERO, PARAMS);
    b.li(c1024, 1024);
    b.li(c31, N - 1);
    b.li(cn, N);
    b.li(t, 10_000);
    b.unary(Opcode::CvtIf, fnorm, t); // normaliser 10000.0
    b.li(t, 1);
    b.unary(Opcode::CvtIf, fq, t);
    b.li(t, 4);
    b.unary(Opcode::CvtIf, t1, t);
    b.alu_rr(Opcode::Fdiv, fq, fq, t1); // 0.25
    b.fsd(fq, Reg::ZERO, GRID); // grid[0] = 0.25
    b.li(i, 1);
    let init_top = b.bind_new_label();
    {
        b.ld(raw, i, SEEDS);
        b.unary(Opcode::CvtIf, fv, raw);
        b.alu_rr(Opcode::Fdiv, fv, fv, fnorm); // values in (0, 1]
                                               // Smooth against the previously initialised cell (reading back
                                               // freshly written, ever-changing data: the init-phase FP loads the
                                               // paper finds much less predictable than computation-phase ones).
        b.fld(fs, i, GRID - 1);
        b.alu_rr(Opcode::Fadd, fv, fv, fs);
        b.alu_rr(Opcode::Fmul, fv, fv, fq);
        b.fsd(fv, i, GRID);
    }
    b.alu_ri(Opcode::Addi, i, i, 1);
    b.br(Opcode::Blt, i, c1024, init_top);

    // ---- computation phase ----
    b.li(cursor, 0);
    let split = b.here();
    let sweep_top = util::count_loop_begin(&mut b, s);
    {
        b.li(i, 1);
        let row_top = b.bind_new_label();
        {
            b.li(j, 1);
            let col_top = b.bind_new_label();
            {
                // Linearised index bookkeeping: multi-level FORTRAN loop
                // nests carry running cursors and per-point residual-log
                // positions — serial integer chains with constant strides.
                for step in 0..7 {
                    b.alu_ri(Opcode::Addi, cursor, cursor, 1 + step);
                }
                b.sd(cursor, Reg::ZERO, OUT + 1);
                // idx = i*32 + j
                b.alu_ri(Opcode::Slli, idx, i, 5);
                b.alu_rr(Opcode::Add, idx, idx, j);
                b.fld(fn_, idx, GRID - N);
                b.fld(fs, idx, GRID + N);
                b.fld(fw, idx, GRID - 1);
                b.fld(fe, idx, GRID + 1);
                b.alu_rr(Opcode::Fadd, t1, fn_, fs);
                b.alu_rr(Opcode::Fadd, t2, fw, fe);
                b.alu_rr(Opcode::Fadd, t1, t1, t2);
                b.alu_rr(Opcode::Fmul, t1, t1, fq);
                // Per-sweep damping coefficient: reloaded every cell, so
                // this FP load repeats its value throughout a sweep — the
                // computation-phase FP-load locality of Table 2.1. The
                // pre-scaled product repeats too (FP-ALU value locality).
                b.alu_ri(Opcode::Andi, t, s, 7);
                b.fld(coef, t, COEF);
                b.alu_rr(Opcode::Fmul, coef, coef, fq);
                b.alu_rr(Opcode::Fmul, t1, t1, coef);
                b.fsd(t1, idx, GRID);
                b.alu_rr(Opcode::Fadd, facc, facc, t1);
            }
            b.alu_ri(Opcode::Addi, j, j, 1);
            b.br(Opcode::Blt, j, c31, col_top);
        }
        b.alu_ri(Opcode::Addi, i, i, 1);
        b.br(Opcode::Blt, i, c31, row_top);
    }
    util::count_loop_end(&mut b, s, sweeps, sweep_top);
    b.fsd(facc, Reg::ZERO, OUT);
    b.halt();

    (
        b.build()
            .expect("mgrid generator emits a well-formed program"),
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
    fn grid_is_initialised_to_unit_interval() {
        let (_, m) = finish(&InputSet::train(0));
        for k in [0u64, 17, 555, 1023] {
            let v = f64::from_bits(m.memory().read(GRID as u64 + k));
            assert!(v > 0.0 && v <= 1.0, "grid[{k}] = {v}");
        }
    }

    #[test]
    fn relaxation_smooths_and_damps_the_interior() {
        let (_, m) = finish(&InputSet::train(1));
        // Interior cells hold damped neighbour averages: all finite, within
        // the unit interval scaled by the damping factors.
        for idx in [33u64, 500, 990] {
            let v = f64::from_bits(m.memory().read(GRID as u64 + idx));
            assert!(
                v.is_finite() && (0.0..1.0).contains(&v),
                "grid[{idx}] = {v}"
            );
        }
        let acc = f64::from_bits(m.memory().read(OUT as u64));
        assert!(acc.is_finite() && acc > 0.0);
    }

    #[test]
    fn phase_split_separates_init_from_compute() {
        let split = phase_split();
        let p = build(&InputSet::train(0));
        assert!(split.index() > 10);
        assert!((split.index() as usize) < p.len());
        // The init phase contains the seed load; the compute phase the
        // stencil loads. Spot-check by opcode mix on each side.
        let compute_has_fld = p
            .iter()
            .filter(|(a, _)| *a >= split)
            .any(|(_, ins)| ins.op == Opcode::Fld);
        assert!(compute_has_fld);
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
