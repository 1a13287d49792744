//! `hydro2d` analogue (SPEC-fp 104.hydro2d): hydrodynamical wave stepping.
//!
//! The real hydro2d advances Navier-Stokes equations with a staggered
//! two-pass difference scheme. The analogue keeps that structure: a
//! density field and a momentum field on a periodic 1024-point line,
//! advanced by a damped Lax scheme in **two separate passes per timestep**
//! (all densities first, then all momenta) — unlike `swim`'s single fused
//! sweep — with periodic wrap-around indexing (modulo address arithmetic,
//! strided but not constant-offset).

use vp_isa::{InstrAddr, Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = timesteps
const SEEDS: i64 = 16; // 1024 integer seeds
const RHO: i64 = SEEDS + 1024; // density field
const MOM: i64 = RHO + 1024; // momentum field
const CONSTS: i64 = MOM + 1024; // lambda, c2, damping (doubles)
const OUT: i64 = CONSTS + 8;

const N: i64 = 1024;

/// Builds the `hydro2d` analogue for one input set.
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
    let mut b = ProgramBuilder::named("hydro2d");

    // ---- data ----
    b.data_word(input.size_in(1, 3, 6));
    b.data_zeroed(15);
    b.data_block(util::random_words(input, 2, 1024, 1, 10_000));
    b.data_zeroed(2 * 1024);
    b.data_f64([0.2, 0.3, 0.995]); // lambda, c^2, damping
    b.data_zeroed(13);

    // ---- integer registers ----
    let steps = Reg::new(1);
    let s = Reg::new(2);
    let i = Reg::new(3);
    let east = Reg::new(4);
    let west = Reg::new(5);
    let t = Reg::new(6);
    let c1024 = Reg::new(7);
    let cursor = Reg::new(8);
    // ---- FP registers ----
    let fv = Reg::new(1);
    let fnorm = Reg::new(2);
    let lam = Reg::new(3);
    let c2 = Reg::new(4);
    let damp = Reg::new(5);
    let fe = Reg::new(6);
    let fw = Reg::new(7);
    let t1 = Reg::new(8);
    let t2 = Reg::new(9);

    // ---- init phase ----
    b.ld(steps, Reg::ZERO, PARAMS);
    b.li(c1024, N);
    b.li(t, 10_000);
    b.unary(Opcode::CvtIf, fnorm, t);
    b.li(cursor, 0);
    let init_top = util::count_loop_begin(&mut b, i);
    {
        b.ld(t, i, SEEDS);
        b.unary(Opcode::CvtIf, fv, t);
        b.alu_rr(Opcode::Fdiv, fv, fv, fnorm);
        b.fsd(fv, i, RHO);
        b.alu_ri(Opcode::Xori, t, t, 0x3ff);
        b.unary(Opcode::CvtIf, fv, t);
        b.alu_rr(Opcode::Fdiv, fv, fv, fnorm);
        b.fsd(fv, i, MOM);
    }
    util::count_loop_end(&mut b, i, c1024, init_top);

    // ---- computation phase: two passes per timestep ----
    let split = b.here();
    let step_top = util::count_loop_begin(&mut b, s);
    {
        // Pass 1: density. rho[i] <- damp*(avg(rho) - lam*(m[e] - m[w]))
        let rho_top = util::count_loop_begin(&mut b, i);
        {
            for step in 0..4 {
                b.alu_ri(Opcode::Addi, cursor, cursor, 1 + step);
            }
            b.sd(cursor, Reg::ZERO, OUT + 1);
            // Periodic neighbours: east = (i+1) mod N, west = (i-1) mod N.
            b.alu_ri(Opcode::Addi, east, i, 1);
            b.alu_ri(Opcode::Andi, east, east, N - 1);
            b.alu_ri(Opcode::Addi, west, i, -1);
            b.alu_ri(Opcode::Andi, west, west, N - 1);
            b.fld(lam, Reg::ZERO, CONSTS);
            b.fld(damp, Reg::ZERO, CONSTS + 2);
            b.fld(fe, east, RHO);
            b.fld(fw, west, RHO);
            b.alu_rr(Opcode::Fadd, t1, fe, fw);
            b.fld(fe, east, MOM);
            b.fld(fw, west, MOM);
            b.alu_rr(Opcode::Fsub, t2, fe, fw);
            b.alu_rr(Opcode::Fmul, t2, t2, lam);
            b.alu_rr(Opcode::Fsub, t1, t1, t2);
            b.alu_rr(Opcode::Fmul, t1, t1, damp);
            // Halve the average term: t1 currently holds 2*avg - ...; the
            // damping constant absorbs scale, but keep the field bounded by
            // an explicit 0.5 factor.
            b.fld(t2, Reg::ZERO, CONSTS + 1); // reuse c2 slot as 0.3 scale
            b.alu_rr(Opcode::Fmul, t1, t1, t2);
            b.fsd(t1, i, RHO);
        }
        util::count_loop_end(&mut b, i, c1024, rho_top);

        // Pass 2: momentum. m[i] <- damp*(avg(m) - c2*(rho[e] - rho[w]))
        let mom_top = util::count_loop_begin(&mut b, i);
        {
            b.alu_ri(Opcode::Addi, east, i, 1);
            b.alu_ri(Opcode::Andi, east, east, N - 1);
            b.alu_ri(Opcode::Addi, west, i, -1);
            b.alu_ri(Opcode::Andi, west, west, N - 1);
            b.fld(c2, Reg::ZERO, CONSTS + 1);
            b.fld(damp, Reg::ZERO, CONSTS + 2);
            b.fld(fe, east, MOM);
            b.fld(fw, west, MOM);
            b.alu_rr(Opcode::Fadd, t1, fe, fw);
            b.fld(fe, east, RHO);
            b.fld(fw, west, RHO);
            b.alu_rr(Opcode::Fsub, t2, fe, fw);
            b.alu_rr(Opcode::Fmul, t2, t2, c2);
            b.alu_rr(Opcode::Fsub, t1, t1, t2);
            b.alu_rr(Opcode::Fmul, t1, t1, damp);
            b.alu_rr(Opcode::Fmul, t1, t1, c2);
            b.fsd(t1, i, MOM);
        }
        util::count_loop_end(&mut b, i, c1024, mom_top);
    }
    util::count_loop_end(&mut b, s, steps, step_top);
    b.sd(cursor, Reg::ZERO, OUT);
    b.halt();

    (
        b.build()
            .expect("hydro2d generator emits a well-formed program"),
        split,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn fields_stay_finite_and_bounded() {
        let p = build(&InputSet::train(0));
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        for base in [RHO, MOM] {
            for k in [0u64, 100, 1023] {
                let v = f64::from_bits(m.memory().read(base as u64 + k));
                // Each update scales by <= 0.3 * 0.995 * (2 + lambda-ish),
                // keeping the fields well inside +-2.
                assert!(v.is_finite() && v.abs() < 2.0, "field@{base}+{k} = {v}");
            }
        }
    }

    #[test]
    fn cursor_counts_density_updates() {
        let p = build(&InputSet::train(1));
        let steps = p.data()[0];
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        // 4 chained increments of +1..+4 = +10 per density-pass point.
        assert_eq!(m.memory().read(OUT as u64), steps * 1024 * 10);
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
        assert!(s.halted());
        assert!(s.instructions() > 60_000, "{}", s.instructions());
    }
}
