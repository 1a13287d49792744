//! `su2cor` analogue (SPEC-fp 103.su2cor): SU(2) lattice gauge products.
//!
//! The real su2cor computes quark propagators by multiplying SU(2) group
//! elements (representable as quaternions) along lattice paths. The
//! analogue keeps exactly that kernel: per site, a chain of quaternion
//! products over four neighbouring links, with the trace accumulated —
//! long dependent FP multiply/add chains over values that never repeat,
//! plus perfectly strided link addressing. Distinct from the stencil
//! codes: the hot loop is dense FP arithmetic on packed 4-vectors, not
//! neighbour averaging.

use vp_isa::{InstrAddr, Opcode, Program, ProgramBuilder, Reg};

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = sweeps
const SEEDS: i64 = 16; // 1024 integer seeds
const LINKS: i64 = SEEDS + 1024; // 256 links x 4 doubles
const TR: i64 = LINKS + 1024; // 256 per-site traces
const OUT: i64 = TR + 256;

const SITES: i64 = 256;

/// Builds the `su2cor` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    generate(input).0
}

/// The static address where the computation phase begins.
#[must_use]
pub fn phase_split() -> InstrAddr {
    generate(&InputSet::train(0)).1
}

/// Emits a quaternion product `(qa,qb,qc,qd) <- (qa..qd) * (ra..rd)`,
/// using `t1`/`t2` as FP scratch.
#[allow(clippy::too_many_arguments)]
fn emit_qmul(
    b: &mut ProgramBuilder,
    (qa, qb, qc, qd): (Reg, Reg, Reg, Reg),
    (ra, rb, rc, rd): (Reg, Reg, Reg, Reg),
    (t1, t2, oa, ob): (Reg, Reg, Reg, Reg),
) {
    // oa = qa*ra - qb*rb - qc*rc - qd*rd
    b.alu_rr(Opcode::Fmul, oa, qa, ra);
    b.alu_rr(Opcode::Fmul, t1, qb, rb);
    b.alu_rr(Opcode::Fsub, oa, oa, t1);
    b.alu_rr(Opcode::Fmul, t1, qc, rc);
    b.alu_rr(Opcode::Fsub, oa, oa, t1);
    b.alu_rr(Opcode::Fmul, t1, qd, rd);
    b.alu_rr(Opcode::Fsub, oa, oa, t1);
    // ob = qa*rb + qb*ra + qc*rd - qd*rc
    b.alu_rr(Opcode::Fmul, ob, qa, rb);
    b.alu_rr(Opcode::Fmul, t1, qb, ra);
    b.alu_rr(Opcode::Fadd, ob, ob, t1);
    b.alu_rr(Opcode::Fmul, t1, qc, rd);
    b.alu_rr(Opcode::Fadd, ob, ob, t1);
    b.alu_rr(Opcode::Fmul, t1, qd, rc);
    b.alu_rr(Opcode::Fsub, ob, ob, t1);
    // oc (reusing t2) = qa*rc - qb*rd + qc*ra + qd*rb
    b.alu_rr(Opcode::Fmul, t2, qa, rc);
    b.alu_rr(Opcode::Fmul, t1, qb, rd);
    b.alu_rr(Opcode::Fsub, t2, t2, t1);
    b.alu_rr(Opcode::Fmul, t1, qc, ra);
    b.alu_rr(Opcode::Fadd, t2, t2, t1);
    b.alu_rr(Opcode::Fmul, t1, qd, rb);
    b.alu_rr(Opcode::Fadd, t2, t2, t1);
    // qd' = qa*rd + qb*rc - qc*rb + qd*ra  (into t1 chainwise, then qd)
    b.alu_rr(Opcode::Fmul, t1, qa, rd);
    b.alu_rr(Opcode::Fmul, qa, qb, rc); // qa free after oa/ob/t2 computed
    b.alu_rr(Opcode::Fadd, t1, t1, qa);
    b.alu_rr(Opcode::Fmul, qa, qc, rb);
    b.alu_rr(Opcode::Fsub, t1, t1, qa);
    b.alu_rr(Opcode::Fmul, qa, qd, ra);
    b.alu_rr(Opcode::Fadd, qd, t1, qa);
    // Commit the rest.
    b.unary(Opcode::Fmv, qa, oa);
    b.unary(Opcode::Fmv, qb, ob);
    b.unary(Opcode::Fmv, qc, t2);
}

fn generate(input: &InputSet) -> (Program, InstrAddr) {
    let mut b = ProgramBuilder::named("su2cor");

    // ---- data ----
    b.data_word(input.size_in(1, 4, 7));
    b.data_zeroed(15);
    b.data_block(util::random_words(input, 2, 1024, 1, 10_000));
    b.data_zeroed(1024 + 256 + 4);
    b.data_f64([0.98]); // coupling constant at OUT+4, reloaded per site
    b.data_zeroed(3);

    // ---- integer registers ----
    let sweeps = Reg::new(1);
    let s = Reg::new(2);
    let i = Reg::new(3);
    let t = Reg::new(4);
    let base = Reg::new(5);
    let n2 = Reg::new(6);
    let n3 = Reg::new(7);
    let c1024 = Reg::new(8);
    let c256 = Reg::new(9);
    let cursor = Reg::new(10);
    // ---- FP registers ----
    let (qa, qb, qc, qd) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let (ra, rb, rc, rd) = (Reg::new(5), Reg::new(6), Reg::new(7), Reg::new(8));
    let (t1, t2, oa, ob) = (Reg::new(9), Reg::new(10), Reg::new(11), Reg::new(12));
    let fnorm = Reg::new(13);
    let facc = Reg::new(14);
    let couple = Reg::new(15);

    // ---- init phase: links from seeds, components in (0, 0.5] ----
    b.ld(sweeps, Reg::ZERO, PARAMS);
    b.li(c1024, 1024);
    b.li(c256, SITES);
    b.li(t, 20_000);
    b.unary(Opcode::CvtIf, fnorm, t);
    b.li(cursor, 0);
    let init_top = util::count_loop_begin(&mut b, i);
    {
        b.ld(t, i, SEEDS);
        b.unary(Opcode::CvtIf, qa, t);
        b.alu_rr(Opcode::Fdiv, qa, qa, fnorm);
        b.fsd(qa, i, LINKS);
    }
    util::count_loop_end(&mut b, i, c1024, init_top);

    // ---- computation phase: per-site path products ----
    let split = b.here();
    let sweep_top = util::count_loop_begin(&mut b, s);
    {
        let site_top = util::count_loop_begin(&mut b, i);
        {
            // Cursor bookkeeping (propagator output position).
            for step in 0..6 {
                b.alu_ri(Opcode::Addi, cursor, cursor, 1 + step);
            }
            b.sd(cursor, Reg::ZERO, OUT + 1);
            // Load link(i) into q and multiply by three path neighbours.
            b.alu_ri(Opcode::Slli, base, i, 2);
            b.fld(qa, base, LINKS);
            b.fld(qb, base, LINKS + 1);
            b.fld(qc, base, LINKS + 2);
            b.fld(qd, base, LINKS + 3);
            for (off, nreg) in [(1i64, n2), (17, n3), (33, t)] {
                b.alu_ri(Opcode::Addi, nreg, i, off);
                b.alu_ri(Opcode::Andi, nreg, nreg, SITES - 1);
                b.alu_ri(Opcode::Slli, nreg, nreg, 2);
                b.fld(ra, nreg, LINKS);
                b.fld(rb, nreg, LINKS + 1);
                b.fld(rc, nreg, LINKS + 2);
                b.fld(rd, nreg, LINKS + 3);
                emit_qmul(&mut b, (qa, qb, qc, qd), (ra, rb, rc, rd), (t1, t2, oa, ob));
            }
            // Coupling constant: reloaded every site, perfect FP-load
            // value locality (the comp-phase pattern of Table 2.1).
            b.fld(couple, Reg::ZERO, OUT + 4);
            b.alu_rr(Opcode::Fmul, qa, qa, couple);
            // Trace accumulation.
            b.fsd(qa, i, TR);
            b.alu_rr(Opcode::Fadd, facc, facc, qa);
        }
        util::count_loop_end(&mut b, i, c256, site_top);
    }
    util::count_loop_end(&mut b, s, sweeps, sweep_top);
    b.fsd(facc, Reg::ZERO, OUT);
    b.halt();

    (
        b.build()
            .expect("su2cor generator emits a well-formed program"),
        split,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    /// Host-side quaternion product for cross-checking.
    fn qmul(q: [f64; 4], r: [f64; 4]) -> [f64; 4] {
        [
            q[0] * r[0] - q[1] * r[1] - q[2] * r[2] - q[3] * r[3],
            q[0] * r[1] + q[1] * r[0] + q[2] * r[3] - q[3] * r[2],
            q[0] * r[2] - q[1] * r[3] + q[2] * r[0] + q[3] * r[1],
            q[0] * r[3] + q[1] * r[2] - q[2] * r[1] + q[3] * r[0],
        ]
    }

    #[test]
    fn first_site_trace_matches_the_host_model() {
        let input = InputSet::train(0);
        let p = build(&input);
        let data = p.data();
        // Host model of site 0's first-sweep trace.
        let link = |idx: i64| -> [f64; 4] {
            let base = (idx & (SITES - 1)) * 4;
            core::array::from_fn(|c| data[(SEEDS + base + c as i64) as usize] as f64 / 20_000.0)
        };
        let mut q = link(0);
        for off in [1i64, 17, 33] {
            q = qmul(q, link(off));
        }
        q[0] *= 0.98; // the coupling factor applied before the trace store
        let mut m = Machine::for_program(&p);
        // Run just past the first site of the first sweep by bounding the
        // budget generously and reading the final trace instead: the trace
        // of site 0 is overwritten identically every sweep (links never
        // change), so the final value equals the first-sweep value.
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let got = f64::from_bits(m.memory().read(TR as u64));
        assert!((got - q[0]).abs() < 1e-12, "trace {got} vs model {}", q[0]);
    }

    #[test]
    fn traces_stay_finite_and_bounded() {
        let p = build(&InputSet::train(1));
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        for k in 0..SITES as u64 {
            let v = f64::from_bits(m.memory().read(TR as u64 + k));
            // Each link has quaternion norm <= 1 (four components <= 0.5),
            // and the norm is multiplicative, so any product trace is <= 1.
            assert!(v.is_finite() && v.abs() <= 1.0 + 1e-9, "tr[{k}] = {v}");
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
        assert!(s.halted());
        assert!(s.instructions() > 60_000, "{}", s.instructions());
    }
}
