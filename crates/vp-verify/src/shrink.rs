//! Automatic input shrinking for failing fuzz programs.
//!
//! Given a program that makes the differential oracle diverge, greedily
//! search for a smaller program that *still* diverges: delete instructions
//! (fixing up PC-relative branch offsets so control flow stays
//! well-formed), truncate the data image, simplify immediates and strip
//! directives. Every candidate must keep
//! [`Program::control_flow_violations`] empty — a shrunk repro that
//! escapes the text segment would be reproducing a different bug.
//!
//! The predicate decides what "still fails" means; the fuzz harness passes
//! "the oracle, run only through the stage that diverged, still diverges
//! in that stage", so a shrink step cannot slide to a divergence in an
//! earlier stage, and no candidate pays for the stages after it.

use vp_isa::{Directive, Opcode, Program};

/// `r19` holds absolute `jalr` targets in generated programs (see
/// `generate`); deleting an instruction must slide those absolute
/// addresses too, or every deletion before a `jalr` pair would be vetoed
/// by the predicate for the wrong reason.
const JALR_TARGET: u8 = 19;

/// Greedily shrinks `program` while `still_fails` keeps returning `true`.
///
/// Returns the smallest program found and the number of accepted shrink
/// steps (bounded by `max_steps`).
pub fn shrink_program(
    program: &Program,
    still_fails: &mut dyn FnMut(&Program) -> bool,
    max_steps: u32,
) -> (Program, u32) {
    let mut current = program.clone();
    let mut steps = 0u32;
    while steps < max_steps {
        match first_accepted(&current, still_fails) {
            Some(next) => {
                current = next;
                steps += 1;
            }
            None => break,
        }
    }
    (current, steps)
}

/// Tries every candidate in reduction-power order and returns the first
/// one the predicate accepts.
fn first_accepted(p: &Program, still_fails: &mut dyn FnMut(&Program) -> bool) -> Option<Program> {
    candidates(p)
        .into_iter()
        .find(|c| c.control_flow_violations().is_empty() && still_fails(c))
}

fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    let n = p.text().len();

    // 1. Instruction deletion, most reduction first.
    for i in 0..n {
        if p.text()[i].op == Opcode::Halt && i == n - 1 {
            continue; // keep the final halt
        }
        if let Some(c) = delete_instr(p, i) {
            out.push(c);
        }
    }

    // 2. Data-image truncation: empty, then halves.
    if !p.data().is_empty() {
        out.push(with_data(p, Vec::new()));
        let half = p.data().len() / 2;
        if half > 0 {
            out.push(with_data(p, p.data()[..half].to_vec()));
        }
    }

    // 3. Immediate simplification (zero, then halving) for non-control
    //    instructions: control offsets encode structure, not magnitude.
    for (i, ins) in p.text().iter().enumerate() {
        if ins.imm == 0 || is_control(ins.op) {
            continue;
        }
        out.push(with_imm(p, i, 0));
        if ins.imm / 2 != 0 {
            out.push(with_imm(p, i, ins.imm / 2));
        }
    }

    // 4. Directive stripping.
    for (i, ins) in p.text().iter().enumerate() {
        if ins.directive != Directive::None {
            let mut text = p.text().to_vec();
            text[i] = text[i].with_directive(Directive::None);
            out.push(Program::new(p.name(), text, p.data().to_vec()));
        }
    }

    out
}

fn is_control(op: Opcode) -> bool {
    op.is_branch() || matches!(op, Opcode::Jal | Opcode::Jalr)
}

/// Removes the instruction at `removed`, re-aiming every PC-relative
/// branch/`jal` and every absolute `jalr` target (`li r19, addr`) across
/// the gap. Returns `None` when an offset cannot be preserved (e.g. a
/// branch targeting the removed slot from the removed slot itself).
fn delete_instr(p: &Program, removed: usize) -> Option<Program> {
    let old = p.text();
    let mut text = Vec::with_capacity(old.len() - 1);
    for (j, ins) in old.iter().enumerate() {
        if j == removed {
            continue;
        }
        let new_j = if j > removed { j - 1 } else { j };
        let mut ins = *ins;
        if ins.op.is_branch() || ins.op == Opcode::Jal {
            let target = i64::try_from(j).ok()? + ins.imm;
            if target < 0 {
                return None;
            }
            // A target at the removed slot re-aims at the instruction
            // that slides into it.
            let new_target = if target > removed as i64 {
                target - 1
            } else {
                target
            };
            ins.imm = new_target - new_j as i64;
        } else if ins.op == Opcode::Li && usize::from(ins.rd) == usize::from(JALR_TARGET) {
            // Absolute jalr-target convention from the generator.
            if ins.imm > removed as i64 {
                ins.imm -= 1;
            }
        }
        text.push(ins);
    }
    Some(Program::new(p.name(), text, p.data().to_vec()))
}

fn with_data(p: &Program, data: Vec<u64>) -> Program {
    Program::new(p.name(), p.text().to_vec(), data)
}

fn with_imm(p: &Program, i: usize, imm: i64) -> Program {
    let mut text = p.text().to_vec();
    text[i].imm = imm;
    Program::new(p.name(), text, p.data().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_sim::{run, NullTracer, RunLimits, RunStatus};

    /// Shrinking against "contains a mul" melts everything else away.
    #[test]
    fn shrinks_to_the_predicate_kernel() {
        let p = assemble(
            ".data 7 8 9 10\n\
             li r8, 3\n\
             li r9, 5\n\
             add r10, r8, r9\n\
             mul r11, r8, r9\n\
             sub r12, r10, r11\n\
             li r1, 4\n\
             top: addi r1, r1, -1\n\
             bne r1, r0, top\n\
             halt\n",
        )
        .unwrap();
        let (shrunk, steps) = shrink_program(
            &p,
            &mut |c| c.text().iter().any(|i| i.op == Opcode::Mul),
            100,
        );
        assert!(steps > 0);
        // Minimal: the mul and the final halt survive; data is gone.
        assert_eq!(shrunk.text().len(), 2);
        assert_eq!(shrunk.text()[0].op, Opcode::Mul);
        assert_eq!(shrunk.text()[1].op, Opcode::Halt);
        assert!(shrunk.data().is_empty());
        assert!(shrunk.control_flow_violations().is_empty());
    }

    /// Branch offsets survive deletions: the shrunk loop still runs and
    /// halts.
    #[test]
    fn branch_fixup_preserves_executability() {
        let p = assemble(
            "li r8, 1\n\
             li r1, 3\n\
             top: addi r8, r8, 2\n\
             nop\n\
             addi r1, r1, -1\n\
             bne r1, r0, top\n\
             halt\n",
        )
        .unwrap();
        // Require the loop structure (a backward branch) to survive.
        let (shrunk, _) = shrink_program(
            &p,
            &mut |c| {
                c.text().iter().any(|i| i.op.is_branch())
                    && run(c, &mut NullTracer, RunLimits::with_max(10_000))
                        .map(|s| s.status() == RunStatus::Halted)
                        .unwrap_or(false)
            },
            100,
        );
        assert!(shrunk.text().len() < p.text().len());
        let summary = run(&shrunk, &mut NullTracer, RunLimits::with_max(10_000)).unwrap();
        assert_eq!(summary.status(), RunStatus::Halted);
    }

    #[test]
    fn directives_and_immediates_are_simplified() {
        let p = assemble("li.st r8, 5\nhalt\n").unwrap();
        let (shrunk, _) = shrink_program(
            &p,
            &mut |c| c.text().iter().any(|i| i.op == Opcode::Li),
            100,
        );
        assert_eq!(shrunk.text()[0].op, Opcode::Li);
        assert_eq!(shrunk.text()[0].imm, 0);
        assert!(shrunk.text().iter().all(|i| i.directive == Directive::None));
    }
}
