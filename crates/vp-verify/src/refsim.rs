//! A reference interpreter for the vp-isa: the differential oracle's
//! "slow but obviously right" half.
//!
//! Deliberately the opposite of `vp_sim` in engineering style: row-oriented
//! (one big match per step, no tracer plumbing), allocation-happy (memory
//! is a `BTreeMap`, the retirement trace is an owned `Vec`), and written
//! directly from the semantics prose in `vp_sim::exec` rather than from
//! its code — wrapping arithmetic goes through `i128`/`u128` widening, the
//! trap-free division/shift/NaN rules are spelled out case by case, and
//! control-flow range checks are explicit comparisons.
//!
//! The only types shared with the optimised stack are passive data
//! carriers ([`TraceEvent`], [`SimError`], [`RunStatus`]) so outcomes can
//! be compared directly.

use std::collections::BTreeMap;

use vp_isa::{Instr, InstrAddr, Opcode, Program, Reg, RegClass};
use vp_sim::record::TraceEvent;
use vp_sim::{MemAccess, RunStatus, SimError};

/// Everything the reference interpreter observed in one run.
#[derive(Debug, Clone)]
pub struct RefOutcome {
    /// Final integer register file (`r0` always 0).
    pub int_regs: Vec<u64>,
    /// Final floating-point register file (raw bits).
    pub fp_regs: Vec<u64>,
    /// Final memory contents (only words ever written or loaded from the
    /// initial image; absent words are architecturally zero).
    pub memory: BTreeMap<u64, u64>,
    /// The retirement trace, one event per retired instruction.
    pub events: Vec<TraceEvent>,
    /// How the run ended: halted / out of budget, or a simulator fault.
    pub status: Result<RunStatus, SimError>,
    /// Number of retired instructions.
    pub retired: u64,
    /// Final program counter: past the `halt`, at the next instruction when
    /// the budget ran out, and at the faulting instruction after a fault.
    pub pc: InstrAddr,
}

struct RefMachine {
    int_regs: Vec<u64>,
    fp_regs: Vec<u64>,
    memory: BTreeMap<u64, u64>,
    pc: u32,
}

impl RefMachine {
    fn new(program: &Program) -> Self {
        let mut memory = BTreeMap::new();
        for (i, &w) in program.data().iter().enumerate() {
            if w != 0 {
                memory.insert(i as u64, w);
            }
        }
        RefMachine {
            int_regs: vec![0; 32],
            fp_regs: vec![0; 32],
            memory,
            pc: 0,
        }
    }

    fn int(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.int_regs[usize::from(r)]
        }
    }

    fn fp_bits(&self, r: Reg) -> u64 {
        self.fp_regs[usize::from(r)]
    }

    fn fp(&self, r: Reg) -> f64 {
        f64::from_bits(self.fp_bits(r))
    }

    fn mem_read(&self, addr: u64) -> u64 {
        self.memory.get(&addr).copied().unwrap_or(0)
    }

    fn mem_write(&mut self, addr: u64, value: u64) {
        self.memory.insert(addr, value);
    }
}

/// Widening wrapping helpers: same results as the optimised simulator's
/// `wrapping_*`, derived differently on purpose.
fn wadd(a: u64, b: u64) -> u64 {
    ((u128::from(a) + u128::from(b)) & u128::from(u64::MAX)) as u64
}

fn wsub(a: u64, b: u64) -> u64 {
    ((u128::from(a) + (u128::from(u64::MAX) - u128::from(b)) + 1) & u128::from(u64::MAX)) as u64
}

fn wmul(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) & u128::from(u64::MAX)) as u64
}

/// Signed division with the simulator's trap-free rules: divide-by-zero
/// yields 0, and `i64::MIN / -1` yields `i64::MIN` (the wrap case).
fn sdiv(a: i64, b: i64) -> i64 {
    if b == 0 {
        0
    } else {
        (i128::from(a) / i128::from(b)) as i64
    }
}

/// Signed remainder: remainder-by-zero yields the dividend, and
/// `i64::MIN % -1` yields 0.
fn srem(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        (i128::from(a) % i128::from(b)) as i64
    }
}

/// A PC-relative control target, with the explicit range rules: the
/// immediate must fit an `i32` and the resulting address must fit a `u32`.
fn rel_target(pc: u32, imm: i64) -> Result<u32, SimError> {
    let at = InstrAddr::new(pc);
    if imm < i64::from(i32::MIN) || imm > i64::from(i32::MAX) {
        return Err(SimError::TargetOverflow { at });
    }
    let t = i64::from(pc) + imm;
    if t < 0 || t > i64::from(u32::MAX) {
        return Err(SimError::TargetOverflow { at });
    }
    Ok(t as u32)
}

/// Runs `program` on the reference interpreter for at most
/// `max_instructions` retirements.
pub fn ref_run(program: &Program, max_instructions: u64) -> RefOutcome {
    let mut m = RefMachine::new(program);
    let mut events = Vec::new();
    let mut retired = 0u64;

    let status = loop {
        if retired >= max_instructions {
            break Ok(RunStatus::BudgetExhausted);
        }
        match ref_step(&mut m, program, &mut events) {
            Ok(halted) => {
                retired += 1;
                if halted {
                    break Ok(RunStatus::Halted);
                }
            }
            Err(e) => break Err(e),
        }
    };

    RefOutcome {
        int_regs: m.int_regs,
        fp_regs: m.fp_regs,
        memory: m.memory,
        events,
        status,
        retired,
        pc: InstrAddr::new(m.pc),
    }
}

/// Executes one instruction; returns `Ok(true)` when a `halt` retired.
#[allow(clippy::too_many_lines)]
fn ref_step(
    m: &mut RefMachine,
    program: &Program,
    events: &mut Vec<TraceEvent>,
) -> Result<bool, SimError> {
    let pc = m.pc;
    let Some(ins) = program.fetch(InstrAddr::new(pc)) else {
        return Err(SimError::PcOutOfRange {
            pc: InstrAddr::new(pc),
            text_len: program.len(),
        });
    };

    let mut value: Option<u64> = None;
    let mut mem: Option<MemAccess> = None;
    let mut stored: Option<u64> = None;
    let mut taken: Option<bool> = None;
    let mut next = pc + 1;
    let mut halted = false;

    use Opcode::*;
    match ins.op {
        Add => value = Some(wadd(m.int(ins.rs1), m.int(ins.rs2))),
        Sub => value = Some(wsub(m.int(ins.rs1), m.int(ins.rs2))),
        Mul => value = Some(wmul(m.int(ins.rs1), m.int(ins.rs2))),
        Div => value = Some(sdiv(m.int(ins.rs1) as i64, m.int(ins.rs2) as i64) as u64),
        Rem => value = Some(srem(m.int(ins.rs1) as i64, m.int(ins.rs2) as i64) as u64),
        And => value = Some(m.int(ins.rs1) & m.int(ins.rs2)),
        Or => value = Some(m.int(ins.rs1) | m.int(ins.rs2)),
        Xor => value = Some(m.int(ins.rs1) ^ m.int(ins.rs2)),
        Sll => value = Some(m.int(ins.rs1) << (m.int(ins.rs2) % 64)),
        Srl => value = Some(m.int(ins.rs1) >> (m.int(ins.rs2) % 64)),
        Sra => value = Some(((m.int(ins.rs1) as i64) >> (m.int(ins.rs2) % 64)) as u64),
        Slt => value = Some(u64::from((m.int(ins.rs1) as i64) < (m.int(ins.rs2) as i64))),
        Sltu => value = Some(u64::from(m.int(ins.rs1) < m.int(ins.rs2))),

        Addi => value = Some(wadd(m.int(ins.rs1), ins.imm as u64)),
        Andi => value = Some(m.int(ins.rs1) & ins.imm as u64),
        Ori => value = Some(m.int(ins.rs1) | ins.imm as u64),
        Xori => value = Some(m.int(ins.rs1) ^ ins.imm as u64),
        Slli => value = Some(m.int(ins.rs1) << (ins.imm as u64 % 64)),
        Srli => value = Some(m.int(ins.rs1) >> (ins.imm as u64 % 64)),
        Srai => value = Some(((m.int(ins.rs1) as i64) >> (ins.imm as u64 % 64)) as u64),
        Slti => value = Some(u64::from((m.int(ins.rs1) as i64) < ins.imm)),
        Muli => value = Some(wmul(m.int(ins.rs1), ins.imm as u64)),

        Li => value = Some(ins.imm as u64),
        Mv => value = Some(m.int(ins.rs1)),

        Ld | Fld => {
            let addr = wadd(m.int(ins.rs1), ins.imm as u64);
            value = Some(m.mem_read(addr));
            mem = Some(MemAccess { addr, store: false });
        }
        Sd | Fsd => {
            let addr = wadd(m.int(ins.rs1), ins.imm as u64);
            let v = if ins.op == Fsd {
                m.fp_bits(ins.rs2)
            } else {
                m.int(ins.rs2)
            };
            m.mem_write(addr, v);
            mem = Some(MemAccess { addr, store: true });
            stored = Some(v);
        }

        Fadd => value = Some((m.fp(ins.rs1) + m.fp(ins.rs2)).to_bits()),
        Fsub => value = Some((m.fp(ins.rs1) - m.fp(ins.rs2)).to_bits()),
        Fmul => value = Some((m.fp(ins.rs1) * m.fp(ins.rs2)).to_bits()),
        Fdiv => value = Some((m.fp(ins.rs1) / m.fp(ins.rs2)).to_bits()),
        Fmin => value = Some(m.fp(ins.rs1).min(m.fp(ins.rs2)).to_bits()),
        Fmax => value = Some(m.fp(ins.rs1).max(m.fp(ins.rs2)).to_bits()),
        Fneg => value = Some((-m.fp(ins.rs1)).to_bits()),
        Fmv => value = Some(m.fp(ins.rs1).to_bits()),
        CvtIf => value = Some(((m.int(ins.rs1) as i64) as f64).to_bits()),
        CvtFi => {
            let v = m.fp(ins.rs1);
            value = Some(if v.is_nan() { 0 } else { (v as i64) as u64 });
        }
        Feq => value = Some(u64::from(m.fp(ins.rs1) == m.fp(ins.rs2))),
        Flt => value = Some(u64::from(m.fp(ins.rs1) < m.fp(ins.rs2))),
        Fle => value = Some(u64::from(m.fp(ins.rs1) <= m.fp(ins.rs2))),

        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let (a, b) = (m.int(ins.rs1), m.int(ins.rs2));
            let t = match ins.op {
                Beq => a == b,
                Bne => a != b,
                Blt => (a as i64) < (b as i64),
                Bge => (a as i64) >= (b as i64),
                Bltu => a < b,
                Bgeu => a >= b,
                _ => unreachable!(),
            };
            taken = Some(t);
            if t {
                next = rel_target(pc, ins.imm)?;
            }
        }
        Jal => {
            value = Some(u64::from(pc + 1));
            next = rel_target(pc, ins.imm)?;
        }
        Jalr => {
            value = Some(u64::from(pc + 1));
            let target = wadd(m.int(ins.rs1), ins.imm as u64);
            if target > u64::from(u32::MAX) {
                return Err(SimError::TargetOverflow {
                    at: InstrAddr::new(pc),
                });
            }
            next = target as u32;
        }

        Nop => {}
        Halt => halted = true,
    }

    // Architecturally visible destination write: the opcode must have a
    // destination class, and integer writes to the hardwired zero register
    // are discarded entirely (not reported as a dest).
    let dest = match (dest_target(ins), value) {
        (Some((class, rd)), Some(v)) => {
            match class {
                RegClass::Int => m.int_regs[usize::from(rd)] = v,
                RegClass::Fp => m.fp_regs[usize::from(rd)] = v,
            }
            Some((class, rd, v))
        }
        _ => None,
    };

    m.pc = next;
    events.push(TraceEvent {
        addr: InstrAddr::new(pc),
        dest,
        mem,
        stored,
        taken,
        next_pc: InstrAddr::new(next),
    });
    Ok(halted)
}

/// The architecturally visible destination of an instruction, spelled out
/// opcode by opcode (independent of `Instr::dest`).
fn dest_target(ins: &Instr) -> Option<(RegClass, Reg)> {
    use Opcode::*;
    let class = match ins.op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi
        | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Muli | Li | Mv | Ld | Feq | Flt | Fle
        | CvtFi | Jal | Jalr => RegClass::Int,
        Fld | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fneg | Fmv | CvtIf => RegClass::Fp,
        Sd | Fsd | Beq | Bne | Blt | Bge | Bltu | Bgeu | Nop | Halt => return None,
    };
    if class == RegClass::Int && ins.rd.is_zero() {
        return None;
    }
    Some((class, ins.rd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;

    fn run_src(src: &str) -> RefOutcome {
        ref_run(&assemble(src).unwrap(), 10_000)
    }

    #[test]
    fn arithmetic_edge_cases_match_the_documented_semantics() {
        let out = run_src(
            "li r1, 9\n\
             div r2, r1, r0\n\
             rem r3, r1, r0\n\
             li r4, -9223372036854775808\n\
             li r5, -1\n\
             div r6, r4, r5\n\
             rem r7, r4, r5\n\
             halt\n",
        );
        assert_eq!(out.int_regs[2], 0); // div by zero
        assert_eq!(out.int_regs[3], 9); // rem by zero: dividend
        assert_eq!(out.int_regs[6], i64::MIN as u64); // MIN / -1 wraps
        assert_eq!(out.int_regs[7], 0); // MIN % -1
        assert_eq!(out.status, Ok(RunStatus::Halted));
    }

    #[test]
    fn loop_produces_one_event_per_retirement() {
        let out = run_src("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n");
        assert_eq!(out.retired, 1 + 3 * 2 + 1);
        assert_eq!(out.events.len() as u64, out.retired);
        // The final bne is not taken.
        let last_bne = out.events.iter().rev().find(|e| e.taken.is_some()).unwrap();
        assert_eq!(last_bne.taken, Some(false));
    }

    #[test]
    fn faults_carry_the_faulting_pc_and_emit_no_event() {
        let out = run_src("nop\n"); // falls off the end of text
        assert_eq!(out.retired, 1);
        assert_eq!(out.events.len(), 1);
        assert_eq!(
            out.status,
            Err(SimError::PcOutOfRange {
                pc: InstrAddr::new(1),
                text_len: 1
            })
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let out = run_src("top: beq r0, r0, top\nhalt\n");
        assert_eq!(out.status, Ok(RunStatus::BudgetExhausted));
        assert_eq!(out.retired, 10_000);
    }
}
