//! Instruction semantics and the run loop.
//!
//! [`crate::runner::run_on`] decodes the program's text once into a dense
//! array, with register operands resolved to slots of the machine's one
//! register file and branch targets made absolute, then runs one loop over
//! that array. The loop keeps the PC in a local; its one bounds check on
//! the array is the `PcOutOfRange` check.
//!
//! Arithmetic is trap-free by definition (like most simulators' functional
//! mode): integer division by zero yields 0, remainder by zero yields the
//! dividend, shift amounts are masked to 6 bits, and overflow wraps. This
//! keeps every workload deterministic without fault handling.

use vp_isa::{Instr, InstrAddr, OpCategory, Opcode, Program, Reg, RegClass};

use crate::machine::{read_slot, write_slot, DISCARD};
use crate::{Machine, RunStatus, SimError, Tracer};

/// A retired instruction delivered to a [`crate::Tracer`].
///
/// This is the unit of the SHADE-style trace: the paper's profile phase
/// consumes exactly `(static address, destination value)` pairs, and the ILP
/// machine additionally uses sources and memory effects.
#[derive(Debug, Clone, Copy)]
pub struct Retirement<'a> {
    /// Static address of the retired instruction.
    pub addr: InstrAddr,
    /// The instruction itself.
    pub instr: &'a Instr,
    /// Destination write, if the instruction produced a value:
    /// `(class, register, value)`. FP values are raw `f64` bits.
    pub dest: Option<(RegClass, Reg, u64)>,
    /// Memory effect, if any.
    pub mem: Option<MemAccess>,
    /// For stores: the value written to memory (the paper's §2.1 notes the
    /// prediction schemes "could be generalized and applied to memory
    /// storage operands"; this field lets the profiler measure that).
    pub stored: Option<u64>,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// Program counter after this instruction.
    pub next_pc: InstrAddr,
}

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Word address accessed.
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub store: bool,
}

/// One instruction of the text, decoded for the run loop.
#[derive(Debug, Clone, Copy)]
struct Decoded<'p> {
    op: Opcode,
    /// Register-file slot the result goes to: [`DISCARD`] for integer `r0`
    /// and for instructions that produce no value.
    rd: u8,
    /// Source slots; an operand the format lacks reads slot 0 (`r0`).
    rs1: u8,
    rs2: u8,
    imm: i64,
    /// Absolute branch/`jal` target; `None` when it leaves the 32-bit
    /// address space, which faults only if the branch is taken.
    target: Option<InstrAddr>,
    /// The architectural destination a [`Retirement`] reports.
    dest: Option<(RegClass, Reg)>,
    instr: &'p Instr,
}

impl<'p> Decoded<'p> {
    fn new(pc: InstrAddr, instr: &'p Instr) -> Self {
        let op = instr.op;
        let source = |class: Option<RegClass>, reg| class.map_or(0, |c| read_slot(c, reg));
        let target = if op.category() == OpCategory::Branch || op == Opcode::Jal {
            branch_target(pc, instr.imm)
        } else {
            None
        };
        Decoded {
            op,
            rd: op
                .dest_class()
                .map_or(DISCARD, |class| write_slot(class, instr.rd)),
            rs1: source(op.src1_class(), instr.rs1),
            rs2: source(op.src2_class(), instr.rs2),
            imm: instr.imm,
            target,
            dest: instr.dest(),
            instr,
        }
    }
}

fn branch_target(pc: InstrAddr, imm: i64) -> Option<InstrAddr> {
    i32::try_from(imm).ok().and_then(|d| pc.offset(d))
}

/// Runs `machine` on `program` until `halt`, a fault, or
/// `max_instructions` retirements, delivering each to `tracer`. Returns the
/// number retired and why the run stopped.
///
/// On a fault the machine holds the registers, memory and PC from before
/// the faulting instruction.
pub(crate) fn execute(
    machine: &mut Machine,
    program: &Program,
    tracer: &mut impl Tracer,
    max_instructions: u64,
) -> Result<(u64, RunStatus), SimError> {
    let code: Vec<Decoded<'_>> = program
        .iter()
        .map(|(pc, instr)| Decoded::new(pc, instr))
        .collect();
    let Machine { regs, pc, mem } = machine;
    let mut at = *pc;
    let mut retired = 0u64;
    let status = loop {
        if retired >= max_instructions {
            break Ok(RunStatus::BudgetExhausted);
        }
        let Some(d) = code.get(at.index() as usize) else {
            break Err(SimError::PcOutOfRange {
                pc: at,
                text_len: code.len(),
            });
        };
        let (a, b) = (regs[usize::from(d.rs1)], regs[usize::from(d.rs2)]);
        let f = f64::from_bits;
        let imm = d.imm as u64;
        let mut ev = Retirement {
            addr: at,
            instr: d.instr,
            dest: None,
            mem: None,
            stored: None,
            taken: None,
            next_pc: at.next(),
        };
        // A conditional branch: record the outcome and, when taken, go to
        // the precomputed target, faulting if it was unrepresentable.
        macro_rules! branch {
            ($taken:expr) => {{
                let taken = $taken;
                ev.taken = Some(taken);
                if taken {
                    match d.target {
                        Some(target) => ev.next_pc = target,
                        None => break Err(SimError::TargetOverflow { at }),
                    }
                }
                0
            }};
        }

        // Arms follow the reference programs' dynamic opcode mix, most
        // frequent first (results/perf_predecoded_interp.md). Every arm
        // yields the value for slot `d.rd`; one that produces none yields 0
        // into the discard slot.
        use Opcode::*;
        let value = match d.op {
            Addi => a.wrapping_add(imm),
            Ld | Fld => {
                let addr = a.wrapping_add(imm);
                ev.mem = Some(MemAccess { addr, store: false });
                mem.read(addr)
            }
            Beq => branch!(a == b),
            Li => imm,
            Add => a.wrapping_add(b),
            Sd | Fsd => {
                let addr = a.wrapping_add(imm);
                mem.write(addr, b);
                ev.mem = Some(MemAccess { addr, store: true });
                ev.stored = Some(b);
                0
            }
            Andi => a & imm,
            Blt => branch!((a as i64) < (b as i64)),
            Slli => a << (imm & 63),
            Fadd => (f(a) + f(b)).to_bits(),
            Xor => a ^ b,
            Jal => match d.target {
                Some(target) => {
                    ev.next_pc = target;
                    u64::from(at.next().index())
                }
                None => break Err(SimError::TargetOverflow { at }),
            },
            Fmul => (f(a) * f(b)).to_bits(),
            Srli => a >> (imm & 63),
            Mul => a.wrapping_mul(b),
            Muli => a.wrapping_mul(imm),
            Bne => branch!(a != b),
            Slt => u64::from((a as i64) < (b as i64)),
            Mv => a,
            Sub => a.wrapping_sub(b),
            And => a & b,
            Or => a | b,
            Sll => a << (b & 63),
            Srl => a >> (b & 63),
            Sra => ((a as i64) >> (b & 63)) as u64,
            Sltu => u64::from(a < b),
            Ori => a | imm,
            Xori => a ^ imm,
            Srai => ((a as i64) >> (imm & 63)) as u64,
            Slti => u64::from((a as i64) < d.imm),
            Bge => branch!((a as i64) >= (b as i64)),
            Bltu => branch!(a < b),
            Bgeu => branch!(a >= b),
            Fsub => (f(a) - f(b)).to_bits(),
            Fdiv => (f(a) / f(b)).to_bits(),
            Fmin => f(a).min(f(b)).to_bits(),
            Fmax => f(a).max(f(b)).to_bits(),
            Fneg => (-f(a)).to_bits(),
            Fmv => a,
            Feq => u64::from(f(a) == f(b)),
            Flt => u64::from(f(a) < f(b)),
            Fle => u64::from(f(a) <= f(b)),
            Div => div(a, b),
            Rem => rem(a, b),
            CvtIf => ((a as i64) as f64).to_bits(),
            CvtFi => cvt_fi(a),
            Jalr => match jalr_target(a, imm) {
                Some(target) => {
                    ev.next_pc = target;
                    u64::from(at.next().index())
                }
                None => break Err(SimError::TargetOverflow { at }),
            },
            Nop | Halt => 0,
        };
        regs[usize::from(d.rd)] = value;
        ev.dest = d.dest.map(|(class, reg)| (class, reg, value));
        tracer.retire(&ev);
        retired += 1;
        at = ev.next_pc;
        if d.op == Halt {
            break Ok(RunStatus::Halted);
        }
    };
    *pc = at;
    status.map(|status| (retired, status))
}

#[cold]
fn div(a: u64, b: u64) -> u64 {
    let (a, b) = (a as i64, b as i64);
    (if b == 0 { 0 } else { a.wrapping_div(b) }) as u64
}

#[cold]
fn rem(a: u64, b: u64) -> u64 {
    let (a, b) = (a as i64, b as i64);
    (if b == 0 { a } else { a.wrapping_rem(b) }) as u64
}

#[cold]
fn cvt_fi(a: u64) -> u64 {
    let v = f64::from_bits(a);
    (if v.is_nan() { 0 } else { v as i64 }) as u64
}

#[cold]
fn jalr_target(base: u64, imm: u64) -> Option<InstrAddr> {
    u32::try_from(base.wrapping_add(imm))
        .ok()
        .map(InstrAddr::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on;
    use crate::{FnTracer, RunLimits, RunSummary};
    use vp_isa::asm::assemble;

    type Log = Vec<(u32, Option<u64>)>;

    /// Runs from a fresh machine until the run ends, returning the machine,
    /// each retirement's address and destination value, and the outcome.
    fn run_to_end(src: &str) -> (Machine, Log, Result<RunSummary, SimError>) {
        let p = assemble(src).unwrap();
        let mut m = Machine::for_program(&p);
        let mut log = Vec::new();
        let mut record = FnTracer::new(|ev: &Retirement<'_>| {
            log.push((ev.addr.index(), ev.dest.map(|(_, _, v)| v)));
        });
        let outcome = run_on(&mut m, &p, &mut record, RunLimits::with_max(10_000));
        (m, log, outcome)
    }

    fn exec(src: &str) -> (Machine, Log) {
        let (m, log, outcome) = run_to_end(src);
        assert!(outcome.unwrap().halted(), "program did not halt");
        (m, log)
    }

    #[test]
    fn arithmetic_basics() {
        let (m, _) = exec(
            "li r1, 7\nli r2, 3\nadd r3, r1, r2\nsub r4, r1, r2\nmul r5, r1, r2\ndiv r6, r1, r2\nrem r7, r1, r2\nhalt\n",
        );
        let v = |r| m.read_reg(RegClass::Int, Reg::new(r));
        assert_eq!((v(3), v(4), v(5), v(6), v(7)), (10, 4, 21, 2, 1));
    }

    #[test]
    fn division_by_zero_is_defined() {
        let (m, _) = exec("li r1, 9\ndiv r2, r1, r0\nrem r3, r1, r0\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(2)), 0);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 9);
    }

    #[test]
    fn signed_vs_unsigned_compares() {
        let (m, _) = exec("li r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 1);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(4)), 0);
    }

    #[test]
    fn shifts_mask_amount() {
        let (m, _) = exec("li r1, 1\nli r2, 65\nsll r3, r1, r2\nli r4, -8\nsra r5, r4, r1\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 2); // 65 & 63 == 1
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(5)) as i64, -4);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (m, log) =
            exec(".data 100 200\nld r1, 1(r0)\naddi r2, r1, 1\nsd r2, 5(r0)\nld r3, 5(r0)\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 201);
        assert_eq!(m.memory().read(5), 201);
        // The store produces no dest value.
        assert_eq!(log[2].1, None);
    }

    #[test]
    fn fp_pipeline() {
        let (m, _) = exec(
            ".f64 1.5 2.5\nfld f1, (r0)\nfld f2, 1(r0)\nfadd f3, f1, f2\nfmul f4, f3, f3\nflt r5, f1, f2\ncvt.f.i r6, f4\nhalt\n",
        );
        assert_eq!(m.read_f64(Reg::new(3)), 4.0);
        assert_eq!(m.read_f64(Reg::new(4)), 16.0);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(5)), 1);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(6)), 16);
    }

    #[test]
    fn loop_retires_expected_stream() {
        let (_, log) = exec("li r1, 2\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n");
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, vec![0, 1, 2, 1, 2, 3]);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let (_, log) = exec("jal r31, fun\nhalt\nfun: li r1, 1\njalr r0, r31, 0\n");
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, vec![0, 2, 3, 1]);
        // jal wrote the link value 1.
        assert_eq!(log[0].1, Some(1));
    }

    #[test]
    fn writes_to_r0_are_not_reported_as_dest() {
        let (_, log) = exec("add r0, r0, r0\nhalt\n");
        assert_eq!(log[0].1, None);
    }

    #[test]
    fn pc_out_of_range_faults() {
        // No halt: the nop retires, then the PC falls off the end.
        let (m, log, outcome) = run_to_end("nop\n");
        assert_eq!(log.len(), 1);
        let e = outcome.unwrap_err();
        assert!(matches!(e, SimError::PcOutOfRange { .. }));
        assert_eq!(m.pc(), InstrAddr::new(1));
    }

    #[test]
    fn unsigned_branches_differ_from_signed() {
        // r1 = -1 (huge unsigned), r2 = 1.
        let (_, log) = exec(
            "li r1, -1\nli r2, 1\nbltu r1, r2, never\nbgeu r1, r2, taken\nnever: li r3, 99\ntaken: halt\n",
        );
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        // bltu not taken (unsigned -1 is max), bgeu taken, skipping @4.
        assert_eq!(addrs, vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn fmin_fmax_follow_ieee_total_order_for_ordinary_values() {
        let (m, _) = exec(
            ".f64 2.5 -3.0\nfld f1, (r0)\nfld f2, 1(r0)\nfmin f3, f1, f2\nfmax f4, f1, f2\nhalt\n",
        );
        assert_eq!(m.read_f64(Reg::new(3)), -3.0);
        assert_eq!(m.read_f64(Reg::new(4)), 2.5);
    }

    #[test]
    fn jalr_faults_on_unrepresentable_target() {
        let (m, log, outcome) = run_to_end("li r1, -5\njalr r0, r1, 0\nhalt\n");
        assert_eq!(log.len(), 1);
        let e = outcome.unwrap_err();
        assert!(matches!(e, SimError::TargetOverflow { .. }), "{e:?}");
        assert_eq!(m.pc(), InstrAddr::new(1));
    }

    #[test]
    fn branch_retirement_reports_taken_flag() {
        let p = assemble("li r1, 1\nbne r1, r0, t\nt: beq r1, r0, t\nhalt\n").unwrap();
        let mut taken_flags = Vec::new();
        let mut flags = FnTracer::new(|ev: &Retirement<'_>| taken_flags.push(ev.taken));
        crate::run(&p, &mut flags, RunLimits::default()).unwrap();
        assert_eq!(taken_flags, vec![None, Some(true), Some(false), None]);
    }

    #[test]
    fn nan_conversion_is_defined() {
        let (m, _) = exec(".f64 0.0\nfld f1, (r0)\nfdiv f2, f1, f1\ncvt.f.i r3, f2\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 0);
    }
}
