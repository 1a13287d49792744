//! Random well-formed program generation over the vp-isa instruction set.
//!
//! The generator is seeded (via [`vp_rng::Rng`]) and deterministic: the
//! same seed and configuration always produce the same program. Output is
//! biased toward the shapes the paper's workloads exhibit — counted loops,
//! stride address arithmetic walking a data region, data-dependent loads,
//! and directive-tagged value producers — because those are the paths the
//! predictor stack actually exercises.
//!
//! # Well-formedness invariant
//!
//! Every generated program satisfies
//! [`Program::control_flow_violations`]`().is_empty()` *and* halts within a
//! statically bounded instruction budget:
//!
//! - loops are counted (`li rC, trip … addi rC, rC, -1; bne rC, r0, top`)
//!   with the counter registers `r1..r3` reserved — loop bodies never
//!   write them;
//! - forward skip branches and `jal`s land only on *atom* boundaries, so
//!   they can never jump into the middle of a multi-instruction idiom
//!   (the `li`/`jalr` pair, the masked data-dependent load, the
//!   store→load pair) nor skip a loop-counter decrement;
//! - `jalr` targets are materialised as absolute addresses of the very
//!   next atom, so indirect jumps are exercised without ever leaving text.
//!
//! The generator builds each segment as a list of atoms (1–2 instruction
//! groups) and resolves branch offsets in a final flattening pass.

use vp_isa::{Directive, Instr, Opcode, Program, Reg};
use vp_rng::Rng;

/// Register conventions used by generated programs (documented so shrunk
/// repros stay readable):
/// `r1..=r3` loop counters, `r4..=r7` stride pointers, `r8..=r15` integer
/// scratch, `r16` data-dependent address temp, `r17..=r19` jump links and
/// targets, `f0..=f7` floating-point scratch.
const LOOP_COUNTERS: [u8; 3] = [1, 2, 3];
const POINTERS: [u8; 4] = [4, 5, 6, 7];
const INT_SCRATCH: [u8; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
const ADDR_TEMP: u8 = 16;
const JAL_LINK: u8 = 17;
const JALR_LINK: u8 = 18;
const JALR_TARGET: u8 = 19;
const FP_SCRATCH: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Tuning knobs for [`gen_program`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of sequential counted loops.
    pub max_loops: usize,
    /// Maximum atoms per loop body.
    pub max_body: usize,
    /// Maximum loop trip count.
    pub max_trip: u64,
    /// Maximum atoms in the straight-line epilogue segment.
    pub straight: usize,
    /// Words in the initial data image (must be a power of two: it is
    /// used as an address mask for data-dependent loads).
    pub data_words: usize,
    /// Probability that a value producer carries a predictability
    /// directive.
    pub directive_prob: f64,
    /// When set, the generator is steered toward emitting this opcode
    /// (coverage-guided fuzzing sets the least-covered one).
    pub focus: Option<Opcode>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_loops: 3,
            max_body: 10,
            max_trip: 8,
            straight: 8,
            data_words: 64,
            directive_prob: 0.3,
            focus: None,
        }
    }
}

/// A 1–2 instruction group whose boundary is a legal branch target.
enum Atom {
    /// Straight-line instructions (no control flow).
    Plain(Vec<Instr>),
    /// A conditional forward branch to the start of `target_atom`
    /// (`atoms.len()` means the segment's end boundary).
    Branch {
        op: Opcode,
        rs1: Reg,
        rs2: Reg,
        target_atom: usize,
    },
    /// `jal rd, +1`: link and fall through to the next atom.
    JalNext { rd: Reg },
    /// `li r19, <abs addr after pair>; jalr r18, r19, 0`.
    JalrNext,
}

impl Atom {
    fn len(&self) -> u32 {
        match self {
            Atom::Plain(v) => v.len() as u32,
            Atom::Branch { .. } | Atom::JalNext { .. } => 1,
            Atom::JalrNext => 2,
        }
    }
}

/// Generates a random well-formed program.
///
/// # Examples
///
/// ```
/// use vp_rng::Rng;
/// use vp_verify::{gen_program, GenConfig};
/// let mut rng = Rng::seed_from_u64(7);
/// let p = gen_program(&mut rng, &GenConfig::default(), "demo");
/// assert!(p.control_flow_violations().is_empty());
/// ```
pub fn gen_program(rng: &mut Rng, cfg: &GenConfig, name: &str) -> Program {
    assert!(
        cfg.data_words.is_power_of_two(),
        "data_words must be a power of two (used as an address mask)"
    );
    let data: Vec<u64> = (0..cfg.data_words)
        .map(|_| rng.gen_range(0..1024u64))
        .collect();

    let mut text = Vec::new();
    emit_prologue(rng, cfg, &mut text);

    let loops = rng.gen_range(1..=cfg.max_loops.max(1));
    for _ in 0..loops {
        let counter = Reg::new(*rng.choose(&LOOP_COUNTERS).unwrap());
        let trip = rng.gen_range(1..=cfg.max_trip.max(1)) as i64;
        text.push(Instr::rd_imm(Opcode::Li, counter, trip));
        let body_len = rng.gen_range(1..=cfg.max_body.max(1));
        let body = gen_atoms(rng, cfg, body_len);
        let top = text.len() as u32;
        flatten(&body, &mut text);
        text.push(Instr::alu_ri(Opcode::Addi, counter, counter, -1));
        let back = i64::from(top) - text.len() as i64;
        text.push(Instr::branch(Opcode::Bne, counter, Reg::ZERO, back));
    }

    let straight_len = rng.gen_range(1..=cfg.straight.max(1));
    let straight = gen_atoms(rng, cfg, straight_len);
    flatten(&straight, &mut text);
    text.push(Instr::halt());

    let program = Program::new(name, text, data);
    let tagged = program.with_directives(|_, _| {
        if rng.gen_bool(cfg.directive_prob) {
            if rng.gen_bool(0.5) {
                Directive::Stride
            } else {
                Directive::LastValue
            }
        } else {
            Directive::None
        }
    });
    debug_assert!(tagged.control_flow_violations().is_empty());
    tagged
}

/// Pointer and scratch initialisation: every register a body might *read*
/// gets a defined small value, and stride pointers start inside the data
/// region.
fn emit_prologue(rng: &mut Rng, cfg: &GenConfig, text: &mut Vec<Instr>) {
    let mask = cfg.data_words as i64 - 1;
    for &p in &POINTERS {
        text.push(Instr::rd_imm(
            Opcode::Li,
            Reg::new(p),
            rng.gen_range(0..=mask),
        ));
    }
    for &s in &INT_SCRATCH {
        text.push(Instr::rd_imm(
            Opcode::Li,
            Reg::new(s),
            rng.gen_range(-64..=64i64),
        ));
    }
    // Seed a few FP registers from the data image (f64-reinterpreted
    // integers are perfectly good fuzz values).
    for f in 0..3u8 {
        text.push(Instr::load(
            Opcode::Fld,
            Reg::new(FP_SCRATCH[usize::from(f)]),
            Reg::ZERO,
            rng.gen_range(0..=mask),
        ));
    }
}

/// Generates `n` atoms of segment body.
fn gen_atoms(rng: &mut Rng, cfg: &GenConfig, n: usize) -> Vec<Atom> {
    let mut atoms = Vec::with_capacity(n);
    for i in 0..n {
        // Coverage steering: when a focus opcode is set, force it often.
        if let Some(op) = cfg.focus {
            if rng.gen_bool(0.4) {
                if let Some(atom) = atom_for(rng, cfg, op, i, n) {
                    atoms.push(atom);
                    continue;
                }
            }
        }
        atoms.push(random_atom(rng, cfg, i, n));
    }
    atoms
}

fn int_scratch(rng: &mut Rng) -> Reg {
    Reg::new(*rng.choose(&INT_SCRATCH).unwrap())
}

fn fp_scratch(rng: &mut Rng) -> Reg {
    Reg::new(*rng.choose(&FP_SCRATCH).unwrap())
}

fn pointer(rng: &mut Rng) -> Reg {
    Reg::new(*rng.choose(&POINTERS).unwrap())
}

/// A random atom at position `i` of `n` in its segment.
fn random_atom(rng: &mut Rng, cfg: &GenConfig, i: usize, n: usize) -> Atom {
    // Weighted shape choice; weights favour the ALU/memory mix of the
    // paper's integer workloads with a meaningful FP and control tail.
    match rng.gen_range(0..100u32) {
        0..=29 => Atom::Plain(vec![int_alu(rng)]),
        30..=44 => Atom::Plain(vec![fp_op(rng)]),
        45..=52 => Atom::Plain(vec![mem_op(rng, cfg)]),
        53..=59 => Atom::Plain(store_then_load(rng, cfg)),
        60..=69 => Atom::Plain(vec![pointer_advance(rng)]),
        70..=79 => Atom::Plain(data_dependent_load(rng, cfg)),
        80..=89 if i + 1 < n || n > 0 => forward_branch(rng, i, n),
        90..=93 => Atom::JalNext {
            rd: Reg::new(JAL_LINK),
        },
        94..=95 => Atom::JalrNext,
        _ => Atom::Plain(vec![constant_or_move(rng)]),
    }
}

/// An atom exercising a *specific* opcode (coverage steering); `None` when
/// the opcode cannot be emitted safely in a generated body (only `Halt`).
fn atom_for(rng: &mut Rng, cfg: &GenConfig, op: Opcode, i: usize, n: usize) -> Option<Atom> {
    use Opcode::*;
    let a = match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
            Atom::Plain(vec![Instr::alu_rr(
                op,
                int_scratch(rng),
                int_scratch(rng),
                int_scratch(rng),
            )])
        }
        Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Muli => {
            Atom::Plain(vec![Instr::alu_ri(
                op,
                int_scratch(rng),
                int_scratch(rng),
                rng.gen_range(-16..=16i64),
            )])
        }
        Li => Atom::Plain(vec![Instr::rd_imm(
            Li,
            int_scratch(rng),
            rng.gen_range(-256..=256i64),
        )]),
        Mv => Atom::Plain(vec![Instr::unary(Mv, int_scratch(rng), int_scratch(rng))]),
        Ld | Fld | Sd | Fsd => Atom::Plain(vec![mem_specific(rng, cfg, op)]),
        Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => Atom::Plain(vec![Instr::alu_rr(
            op,
            fp_scratch(rng),
            fp_scratch(rng),
            fp_scratch(rng),
        )]),
        Fneg | Fmv => Atom::Plain(vec![Instr::unary(op, fp_scratch(rng), fp_scratch(rng))]),
        CvtIf => Atom::Plain(vec![Instr::unary(CvtIf, fp_scratch(rng), int_scratch(rng))]),
        CvtFi => Atom::Plain(vec![Instr::unary(CvtFi, int_scratch(rng), fp_scratch(rng))]),
        Feq | Flt | Fle => Atom::Plain(vec![Instr::alu_rr(
            op,
            int_scratch(rng),
            fp_scratch(rng),
            fp_scratch(rng),
        )]),
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            if let Atom::Branch {
                rs1,
                rs2,
                target_atom,
                ..
            } = forward_branch(rng, i, n)
            {
                Atom::Branch {
                    op,
                    rs1,
                    rs2,
                    target_atom,
                }
            } else {
                unreachable!("forward_branch always returns a Branch atom")
            }
        }
        Jal => Atom::JalNext {
            rd: Reg::new(JAL_LINK),
        },
        Jalr => Atom::JalrNext,
        Nop => Atom::Plain(vec![Instr::nop()]),
        Halt => return None,
    };
    Some(a)
}

fn int_alu(rng: &mut Rng) -> Instr {
    use Opcode::*;
    const RR: [Opcode; 13] = [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    ];
    const RI: [Opcode; 9] = [Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Muli];
    if rng.gen_bool(0.5) {
        Instr::alu_rr(
            *rng.choose(&RR).unwrap(),
            int_scratch(rng),
            int_scratch(rng),
            int_scratch(rng),
        )
    } else {
        Instr::alu_ri(
            *rng.choose(&RI).unwrap(),
            int_scratch(rng),
            int_scratch(rng),
            rng.gen_range(-16..=16i64),
        )
    }
}

fn fp_op(rng: &mut Rng) -> Instr {
    use Opcode::*;
    const FRR: [Opcode; 6] = [Fadd, Fsub, Fmul, Fdiv, Fmin, Fmax];
    match rng.gen_range(0..4u32) {
        0 | 1 => Instr::alu_rr(
            *rng.choose(&FRR).unwrap(),
            fp_scratch(rng),
            fp_scratch(rng),
            fp_scratch(rng),
        ),
        2 => {
            let cmp = [Feq, Flt, Fle];
            Instr::alu_rr(
                *rng.choose(&cmp).unwrap(),
                int_scratch(rng),
                fp_scratch(rng),
                fp_scratch(rng),
            )
        }
        _ => {
            let un = [Fneg, Fmv, CvtIf, CvtFi];
            match *rng.choose(&un).unwrap() {
                CvtIf => Instr::unary(CvtIf, fp_scratch(rng), int_scratch(rng)),
                CvtFi => Instr::unary(CvtFi, int_scratch(rng), fp_scratch(rng)),
                op => Instr::unary(op, fp_scratch(rng), fp_scratch(rng)),
            }
        }
    }
}

fn mem_op(rng: &mut Rng, cfg: &GenConfig) -> Instr {
    use Opcode::*;
    let op = *rng.choose(&[Ld, Fld, Sd, Fsd]).unwrap();
    mem_specific(rng, cfg, op)
}

fn mem_specific(rng: &mut Rng, cfg: &GenConfig, op: Opcode) -> Instr {
    use Opcode::*;
    let base = pointer(rng);
    let off = rng.gen_range(0..cfg.data_words as i64);
    match op {
        Ld => Instr::load(Ld, int_scratch(rng), base, off),
        Fld => Instr::load(Fld, fp_scratch(rng), base, off),
        Sd => Instr::store(Sd, int_scratch(rng), base, off),
        Fsd => Instr::store(Fsd, fp_scratch(rng), base, off),
        _ => unreachable!("mem_specific called with non-memory opcode"),
    }
}

/// `addi rP, rP, stride`: the strided address walk the paper's predictors
/// are built for.
fn pointer_advance(rng: &mut Rng) -> Instr {
    let p = pointer(rng);
    let stride = rng.gen_range(1..=8i64);
    Instr::alu_ri(Opcode::Addi, p, p, stride)
}

/// `andi r16, rS, mask; ld rD, 0(r16)`: a load whose address depends on
/// computed data, masked into the data region.
fn data_dependent_load(rng: &mut Rng, cfg: &GenConfig) -> Vec<Instr> {
    let mask = cfg.data_words as i64 - 1;
    let temp = Reg::new(ADDR_TEMP);
    vec![
        Instr::alu_ri(Opcode::Andi, temp, int_scratch(rng), mask),
        Instr::load(Opcode::Ld, int_scratch(rng), temp, 0),
    ]
}

/// `sd rS, off(rP); ld rD, off(rP)`, in integer or FP forms: a load of
/// the word a store has just written, so the load's issue waits on the
/// store in the ILP model and the simulator reads back a fresh write.
/// Half the time the load refills the stored register, which chains the
/// dependence through memory from one loop iteration to the next.
fn store_then_load(rng: &mut Rng, cfg: &GenConfig) -> Vec<Instr> {
    let base = pointer(rng);
    let off = rng.gen_range(0..cfg.data_words as i64);
    let (store, value, reload) = if rng.gen_bool(0.5) {
        (Opcode::Sd, int_scratch(rng), Opcode::Ld)
    } else {
        (Opcode::Fsd, fp_scratch(rng), Opcode::Fld)
    };
    let (load, dest) = if rng.gen_bool(0.5) {
        (reload, value)
    } else if rng.gen_bool(0.5) {
        (Opcode::Ld, int_scratch(rng))
    } else {
        (Opcode::Fld, fp_scratch(rng))
    };
    vec![
        Instr::store(store, value, base, off),
        Instr::load(load, dest, base, off),
    ]
}

fn constant_or_move(rng: &mut Rng) -> Instr {
    if rng.gen_bool(0.5) {
        Instr::rd_imm(Opcode::Li, int_scratch(rng), rng.gen_range(-256..=256i64))
    } else {
        Instr::unary(Opcode::Mv, int_scratch(rng), int_scratch(rng))
    }
}

/// A conditional branch skipping forward to a later atom boundary (the
/// segment end included).
fn forward_branch(rng: &mut Rng, i: usize, n: usize) -> Atom {
    use Opcode::*;
    let op = *rng.choose(&[Beq, Bne, Blt, Bge, Bltu, Bgeu]).unwrap();
    let target_atom = rng.gen_range(i + 1..=n);
    Atom::Branch {
        op,
        rs1: int_scratch(rng),
        rs2: int_scratch(rng),
        target_atom,
    }
}

/// Flattens atoms into `text`, resolving branch offsets to atom-boundary
/// instruction indices and `jalr` absolute targets.
fn flatten(atoms: &[Atom], text: &mut Vec<Instr>) {
    let base = text.len() as u32;
    // Instruction start index of each atom, plus the end boundary.
    let mut starts = Vec::with_capacity(atoms.len() + 1);
    let mut at = base;
    for atom in atoms {
        starts.push(at);
        at += atom.len();
    }
    starts.push(at);

    for (idx, atom) in atoms.iter().enumerate() {
        match atom {
            Atom::Plain(instrs) => text.extend(instrs.iter().copied()),
            Atom::Branch {
                op,
                rs1,
                rs2,
                target_atom,
            } => {
                let here = starts[idx];
                let offset = i64::from(starts[*target_atom]) - i64::from(here);
                text.push(Instr::branch(*op, *rs1, *rs2, offset));
            }
            Atom::JalNext { rd } => text.push(Instr::rd_imm(Opcode::Jal, *rd, 1)),
            Atom::JalrNext => {
                let after = i64::from(starts[idx]) + 2;
                text.push(Instr::rd_imm(Opcode::Li, Reg::new(JALR_TARGET), after));
                text.push(Instr::alu_ri(
                    Opcode::Jalr,
                    Reg::new(JALR_LINK),
                    Reg::new(JALR_TARGET),
                    0,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, NullTracer, RunLimits, RunStatus};

    #[test]
    fn generated_programs_are_well_formed_and_halt() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &cfg, "gen");
            assert!(
                p.control_flow_violations().is_empty(),
                "seed {seed}: ill-formed control flow:\n{p}"
            );
            let summary = run(&p, &mut NullTracer, RunLimits::with_max(100_000))
                .unwrap_or_else(|e| panic!("seed {seed}: fault {e}\n{p}"));
            assert_eq!(
                summary.status(),
                RunStatus::Halted,
                "seed {seed}: did not halt\n{p}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = gen_program(&mut Rng::seed_from_u64(42), &cfg, "a");
        let b = gen_program(&mut Rng::seed_from_u64(42), &cfg, "a");
        assert_eq!(a, b);
    }

    #[test]
    fn focus_steers_opcode_frequency() {
        let mut cfg = GenConfig {
            max_loops: 2,
            max_body: 16,
            ..GenConfig::default()
        };
        cfg.focus = Some(Opcode::Rem);
        let mut with_focus = 0usize;
        for seed in 0..50u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &cfg, "f");
            with_focus += p.text().iter().filter(|i| i.op == Opcode::Rem).count();
        }
        assert!(with_focus > 25, "focus produced only {with_focus} rem ops");
    }

    #[test]
    fn generated_programs_round_trip_through_the_assembler() {
        let cfg = GenConfig::default();
        let mut rng = Rng::seed_from_u64(9);
        let p = gen_program(&mut rng, &cfg, "rt");
        let back = vp_isa::asm::assemble(&p.to_string()).unwrap();
        assert_eq!(back.text(), p.text());
        assert_eq!(back.data(), p.data());
    }
}
