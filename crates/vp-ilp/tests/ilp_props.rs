//! Property tests for the abstract ILP machine: structural bounds that
//! must hold for *any* program. (That every lane equals the reference
//! model, `vp_verify::refilp::IlpAnalyzer`, is checked in `vp-verify`.)

use vp_ilp::{BranchConfig, IlpConfig, IlpLanes, IlpResult, LaneOutcomes};
use vp_isa::{Instr, Opcode, Program, Reg};
use vp_predictor::{
    ClassifierKind, Outcome, OutcomeColumn, PredictorConfig, PredictorStats, TableGeometry,
};
use vp_rng::{prop, Rng};
use vp_sim::{run, FnTracer, Retirement, RunLimits};

const ALU_OPS: [Opcode; 6] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Xor,
    Opcode::And,
    Opcode::Sltu,
];

/// Random straight-line ALU programs (no control flow, so dynamic length
/// == static length and every instruction retires once).
fn arb_linear_program(rng: &mut Rng) -> Program {
    let len = rng.gen_range(1..120usize);
    let mut text: Vec<Instr> = (0..len)
        .map(|_| {
            let op = *rng.choose(&ALU_OPS).unwrap();
            Instr::alu_rr(
                op,
                Reg::new(rng.gen_range(1..8u8)),
                Reg::new(rng.gen_range(1..8u8)),
                Reg::new(rng.gen_range(1..8u8)),
            )
        })
        .collect();
    text.push(Instr::halt());
    Program::new("prop", text, vec![1, 2, 3, 4])
}

/// The outcome of every value event of `program` under `config`'s
/// predictor, and the predictor's statistics.
fn record_outcomes(program: &Program, config: &PredictorConfig) -> (OutcomeColumn, PredictorStats) {
    let mut predictor = config.build();
    let mut column = OutcomeColumn::new();
    let mut tracer = FnTracer::new(|ev: &Retirement<'_>| {
        if let Some((_, _, value)) = ev.dest {
            column.push(Outcome::of(&predictor.access(
                ev.addr,
                ev.instr.directive,
                value,
            )));
        }
    });
    run(program, &mut tracer, RunLimits::default()).unwrap();
    let stats = *predictor.stats();
    (column, stats)
}

/// `config` alone, as a one-lane pass.
fn analyse(program: &Program, config: IlpConfig) -> IlpResult {
    let recorded = config.predictor.map(|p| record_outcomes(program, &p));
    let mut lanes = IlpLanes::new(config.window);
    let outcomes = recorded.as_ref().map(|(column, stats)| LaneOutcomes {
        column,
        stats: *stats,
    });
    lanes.lane(&config, outcomes);
    run(program, &mut lanes, RunLimits::default()).unwrap();
    lanes.finish().0.remove(0)
}

/// With unit latency: the schedule can never take longer than fully serial
/// execution, nor finish faster than the window allows.
#[test]
fn prop_cycles_bounded_by_serial_and_window() {
    prop::forall(
        "ILP cycles bounded by serial and window",
        arb_linear_program,
    )
    .check(|program| {
        for window in [1usize, 4, 40] {
            let r = analyse(program, IlpConfig::paper_no_vp().with_window(window));
            assert!(r.cycles <= r.instructions, "window {window}: {r}");
            let floor = r.instructions.div_ceil(window as u64);
            assert!(r.cycles >= floor, "window {window}: {r} vs floor {floor}");
            assert!(r.ilp() <= window as f64 + 1e-9);
        }
    });
}

/// A window-1 machine is exactly serial.
#[test]
fn prop_window_one_is_serial() {
    prop::forall("window-1 ILP machine is serial", arb_linear_program).check(|program| {
        let r = analyse(program, IlpConfig::paper_no_vp().with_window(1));
        assert_eq!(r.cycles, r.instructions);
    });
}

/// Growing the window never slows the machine down.
#[test]
fn prop_window_monotone() {
    prop::forall("ILP monotone in window size", arb_linear_program).check(|program| {
        let mut prev = u64::MAX;
        for window in [1usize, 2, 8, 40] {
            let r = analyse(program, IlpConfig::paper_no_vp().with_window(window));
            assert!(r.cycles <= prev, "window {window} got slower");
            prev = r.cycles;
        }
    });
}

/// Penalty-free value prediction can only help (speculating wrong with
/// zero penalty is equivalent to not speculating).
#[test]
fn prop_free_value_prediction_never_hurts() {
    prop::forall("free value prediction never hurts", arb_linear_program).check(|program| {
        let base = analyse(program, IlpConfig::paper_no_vp());
        let vp = analyse(
            program,
            IlpConfig {
                penalty: 0,
                predictor: Some(PredictorConfig::TableStride {
                    geometry: TableGeometry::SPEC_512_2WAY,
                    classifier: ClassifierKind::Always,
                }),
                ..IlpConfig::paper_no_vp()
            },
        );
        assert!(
            vp.cycles <= base.cycles,
            "vp {} vs base {}",
            vp.cycles,
            base.cycles
        );
    });
}

/// Machines with every knob a lane has.
fn machine_pool() -> Vec<IlpConfig> {
    vec![
        IlpConfig::paper_no_vp(),
        IlpConfig::paper_vp_fsm(),
        IlpConfig::paper_vp_fsm().with_penalty(6),
        IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8),
        IlpConfig::paper_vp_fsm().with_branch(BranchConfig::gshare_4k(), 4),
    ]
}

/// A pass over an empty trace finishes every lane at 0 cycles.
#[test]
fn empty_trace_finishes_every_lane_at_zero() {
    let empty = OutcomeColumn::new();
    let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
    for config in machine_pool() {
        let outcomes = config.predictor.map(|_| LaneOutcomes {
            column: &empty,
            stats: PredictorStats::default(),
        });
        lanes.lane(&config, outcomes);
    }
    let (results, _) = lanes.finish();
    assert_eq!(results.len(), machine_pool().len());
    for r in results {
        assert_eq!((r.instructions, r.cycles, r.ilp()), (0, 0, 0.0));
    }
}
