//! Property tests for the abstract ILP machine: structural bounds that
//! must hold for *any* program.

use vp_ilp::{
    BranchConfig, CriticalityReport, IlpAnalyzer, IlpConfig, IlpLanes, IlpResult, LaneOutcomes,
};
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

fn analyse(program: &Program, config: IlpConfig) -> vp_ilp::IlpResult {
    let mut a = IlpAnalyzer::new(config);
    run(program, &mut a, RunLimits::default()).unwrap();
    a.finish()
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

/// Random loops whose bodies mix ALU chains, loads and stores to a few
/// words, data-dependent forward branches and writes to `r0`: every
/// input the lanes decode (register and memory dependences, branch
/// outcomes, value events) varies from case to case. `r1`/`r2` hold the
/// loop count and are never written.
fn arb_loop_program(rng: &mut Rng) -> Program {
    let mut src = format!("li r1, 0\nli r2, {}\ntop:\n", rng.gen_range(2..40u32));
    for i in 0..rng.gen_range(1..14u32) {
        let (d, a, b) = (
            *rng.choose(&[0u8, 3, 4, 5, 6, 7, 8]).expect("non-empty"),
            rng.gen_range(1..9u8),
            rng.gen_range(1..9u8),
        );
        let word = rng.gen_range(0..6u32);
        match rng.gen_range(0..6u32) {
            0 => src.push_str(&format!("add r{d}, r{a}, r{b}\n")),
            1 => src.push_str(&format!("addi r{d}, r{a}, {}\n", rng.gen_range(1..9u32))),
            2 => src.push_str(&format!("mul r{d}, r{a}, r{b}\n")),
            3 => src.push_str(&format!("sd r{a}, {word}(r0)\n")),
            4 => src.push_str(&format!("ld r{d}, {word}(r0)\n")),
            _ => src.push_str(&format!(
                "andi r9, r{a}, 1\nbeq r9, r0, skip{i}\naddi r{d}, r{d}, 3\nskip{i}:\n"
            )),
        }
    }
    src.push_str("addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
    vp_isa::asm::assemble(&src).expect("generated loop assembles")
}

/// Machines the lane properties draw from: every knob a lane has.
fn machine_pool() -> Vec<IlpConfig> {
    let always = PredictorConfig::TableStride {
        geometry: TableGeometry::new(8, 2),
        classifier: ClassifierKind::Always,
    };
    vec![
        IlpConfig::paper_no_vp(),
        IlpConfig::paper_vp_fsm(),
        IlpConfig::paper_vp_fsm().with_penalty(6),
        IlpConfig {
            predictor: Some(always),
            ..IlpConfig::paper_no_vp().with_penalty(3)
        },
        IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8),
        IlpConfig::paper_vp_fsm().with_branch(BranchConfig::gshare_4k(), 4),
        IlpConfig {
            predictor: Some(always),
            ..IlpConfig::paper_no_vp().with_branch(BranchConfig::Bimodal { entries: 4 }, 2)
        },
    ]
}

/// Each predicting machine's outcome column and predictor statistics,
/// recorded by running its predictor over the program's value events.
fn record_outcomes(
    program: &Program,
    config: &IlpConfig,
) -> Option<(OutcomeColumn, PredictorStats)> {
    let mut predictor = config.predictor?.build();
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
    Some((column, stats))
}

/// Runs `machines` (indices into `pool`) as one lane pass, tracking the
/// critical path of lane `tracked` if given.
fn run_lanes(
    program: &Program,
    pool: &[IlpConfig],
    recorded: &[Option<(OutcomeColumn, PredictorStats)>],
    machines: &[usize],
    tracked: Option<usize>,
) -> (Vec<IlpResult>, Option<CriticalityReport>) {
    let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
    for &m in machines {
        let outcomes = recorded[m].as_ref().map(|(column, stats)| LaneOutcomes {
            column,
            stats: *stats,
        });
        lanes.lane(&pool[m], outcomes);
    }
    if let Some(lane) = tracked {
        lanes.track_critical_path(lane);
    }
    run(program, &mut lanes, RunLimits::default()).unwrap();
    lanes.finish()
}

/// Lanes do not interact: any subset of the machines, in any order, gives
/// each machine the result it gets alone — and alone, the result of the
/// reference analyzer that runs its own predictor. Tracking the critical
/// path of one lane changes no lane's result, and its report charges
/// every instruction exactly once.
#[test]
fn prop_lanes_are_independent_of_their_neighbours() {
    prop::forall("ILP lanes are independent", |rng: &mut Rng| {
        let program = arb_loop_program(rng);
        let mut machines: Vec<usize> = (0..machine_pool().len())
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        rng.shuffle(&mut machines);
        let tracked = (!machines.is_empty()).then(|| rng.gen_range(0..machines.len()));
        (program, machines, tracked)
    })
    .check(|(program, machines, tracked)| {
        let pool = machine_pool();
        let recorded: Vec<_> = pool.iter().map(|c| record_outcomes(program, c)).collect();
        let (together, none) = run_lanes(program, &pool, &recorded, machines, None);
        assert_eq!(together.len(), machines.len());
        assert!(none.is_none());
        if let Some(lane) = *tracked {
            let (with, report) = run_lanes(program, &pool, &recorded, machines, Some(lane));
            for (a, b) in with.iter().zip(&together) {
                assert_eq!(
                    (a.instructions, a.cycles, a.predictor),
                    (b.instructions, b.cycles, b.predictor),
                    "tracking lane {lane} of {machines:?}"
                );
            }
            let report = report.expect("a tracked pass reports");
            assert_eq!(report.instructions, together[lane].instructions);
            assert_eq!(
                report.structural + report.data_bound(),
                report.instructions,
                "tracking lane {lane} of {machines:?}"
            );
        }
        for (&m, got) in machines.iter().zip(&together) {
            let alone = run_lanes(program, &pool, &recorded, &[m], None).0.remove(0);
            let mut reference = IlpAnalyzer::new(pool[m].clone());
            run(program, &mut reference, RunLimits::default()).unwrap();
            let reference = reference.finish();
            for other in [&alone, &reference] {
                assert_eq!(
                    (got.instructions, got.cycles, got.predictor),
                    (other.instructions, other.cycles, other.predictor),
                    "machine {m} ({:?}) among {machines:?}",
                    pool[m]
                );
            }
        }
    });
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
