//! The ILP lanes against the reference model.
//!
//! `vp_ilp::IlpLanes` runs many §5.3 machines in one pass and reads
//! outcome columns instead of running predictors; `vp_verify::refilp::
//! IlpAnalyzer` models one machine per replay, with `u64` times and its
//! own predictor. Every lane must report exactly the reference's
//! instructions, cycles and predictor statistics: on random loops, on
//! machines reading the suite's memoised outcome columns over a reference
//! trace, with memory above the lanes' dense pages and at the top of the
//! address space, and with ready times just under the lanes' 32-bit
//! limit.

use provp_core::Suite;
use vp_ilp::{BranchConfig, CriticalityReport, IlpConfig, IlpLanes, IlpResult, LaneOutcomes};
use vp_isa::asm::assemble;
use vp_isa::Program;
use vp_predictor::{
    ClassifierKind, Outcome, OutcomeColumn, PredictorConfig, PredictorStats, TableGeometry,
};
use vp_rng::{prop, Rng};
use vp_sim::{run, FnTracer, Retirement, RunLimits, Trace};
use vp_verify::IlpAnalyzer;
use vp_workloads::WorkloadKind;

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

/// `config` run by the reference model over `program`.
fn reference(program: &Program, config: &IlpConfig) -> IlpResult {
    let mut analyzer = IlpAnalyzer::new(config.clone());
    run(program, &mut analyzer, RunLimits::default()).unwrap();
    analyzer.finish()
}

/// Runs every machine of `pool` as one lane pass over `program` and
/// asserts each equals the reference model.
fn assert_lanes_match_the_reference(program: &Program, pool: &[IlpConfig]) -> Vec<IlpResult> {
    let recorded: Vec<_> = pool.iter().map(|c| record_outcomes(program, c)).collect();
    let all: Vec<usize> = (0..pool.len()).collect();
    let (lanes, _) = run_lanes(program, pool, &recorded, &all, None);
    for (config, got) in pool.iter().zip(&lanes) {
        let want = reference(program, config);
        assert_eq!(
            (got.instructions, got.cycles, got.predictor),
            (want.instructions, want.cycles, want.predictor),
            "{config:?}"
        );
    }
    lanes
}

/// Loads and stores to words past the lanes' directly indexed pages
/// (word 2^20 and up) and at the top of the address space, mixed with
/// low words: memory rows in the high map must order loads after their
/// stores exactly as the reference's map does.
#[test]
fn lanes_equal_the_reference_above_the_dense_pages() {
    let program = assemble(
        "li r1, 1048560\nli r2, 1048600\nli r3, 5\nli r8, -40\n\
         top: sd r3, 0(r1)\nld r4, -1(r1)\nadd r3, r3, r4\n\
         sd r4, 7(r8)\nld r5, 7(r8)\nmul r6, r5, r3\nsd r6, 3(r0)\nld r7, 3(r0)\n\
         add r3, r3, r7\naddi r8, r8, 1\naddi r1, r1, 1\nbne r1, r2, top\n\
         li r5, -2\nsd r3, 1(r5)\nld r6, 1(r5)\nadd r7, r6, r6\nhalt\n",
    )
    .unwrap();
    assert_lanes_match_the_reference(&program, &machine_pool());
}

/// A loop whose value chain (four xorshift rounds per iteration) no
/// stride predictor can follow, with a data-dependent branch.
const UNPREDICTABLE_CHAIN: &str = "li r1, 0\nli r2, 150\nli r3, 12345\ntop:\n\
     slli r5, r3, 13\nxor r3, r3, r5\nsrli r5, r3, 7\nxor r3, r3, r5\n\
     slli r5, r3, 17\nxor r3, r3, r5\nsrli r5, r3, 9\nxor r3, r3, r5\n\
     andi r6, r3, 1\nbeq r6, r0, skip\naddi r7, r7, 1\nskip: addi r1, r1, 1\n\
     bne r1, r2, top\nhalt\n";

/// Machines whose largest penalty is `penalty`: a speculating lane that
/// is wrong on every chain link, and a front end that misses the
/// data-dependent branch.
fn penalised(penalty: u64) -> Vec<IlpConfig> {
    let always = PredictorConfig::TableStride {
        geometry: TableGeometry::new(64, 2),
        classifier: ClassifierKind::Always,
    };
    vec![
        IlpConfig::paper_no_vp().with_penalty(penalty),
        IlpConfig {
            predictor: Some(always),
            ..IlpConfig::paper_no_vp().with_penalty(penalty)
        },
        IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), penalty),
    ]
}

/// At the largest penalty a pass of this length accepts, instructions ×
/// (1 + penalty) is just under `u32::MAX`: the mispredicting lane's
/// ready times pass `i32::MAX`, and every lane still equals the `u64`
/// reference exactly.
#[test]
fn lanes_equal_the_reference_just_under_the_32_bit_limit() {
    let program = assemble(UNPREDICTABLE_CHAIN).unwrap();
    let instructions = reference(&program, &IlpConfig::paper_no_vp()).instructions;
    let penalty = u64::from(u32::MAX) / instructions - 1;
    assert!(instructions * (1 + penalty) <= u64::from(u32::MAX));
    let lanes = assert_lanes_match_the_reference(&program, &penalised(penalty));
    assert!(
        lanes[1].cycles > i32::MAX as u64,
        "the chain should reach high ready times: {}",
        lanes[1].cycles
    );
}

/// Lanes read memoised outcome columns; a cell first computed for its
/// stats alone (outside the paper's ILP cells) is replayed again to
/// record its column. Every machine equals its own reference replay over
/// the same trace, against the annotated program its predictor reads.
#[test]
fn ilp_machines_match_the_reference_analyzer() {
    let s = Suite::with_train_runs(1);
    let kind = WorkloadKind::Compress;
    let always = PredictorConfig::TableStride {
        geometry: TableGeometry::new(64, 2),
        classifier: ClassifierKind::Always,
    };
    let _ = s.predictor_stats(kind, always, None);
    let machines = [
        (IlpConfig::paper_no_vp(), None),
        (
            IlpConfig {
                predictor: Some(always),
                ..IlpConfig::paper_no_vp().with_penalty(2)
            },
            None,
        ),
        (IlpConfig::paper_vp_profile(), Some(0.7)),
    ];
    let lanes = s.ilp_machines(kind, &machines);
    let trace = Trace::capture(&s.reference_program(kind, None), RunLimits::default()).unwrap();
    for ((config, threshold), got) in machines.iter().zip(&lanes) {
        let mut alone = IlpAnalyzer::new(config.clone());
        trace
            .replay(&s.reference_program(kind, *threshold), &mut alone)
            .unwrap();
        let want = alone.finish();
        assert_eq!(
            (got.instructions, got.cycles, got.predictor),
            (want.instructions, want.cycles, want.predictor),
            "{config:?}"
        );
    }
}
